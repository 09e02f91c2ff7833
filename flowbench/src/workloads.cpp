// The four workloads (see ../README.md for why each was chosen). Every
// design comes from a fixed generator seed; the run's --seed only reorders
// the blocks of each input BLIF (reorder_blif). That changes node ids and
// so every tie-break, but not the circuit, so all seeds give comparable
// traffic. Regenerating the circuits per seed swung C6 between 1 and 8
// relocation attempts, and a pass's time by 65%.
#include "base/rng.h"
#include "flowbench.h"

namespace mcrt::flowbench {
namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) | 1;
}

// `copies` designs of about `gates` gates each, named s<gates>.<i>.
void add_scaled(std::size_t gates, std::size_t copies, bool async,
                std::vector<CircuitProfile>* out) {
  for (std::size_t i = 0; i < copies; ++i) {
    CircuitProfile p = scaled_profile(gates, mix(gates, i));
    p.use_async = async;
    p.name = "s" + std::to_string(gates) + "." + std::to_string(i);
    out->push_back(std::move(p));
  }
}

}  // namespace

bool make_workload(const std::string& name, Workload* out) {
  out->name = name;
  if (name == "paper_table2") {
    out->flow = FlowKind::kMappedMinArea;
    out->designs = paper_suite();
  } else if (name == "scaled_minarea") {
    out->flow = FlowKind::kMappedMinArea;
    add_scaled(2000, 1, false, &out->designs);
  } else if (name == "gate_minperiod") {
    out->flow = FlowKind::kGateMinPeriod;
    add_scaled(1000, 4, true, &out->designs);
    add_scaled(2000, 1, true, &out->designs);
  } else if (name == "large_windowed") {
    out->flow = FlowKind::kWindowedMinPeriod;
    add_scaled(12000, 1, false, &out->designs);
  } else {
    return false;
  }
  return true;
}

std::string reorder_blif(const std::string& text, std::uint64_t seed) {
  // Split into header lines, body blocks (a line starting with '.' plus its
  // cube rows) and the trailing .end; shuffle the body blocks.
  std::vector<std::string> header;
  std::vector<std::string> blocks;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size() - 1;
    const std::string line = text.substr(pos, end + 1 - pos);
    pos = end + 1;
    if (line.rfind(".model", 0) == 0 || line.rfind(".inputs", 0) == 0 ||
        line.rfind(".outputs", 0) == 0) {
      header.push_back(line);
    } else if (line.rfind(".end", 0) == 0) {
      continue;
    } else if (line[0] == '.' || blocks.empty()) {
      blocks.push_back(line);
    } else {
      blocks.back() += line;
    }
  }
  Rng rng(seed);
  for (std::size_t i = blocks.size(); i > 1; --i) {
    std::swap(blocks[i - 1], blocks[rng.below(i)]);
  }
  std::string out;
  out.reserve(text.size());
  for (const std::string& line : header) out += line;
  for (const std::string& block : blocks) out += block;
  out += ".end\n";
  return out;
}

}  // namespace mcrt::flowbench
