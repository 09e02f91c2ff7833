#include "fuzz/fuzz_case.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "base/strings.h"
#include "blif/blif.h"

namespace mcrt {

const char* oracle_name(OracleKind kind) noexcept {
  switch (kind) {
    case OracleKind::kSerialVsBulk: return "serial-vs-bulk";
    case OracleKind::kEngineVsReference: return "engine-vs-reference";
  }
  return "serial-vs-bulk";
}

std::optional<OracleKind> oracle_from_name(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kOracleCount; ++i) {
    const auto kind = static_cast<OracleKind>(i);
    if (name == oracle_name(kind)) return kind;
  }
  return std::nullopt;
}

std::size_t clock_domain_count(const Netlist& netlist) {
  std::vector<std::uint32_t> clocks;
  clocks.reserve(netlist.register_count());
  for (const Register& reg : netlist.registers()) {
    clocks.push_back(reg.clk.value());
  }
  std::sort(clocks.begin(), clocks.end());
  clocks.erase(std::unique(clocks.begin(), clocks.end()), clocks.end());
  return clocks.size();
}

std::string write_repro_string(const FuzzCase& c) {
  std::string out = "# mcrt-fuzz-repro/1\n";
  out += "name: " + c.name + "\n";
  out += str_format("seed: %llu\n",
                    static_cast<unsigned long long>(c.seed));
  out += std::string("oracle: ") + oracle_name(c.oracle) + "\n";
  if (!c.break_spec.empty()) out += "break: " + c.break_spec + "\n";
  out += "script: " + c.script + "\n";
  out += "blif:\n";
  out += write_blif_string(c.netlist, c.name.empty() ? "fuzz" : c.name);
  return out;
}

bool write_repro_file(const FuzzCase& c, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) return false;
  out << write_repro_string(c);
  return out.good();
}

std::variant<FuzzCase, std::string> read_repro_string(
    const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "# mcrt-fuzz-repro/1") {
    return std::string("not an mcrt-fuzz-repro/1 file (bad first line)");
  }
  FuzzCase c;
  bool have_seed = false;
  bool have_oracle = false;
  bool have_script = false;
  const auto field = [&line](const char* key) -> std::optional<std::string> {
    const std::string prefix = std::string(key) + ": ";
    if (!starts_with(line, prefix)) return std::nullopt;
    return line.substr(prefix.size());
  };
  while (std::getline(in, line)) {
    if (line == "blif:") {
      if (!have_seed || !have_oracle || !have_script) {
        return std::string("missing seed/oracle/script header before blif:");
      }
      std::string blif((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      auto parsed = read_blif_string(blif);
      if (const auto* err = std::get_if<BlifError>(&parsed)) {
        return str_format("embedded blif line %zu: %s", err->line,
                          err->message.c_str());
      }
      c.netlist = std::move(std::get<Netlist>(parsed));
      const auto problems = c.netlist.validate();
      if (!problems.empty()) {
        return "embedded circuit does not validate: " + problems.front();
      }
      return c;
    }
    if (const auto v = field("name")) {
      c.name = *v;
    } else if (const auto v = field("seed")) {
      c.seed = std::strtoull(v->c_str(), nullptr, 10);
      have_seed = true;
    } else if (const auto v = field("oracle")) {
      const auto kind = oracle_from_name(*v);
      if (!kind.has_value()) return "unknown oracle: " + *v;
      c.oracle = *kind;
      have_oracle = true;
    } else if (const auto v = field("break")) {
      c.break_spec = *v;
    } else if (const auto v = field("script")) {
      c.script = *v;
      have_script = true;
    } else if (!line.empty()) {
      return "unrecognized header line: " + line;
    }
  }
  return std::string("truncated reproducer (no blif: section)");
}

std::variant<FuzzCase, std::string> read_repro_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return "cannot read " + path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return read_repro_string(text);
}

}  // namespace mcrt
