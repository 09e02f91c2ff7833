#include "fuzz/shrinker.h"

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "base/strings.h"
#include "pipeline/flow_script.h"

namespace mcrt {
namespace {

std::string render_script(const std::vector<PassSpec>& specs) {
  std::string out;
  for (const PassSpec& spec : specs) {
    if (!out.empty()) out += "; ";
    out += spec.name;
    if (spec.args.entries().empty()) continue;
    out += '(';
    bool first = true;
    for (const auto& [key, value] : spec.args.entries()) {
      if (!first) out += ',';
      first = false;
      out += key;
      if (!value.empty()) {
        out += '=';
        out += value;
      }
    }
    out += ')';
  }
  return out;
}

std::size_t case_size(const FuzzCase& c) {
  const Netlist::Stats s = c.netlist.stats();
  return s.luts + s.registers;
}

class Shrinker {
 public:
  Shrinker(const FuzzCase& failing, const ShrinkOptions& options)
      : best_(failing), options_(options),
        deadline_(std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          options.budget_seconds > 0 ? options.budget_seconds
                                                     : 1e9))) {}

  ShrinkResult run() {
    ShrinkResult result;
    result.before = best_.netlist.stats();
    if (!fails(best_)) {
      result.minimized = best_;
      result.after = result.before;
      result.oracle_runs = runs_;
      return result;
    }
    bool progress = true;
    while (progress && result.rounds < options_.max_rounds && !exhausted()) {
      ++result.rounds;
      progress = false;
      progress |= shrink_script();
      progress |= shrink_outputs();
      progress |= shrink_cuts();
    }
    result.minimized = best_;
    result.still_failing = true;
    result.oracle_runs = runs_;
    result.after = best_.netlist.stats();
    return result;
  }

 private:
  bool exhausted() const {
    return runs_ >= options_.max_oracle_runs ||
           std::chrono::steady_clock::now() >= deadline_;
  }

  bool fails(const FuzzCase& candidate) {
    ++runs_;
    return !run_oracle(candidate, options_.oracle).pass;
  }

  bool accept_if_failing(FuzzCase candidate) {
    if (exhausted()) return false;
    if (!fails(candidate)) return false;
    best_ = std::move(candidate);
    return true;
  }

  /// Drop one flow-script statement at a time.
  bool shrink_script() {
    bool progress = false;
    bool retry = true;
    while (retry && !exhausted()) {
      retry = false;
      auto parsed = parse_flow_script(best_.script);
      auto* specs = std::get_if<std::vector<PassSpec>>(&parsed);
      if (specs == nullptr || specs->size() <= 1) return progress;
      for (std::size_t i = 0; i < specs->size(); ++i) {
        std::vector<PassSpec> reduced = *specs;
        reduced.erase(reduced.begin() + static_cast<std::ptrdiff_t>(i));
        FuzzCase candidate = best_;
        candidate.script = render_script(reduced);
        if (accept_if_failing(std::move(candidate))) {
          progress = true;
          retry = true;  // re-parse the shorter script
          break;
        }
        if (exhausted()) return progress;
      }
    }
    return progress;
  }

  /// Drop one primary output at a time, pruning the logic only it saw.
  bool shrink_outputs() {
    bool progress = false;
    bool retry = true;
    while (retry && !exhausted()) {
      retry = false;
      const std::size_t n = best_.netlist.outputs().size();
      if (n <= 1) return progress;
      for (std::size_t drop = 0; drop < n; ++drop) {
        std::vector<std::size_t> keep;
        keep.reserve(n - 1);
        for (std::size_t i = 0; i < n; ++i) {
          if (i != drop) keep.push_back(i);
        }
        FuzzCase candidate = best_;
        candidate.netlist =
            extract_cone(best_.netlist, keep,
                         std::vector<char>(best_.netlist.net_count(), 0));
        if (case_size(candidate) >= case_size(best_) &&
            candidate.netlist.outputs().size() >=
                best_.netlist.outputs().size()) {
          continue;  // nothing actually got smaller
        }
        if (accept_if_failing(std::move(candidate))) {
          progress = true;
          retry = true;
          break;
        }
        if (exhausted()) return progress;
      }
    }
    return progress;
  }

  /// Promote internal nets to primary inputs, cutting their driving cones.
  bool shrink_cuts() {
    bool progress = false;
    bool retry = true;
    while (retry && !exhausted()) {
      retry = false;
      const Netlist& n = best_.netlist;
      std::vector<std::size_t> keep_all(n.outputs().size());
      for (std::size_t i = 0; i < keep_all.size(); ++i) keep_all[i] = i;
      for (std::size_t net = 0; net < n.net_count(); ++net) {
        const NetDriver& driver = n.net(NetId{static_cast<std::uint32_t>(net)})
                                      .driver;
        const bool cuttable =
            driver.kind == NetDriver::Kind::kRegister ||
            (driver.kind == NetDriver::Kind::kNode &&
             n.node(NodeId{driver.index}).kind == NodeKind::kLut &&
             !n.node(NodeId{driver.index}).fanins.empty());
        if (!cuttable) continue;
        std::vector<char> cut(n.net_count(), 0);
        cut[net] = 1;
        FuzzCase candidate = best_;
        candidate.netlist = extract_cone(n, keep_all, cut);
        if (case_size(candidate) >= case_size(best_)) continue;
        if (accept_if_failing(std::move(candidate))) {
          progress = true;
          retry = true;  // net ids changed; restart the scan
          break;
        }
        if (exhausted()) return progress;
      }
    }
    return progress;
  }

  FuzzCase best_;
  ShrinkOptions options_;
  std::chrono::steady_clock::time_point deadline_;
  std::size_t runs_ = 0;
};

}  // namespace

Netlist extract_cone(const Netlist& netlist,
                     const std::vector<std::size_t>& keep_outputs,
                     const std::vector<char>& cut) {
  const std::size_t net_count = netlist.net_count();
  std::vector<char> needed(net_count, 0);
  std::vector<NetId> stack;
  const auto need = [&](NetId id) {
    if (id.valid() && !needed[id.index()]) {
      needed[id.index()] = 1;
      stack.push_back(id);
    }
  };
  for (std::size_t i : keep_outputs) {
    need(netlist.node(netlist.outputs()[i]).fanins.front());
  }
  while (!stack.empty()) {
    const NetId id = stack.back();
    stack.pop_back();
    if (id.index() < cut.size() && cut[id.index()]) continue;
    const NetDriver& driver = netlist.net(id).driver;
    if (driver.kind == NetDriver::Kind::kNode) {
      for (NetId fanin : netlist.node(NodeId{driver.index}).fanins) {
        need(fanin);
      }
    } else if (driver.kind == NetDriver::Kind::kRegister) {
      const Register& reg = netlist.reg(RegId{driver.index});
      need(reg.d);
      need(reg.clk);
      need(reg.en);
      need(reg.sync_ctrl);
      need(reg.async_ctrl);
    }
  }

  // Two-phase rebuild: create every surviving net first (so register
  // feedback cycles resolve), then attach drivers in original id order.
  Netlist out;
  std::vector<NetId> map(net_count);
  for (std::size_t i = 0; i < net_count; ++i) {
    if (!needed[i]) continue;
    const NetId old{static_cast<std::uint32_t>(i)};
    std::string name = netlist.net(old).name;
    const bool is_cut = i < cut.size() && cut[i] != 0;
    if (name.empty() && is_cut) name = str_format("cut%zu", i);
    map[i] = out.add_net(std::move(name));
  }
  const auto remap = [&](NetId id) {
    return id.valid() && needed[id.index()] ? map[id.index()] : NetId{};
  };
  for (std::size_t i = 0; i < net_count; ++i) {
    if (!needed[i]) continue;
    const NetId old{static_cast<std::uint32_t>(i)};
    const NetDriver& driver = netlist.net(old).driver;
    const bool is_cut = i < cut.size() && cut[i] != 0;
    if (is_cut || driver.kind == NetDriver::Kind::kNone ||
        (driver.kind == NetDriver::Kind::kNode &&
         netlist.node(NodeId{driver.index}).kind == NodeKind::kInput)) {
      (void)out.add_input_driving(map[i]);
      continue;
    }
    if (driver.kind == NetDriver::Kind::kNode) {
      const Node& node = netlist.node(NodeId{driver.index});
      std::vector<NetId> fanins;
      fanins.reserve(node.fanins.size());
      for (NetId fanin : node.fanins) fanins.push_back(remap(fanin));
      const NodeId added = out.add_lut_driving(map[i], node.function,
                                               std::move(fanins));
      out.node(added).delay = node.delay;
      out.node(added).name = node.name;
      continue;
    }
    const Register& reg = netlist.reg(RegId{driver.index});
    Register spec;
    spec.d = remap(reg.d);
    spec.q = map[i];
    spec.clk = remap(reg.clk);
    spec.en = remap(reg.en);
    spec.sync_ctrl = remap(reg.sync_ctrl);
    spec.async_ctrl = remap(reg.async_ctrl);
    spec.sync_val = reg.sync_val;
    spec.async_val = reg.async_val;
    spec.name = reg.name;
    (void)out.add_register(std::move(spec));
  }
  for (std::size_t i : keep_outputs) {
    const Node& node = netlist.node(netlist.outputs()[i]);
    (void)out.add_output(node.name, remap(node.fanins.front()));
  }
  return out;
}

ShrinkResult shrink_case(const FuzzCase& failing,
                         const ShrinkOptions& options) {
  return Shrinker(failing, options).run();
}

}  // namespace mcrt
