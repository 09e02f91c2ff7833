// The unit of a flow: a named netlist-to-netlist transformation step.
//
// A Pass wraps one library entry point (sweep, strash, FlowMap, mc-retime,
// ...) behind a uniform interface so the PassManager can sequence, time and
// check any combination of them. Passes are configured once — either
// programmatically or from flow-script arguments via configure() — and then
// run against a FlowContext. A pass mutates context.netlist() in place (or
// replaces it), records metrics, and returns a PassResult describing what
// happened.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "pipeline/flow_context.h"

namespace mcrt {

/// Arguments attached to a pass in a flow script:
/// `retime(target=24,no-sharing)` yields {"target": "24"} plus the bare
/// flag "no-sharing". Bare keys store an empty value and read as flags.
class PassArgs {
 public:
  /// `key_offset` / `value_offset` are byte positions in the flow script the
  /// argument came from (the parser records them); npos when the args were
  /// built programmatically. They let compile_flow_script() attribute a
  /// configure()-time failure (`map(k=x)`) to the exact column.
  static constexpr std::size_t kNoOffset = static_cast<std::size_t>(-1);

  void set(std::string key, std::string value,
           std::size_t key_offset = kNoOffset,
           std::size_t value_offset = kNoOffset) {
    offsets_[key] = {key_offset, value_offset};
    entries_[std::move(key)] = std::move(value);
  }
  [[nodiscard]] bool contains(const std::string& key) const {
    return entries_.count(key) != 0;
  }
  /// A flag is any key present, with or without a value.
  [[nodiscard]] bool flag(const std::string& key) const {
    return contains(key);
  }
  [[nodiscard]] std::optional<std::string> value(const std::string& key) const;
  /// Parses the value of `key` as a decimal integer. On a present but
  /// malformed or out-of-range value, returns std::nullopt, sets *error and
  /// records the value's script offset in last_error_offset().
  [[nodiscard]] std::optional<std::int64_t> int_value(const std::string& key,
                                                     std::string* error) const;
  /// int_value() plus an inclusive range check (`k=7` and overflow get
  /// the same located diagnostics as `k=x`).
  [[nodiscard]] std::optional<std::int64_t> int_value_in_range(
      const std::string& key, std::int64_t min, std::int64_t max,
      std::string* error) const;
  [[nodiscard]] const std::map<std::string, std::string>& entries()
      const noexcept {
    return entries_;
  }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// True when every key is in `known`; otherwise sets *error naming the
  /// first stray key. Passes call this first in configure().
  bool expect_keys(std::span<const std::string_view> known,
                   std::string_view pass_name, std::string* error) const;
  bool expect_keys(std::initializer_list<std::string_view> known,
                   std::string_view pass_name, std::string* error) const {
    return expect_keys(std::span(known.begin(), known.size()), pass_name,
                       error);
  }

  /// Script offset of the argument behind the most recent int_value /
  /// int_value_in_range / expect_keys failure (nullopt when none failed or
  /// the args carry no offsets). Read by compile_flow_script.
  [[nodiscard]] std::optional<std::size_t> last_error_offset() const noexcept {
    return last_error_offset_;
  }

 private:
  struct ArgOffsets {
    std::size_t key = kNoOffset;
    std::size_t value = kNoOffset;
  };
  void note_error_offset(const std::string& key, bool prefer_value) const;

  std::map<std::string, std::string> entries_;
  std::map<std::string, ArgOffsets> offsets_;
  /// Error breadcrumb, not logical state (configure() reports errors via
  /// plain std::string* and cannot carry positions itself).
  mutable std::optional<std::size_t> last_error_offset_;
};

struct PassResult {
  bool success = true;
  std::string error;    ///< why the pass failed (success == false)
  std::string summary;  ///< one-line result note, e.g. "removed 3 nodes"

  static PassResult ok(std::string summary = {}) {
    PassResult r;
    r.summary = std::move(summary);
    return r;
  }
  static PassResult fail(std::string error) {
    PassResult r;
    r.success = false;
    r.error = std::move(error);
    return r;
  }
};

class Pass {
 public:
  virtual ~Pass() = default;

  /// Script name and registry key, e.g. "sweep".
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// One-line description for `mcrt flow` help output.
  [[nodiscard]] virtual std::string_view description() const = 0;

  /// Applies flow-script arguments. Returns false and sets *error on an
  /// unknown key or malformed value. Default: the pass takes no arguments.
  virtual bool configure(const PassArgs& args, std::string* error);

  /// True when run() consults context.reference (the flow-input netlist).
  /// The PassManager snapshots the input into the context before the first
  /// pass iff some pass in the pipeline needs it.
  [[nodiscard]] virtual bool needs_reference() const { return false; }

  /// Transforms context.netlist(). Must leave the netlist in a valid state
  /// on success; on failure the manager stops the flow.
  virtual PassResult run(FlowContext& context) = 0;
};

}  // namespace mcrt
