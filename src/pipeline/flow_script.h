// Flow-script parser: a tiny language for composing pass pipelines.
//
//   script  := stmt (';' stmt)* ';'?
//   stmt    := name ['(' args ')']
//   args    := arg (',' arg)*
//   arg     := key ['=' value]
//   name    := [A-Za-z0-9_-]+        key/value likewise (value also '.')
//
// Whitespace is insignificant between tokens; empty statements (stray
// semicolons) are allowed and skipped. Examples:
//
//   "sweep; strash; retime(target=24,no-sharing); map(k=4)"
//   "decompose-sync; sweep; map"
//
// parse_flow_script() turns a script into PassSpecs; compile_flow_script()
// additionally instantiates and configures each pass from a registry into
// a PassManager, turning unknown names or bad arguments into one clear
// error message. Parse errors carry the 1-based line/column and the
// offending token, so multi-line scripts report "line 3, column 14:
// expected ';' (near 'strash')" instead of a bare byte offset.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "pipeline/pass.h"
#include "pipeline/pass_manager.h"

namespace mcrt {

/// One `name(arg,...)` statement of a flow script.
struct PassSpec {
  std::string name;
  PassArgs args;
  std::size_t offset = 0;  ///< byte offset of the statement in the script
};

struct FlowScriptError {
  std::size_t offset = 0;  ///< byte offset of the offending character
  std::size_t line = 1;    ///< 1-based line of the offending character
  std::size_t column = 1;  ///< 1-based column within that line
  std::string token;  ///< the offending token ("end of script" at the end)
  std::string message;

  /// "line L, column C: <message> (near '<token>')" — what the CLI prints.
  [[nodiscard]] std::string format() const;
};

std::variant<std::vector<PassSpec>, FlowScriptError> parse_flow_script(
    std::string_view script);

/// Builds a located error for an arbitrary byte offset of `script`: fills in
/// the 1-based line/column and the token at the offset (the word starting
/// there, the single character, or "end of script"). The parser uses it for
/// syntax errors; compile_flow_script uses it to attribute configure()-time
/// failures (e.g. `retime(cslow=x)`) to the offending argument.
[[nodiscard]] FlowScriptError locate_in_script(std::string_view script,
                                               std::size_t offset,
                                               std::string message);

/// Parses `script`, instantiates each pass from `registry` and configures
/// it with its arguments, appending to `manager`. Returns an error message
/// (with script offset and, for unknown passes, the available names), or
/// std::nullopt on success. On error `manager` may hold a prefix of the
/// script's passes; discard it.
std::optional<std::string> compile_flow_script(std::string_view script,
                                               const PassRegistry& registry,
                                               PassManager& manager);

}  // namespace mcrt
