// Flow-script parsing: the grammar of docs/PIPELINE.md, including the
// error paths a CLI user will hit.
#include "pipeline/flow_script.h"

#include <gtest/gtest.h>

#include "pipeline/pass_manager.h"

namespace mcrt {
namespace {

std::vector<PassSpec> parse_ok(std::string_view script) {
  auto parsed = parse_flow_script(script);
  const auto* specs = std::get_if<std::vector<PassSpec>>(&parsed);
  EXPECT_NE(specs, nullptr) << "script failed to parse: " << script;
  return specs != nullptr ? *specs : std::vector<PassSpec>{};
}

FlowScriptError parse_err(std::string_view script) {
  auto parsed = parse_flow_script(script);
  const auto* err = std::get_if<FlowScriptError>(&parsed);
  EXPECT_NE(err, nullptr) << "script unexpectedly parsed: " << script;
  return err != nullptr ? *err : FlowScriptError{};
}

TEST(FlowScriptTest, SingleName) {
  const auto specs = parse_ok("sweep");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].name, "sweep");
  EXPECT_TRUE(specs[0].args.empty());
}

TEST(FlowScriptTest, SequenceWithWhitespaceAndTrailingSemicolon) {
  const auto specs = parse_ok("  sweep ;strash;  regsweep ; ");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "sweep");
  EXPECT_EQ(specs[1].name, "strash");
  EXPECT_EQ(specs[2].name, "regsweep");
}

TEST(FlowScriptTest, EmptyStatementsAreSkipped) {
  const auto specs = parse_ok(";; sweep ;; strash ;;");
  ASSERT_EQ(specs.size(), 2u);
}

TEST(FlowScriptTest, ArgumentsKeyValueAndFlags) {
  const auto specs = parse_ok("retime(target=24, no-sharing); map(k=4,d=10)");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].args.value("target"), "24");
  EXPECT_TRUE(specs[0].args.flag("no-sharing"));
  EXPECT_FALSE(specs[0].args.flag("minperiod"));
  EXPECT_EQ(specs[1].args.value("k"), "4");
  EXPECT_EQ(specs[1].args.value("d"), "10");
}

TEST(FlowScriptTest, EmptyArgumentList) {
  const auto specs = parse_ok("sweep()");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_TRUE(specs[0].args.empty());
}

TEST(FlowScriptTest, NegativeValueParses) {
  const auto specs = parse_ok("retime(target=-5)");
  ASSERT_EQ(specs.size(), 1u);
  std::string error;
  EXPECT_EQ(specs[0].args.int_value("target", &error), -5);
}

TEST(FlowScriptTest, OffsetsPointIntoTheScript) {
  const auto specs = parse_ok("sweep; strash");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].offset, 0u);
  EXPECT_EQ(specs[1].offset, 7u);
}

TEST(FlowScriptTest, UnterminatedArgumentListFails) {
  const auto err = parse_err("retime(target=24");
  EXPECT_NE(err.message.find("unterminated"), std::string::npos);
}

TEST(FlowScriptTest, MissingValueAfterEqualsFails) {
  const auto err = parse_err("retime(target=)");
  EXPECT_NE(err.message.find("target"), std::string::npos);
}

TEST(FlowScriptTest, GarbageBetweenStatementsFails) {
  const auto err = parse_err("sweep strash");
  EXPECT_NE(err.message.find("expected ';'"), std::string::npos);
}

TEST(FlowScriptTest, BadCharacterFails) {
  parse_err("sweep; !");
  parse_err("retime(,)");
  parse_err("map(k=4 d=10)");
}

TEST(FlowScriptTest, MalformedScriptTable) {
  // One row per malformed-script shape: every diagnostic must carry the
  // 1-based line/column of the offending character, the offending token,
  // and a message naming the construct.
  struct Row {
    const char* script;
    std::size_t line;
    std::size_t column;
    const char* token;
    const char* message_fragment;
  };
  const Row rows[] = {
      {"sweep strash", 1, 7, "strash", "expected ';'"},
      {"sweep;\nstrash;\nretime(d=10) map", 3, 14, "map", "expected ';'"},
      {"retime(target=24", 1, 17, "end of script", "unterminated"},
      {"retime(target=)", 1, 15, ")", "missing its value"},
      {"sweep; !", 1, 8, "!", "expected pass name"},
      {"map(k=4 d=10)", 1, 9, "d", "expected ',' or ')'"},
      {"retime(,)", 1, 8, ",", "expected argument name"},
      {"sweep;\nretime(\n  target=\n)", 4, 1, ")", "missing its value"},
  };
  for (const Row& row : rows) {
    const FlowScriptError err = parse_err(row.script);
    EXPECT_EQ(err.line, row.line) << row.script;
    EXPECT_EQ(err.column, row.column) << row.script;
    EXPECT_EQ(err.token, row.token) << row.script;
    EXPECT_NE(err.message.find(row.message_fragment), std::string::npos)
        << row.script << " -> " << err.message;
    // Line/column must agree with the byte offset.
    std::size_t line = 1;
    std::size_t column = 1;
    const std::string_view text = row.script;
    for (std::size_t i = 0; i < err.offset && i < text.size(); ++i) {
      if (text[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    EXPECT_EQ(err.line, line) << row.script;
    EXPECT_EQ(err.column, column) << row.script;
  }
}

TEST(FlowScriptTest, ErrorFormatIsHumanReadable) {
  const FlowScriptError err = parse_err("sweep strash");
  EXPECT_EQ(err.format(),
            "line 1, column 7: expected ';' after pass 'sweep', got 's' "
            "(near 'strash')");
}

TEST(FlowScriptTest, IntValueRejectsGarbage) {
  const auto specs = parse_ok("retime(target=banana)");
  std::string error;
  EXPECT_EQ(specs[0].args.int_value("target", &error), std::nullopt);
  EXPECT_NE(error.find("banana"), std::string::npos);
}

TEST(FlowScriptTest, IntValueRejectsOverflow) {
  const auto specs = parse_ok("retime(d=99999999999999999999)");
  std::string error;
  EXPECT_EQ(specs[0].args.int_value("d", &error), std::nullopt);
  EXPECT_NE(error.find("overflows"), std::string::npos);
}

TEST(FlowScriptTest, IntValueInRangeChecksBounds) {
  const auto specs = parse_ok("map(k=7)");
  std::string error;
  EXPECT_EQ(specs[0].args.int_value_in_range("k", 2, 8, &error), 7);
  EXPECT_EQ(specs[0].args.int_value_in_range("k", 2, 6, &error),
            std::nullopt);
  EXPECT_NE(error.find("between 2 and 6"), std::string::npos);
  // An absent key is not an error.
  error.clear();
  EXPECT_EQ(specs[0].args.int_value_in_range("missing", 1, 4, &error),
            std::nullopt);
  EXPECT_TRUE(error.empty());
}

TEST(FlowScriptTest, ArgOffsetsRecordedForDiagnostics) {
  const std::string script = "sweep;\nmap(d=10,k=0)";
  const auto specs = parse_ok(script);
  ASSERT_EQ(specs.size(), 2u);
  std::string error;
  EXPECT_EQ(specs[1].args.int_value_in_range("k", 2, 6, &error),
            std::nullopt);
  const auto offset = specs[1].args.last_error_offset();
  ASSERT_TRUE(offset.has_value());
  EXPECT_EQ(script[*offset], '0');  // points at the value, not the key
  const FlowScriptError located =
      locate_in_script(script, *offset, std::move(error));
  EXPECT_EQ(located.line, 2u);
  EXPECT_EQ(located.token, "0");
}

TEST(FlowScriptCompileTest, UnknownPassNamesAvailablePasses) {
  PassManager manager;
  const auto error =
      compile_flow_script("sweep; frobnicate", PassRegistry::standard(),
                          manager);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("frobnicate"), std::string::npos);
  EXPECT_NE(error->find("sweep"), std::string::npos);  // the available list
}

TEST(FlowScriptCompileTest, UnknownArgumentRejected) {
  PassManager manager;
  const auto error = compile_flow_script("sweep(k=4)",
                                         PassRegistry::standard(), manager);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("does not take argument"), std::string::npos);
}

TEST(FlowScriptCompileTest, MalformedIntArgumentRejected) {
  PassManager manager;
  const auto error = compile_flow_script("map(k=four)",
                                         PassRegistry::standard(), manager);
  ASSERT_TRUE(error.has_value());
}

TEST(FlowScriptCompileTest, EmptyScriptRejected) {
  PassManager manager;
  EXPECT_TRUE(compile_flow_script("", PassRegistry::standard(), manager)
                  .has_value());
  EXPECT_TRUE(compile_flow_script(" ;; ", PassRegistry::standard(), manager)
                  .has_value());
}

TEST(FlowScriptCompileTest, IntOptionsCompile) {
  PassManager manager;
  EXPECT_EQ(compile_flow_script("map(k=2); map(k=6)", PassRegistry::standard(),
                                manager),
            std::nullopt);
  EXPECT_EQ(compile_flow_script("retime(target=24,d=10)",
                                PassRegistry::standard(), manager),
            std::nullopt);
}

TEST(FlowScriptCompileTest, MalformedIntOptionTable) {
  // Configure-time failures must be located like syntax errors: line/column
  // of the offending argument value plus the token, via the offsets the
  // parser records into PassArgs.
  struct Row {
    const char* script;
    const char* message_fragment;
    const char* location_fragment;  // "line L, column C"
    const char* near;
  };
  const Row rows[] = {
      {"map(k=0)", "must be between 2 and 6", "line 1, column 7", "0"},
      {"map(k=7)", "must be between 2 and 6", "line 1, column 7", "7"},
      // Above 2^32: must not wrap into range when narrowed to 32 bits.
      {"map(k=4294967298)", "must be between 2 and 6", "line 1, column 7",
       "4294967298"},
      {"map(k=x)", "not an integer", "line 1, column 7", "x"},
      {"map(k=99999999999999999999)", "overflows", "line 1, column 7",
       "99999999999999999999"},
      {"map(k=-2)", "must be between", "line 1, column 7", "-2"},
      {"sweep;\nmap(d=10,k=0)", "must be between", "line 2, column 12", "0"},
      {"map(k)", "needs an integer value", "line 1, column 5", "k"},
      {"map(area-recovery,k=banana)", "not an integer", "line 1, column 21",
       "banana"},
      // A failure not tied to one argument points at the pass.
      {"verify(bmc,formal)", "pick one of bmc, formal, sim",
       "line 1, column 1", "verify"},
  };
  for (const Row& row : rows) {
    PassManager manager;
    const auto error =
        compile_flow_script(row.script, PassRegistry::standard(), manager);
    ASSERT_TRUE(error.has_value()) << row.script;
    EXPECT_NE(error->find(row.message_fragment), std::string::npos)
        << row.script << " -> " << *error;
    EXPECT_NE(error->find(row.location_fragment), std::string::npos)
        << row.script << " -> " << *error;
    EXPECT_NE(error->find(std::string("near '") + row.near + "'"),
              std::string::npos)
        << row.script << " -> " << *error;
  }
}

TEST(FlowScriptCompileTest, GoodScriptBuildsConfiguredPasses) {
  PassManager manager;
  const auto error = compile_flow_script(
      "sweep; retime(target=24,no-sharing); map(k=6)",
      PassRegistry::standard(), manager);
  EXPECT_EQ(error, std::nullopt);
  ASSERT_EQ(manager.size(), 3u);
  EXPECT_EQ(manager.passes()[0]->name(), "sweep");
  EXPECT_EQ(manager.passes()[1]->name(), "retime");
  EXPECT_EQ(manager.passes()[2]->name(), "map");
}

}  // namespace
}  // namespace mcrt
