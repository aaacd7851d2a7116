// Tests for csblint (src/lint/): the determinism & concurrency static
// analysis that enforces the repo's byte-identical-parallelism contract.
//
// Fixture files under tests/data/lint/ carry "// VIOLATION" markers on every
// line a rule must flag; each fixture also contains exactly one suppressed
// case, so the tests prove both 100% detection of the seeded violations and
// that suppression comments silence exactly one line.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "lint/lexer.hpp"
#include "lint/lint.hpp"
#include "lint/rules.hpp"
#include "lint/sarif.hpp"
#include "lint/scopes.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"

namespace csb::lint {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string fixture(const std::string& name) {
  return read_file(std::string(CSB_TEST_DATA_DIR) + "/lint/" + name);
}

/// 1-based line numbers carrying a "// VIOLATION" marker comment.
std::set<int> marker_lines(const std::string& content) {
  std::set<int> lines;
  std::istringstream in(content);
  std::string line;
  int number = 0;
  while (std::getline(in, line)) {
    ++number;
    if (line.find("// VIOLATION") != std::string::npos) lines.insert(number);
  }
  return lines;
}

LintResult lint_one(const std::string& virtual_path,
                    const std::string& content, LintOptions options = {}) {
  Linter linter(std::move(options));
  linter.add_file(virtual_path, content);
  return linter.run();
}

std::set<int> diagnostic_lines(const LintResult& result,
                               const std::string& rule) {
  std::set<int> lines;
  for (const Diagnostic& d : result.diagnostics) {
    EXPECT_EQ(d.rule, rule) << "unexpected rule at " << d.file << ":"
                            << d.line << ": " << d.message;
    lines.insert(d.line);
  }
  return lines;
}

struct FixtureCase {
  const char* file;          // under tests/data/lint/
  const char* virtual_path;  // scoping path handed to the linter
  const char* rule;          // the one rule the fixture exercises
};

// Every marker line is detected, nothing else fires, and the fixture's one
// suppressed case is counted instead of reported.
void expect_all_seeded_violations(const FixtureCase& param) {
  const std::string content = fixture(param.file);
  const std::set<int> expected = marker_lines(content);
  ASSERT_FALSE(expected.empty()) << param.file << " seeds no violations";

  const LintResult result = lint_one(param.virtual_path, content);
  EXPECT_EQ(diagnostic_lines(result, param.rule), expected) << param.file;
  EXPECT_EQ(result.suppressed_count, 1u)
      << param.file << " must contain exactly one suppressed case";
  EXPECT_EQ(result.files_linted, 1u);
  for (const Diagnostic& d : result.diagnostics) {
    EXPECT_EQ(d.file, param.virtual_path);
    EXPECT_EQ(d.severity, Severity::kError);
    EXPECT_FALSE(d.message.empty());
  }
}

// The span rules' fixtures run outside the table. gtest names a table case
// after a byte dump of its FixtureCase, whose pointers move at every run, and
// these two case names are short enough that the dump reaches the first 100
// characters of the ctest name.
TEST(LintSpanFixtureTest, DetectsAllSeededSpanNamingViolations) {
  expect_all_seeded_violations(
      FixtureCase{"spans.cpp", "src/obs/spans.cpp", "span-naming"});
}

TEST(LintSpanFixtureTest, DetectsAllSeededSpanBalanceViolations) {
  expect_all_seeded_violations(FixtureCase{
      "span_balance.cpp", "src/gen/span_balance.cpp", "span-balance"});
}

class LintFixtureTest : public ::testing::TestWithParam<FixtureCase> {};

TEST_P(LintFixtureTest, DetectsAllSeededViolations) {
  expect_all_seeded_violations(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintFixtureTest,
    ::testing::Values(
        FixtureCase{"atomic_reduce.cpp", "src/graph/atomic_reduce.cpp",
                    "atomic-float-reduce"},
        FixtureCase{"nondet.cpp", "src/gen/nondet.cpp",
                    "banned-nondeterminism"},
        FixtureCase{"unordered.cpp", "src/stats/unordered.cpp",
                    "unordered-iteration"},
        FixtureCase{"reduce.cpp", "src/mr/reduce.cpp", "raw-parallel-reduce"},
        FixtureCase{"banned_fn.cpp", "tools/banned_fn.cpp",
                    "banned-functions"},
        FixtureCase{"unchecked_syscall.cpp", "src/store/unchecked_syscall.cpp",
                    "unchecked-syscall"},
        FixtureCase{"rng_reuse.cpp", "src/gen/rng_reuse.cpp",
                    "counter-rng-reuse"},
        FixtureCase{"lock_discipline.cpp", "src/mr/lock_discipline.cpp",
                    "lock-discipline"},
        FixtureCase{"detached_capture.cpp", "src/util/detached_capture.cpp",
                    "detached-thread-capture"}),
    [](const ::testing::TestParamInfo<FixtureCase>& info) {
      std::string name = info.param.rule;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Scoped rules stay quiet outside their directories: the nondeterminism
// fixture is clean when it pretends to be a tool, and the unordered fixture
// is clean outside the order-critical modules.
TEST(LintScopeTest, ScopedRulesIgnoreOtherDirectories) {
  const LintResult nondet =
      lint_one("tools/nondet.cpp", fixture("nondet.cpp"));
  EXPECT_TRUE(nondet.diagnostics.empty());

  const LintResult unordered =
      lint_one("docs/examples/unordered.cpp", fixture("unordered.cpp"));
  EXPECT_TRUE(unordered.diagnostics.empty());

  const LintResult atomics =
      lint_one("tools/atomic_reduce.cpp", fixture("atomic_reduce.cpp"));
  EXPECT_TRUE(atomics.diagnostics.empty());
}

// The v2 scoped rules are equally quiet outside their directories:
// unchecked-syscall only polices the I/O modules, span-balance only the
// production tree (test files open ad-hoc spans on purpose), and
// counter-rng-reuse only the order-critical modules.
TEST(LintScopeTest, SemanticRulesIgnoreOtherDirectories) {
  const LintResult syscalls = lint_one("src/util/unchecked_syscall.cpp",
                                       fixture("unchecked_syscall.cpp"));
  EXPECT_TRUE(syscalls.diagnostics.empty());

  const LintResult spans =
      lint_one("tests/span_balance.cpp", fixture("span_balance.cpp"));
  EXPECT_TRUE(spans.diagnostics.empty());

  const LintResult rng =
      lint_one("docs/examples/rng_reuse.cpp", fixture("rng_reuse.cpp"));
  EXPECT_TRUE(rng.diagnostics.empty());
}

TEST(LintScopeTest, RuleFilterSelectsSingleRule) {
  const std::string content =
      "double total = 0.0;\n"
      "void f(char* d, const char* s, ThreadPool* pool) {\n"
      "  strcpy(d, s);\n"
      "  parallel_for(pool, 0, 9, [&](std::size_t i) { total += 1.0; });\n"
      "}\n";
  const LintResult result =
      lint_one("src/gen/mixed.cpp", content, {{"banned-functions"}});
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].rule, "banned-functions");
  EXPECT_EQ(result.diagnostics[0].line, 3);
}

TEST(LintScopeTest, UnknownRuleInOptionsThrows) {
  EXPECT_THROW(Linter({{"no-such-rule"}}), CsbError);
}

// ------------------------------------------------------------ suppression

// A trailing suppression silences its own line and nothing else: the
// identical violation on the next line still fires.
TEST(SuppressionTest, TrailingCommentSilencesExactlyOneLine) {
  const std::string content =
      "int parse(const char* s) {\n"
      "  int a = atoi(s);  // csblint: banned-functions-ok — test case\n"
      "  int b = atoi(s);\n"
      "  return a + b;\n"
      "}\n";
  const LintResult result = lint_one("tools/parse.cpp", content);
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 3);
  EXPECT_EQ(result.suppressed_count, 1u);
}

// A standalone suppression comment targets the next code line only.
TEST(SuppressionTest, StandaloneCommentSilencesNextCodeLine) {
  const std::string content =
      "void f(char* d, const char* s) {\n"
      "  // csblint: banned-functions-ok — test case\n"
      "  strcpy(d, s);\n"
      "  strcpy(d, s);\n"
      "}\n";
  const LintResult result = lint_one("tools/copy.cpp", content);
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 4);
  EXPECT_EQ(result.suppressed_count, 1u);
}

// A multi-line comment block still targets the code line after the block,
// not the second comment line.
TEST(SuppressionTest, CommentBlockSkipsToCode) {
  const std::string content =
      "void f(char* d, const char* s) {\n"
      "  // csblint: banned-functions-ok — the justification continues on\n"
      "  // a second comment line before the code\n"
      "  strcpy(d, s);\n"
      "}\n";
  const LintResult result = lint_one("tools/copy.cpp", content);
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.suppressed_count, 1u);
}

// One comment can suppress several rules on the same line.
TEST(SuppressionTest, OneCommentSuppressesMultipleRules) {
  const std::string content =
      "void f(char* d, const char* s) {\n"
      "  // csblint: banned-functions-ok banned-nondeterminism-ok — test\n"
      "  strcpy(d, s); long t = time(nullptr);\n"
      "}\n";
  const LintResult result = lint_one("src/gen/multi.cpp", content);
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.suppressed_count, 2u);
}

// An unused suppression is counted as zero, not an error — but a
// suppression naming an unknown rule is diagnosed so typos cannot silently
// disable enforcement.
TEST(SuppressionTest, UnknownRuleIsDiagnosed) {
  const std::string content =
      "void f(char* d, const char* s) {\n"
      "  strcpy(d, s);  // csblint: no-such-rule-ok — typo\n"
      "}\n";
  const LintResult result = lint_one("tools/typo.cpp", content);
  ASSERT_EQ(result.diagnostics.size(), 2u);  // bad-suppression + the strcpy
  EXPECT_EQ(result.diagnostics[0].rule, "bad-suppression");
  EXPECT_EQ(result.diagnostics[0].line, 2);
  EXPECT_NE(result.diagnostics[0].message.find("no-such-rule"),
            std::string::npos);
  EXPECT_EQ(result.diagnostics[1].rule, "banned-functions");
  EXPECT_EQ(result.suppressed_count, 0u);
}

// Two rules fire on the same line; suppressing one of them leaves the
// other reported — a suppression names rules, not lines.
TEST(SuppressionTest, SuppressingOneRuleLeavesTheOtherOnSameLine) {
  const std::string content =
      "void f(char* d, const char* s) {\n"
      "  // csblint: banned-functions-ok — test\n"
      "  strcpy(d, s); long t = time(nullptr);\n"
      "}\n";
  const LintResult result = lint_one("src/gen/pair.cpp", content);
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].rule, "banned-nondeterminism");
  EXPECT_EQ(result.diagnostics[0].line, 3);
  EXPECT_EQ(result.suppressed_count, 1u);
}

// A v2 semantic-rule suppression composes with a second semantic rule in
// the same function: the fsync stays silenced while lock-discipline still
// reports the hand-rolled lock/unlock pair around it.
TEST(SuppressionTest, SemanticRuleSuppressionLeavesOtherSemanticRules) {
  const std::string content =
      "std::mutex flush_mutex;\n"
      "void flush(int fd) {\n"
      "  flush_mutex.lock();\n"
      "  fsync(fd);  // csblint: unchecked-syscall-ok — best-effort flush\n"
      "  flush_mutex.unlock();\n"
      "}\n";
  const LintResult result = lint_one("src/store/flush.cpp", content);
  ASSERT_EQ(result.diagnostics.size(), 2u);
  EXPECT_EQ(result.diagnostics[0].rule, "lock-discipline");
  EXPECT_EQ(result.diagnostics[0].line, 3);
  EXPECT_EQ(result.diagnostics[1].rule, "lock-discipline");
  EXPECT_EQ(result.diagnostics[1].line, 5);
  EXPECT_EQ(result.suppressed_count, 1u);
}

// Suppression and baseline subtract independently: the suppressed finding
// never reaches the result, the baselined one is subtracted afterwards,
// and only the genuinely new finding survives.
TEST(SuppressionTest, BaselineAndSuppressionCombine) {
  const std::string content =
      "void f(char* d, const char* s) {\n"
      "  strcpy(d, s);  // csblint: banned-functions-ok — test\n"
      "  strcpy(d, s);\n"
      "  long t = time(nullptr);\n"
      "}\n";
  LintResult result = lint_one("src/gen/combo.cpp", content);
  ASSERT_EQ(result.diagnostics.size(), 2u);
  apply_baseline(result,
                 parse_baseline("src/gen/combo.cpp:3:banned-functions\n"));
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].rule, "banned-nondeterminism");
  EXPECT_EQ(result.diagnostics[0].line, 4);
  EXPECT_EQ(result.suppressed_count, 1u);
  EXPECT_EQ(result.baselined_count, 1u);
}

TEST(SuppressionTest, TagWithoutRuleTokensIsDiagnosed) {
  const std::string content = "// csblint: please ignore this file\n";
  const LintResult result = lint_one("tools/empty.cpp", content);
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].rule, "bad-suppression");
  EXPECT_NE(result.diagnostics[0].message.find("names no"),
            std::string::npos);
}

// ------------------------------------------------------------- rule list

// --list-rules output is pinned byte-for-byte so scripts can depend on it;
// regenerate tests/data/lint/list_rules.golden deliberately when the
// catalog changes.
TEST(RuleCatalogTest, ListRulesMatchesGolden) {
  EXPECT_EQ(list_rules_text(),
            read_file(std::string(CSB_TEST_DATA_DIR) +
                      "/lint/list_rules.golden"));
}

TEST(RuleCatalogTest, CatalogIsSortedAndComplete) {
  const std::vector<RuleInfo>& rules = rule_catalog();
  ASSERT_EQ(rules.size(), 12u);
  for (std::size_t i = 1; i < rules.size(); ++i) {
    EXPECT_LT(rules[i - 1].name, rules[i].name);
  }
  for (const char* name :
       {"atomic-float-reduce", "bad-suppression", "banned-functions",
        "banned-nondeterminism", "counter-rng-reuse",
        "detached-thread-capture", "lock-discipline", "raw-parallel-reduce",
        "span-balance", "span-naming", "unchecked-syscall",
        "unordered-iteration"}) {
    EXPECT_TRUE(is_known_rule(name)) << name;
  }
  EXPECT_FALSE(is_known_rule("nope"));
}

// ------------------------------------------------------------ span names

TEST(SpanNameTest, GrammarAcceptsDocumentedFamilies) {
  EXPECT_EQ(span_name_families().size(), 16u);
  EXPECT_TRUE(span_name_families().contains("ball-drop"));
  // Families no code emits any more are not accepted.
  for (const char* retired :
       {"expand", "re-multiply", "skip-ahead", "distinct"}) {
    EXPECT_FALSE(span_name_families().contains(retired)) << retired;
    EXPECT_FALSE(check_span_name(retired).empty()) << retired;
  }
  EXPECT_TRUE(span_name_families().contains("store"));
  for (const std::string& family : span_name_families()) {
    EXPECT_TRUE(check_span_name(family).empty()) << family;
    // store is the only family with a validated second level; every other
    // family accepts arbitrary well-formed sub-segments.
    if (family != "store") {
      EXPECT_TRUE(check_span_name(family + ":sub:pass_2").empty()) << family;
    }
  }
}

TEST(SpanNameTest, GrammarValidatesStoreSubFamilies) {
  EXPECT_EQ(store_span_subfamilies().size(), 9u);
  for (const std::string& sub : store_span_subfamilies()) {
    EXPECT_TRUE(check_span_name("store:" + sub).empty()) << sub;
    EXPECT_TRUE(check_span_name("store:" + sub + ":pass_2").empty()) << sub;
  }
  // The parallel finish/verify pipeline's spans are all documented.
  EXPECT_TRUE(check_span_name("store:csr:count").empty());
  EXPECT_TRUE(check_span_name("store:csr:partition").empty());
  EXPECT_TRUE(check_span_name("store:csr:scatter").empty());
  EXPECT_TRUE(check_span_name("store:merge:seal").empty());
  EXPECT_TRUE(check_span_name("store:verify:shards").empty());
  EXPECT_TRUE(check_span_name("store:verify:csr").empty());
  EXPECT_NE(check_span_name("store:warmup"), "");
  EXPECT_NE(check_span_name("store:sub:pass_2"), "");
  // Not in the grammar: no generator materializes a graph in RAM or
  // replays a finished graph into its store.
  EXPECT_NE(check_span_name("store:replay"), "");
  EXPECT_NE(check_span_name("materialize:alloc"), "");
}

TEST(SpanNameTest, GrammarRejectsMalformedNames) {
  EXPECT_NE(check_span_name(""), "");
  EXPECT_NE(check_span_name("Shuffle"), "");       // uppercase segment
  EXPECT_NE(check_span_name("coalesce:"), "");     // empty trailing segment
  EXPECT_NE(check_span_name("coalesce:No Good"), "");
  EXPECT_NE(check_span_name("warmup:pass"), "");   // undocumented family
}

// -------------------------------------------------------- compile_commands

TEST(CompileCommandsTest, LoadsNormalizedSortedUniquePaths) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/csblint_compile_commands.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << "[\n"
        << "  {\"directory\": \"/work/build\", \"file\": \"../src/a.cpp\","
        << " \"command\": \"c++ -c a.cpp\"},\n"
        << "  {\"directory\": \"/work/build\", \"file\": \"/work/src/b.cpp\","
        << " \"command\": \"c++ -c b.cpp\"},\n"
        << "  {\"directory\": \"/work/build\","
        << " \"file\": \"../src/sub/../a.cpp\","
        << " \"command\": \"c++ -c a.cpp again\"}\n"
        << "]\n";
  }
  const std::vector<std::string> files = load_compile_commands(path);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "/work/src/a.cpp");
  EXPECT_EQ(files[1], "/work/src/b.cpp");
  std::remove(path.c_str());
}

TEST(CompileCommandsTest, MissingFileThrows) {
  EXPECT_THROW(load_compile_commands("/nonexistent/ccdb.json"), CsbError);
}

// ----------------------------------------------------------- determinism

// The linter's own output is deterministic: same inputs, same diagnostics,
// sorted by (file, line, rule) regardless of add_file order.
TEST(LintDeterminismTest, DiagnosticsSortedAndRepeatable) {
  const std::string nondet = fixture("nondet.cpp");
  const std::string banned = fixture("banned_fn.cpp");

  const auto run_with_order = [&](bool swap) {
    Linter linter{{}};
    if (swap) {
      linter.add_file("tools/banned_fn.cpp", banned);
      linter.add_file("src/gen/nondet.cpp", nondet);
    } else {
      linter.add_file("src/gen/nondet.cpp", nondet);
      linter.add_file("tools/banned_fn.cpp", banned);
    }
    return linter.run();
  };

  const LintResult a = run_with_order(false);
  const LintResult b = run_with_order(true);
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i) {
    EXPECT_EQ(a.diagnostics[i].file, b.diagnostics[i].file);
    EXPECT_EQ(a.diagnostics[i].line, b.diagnostics[i].line);
    EXPECT_EQ(a.diagnostics[i].rule, b.diagnostics[i].rule);
    EXPECT_EQ(a.diagnostics[i].message, b.diagnostics[i].message);
  }
  for (std::size_t i = 1; i < a.diagnostics.size(); ++i) {
    const Diagnostic& prev = a.diagnostics[i - 1];
    const Diagnostic& cur = a.diagnostics[i];
    EXPECT_LE(std::tie(prev.file, prev.line, prev.rule),
              std::tie(cur.file, cur.line, cur.rule));
  }
}

// Cross-file symbol binding: a `using` alias of an unordered container
// declared in a header flags iteration in another file.
TEST(LintDeterminismTest, AliasResolvesAcrossFiles) {
  Linter linter{{}};
  linter.add_file("src/ids/table.hpp",
                  "#include <unordered_map>\n"
                  "using HitTable = std::unordered_map<int, long>;\n");
  linter.add_file("src/ids/table.cpp",
                  "#include \"table.hpp\"\n"
                  "HitTable hits;\n"
                  "void walk() {\n"
                  "  for (const auto& [key, count] : hits) {\n"
                  "    emit(key, count);\n"
                  "  }\n"
                  "}\n");
  const LintResult result = linter.run();
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].file, "src/ids/table.cpp");
  EXPECT_EQ(result.diagnostics[0].line, 4);
  EXPECT_EQ(result.diagnostics[0].rule, "unordered-iteration");
}

// The parallel scan (--jobs) is a pure throughput knob: diagnostics,
// counters, and messages are byte-identical to the serial scan.
TEST(LintDeterminismTest, ParallelScanMatchesSerial) {
  const auto run_with_jobs = [](std::size_t jobs) {
    LintOptions options;
    options.jobs = jobs;
    Linter linter(std::move(options));
    linter.add_file("src/gen/nondet.cpp", fixture("nondet.cpp"));
    linter.add_file("tools/banned_fn.cpp", fixture("banned_fn.cpp"));
    linter.add_file("src/store/unchecked_syscall.cpp",
                    fixture("unchecked_syscall.cpp"));
    linter.add_file("src/gen/span_balance.cpp", fixture("span_balance.cpp"));
    linter.add_file("src/mr/lock_discipline.cpp",
                    fixture("lock_discipline.cpp"));
    return linter.run();
  };
  const LintResult serial = run_with_jobs(1);
  const LintResult parallel = run_with_jobs(4);
  ASSERT_EQ(serial.diagnostics.size(), parallel.diagnostics.size());
  for (std::size_t i = 0; i < serial.diagnostics.size(); ++i) {
    EXPECT_EQ(serial.diagnostics[i].file, parallel.diagnostics[i].file);
    EXPECT_EQ(serial.diagnostics[i].line, parallel.diagnostics[i].line);
    EXPECT_EQ(serial.diagnostics[i].rule, parallel.diagnostics[i].rule);
    EXPECT_EQ(serial.diagnostics[i].message, parallel.diagnostics[i].message);
  }
  EXPECT_EQ(serial.suppressed_count, parallel.suppressed_count);
  EXPECT_EQ(serial.files_linted, parallel.files_linted);
}

// ---------------------------------------------------------------- lexer

// Raw strings are opaque single tokens: banned identifiers inside them
// are data, not calls.
TEST(LexerTest, RawStringContentIsOpaque) {
  const LintResult result = lint_one(
      "src/gen/raw.cpp",
      "const char* doc = R\"(long t = time(nullptr); rand();)\";\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(LexerTest, RawAndPrefixedStringsAreSingleTokens) {
  const std::vector<Token> tokens = tokenize(
      "auto a = R\"(no \" end)\";\n"
      "auto b = u8\"bytes\";\n"
      "auto c = LR\"x(nested )\" close)x\";\n");
  std::vector<std::string> strings;
  for (const Token& t : tokens) {
    if (t.kind == TokKind::kString) strings.push_back(t.text);
  }
  ASSERT_EQ(strings.size(), 3u);
  EXPECT_EQ(string_literal_value(strings[0]), "no \" end");
  EXPECT_EQ(string_literal_value(strings[1]), "bytes");
  EXPECT_EQ(string_literal_value(strings[2]), "nested )\" close");
}

// A literal spanning lines reports its first line, and the tokens after
// it land on the correct physical line.
TEST(LexerTest, MultiLineStringsKeepLineNumbersExact) {
  const std::vector<Token> tokens =
      tokenize("auto s = R\"(a\nb\nc)\";\nint tail = 1;\n");
  int string_line = 0;
  int tail_line = 0;
  for (const Token& t : tokens) {
    if (t.kind == TokKind::kString) string_line = t.line;
    if (t.kind == TokKind::kIdent && t.text == "tail") tail_line = t.line;
  }
  EXPECT_EQ(string_line, 1);
  EXPECT_EQ(tail_line, 4);
}

// A backslash-newline splice is whitespace, not a token break: the
// continuation's tokens report their physical line (and lead it —
// suppression placement works on physical lines), and the `#` directive
// detector is NOT re-armed mid-logical-line.
TEST(LexerTest, BackslashNewlineSpliceContinuesTheLine) {
  const std::vector<Token> tokens = tokenize("int a \\\n= 2;\nint b = 3;\n");
  ASSERT_GE(tokens.size(), 8u);
  const auto find = [&](const std::string& text) -> const Token& {
    for (const Token& t : tokens) {
      if (t.text == text) return t;
    }
    static const Token missing{};
    ADD_FAILURE() << "token not found: " << text;
    return missing;
  };
  EXPECT_EQ(find("a").line, 1);
  EXPECT_EQ(find("=").line, 2);
  EXPECT_TRUE(find("=").first_on_line);
  EXPECT_EQ(find("b").line, 3);

  // `#` after a splice continues the logical line: it is lexed as a punct
  // token, not swallowed as a preprocessor directive.
  const std::vector<Token> spliced_hash = tokenize("int x \\\n# 1;\n");
  bool saw_hash = false;
  for (const Token& t : spliced_hash) {
    if (t.kind == TokKind::kPunct && t.text == "#") saw_hash = true;
  }
  EXPECT_TRUE(saw_hash);
}

// ----------------------------------------------------------- scope tree

std::size_t token_index(const std::vector<Token>& tokens,
                        std::string_view text) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].text == text) return i;
  }
  ADD_FAILURE() << "token not found: " << text;
  return 0;
}

TEST(ScopeTreeTest, ClassifiesNamespaceFunctionLambdaBlock) {
  SourceFile file;
  file.path = "src/gen/demo.cpp";
  file.content =
      "namespace demo {\n"
      "struct Box { int v; };\n"
      "int grow(int n) {\n"
      "  if (n > 0) {\n"
      "    auto bump = [&](int d) { return n + d; };\n"
      "    return bump(1);\n"
      "  }\n"
      "  return n;\n"
      "}\n"
      "}  // namespace demo\n";
  file.tokens = tokenize(file.content);
  const ScopeTree tree = build_scope_tree(file);

  ASSERT_FALSE(tree.scopes.empty());
  EXPECT_EQ(tree.scopes[0].kind, ScopeKind::kFile);
  std::size_t namespaces = 0;
  std::size_t functions = 0;
  std::size_t lambdas = 0;
  std::size_t blocks = 0;
  for (const Scope& s : tree.scopes) {
    if (s.kind == ScopeKind::kNamespace) ++namespaces;
    if (s.kind == ScopeKind::kFunction) ++functions;
    if (s.kind == ScopeKind::kLambda) ++lambdas;
    if (s.kind == ScopeKind::kBlock) ++blocks;
  }
  EXPECT_EQ(namespaces, 2u);  // namespace demo + struct Box
  EXPECT_EQ(functions, 1u);
  EXPECT_EQ(lambdas, 1u);
  EXPECT_EQ(blocks, 1u);  // the if body

  // The lambda body belongs to the lambda; the statement declaring it
  // belongs to grow(); the struct member has no enclosing function.
  const int lam = tree.enclosing_function(token_index(file.tokens, "+"));
  ASSERT_GE(lam, 0);
  EXPECT_EQ(tree.scopes[lam].kind, ScopeKind::kLambda);
  EXPECT_TRUE(tree.scopes[lam].captures_ref);
  const int fn = tree.enclosing_function(token_index(file.tokens, "bump"));
  ASSERT_GE(fn, 0);
  EXPECT_EQ(tree.scopes[fn].kind, ScopeKind::kFunction);
  EXPECT_EQ(tree.scopes[fn].name, "grow");
  EXPECT_EQ(tree.enclosing_function(token_index(file.tokens, "v")), -1);
}

TEST(ScopeTreeTest, ParsesCaptureLists) {
  const auto check = [](const std::string& src, bool want_ref,
                        bool want_this) {
    const std::vector<Token> tokens = tokenize(src);
    const CaptureSummary s = parse_capture_list(tokens, 0);
    EXPECT_EQ(s.by_ref, want_ref) << src;
    EXPECT_EQ(s.by_this, want_this) << src;
  };
  check("[&] {}", true, false);
  check("[=] {}", false, false);
  check("[this] {}", false, true);
  check("[*this] {}", false, false);  // *this copies; it cannot dangle
  check("[=, &acc] {}", true, false);
  check("[value] {}", false, false);
}

// -------------------------------------------------------------- baseline

TEST(BaselineTest, ParsesCommentsBlanksAndEntries) {
  const Baseline b = parse_baseline(
      "# accepted findings\n"
      "\n"
      "src/a.cpp:12:span-naming\n"
      "tools/b.cpp:3:banned-functions\n");
  EXPECT_EQ(b.entries.size(), 2u);
  EXPECT_TRUE(b.entries.contains({"src/a.cpp", 12, "span-naming"}));
  EXPECT_TRUE(b.entries.contains({"tools/b.cpp", 3, "banned-functions"}));
}

TEST(BaselineTest, MalformedEntriesThrow) {
  EXPECT_THROW(parse_baseline("nonsense\n"), CsbError);
  EXPECT_THROW(parse_baseline("a.cpp:notanumber:rule\n"), CsbError);
  EXPECT_THROW(parse_baseline(":3:rule\n"), CsbError);
}

// --write-baseline output round-trips: applying it to the same scan
// subtracts every finding.
TEST(BaselineTest, WriteThenApplyRoundTripsToClean) {
  LintResult result = lint_one("tools/banned_fn.cpp", fixture("banned_fn.cpp"));
  const std::size_t found = result.diagnostics.size();
  ASSERT_GT(found, 0u);
  const Baseline base = parse_baseline(baseline_text(result));
  EXPECT_EQ(base.entries.size(), found);
  apply_baseline(result, base);
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.baselined_count, found);
}

TEST(BaselineTest, PartialBaselineKeepsNewFindings) {
  LintResult result = lint_one("tools/banned_fn.cpp", fixture("banned_fn.cpp"));
  ASSERT_GT(result.diagnostics.size(), 1u);
  const Diagnostic first = result.diagnostics[0];
  const std::size_t before = result.diagnostics.size();
  Baseline base;
  base.entries.insert({first.file, first.line, first.rule});
  apply_baseline(result, base);
  EXPECT_EQ(result.diagnostics.size(), before - 1);
  EXPECT_EQ(result.baselined_count, 1u);
  for (const Diagnostic& d : result.diagnostics) {
    EXPECT_FALSE(d.file == first.file && d.line == first.line &&
                 d.rule == first.rule);
  }
}

// ----------------------------------------------------------------- SARIF

// The emitted log re-parses and satisfies the structural requirements of
// SARIF 2.1.0: versioned log, one run, full rule catalog on the driver,
// and each result pointing at a catalog rule and a physical location.
TEST(SarifTest, EmitsStructurallyValidLog) {
  const LintResult result =
      lint_one("tools/banned_fn.cpp", fixture("banned_fn.cpp"));
  ASSERT_FALSE(result.diagnostics.empty());
  const JsonValue log = parse_json(to_sarif(result));

  EXPECT_EQ(log.at("version").as_string(), "2.1.0");
  EXPECT_NE(log.at("$schema").as_string().find("sarif-2.1.0"),
            std::string::npos);
  const auto& runs = log.at("runs").items();
  ASSERT_EQ(runs.size(), 1u);

  const JsonValue& driver = runs[0].at("tool").at("driver");
  EXPECT_EQ(driver.at("name").as_string(), "csblint");
  const auto& rules = driver.at("rules").items();
  ASSERT_EQ(rules.size(), rule_catalog().size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(rules[i].at("id").as_string(), rule_catalog()[i].name);
    EXPECT_FALSE(
        rules[i].at("shortDescription").at("text").as_string().empty());
  }

  const auto& results = runs[0].at("results").items();
  ASSERT_EQ(results.size(), result.diagnostics.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    const JsonValue& r = results[i];
    EXPECT_EQ(r.at("ruleId").as_string(), d.rule);
    const auto rule_index =
        static_cast<std::size_t>(r.at("ruleIndex").as_number());
    ASSERT_LT(rule_index, rules.size());
    EXPECT_EQ(rules[rule_index].at("id").as_string(), d.rule);
    EXPECT_EQ(r.at("level").as_string(), "error");
    EXPECT_EQ(r.at("message").at("text").as_string(), d.message);
    const auto& locations = r.at("locations").items();
    ASSERT_EQ(locations.size(), 1u);
    const JsonValue& physical = locations[0].at("physicalLocation");
    EXPECT_EQ(physical.at("artifactLocation").at("uri").as_string(), d.file);
    EXPECT_EQ(static_cast<int>(physical.at("region").at("startLine")
                                   .as_number()),
              d.line);
  }
}

TEST(SarifTest, CleanResultEmitsEmptyResultsArray) {
  const JsonValue log = parse_json(to_sarif(LintResult{}));
  const auto& runs = log.at("runs").items();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].at("results").items().empty());
  // The driver still advertises the full catalog on a clean run.
  EXPECT_EQ(runs[0].at("tool").at("driver").at("rules").items().size(),
            rule_catalog().size());
}

}  // namespace
}  // namespace csb::lint
