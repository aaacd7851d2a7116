// csblint rule catalog (src/lint).
//
// Each rule enforces one project invariant from docs/static-analysis.md:
//
//   atomic-float-reduce    no std::atomic<float/double> accumulation in
//                          order-critical modules (commit-order rounding)
//   banned-functions       no strcpy/sprintf/atoi-family anywhere
//   banned-nondeterminism  no wall clocks / OS entropy in deterministic
//                          modules (src/gen, src/seed, src/graph, src/stats)
//   counter-rng-reuse      no two parallel loops in one function deriving
//                          chunk RNGs from the same counter stream key
//   detached-thread-capture no std::thread/std::async lambda capturing by
//                          reference or `this`; no bare .detach()
//   lock-discipline        no raw mutex .lock()/.unlock(); RAII guards only
//   raw-parallel-reduce    no parallel_for_fixed_chunks lambda accumulating
//                          into captured floating-point state (completion-
//                          order rounding); per-chunk partials + chunk-order
//                          merge
//   span-balance           every begin_phase reaches its end_phase on every
//                          control path; no run_stage inside run_serial
//   span-naming            trace/obs span literals must match the documented
//                          stage-name grammar (docs/observability.md)
//   unchecked-syscall      no ignored pwrite/pread/mmap/ftruncate/fsync
//                          returns in the on-disk store paths
//   unordered-iteration    no iteration over unordered_map/unordered_set in
//                          determinism-critical modules unless suppressed
//
// Plus one pseudo-rule the driver emits itself:
//
//   bad-suppression        a `// csblint: <rule>-ok` comment naming an
//                          unknown rule (or naming none)
#pragma once

#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.hpp"
#include "lint/scopes.hpp"

namespace csb::lint {

enum class Severity { kWarning, kError };

std::string_view severity_name(Severity severity);

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  Severity severity = Severity::kError;
  std::string message;
};

/// Cross-file facts gathered before rules run: which type names and which
/// declared identifiers are bound to unordered containers. Functions
/// declared to return an unordered container count as "vars" too — ranging
/// over their result is just as order-unspecified.
struct SymbolIndex {
  std::set<std::string> unordered_types;  ///< unordered_map/set + aliases
  std::set<std::string> unordered_vars;   ///< identifiers declared with one
};

SymbolIndex build_symbol_index(const std::vector<SourceFile>& files);

/// Per-file semantic layer computed once, shared by every rule that needs
/// structure beyond the flat token stream: the scope tree (functions,
/// lambdas + captures) and the leading-type declaration sets.
struct FileAnalysis {
  ScopeTree scopes;
  std::set<std::string> mutex_vars;  ///< identifiers declared as std::mutex &c
};

FileAnalysis analyze_file(const SourceFile& file);

struct RuleInfo {
  std::string_view name;
  std::string_view summary;
  Severity severity;
  /// Directory prefixes (root-relative, trailing slash) the rule applies
  /// to. Empty = every linted file.
  std::vector<std::string_view> scope;
};

/// The rule catalog, sorted by name; `csblint --list-rules` prints exactly
/// this (tests/lint_test.cpp pins the rendering).
const std::vector<RuleInfo>& rule_catalog();

bool is_known_rule(std::string_view name);

/// True when `rule` should run over `path` (path is root-relative).
bool rule_applies(const RuleInfo& rule, std::string_view path);

/// Diagnostic sink: (1-based line, message).
using Sink = std::function<void(int line, std::string message)>;

/// Runs one rule over one file. No-op for the pseudo-rule bad-suppression
/// (the driver emits those while parsing suppression comments).
void run_rule(std::string_view rule_name, const SourceFile& file,
              const SymbolIndex& symbols, const FileAnalysis& analysis,
              const Sink& emit);

/// The first-segment families of the span-name grammar, sorted; mirrors the
/// stage-name table in docs/observability.md (the source of truth).
const std::set<std::string, std::less<>>& span_name_families();

/// The documented second segments of store:* spans (the store family is
/// the only one with a validated second level).
const std::set<std::string, std::less<>>& store_span_subfamilies();

/// Validates one span name against the grammar. Returns an empty string
/// when valid, else a human-readable reason.
std::string check_span_name(std::string_view name);

}  // namespace csb::lint
