#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>

#include "lint/symbols.hpp"
#include "lint/token_match.hpp"

namespace csb::lint {

namespace {

// ------------------------------------------------------------- catalog

const std::vector<std::string_view> kDeterministicDirs = {
    "src/gen/", "src/seed/", "src/graph/", "src/stats/"};

// Every module whose output feeds serialized artifacts, veracity metrics,
// alarms, or trace files — iteration order escaping any of these silently
// breaks the byte-identical-parallelism contract.
const std::vector<std::string_view> kOrderCriticalDirs = {
    "src/gen/",  "src/seed/",     "src/graph/", "src/stats/",
    "src/flow/", "src/mr/",       "src/ids/",   "src/veracity/",
    "src/workload/", "src/trace/", "src/pcap/", "src/obs/"};

// Production code only: span rules stay out of tests, where ad-hoc span
// literals are the fixtures' whole point.
const std::vector<std::string_view> kProductionDirs = {"src/", "tools/",
                                                       "bench/"};

// The on-disk store paths: the modules where an ignored syscall result
// silently corrupts a persistent artifact.
const std::vector<std::string_view> kSyscallDirs = {"src/store/",
                                                    "src/pcap/"};

const std::vector<RuleInfo>& catalog() {
  static const std::vector<RuleInfo> rules = {
      {"atomic-float-reduce",
       "std::atomic<float/double> accumulation (fetch_add/compare_exchange) "
       "in an order-critical module; merge per-chunk partials in chunk order",
       Severity::kError,
       kOrderCriticalDirs},
      {"bad-suppression",
       "suppression comment naming an unknown rule (or naming none)",
       Severity::kError,
       {}},
      {"banned-functions",
       "unchecked C functions (strcpy/sprintf/atoi family); use bounded or "
       "error-checked equivalents",
       Severity::kError,
       {}},
      {"banned-nondeterminism",
       "OS entropy or wall clocks (std::rand, random_device, system_clock, "
       "time()) in deterministic modules; use csb::Rng / steady_clock",
       Severity::kError,
       kDeterministicDirs},
      {"counter-rng-reuse",
       "two parallel loops in one function derive chunk RNGs from the same "
       "counter stream key; salt each loop's key (util/random.hpp)",
       Severity::kError,
       kOrderCriticalDirs},
      {"detached-thread-capture",
       "std::thread/std::async lambda captures by reference or this, or a "
       "bare .detach(); captured state can dangle under the new thread",
       Severity::kError,
       {}},
      {"lock-discipline",
       "raw mutex .lock()/.unlock() instead of std::lock_guard/scoped_lock; "
       "an early return or throw skips the unlock",
       Severity::kError,
       {}},
      {"raw-parallel-reduce",
       "parallel_for_fixed_chunks lambda accumulates into captured "
       "floating-point state; write per-chunk partials and merge them in "
       "chunk order",
       Severity::kError,
       {}},
      {"span-balance",
       "begin_phase without a matching end_phase on every control path, or "
       "run_stage nested inside run_serial; use PhaseScope (RAII)",
       Severity::kError,
       kProductionDirs},
      {"span-naming",
       "trace span literal outside the documented stage-name grammar "
       "(docs/observability.md)",
       Severity::kError,
       kProductionDirs},
      {"unchecked-syscall",
       "ignored return of pwrite/pread/mmap/ftruncate/fsync in the on-disk "
       "store paths; check the result or cast to (void) with a reason",
       Severity::kError,
       kSyscallDirs},
      {"unordered-iteration",
       "iteration over unordered_map/unordered_set in a determinism-critical "
       "module; order must not reach output",
       Severity::kError,
       kOrderCriticalDirs},
  };
  return rules;
}

// -------------------------------------------------------- symbol index

constexpr std::array<std::string_view, 2> kUnorderedContainers = {
    "unordered_map", "unordered_set"};

bool names_unordered(const SymbolIndex& index, const Token& tok) {
  if (tok.kind != TokKind::kIdent) return false;
  for (const std::string_view c : kUnorderedContainers) {
    if (tok.text == c) return true;
  }
  return index.unordered_types.count(tok.text) != 0;
}

/// Collects `using A = ...unordered...;` aliases from one file.
void collect_aliases(const SourceFile& file, SymbolIndex& index) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "using")) continue;
    const std::size_t name = next_code(toks, i + 1);
    if (name == kNpos || toks[name].kind != TokKind::kIdent) continue;
    const std::size_t eq = next_code(toks, name + 1);
    if (eq == kNpos || !is_punct(toks[eq], "=")) continue;
    for (std::size_t j = eq + 1; j < toks.size() && !is_punct(toks[j], ";");
         ++j) {
      if (names_unordered(index, toks[j])) {
        index.unordered_types.insert(toks[name].text);
        break;
      }
    }
  }
}

/// Collects identifiers declared with a *leading* unordered container type
/// (variables, members, parameters, and functions returning one) via the
/// shared leading-type heuristic. Nested occurrences
/// (`std::vector<std::unordered_map<...>> x`) deliberately do not bind:
/// iterating the outer container is ordered.
void collect_vars(const SourceFile& file, SymbolIndex& index) {
  const std::set<std::string> names = leading_type_decls(
      file,
      [&index](const Token& tok) { return names_unordered(index, tok); });
  index.unordered_vars.insert(names.begin(), names.end());
}

// -------------------------------------------------- unordered-iteration

void run_unordered_iteration(const SourceFile& file,
                             const SymbolIndex& symbols, const Sink& emit) {
  const auto& toks = file.tokens;
  const auto is_tracked = [&](const Token& tok) {
    return tok.kind == TokKind::kIdent &&
           (symbols.unordered_vars.count(tok.text) != 0 ||
            names_unordered(symbols, tok));
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Range-for whose range expression mentions an unordered container.
    if (is_ident(toks[i], "for")) {
      const std::size_t open = next_code(toks, i + 1);
      if (open == kNpos || !is_punct(toks[open], "(")) continue;
      const std::size_t close = skip_balanced(toks, open, "(", ")");
      if (close == kNpos) continue;
      // Find the range-for `:` at paren depth 1 (outside any nested
      // brackets/braces); a top-level `;` means a classic for loop.
      std::size_t colon = kNpos;
      int paren = 0;
      int other = 0;
      bool classic = false;
      for (std::size_t j = open; j < close - 1; ++j) {
        if (is_punct(toks[j], "(")) ++paren;
        if (is_punct(toks[j], ")")) --paren;
        if (is_punct(toks[j], "[") || is_punct(toks[j], "{")) ++other;
        if (is_punct(toks[j], "]") || is_punct(toks[j], "}")) --other;
        if (paren == 1 && other == 0) {
          if (is_punct(toks[j], ";")) {
            classic = true;
            break;
          }
          if (is_punct(toks[j], ":")) {
            colon = j;
            break;
          }
        }
      }
      if (classic || colon == kNpos) continue;
      for (std::size_t j = colon + 1; j < close - 1; ++j) {
        if (is_tracked(toks[j])) {
          emit(toks[i].line,
               "range-for over unordered container '" + toks[j].text +
                   "' — iteration order is unspecified and must not reach "
                   "output; use a sorted/dense container, or suppress with "
                   "a justification if the order provably cannot escape");
          break;
        }
      }
      continue;
    }
    // Explicit iterators / algorithm calls: X.begin() and friends.
    if (toks[i].kind == TokKind::kIdent &&
        symbols.unordered_vars.count(toks[i].text) != 0) {
      const std::size_t dot = next_code(toks, i + 1);
      if (dot == kNpos ||
          !(is_punct(toks[dot], ".") || is_punct(toks[dot], "->"))) {
        continue;
      }
      const std::size_t member = next_code(toks, dot + 1);
      if (member == kNpos) continue;
      static constexpr std::array<std::string_view, 4> kBegin = {
          "begin", "cbegin", "rbegin", "crbegin"};
      for (const std::string_view b : kBegin) {
        if (is_ident(toks[member], b)) {
          emit(toks[i].line,
               "iterating unordered container '" + toks[i].text + "' via " +
                   std::string(b) +
                   "() — order is unspecified and must not reach output");
          break;
        }
      }
    }
  }
}

// -------------------------------------------------- raw-parallel-reduce

/// Identifiers declared as scalar float/double within [begin, end).
std::set<std::string> float_scalar_decls(const std::vector<Token>& toks,
                                         std::size_t begin, std::size_t end) {
  std::set<std::string> names;
  for (std::size_t i = begin; i < end; ++i) {
    if (!(is_ident(toks[i], "double") || is_ident(toks[i], "float"))) {
      continue;
    }
    const std::size_t name = next_code(toks, i + 1);
    if (name == kNpos || name >= end || toks[name].kind != TokKind::kIdent) {
      continue;
    }
    const std::size_t after = next_code(toks, name + 1);
    if (after == kNpos) continue;
    static constexpr std::array<std::string_view, 6> kDeclFollow = {
        ";", "=", "{", "(", ",", ")"};
    for (const std::string_view f : kDeclFollow) {
      if (is_punct(toks[after], f)) {
        names.insert(toks[name].text);
        break;
      }
    }
  }
  return names;
}

void run_raw_parallel_reduce(const SourceFile& file, const Sink& emit) {
  const auto& toks = file.tokens;
  const std::set<std::string> floats = float_scalar_decls(toks, 0,
                                                          toks.size());
  if (floats.empty()) return;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "parallel_for_fixed_chunks")) continue;
    const std::size_t open = next_code(toks, i + 1);
    if (open == kNpos || !is_punct(toks[open], "(")) continue;
    const std::size_t call_end = skip_balanced(toks, open, "(", ")");
    if (call_end == kNpos) continue;

    // First lambda in the argument list.
    std::size_t lb = open + 1;
    while (lb < call_end && !is_punct(toks[lb], "[")) ++lb;
    if (lb >= call_end) continue;
    const std::size_t capture_end = skip_balanced(toks, lb, "[", "]");
    if (capture_end == kNpos) continue;
    bool by_ref = false;
    for (std::size_t j = lb; j < capture_end; ++j) {
      if (is_punct(toks[j], "&")) by_ref = true;
    }
    if (!by_ref) continue;

    std::size_t body = capture_end;
    if (body < call_end && is_punct(toks[body], "(")) {
      body = skip_balanced(toks, body, "(", ")");
      if (body == kNpos) continue;
    }
    if (body >= call_end || !is_punct(toks[body], "{")) continue;
    const std::size_t body_end = skip_balanced(toks, body, "{", "}");
    if (body_end == kNpos) continue;

    // Partial sums local to the lambda are the blessed pattern — exclude.
    const std::set<std::string> locals =
        float_scalar_decls(toks, body, body_end);
    for (std::size_t j = body + 1; j + 1 < body_end; ++j) {
      if (toks[j].kind != TokKind::kIdent) continue;
      const std::size_t op = next_code(toks, j + 1);
      if (op == kNpos || op >= body_end ||
          !(is_punct(toks[op], "+=") || is_punct(toks[op], "-="))) {
        continue;
      }
      if (floats.count(toks[j].text) == 0 ||
          locals.count(toks[j].text) != 0) {
        continue;
      }
      emit(toks[j].line,
           "lambda passed to parallel_for_fixed_chunks accumulates into "
           "captured floating-point '" + toks[j].text +
               "' — chunks finish in any order, so the rounding changes "
               "from run to run; write per-chunk partials and merge them in "
               "chunk-index order");
    }
  }
}

// ------------------------------------------------- atomic-float-reduce

/// Identifiers declared as std::atomic<float> / std::atomic<double> in one
/// file. Member and global declarations bind alike; atomics over integer
/// types never bind (integer addition is exact, so commit order is
/// harmless).
std::set<std::string> atomic_float_decls(const std::vector<Token>& toks) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "atomic")) continue;
    const std::size_t lt = next_code(toks, i + 1);
    if (lt == kNpos || !is_punct(toks[lt], "<")) continue;
    const std::size_t arg = next_code(toks, lt + 1);
    if (arg == kNpos ||
        !(is_ident(toks[arg], "double") || is_ident(toks[arg], "float"))) {
      continue;
    }
    const std::size_t gt = next_code(toks, arg + 1);
    if (gt == kNpos || !is_punct(toks[gt], ">")) continue;
    std::size_t name = next_code(toks, gt + 1);
    while (name != kNpos &&
           (is_punct(toks[name], "&") || is_punct(toks[name], "*") ||
            is_ident(toks[name], "const"))) {
      name = next_code(toks, name + 1);
    }
    if (name == kNpos || toks[name].kind != TokKind::kIdent) continue;
    names.insert(toks[name].text);
  }
  return names;
}

void run_atomic_float_reduce(const SourceFile& file, const Sink& emit) {
  const auto& toks = file.tokens;
  const std::set<std::string> atomics = atomic_float_decls(toks);
  if (atomics.empty()) return;
  static constexpr std::array<std::string_view, 4> kAccumulate = {
      "compare_exchange_strong", "compare_exchange_weak", "fetch_add",
      "fetch_sub"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        atomics.count(toks[i].text) == 0) {
      continue;
    }
    const std::size_t dot = next_code(toks, i + 1);
    if (dot == kNpos ||
        !(is_punct(toks[dot], ".") || is_punct(toks[dot], "->"))) {
      continue;
    }
    const std::size_t member = next_code(toks, dot + 1);
    if (member == kNpos) continue;
    for (const std::string_view m : kAccumulate) {
      if (is_ident(toks[member], m)) {
        emit(toks[i].line,
             "atomic floating-point '" + toks[i].text + "' accumulates via " +
                 std::string(m) +
                 " — partials commit in scheduling order and float addition "
                 "does not commute in rounding, so the total drifts with "
                 "thread count; use parallel_for_fixed_chunks with per-chunk "
                 "partials merged in chunk-index order");
        break;
      }
    }
  }
}

// --------------------------------------------------------- span-naming

const std::set<std::string, std::less<>>& families() {
  // Mirrors the stage-name table in docs/observability.md — keep in sync.
  static const std::set<std::string, std::less<>> set = {
      "allocate-vertices", "attach",  "ball-drop",  "coalesce", "collapse",
      "distinct",          "filter",  "flat_map",   "generate", "grow",
      "kronfit",           "map",     "properties", "reduce",   "sample",
      "seed",              "store",
  };
  return set;
}

const std::set<std::string, std::less<>>& store_subfamilies() {
  // Second segment of store:* spans — the store pipeline's stages, again
  // mirroring docs/observability.md. The store family is the only one
  // with a documented second level: its spans name on-disk pipeline
  // stages (csr build, range merge, verification) that tooling groups by.
  static const std::set<std::string, std::less<>> set = {
      "begin", "count", "csr",      "distinct", "emit",
      "merge", "props", "finalize", "verify",
  };
  return set;
}

bool valid_segment(std::string_view seg) {
  if (seg.empty()) return false;
  for (const char c : seg) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void check_and_emit_span(const Token& literal, const Sink& emit) {
  const std::string name = string_literal_value(literal.text);
  const std::string reason = check_span_name(name);
  if (!reason.empty()) {
    emit(literal.line, "span name \"" + name + "\" " + reason +
                           " — see the stage-name table in "
                           "docs/observability.md");
  }
}

void run_span_naming(const SourceFile& file, const Sink& emit) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // run_stage("x", ...) / run_serial("x", ...) / begin_phase("x").
    if (is_ident(toks[i], "run_stage") || is_ident(toks[i], "run_serial") ||
        is_ident(toks[i], "begin_phase")) {
      const std::size_t open = next_code(toks, i + 1);
      if (open == kNpos || !is_punct(toks[open], "(")) continue;
      const std::size_t arg = next_code(toks, open + 1);
      if (arg != kNpos && toks[arg].kind == TokKind::kString) {
        check_and_emit_span(toks[arg], emit);
      }
      continue;
    }
    // PhaseScope name(recorder, "x") or PhaseScope(recorder, "x"): the
    // first string literal among the constructor arguments is the name.
    if (is_ident(toks[i], "PhaseScope")) {
      std::size_t open = next_code(toks, i + 1);
      if (open != kNpos && toks[open].kind == TokKind::kIdent) {
        open = next_code(toks, open + 1);
      }
      if (open == kNpos || !is_punct(toks[open], "(")) continue;
      const std::size_t close = skip_balanced(toks, open, "(", ")");
      if (close == kNpos) continue;
      for (std::size_t j = open + 1; j + 1 < close; ++j) {
        if (toks[j].kind == TokKind::kString) {
          check_and_emit_span(toks[j], emit);
          break;
        }
      }
    }
  }
}

// ------------------------------------------------ banned-nondeterminism

void run_banned_nondeterminism(const SourceFile& file, const Sink& emit) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    // Entropy/clock *types*: any mention is a violation.
    if (t == "random_device" || t == "system_clock" ||
        t == "high_resolution_clock") {
      emit(toks[i].line,
           "'" + t + "' is nondeterministic — deterministic modules must "
           "draw randomness from a seeded csb::Rng (util/random.hpp) and "
           "time from std::chrono::steady_clock");
      continue;
    }
    // Call forms only, so variables named e.g. `time` stay legal.
    if (t == "rand" || t == "srand" || t == "drand48" || t == "lrand48" ||
        t == "mrand48" || t == "time") {
      const std::size_t open = next_code(toks, i + 1);
      if (open == kNpos || !is_punct(toks[open], "(")) continue;
      // Skip member calls: x.time(...) is someone else's API.
      const std::size_t prev = prev_code(toks, i);
      if (prev != kNpos &&
          (is_punct(toks[prev], ".") || is_punct(toks[prev], "->"))) {
        continue;
      }
      emit(toks[i].line,
           "call to '" + t + "' is nondeterministic — use a seeded "
           "csb::Rng (util/random.hpp); for timestamps, thread them in as "
           "data instead of sampling the wall clock");
    }
  }
}

// ---------------------------------------------------- banned-functions

void run_banned_functions(const SourceFile& file, const Sink& emit) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    const bool unbounded = t == "strcpy" || t == "strcat" || t == "sprintf" ||
                           t == "vsprintf" || t == "gets";
    const bool unchecked_parse =
        t == "atoi" || t == "atol" || t == "atoll" || t == "atof";
    if (!unbounded && !unchecked_parse) continue;
    const std::size_t open = next_code(toks, i + 1);
    if (open == kNpos || !is_punct(toks[open], "(")) continue;
    const std::size_t prev = prev_code(toks, i);
    if (prev != kNpos &&
        (is_punct(toks[prev], ".") || is_punct(toks[prev], "->"))) {
      continue;
    }
    if (unbounded) {
      emit(toks[i].line,
           "'" + t + "' writes without a bound — use std::snprintf, "
           "std::string, or std::format");
    } else {
      emit(toks[i].line,
           "'" + t + "' ignores parse errors — use std::from_chars or "
           "strtol/strtod with explicit error checking");
    }
  }
}

// --------------------------------------------------- unchecked-syscall

void run_unchecked_syscall(const SourceFile& file, const Sink& emit) {
  static constexpr std::array<std::string_view, 7> kSyscalls = {
      "fdatasync", "fsync", "ftruncate", "mmap", "msync", "pread", "pwrite"};
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    bool is_syscall = false;
    for (const std::string_view s : kSyscalls) {
      if (toks[i].text == s) {
        is_syscall = true;
        break;
      }
    }
    if (!is_syscall) continue;
    const std::size_t open = next_code(toks, i + 1);
    if (open == kNpos || !is_punct(toks[open], "(")) continue;
    std::size_t p = prev_code(toks, i);
    if (p != kNpos &&
        (is_punct(toks[p], ".") || is_punct(toks[p], "->"))) {
      continue;  // member call on some wrapper object, not the syscall
    }
    if (p != kNpos && is_punct(toks[p], "::")) p = prev_code(toks, p);
    // Statement position = the result is discarded. Any other context
    // (assignment, condition, CSB_CHECK argument, (void) cast) consumes
    // or deliberately discards it.
    const bool discarded = p == kNpos || is_punct(toks[p], ";") ||
                           is_punct(toks[p], "{") || is_punct(toks[p], "}");
    if (!discarded) continue;
    emit(toks[i].line,
         "return value of '" + toks[i].text +
             "' is ignored — a short write, failed map, or failed truncate "
             "silently corrupts the on-disk artifact; check the result "
             "(CSB_CHECK_MSG or the pwrite_all/pread_all wrappers) or cast "
             "to (void) with a comment saying why failure is acceptable");
  }
}

// ----------------------------------------------------- lock-discipline

void run_lock_discipline(const SourceFile& file, const FileAnalysis& analysis,
                         const Sink& emit) {
  if (analysis.mutex_vars.empty()) return;
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        analysis.mutex_vars.count(toks[i].text) == 0) {
      continue;
    }
    const std::size_t dot = next_code(toks, i + 1);
    if (dot == kNpos ||
        !(is_punct(toks[dot], ".") || is_punct(toks[dot], "->"))) {
      continue;
    }
    const std::size_t member = next_code(toks, dot + 1);
    if (member == kNpos) continue;
    const std::size_t open = next_code(toks, member + 1);
    if (open == kNpos || !is_punct(toks[open], "(")) continue;

    if (is_ident(toks[member], "unlock")) {
      emit(toks[i].line,
           "raw '" + toks[i].text +
               ".unlock()' — manual unlock discipline; hold the mutex "
               "through std::lock_guard/std::scoped_lock (RAII) instead");
      continue;
    }
    if (!is_ident(toks[member], "lock")) continue;

    std::string message =
        "raw '" + toks[i].text +
        ".lock()' — use std::lock_guard/std::scoped_lock so every exit "
        "path unlocks";
    // Look for the matching unlock on the same variable inside the same
    // function, and for exits that would skip it.
    const int fn = analysis.scopes.enclosing_function(i);
    const std::size_t fn_end =
        fn >= 0 ? analysis.scopes.scopes[static_cast<std::size_t>(fn)].body_end
                : toks.size();
    std::size_t unlock = kNpos;
    for (std::size_t j = member + 1; j < fn_end && j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::kIdent || toks[j].text != toks[i].text) {
        continue;
      }
      const std::size_t d = next_code(toks, j + 1);
      if (d == kNpos || !(is_punct(toks[d], ".") || is_punct(toks[d], "->"))) {
        continue;
      }
      const std::size_t m = next_code(toks, d + 1);
      if (m != kNpos && is_ident(toks[m], "unlock")) {
        unlock = m;
        break;
      }
    }
    if (unlock == kNpos) {
      message += "; no matching '" + toks[i].text +
                 ".unlock()' in this function";
    } else {
      for (std::size_t j = member + 1; j < unlock; ++j) {
        if (toks[j].kind != TokKind::kIdent) continue;
        const bool exits = toks[j].text == "return" ||
                           toks[j].text == "throw" ||
                           toks[j].text == "CSB_CHECK" ||
                           toks[j].text == "CSB_CHECK_MSG";
        if (!exits) continue;
        // An exit inside a nested lambda doesn't leave *this* function.
        if (analysis.scopes.enclosing_function(j) != fn) continue;
        message += "; the unlock at line " +
                   std::to_string(toks[unlock].line) +
                   " is skipped when line " + std::to_string(toks[j].line) +
                   " exits early";
        break;
      }
    }
    emit(toks[i].line, std::move(message));
  }
}

// -------------------------------------------- detached-thread-capture

void run_detached_thread_capture(const SourceFile& file,
                                 const FileAnalysis& analysis,
                                 const Sink& emit) {
  const auto& toks = file.tokens;
  const auto& scopes = analysis.scopes.scopes;

  // Lambdas directly inside [open, close) — not nested in another lambda
  // that is itself inside the range (an inner lambda runs on the outer
  // lambda's thread, so its ref captures are the outer lambda's problem).
  const auto outermost_lambdas_in = [&](std::size_t open, std::size_t close) {
    std::vector<const Scope*> result;
    for (const Scope& scope : scopes) {
      if (scope.kind != ScopeKind::kLambda) continue;
      if (scope.header <= open || scope.header >= close) continue;
      bool nested = false;
      for (const Scope& other : scopes) {
        if (&other == &scope || other.kind != ScopeKind::kLambda) continue;
        if (other.header > open && other.body_begin < scope.header &&
            scope.header < other.body_end) {
          nested = true;
          break;
        }
      }
      if (!nested) result.push_back(&scope);
    }
    return result;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;

    // x.detach() / x->detach(): the thread outlives every reference it
    // captured, whatever the capture list said.
    if (toks[i].text == "detach") {
      const std::size_t p = prev_code(toks, i);
      const std::size_t open = next_code(toks, i + 1);
      if (p != kNpos && (is_punct(toks[p], ".") || is_punct(toks[p], "->")) &&
          open != kNpos && is_punct(toks[open], "(")) {
        emit(toks[i].line,
             "'.detach()' — a detached thread outliving its creator turns "
             "every captured reference into a dangling pointer; join the "
             "thread or hand ownership to a long-lived owner");
      }
      continue;
    }

    const bool spawns = toks[i].text == "thread" || toks[i].text == "jthread" ||
                        toks[i].text == "async";
    if (!spawns) continue;
    // Only the std:: spellings: plenty of local identifiers are called
    // `thread`, but `std::thread`/`std::async` are unambiguous.
    std::size_t p = prev_code(toks, i);
    if (p == kNpos || !is_punct(toks[p], "::")) continue;
    p = prev_code(toks, p);
    if (p == kNpos || !is_ident(toks[p], "std")) continue;

    // std::async(... or std::thread name(... / std::thread{...}.
    std::size_t open = next_code(toks, i + 1);
    if (open != kNpos && toks[open].kind == TokKind::kIdent) {
      open = next_code(toks, open + 1);
    }
    if (open == kNpos) continue;
    std::size_t close = kNpos;
    if (is_punct(toks[open], "(")) {
      close = skip_balanced(toks, open, "(", ")");
    } else if (is_punct(toks[open], "{")) {
      close = skip_balanced(toks, open, "{", "}");
    }
    if (close == kNpos) continue;

    for (const Scope* lambda : outermost_lambdas_in(open, close)) {
      if (!lambda->captures_ref && !lambda->captures_this) continue;
      const std::string what =
          lambda->captures_ref
              ? (lambda->captures_this ? "by reference and `this`"
                                       : "by reference")
              : "`this`";
      emit(toks[i].line,
           "lambda handed to std::" + toks[i].text + " captures " + what +
               " — the new thread can outlive the captured frame; capture "
               "by value, or suppress with a comment proving the thread is "
               "joined/awaited before the referents die");
    }
  }
}

// -------------------------------------------------------- span-balance

/// Token index of the first token of the statement containing `i` (just
/// past the previous `;`/`{`/`}`).
std::size_t statement_start(const std::vector<Token>& toks, std::size_t i) {
  std::size_t j = i;
  while (j > 0) {
    --j;
    if (is_punct(toks[j], ";") || is_punct(toks[j], "{") ||
        is_punct(toks[j], "}")) {
      return j + 1;
    }
  }
  return 0;
}

void run_span_balance(const SourceFile& file, const FileAnalysis& analysis,
                      const Sink& emit) {
  const auto& toks = file.tokens;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;

    // (b) run_stage inside run_serial's argument list: the parallel stage
    // books as driver-serial time, and a pool task scheduling pool tasks
    // can deadlock a one-thread pool.
    if (toks[i].text == "run_serial") {
      const std::size_t open = next_code(toks, i + 1);
      if (open == kNpos || !is_punct(toks[open], "(")) continue;
      const std::size_t close = skip_balanced(toks, open, "(", ")");
      if (close == kNpos) continue;
      for (std::size_t j = open + 1; j + 1 < close; ++j) {
        if (!is_ident(toks[j], "run_stage")) continue;
        const std::size_t o = next_code(toks, j + 1);
        if (o == kNpos || !is_punct(toks[o], "(")) continue;
        emit(toks[j].line,
             "run_stage nested inside run_serial — the parallel stage "
             "books as serial driver time and a pool task scheduling pool "
             "tasks can deadlock; hoist the stage out of the serial "
             "segment");
      }
      continue;
    }

    // (a) begin_phase pairing.
    if (toks[i].text != "begin_phase") continue;
    const std::size_t open = next_code(toks, i + 1);
    if (open == kNpos || !is_punct(toks[open], "(")) continue;
    {
      // Skip qualified definitions (TraceRecorder::begin_phase) — the
      // rule anchors on call sites.
      const std::size_t p = prev_code(toks, i);
      if (p != kNpos && is_punct(toks[p], "::") &&
          [&] {
            const std::size_t q = prev_code(toks, p);
            return q != kNpos && toks[q].kind == TokKind::kIdent &&
                   std::isupper(static_cast<unsigned char>(toks[q].text[0]));
          }()) {
        continue;
      }
    }
    const int fn = analysis.scopes.enclosing_function(i);
    if (fn < 0) continue;  // declaration / PhaseScope's own init list
    const std::size_t fn_end =
        analysis.scopes.scopes[static_cast<std::size_t>(fn)].body_end;

    // Which variable holds the phase id? First top-level `=` of the
    // statement; no `=` means the id is discarded outright.
    const std::size_t stmt = statement_start(toks, i);
    std::size_t handle = kNpos;
    for (std::size_t j = stmt; j < i; ++j) {
      if (is_punct(toks[j], "=")) {
        const std::size_t v = prev_code(toks, j);
        if (v != kNpos && toks[v].kind == TokKind::kIdent) handle = v;
        break;
      }
    }
    if (handle == kNpos) {
      emit(toks[i].line,
           "the id returned by begin_phase is discarded — end_phase can "
           "never close this span; use PhaseScope (RAII)");
      continue;
    }
    const std::string& var = toks[handle].text;

    // Find end_phase(<var>) later in the same function.
    std::size_t end_call = kNpos;
    for (std::size_t j = open; j < fn_end && j < toks.size(); ++j) {
      if (!is_ident(toks[j], "end_phase")) continue;
      const std::size_t o = next_code(toks, j + 1);
      if (o == kNpos || !is_punct(toks[o], "(")) continue;
      const std::size_t c = skip_balanced(toks, o, "(", ")");
      if (c == kNpos) continue;
      for (std::size_t a = o + 1; a + 1 < c; ++a) {
        if (is_ident(toks[a], var)) {
          end_call = j;
          break;
        }
      }
      if (end_call != kNpos) break;
    }
    if (end_call == kNpos) {
      emit(toks[i].line,
           "begin_phase has no matching end_phase(" + var +
               ") in this function — the span never closes; use PhaseScope "
               "(RAII) so every path ends it");
      continue;
    }
    // Every return/throw/throwing-CHECK between begin and end skips the
    // end_phase. Exits inside nested lambdas leave the lambda, not this
    // function, so they don't count.
    for (std::size_t j = i + 1; j < end_call; ++j) {
      if (toks[j].kind != TokKind::kIdent) continue;
      const bool exits = toks[j].text == "return" || toks[j].text == "throw" ||
                         toks[j].text == "CSB_CHECK" ||
                         toks[j].text == "CSB_CHECK_MSG";
      if (!exits) continue;
      if (analysis.scopes.enclosing_function(j) != fn) continue;
      emit(toks[i].line,
           "the end_phase at line " + std::to_string(toks[end_call].line) +
               " is skipped when line " + std::to_string(toks[j].line) +
               " exits early — the span leaks open; use PhaseScope (RAII)");
      break;
    }
  }
}

// --------------------------------------------------- counter-rng-reuse

void run_counter_rng_reuse(const SourceFile& file,
                           const FileAnalysis& analysis, const Sink& emit) {
  const auto& toks = file.tokens;
  // Per enclosing function: stream key (first counter_rng argument,
  // tokens joined) -> line of the first parallel loop consuming it.
  std::map<int, std::map<std::string, int>> consumed;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "parallel_for_fixed_chunks")) continue;
    const std::size_t open = next_code(toks, i + 1);
    if (open == kNpos || !is_punct(toks[open], "(")) continue;
    const std::size_t close = skip_balanced(toks, open, "(", ")");
    if (close == kNpos) continue;
    const int fn = analysis.scopes.enclosing_function(i);
    const int loop_line = toks[i].line;

    std::map<std::string, int> this_loop;
    for (std::size_t j = open + 1; j + 1 < close; ++j) {
      if (!is_ident(toks[j], "counter_rng")) continue;
      const std::size_t o = next_code(toks, j + 1);
      if (o == kNpos || !is_punct(toks[o], "(")) continue;
      const std::size_t c = skip_balanced(toks, o, "(", ")");
      if (c == kNpos) continue;
      // First argument: tokens up to the first depth-1 comma.
      std::string key;
      int depth = 1;
      for (std::size_t a = o + 1; a + 1 < c; ++a) {
        if (is_punct(toks[a], "(") || is_punct(toks[a], "[") ||
            is_punct(toks[a], "{")) {
          ++depth;
        }
        if (is_punct(toks[a], ")") || is_punct(toks[a], "]") ||
            is_punct(toks[a], "}")) {
          --depth;
        }
        if (depth == 1 && is_punct(toks[a], ",")) break;
        if (toks[a].kind == TokKind::kComment) continue;
        if (!key.empty()) key += ' ';
        key += toks[a].text;
      }
      if (key.empty()) continue;
      const auto prior = consumed[fn].find(key);
      if (prior != consumed[fn].end()) {
        emit(toks[j].line,
             "chunk RNG stream key '" + key +
                 "' is already consumed by the parallel loop at line " +
                 std::to_string(prior->second) +
                 " — two loops sharing one counter stream draw correlated "
                 "values and break the byte-identical contract; salt each "
                 "loop's key with a distinct constant (util/random.hpp)");
      } else if (this_loop.find(key) == this_loop.end()) {
        this_loop.emplace(key, loop_line);
      }
    }
    for (const auto& [key, line] : this_loop) {
      consumed[fn].emplace(key, line);
    }
  }
}

}  // namespace

// ------------------------------------------------------------- public

std::string_view severity_name(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

const std::vector<RuleInfo>& rule_catalog() { return catalog(); }

bool is_known_rule(std::string_view name) {
  for (const RuleInfo& rule : catalog()) {
    if (rule.name == name) return true;
  }
  return false;
}

bool rule_applies(const RuleInfo& rule, std::string_view path) {
  if (rule.scope.empty()) return true;
  for (const std::string_view dir : rule.scope) {
    if (path.find(dir) != std::string_view::npos) return true;
  }
  return false;
}

SymbolIndex build_symbol_index(const std::vector<SourceFile>& files) {
  SymbolIndex index;
  // Two alias rounds resolve alias-of-alias chains across file order.
  for (int round = 0; round < 2; ++round) {
    for (const SourceFile& file : files) collect_aliases(file, index);
  }
  for (const SourceFile& file : files) collect_vars(file, index);
  return index;
}

FileAnalysis analyze_file(const SourceFile& file) {
  FileAnalysis analysis;
  analysis.scopes = build_scope_tree(file);
  analysis.mutex_vars = leading_type_decls(file, [](const Token& tok) {
    return tok.kind == TokKind::kIdent &&
           mutex_type_names().count(tok.text) != 0;
  });
  return analysis;
}

const std::set<std::string, std::less<>>& span_name_families() {
  return families();
}

const std::set<std::string, std::less<>>& store_span_subfamilies() {
  return store_subfamilies();
}

std::string check_span_name(std::string_view name) {
  if (name.empty()) return "is empty";
  std::size_t start = 0;
  std::size_t segment = 0;
  bool is_store = false;
  while (start <= name.size()) {
    const std::size_t colon = name.find(':', start);
    const std::string_view seg =
        name.substr(start, colon == std::string_view::npos ? std::string_view::npos
                                                           : colon - start);
    if (!valid_segment(seg)) {
      return "has a malformed segment \"" + std::string(seg) +
             "\" (segments are [a-z0-9_-]+ joined by ':')";
    }
    if (segment == 0) {
      if (families().count(seg) == 0) {
        return "starts with undocumented stage family \"" + std::string(seg) +
               "\"";
      }
      is_store = seg == "store";
    } else if (segment == 1 && is_store &&
               store_subfamilies().count(seg) == 0) {
      return "uses undocumented store sub-family \"" + std::string(seg) +
             "\"";
    }
    ++segment;
    if (colon == std::string_view::npos) break;
    start = colon + 1;
  }
  return {};
}

void run_rule(std::string_view rule_name, const SourceFile& file,
              const SymbolIndex& symbols, const FileAnalysis& analysis,
              const Sink& emit) {
  if (rule_name == "unordered-iteration") {
    run_unordered_iteration(file, symbols, emit);
  } else if (rule_name == "atomic-float-reduce") {
    run_atomic_float_reduce(file, emit);
  } else if (rule_name == "raw-parallel-reduce") {
    run_raw_parallel_reduce(file, emit);
  } else if (rule_name == "span-naming") {
    run_span_naming(file, emit);
  } else if (rule_name == "span-balance") {
    run_span_balance(file, analysis, emit);
  } else if (rule_name == "banned-nondeterminism") {
    run_banned_nondeterminism(file, emit);
  } else if (rule_name == "banned-functions") {
    run_banned_functions(file, emit);
  } else if (rule_name == "unchecked-syscall") {
    run_unchecked_syscall(file, emit);
  } else if (rule_name == "lock-discipline") {
    run_lock_discipline(file, analysis, emit);
  } else if (rule_name == "detached-thread-capture") {
    run_detached_thread_capture(file, analysis, emit);
  } else if (rule_name == "counter-rng-reuse") {
    run_counter_rng_reuse(file, analysis, emit);
  }
  // bad-suppression: emitted by the driver, nothing to scan here.
}

}  // namespace csb::lint
