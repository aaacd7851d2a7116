// Fixture: span-balance. Lines tagged "VIOLATION" must each produce
// exactly one diagnostic; the balanced span, the exit inside a nested
// lambda, and the suppressed case stay silent. Every span literal uses a
// documented family so span-naming stays quiet. Never compiled.
#include <cstdint>

namespace fixture {

void discarded(TraceRecorder* trace) {
  trace->begin_phase("grow");  // VIOLATION
}

void never_closed(TraceRecorder* trace) {
  const std::uint64_t id = trace->begin_phase("seed");  // VIOLATION
  (void)id;
}

void skipped_by_check(TraceRecorder* trace, std::uint64_t count) {
  const std::uint64_t id = trace->begin_phase("sample");  // VIOLATION
  CSB_CHECK_MSG(count > 0, "empty input");
  trace->end_phase(id);
}

void serial_deadlock(ClusterSim& cluster, std::vector<Task> tasks) {
  cluster.run_serial("coalesce", [&] {
    cluster.run_stage("attach", std::move(tasks));  // VIOLATION
  });
}

void balanced(TraceRecorder* trace, std::uint64_t n) {
  const std::uint64_t id = trace->begin_phase("generate");
  for (std::uint64_t i = 0; i < n; ++i) {
  }
  trace->end_phase(id);
}

void lambda_exit_stays_inside(TraceRecorder* trace) {
  const std::uint64_t id = trace->begin_phase("filter");
  auto probe = [](std::uint64_t v) { return v + 1; };
  (void)probe(1);
  trace->end_phase(id);
}

void justified(TraceRecorder* trace) {
  // csblint: span-balance-ok — fixture case
  trace->begin_phase("grow");
}

}  // namespace fixture
