// Fixture: span-naming. Lines tagged "VIOLATION" must each produce exactly
// one diagnostic; the suppressed legacy name must be silenced and counted;
// names from the documented grammar must stay clean. Never compiled.

namespace fixture {

void emit_spans(ClusterSim& cluster) {
  cluster.run_stage("store:merge:seal", [] {});
  cluster.run_stage("Shuffle", [] {});  // VIOLATION
  cluster.run_serial("warmup:pass", [] {});  // VIOLATION
  cluster.run_serial("kronfit:gradient", [] {});
}

void scoped_span(TraceRecorder& recorder) {
  PhaseScope phase(recorder, "collapse:fold");
  PhaseScope bad(recorder, "Mystery Phase");  // VIOLATION
}

void legacy_span(ClusterSim& cluster) {
  // csblint: span-naming-ok — fixture case
  cluster.run_stage("legacy_stage:keep", [] {});
}

}  // namespace fixture
