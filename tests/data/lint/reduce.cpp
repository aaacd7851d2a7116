// Fixture: raw-parallel-reduce. Lines tagged "VIOLATION" must each produce
// exactly one diagnostic; the suppressed accumulation must be silenced and
// counted; the per-chunk-partial pattern must stay clean. Never compiled.
#include <cstddef>
#include <vector>

namespace fixture {

double total = 0.0;

void racy_reduce(ThreadPool* pool) {
  parallel_for_fixed_chunks(pool, 0, 100, 10, [&](const ChunkRange& c) {
    for (std::size_t i = c.begin; i < c.end; ++i) {
      total += static_cast<double>(i);  // VIOLATION
    }
  });
}

void racy_local_total(ThreadPool* pool) {
  float residual = 1.0f;
  parallel_for_fixed_chunks(pool, 0, 100, 10, [&](const ChunkRange& c) {
    residual -= static_cast<float>(c.end - c.begin);  // VIOLATION
  });
}

void blessed_partials(ThreadPool* pool, std::size_t chunks) {
  std::vector<double> partials(chunks, 0.0);
  parallel_for_fixed_chunks(pool, 0, 100, 10, [&](const ChunkRange& c) {
    double local = 0.0;
    for (std::size_t i = c.begin; i < c.end; ++i) {
      local += static_cast<double>(i);  // lambda-local partial: fine
    }
    partials[c.chunk_index] += local;  // one slot per chunk: fine
  });
  for (const double partial : partials) total += partial;  // serial merge
}

void justified_reduce(ThreadPool* pool) {
  parallel_for_fixed_chunks(pool, 0, 100, 10, [&](const ChunkRange& c) {
    // csblint: raw-parallel-reduce-ok — fixture case
    total += static_cast<double>(c.begin);
  });
}

}  // namespace fixture
