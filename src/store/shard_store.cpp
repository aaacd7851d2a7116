#include "store/shard_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <utility>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/file_mapping.hpp"
#include "util/parallel.hpp"
#include "util/scoped_fd.hpp"
#include "util/thread_pool.hpp"

namespace csb {

namespace {

constexpr char kManifestFormat[] = "csb.shards.v2";
constexpr char kManifestName[] = "manifest.json";
constexpr char kCsrMagic[4] = {'C', 'S', 'B', 'X'};
constexpr std::uint32_t kCsrVersion = 1;
constexpr std::uint64_t kCsrHeaderBytes = 24;
/// Bytes per edge in a shard edge file (src u64 + dst u64).
constexpr std::uint64_t kEdgeBytes = 16;
/// Edges per IO chunk when streaming shard files.
constexpr std::size_t kScanChunk = 1 << 16;
/// (dst, src) pairs buffered per partition stream before flushing.
constexpr std::size_t kPartitionBufPairs = 1 << 13;
/// Cap on concurrent scatter / merge range tasks: beyond this the budget
/// split makes the per-task sub-buckets too small to amortize rescans.
constexpr std::size_t kMaxRangeTasks = 16;
/// Floor on one scatter task's slice budget after the even split.
constexpr std::uint64_t kMinTaskBudget = 1 << 16;

constexpr std::uint64_t kEdgeSumSalt = 0x5ead'd09e'0000'0001ULL;
constexpr std::uint64_t kCsrSumSalt = 0xc5a0'11d8'0000'0003ULL;

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::string hex_u64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t parse_hex_u64(const std::string& path, const JsonValue& value) {
  CSB_CHECK_MSG(value.is_string(),
                path << ": manifest checksum/seed must be a hex string");
  const std::string& text = value.as_string();
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out, 16);
  CSB_CHECK_MSG(ec == std::errc{} && ptr == text.data() + text.size(),
                path << ": malformed hex value '" << text << "'");
  return out;
}

std::string shard_file_name(const char* prefix, std::uint32_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s-%04u.bin", prefix, shard);
  return buf;
}

void pwrite_all(int fd, const void* data, std::size_t bytes,
                std::uint64_t offset, const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::pwrite(fd, p, bytes, static_cast<off_t>(offset));
    CSB_CHECK_MSG(n > 0, "short write to shard file: " << path);
    p += n;
    offset += static_cast<std::uint64_t>(n);
    bytes -= static_cast<std::size_t>(n);
  }
}

void pread_all(int fd, void* data, std::size_t bytes, std::uint64_t offset,
               const std::string& path) {
  char* p = static_cast<char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::pread(fd, p, bytes, static_cast<off_t>(offset));
    CSB_CHECK_MSG(n > 0, "short read from shard file: " << path);
    p += n;
    offset += static_cast<std::uint64_t>(n);
    bytes -= static_cast<std::size_t>(n);
  }
}

/// Calls fn(column, offset) for each property column of `columns` in
/// schema order, where `offset` is the column's byte offset within a prop
/// file holding `shard_edges` rows (the columns are laid end to end).
template <typename Columns, typename Fn>
void for_each_prop_column(Columns& columns, std::uint64_t shard_edges,
                          Fn&& fn) {
  std::uint64_t offset = 0;
  columns.for_each_column([&](auto& column) {
    fn(column, offset);
    offset += sizeof(column[0]) * shard_edges;
  });
}

/// Advises the kernel that `fd` will be read front to back. Purely a
/// readahead hint — a no-op where the platform lacks posix_fadvise.
void advise_sequential_read(int fd) {
#if defined(POSIX_FADV_SEQUENTIAL)
  (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_SEQUENTIAL);
#else
  (void)fd;
#endif
}

/// Appends to a sequentially-written file (partition streams).
void write_all(int fd, const void* data, std::size_t bytes,
               const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::write(fd, p, bytes);
    CSB_CHECK_MSG(n > 0, "short write to store file: " << path);
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
}

}  // namespace

std::uint64_t edge_checksum_term(std::uint64_t index, VertexId src,
                                 VertexId dst) {
  return mix64(mix64(index ^ kEdgeSumSalt) + 3 * mix64(src) + 7 * mix64(dst));
}

std::uint64_t csr_checksum_term(std::uint64_t word_index, std::uint64_t word) {
  return mix64(mix64(word_index ^ kCsrSumSalt) + 5 * mix64(word));
}

std::uint64_t property_checksum_term(std::uint64_t index,
                                     const EdgeProperties& row) {
  std::uint64_t acc = index ^ 0x9602'0b57'0000'0002ULL;
  zip_netflow_columns([&](auto field) {
    acc = acc * 31 + static_cast<std::uint64_t>(row.*field.member);
  });
  return mix64(acc);
}

// ------------------------------------------------------------- ShardStore

struct ShardStore::ShardFile {
  std::string edge_path;
  std::string prop_path;
  ScopedFd edge_fd;
  ScopedFd prop_fd;
  std::uint64_t first_edge = 0;
  std::uint64_t edges = 0;
  std::atomic<std::uint64_t> edge_sum{0};
  std::atomic<std::uint64_t> prop_sum{0};
};

ShardStore::ShardStore(ShardStoreOptions options)
    : options_(std::move(options)) {
  CSB_CHECK_MSG(!options_.directory.empty(),
                "ShardStore needs a target directory");
  CSB_CHECK_MSG(options_.shard_count > 0, "shard_count must be positive");
}

ShardStore::~ShardStore() = default;

void ShardStore::begin(const StoreHeader& header) {
  CSB_CHECK_MSG(!begun_, "ShardStore::begin called twice");
  begun_ = true;
  header_ = header;
  const std::uint32_t s_count = options_.shard_count;
  per_shard_ = std::max<std::uint64_t>(
      1, (header.edges + s_count - 1) / s_count);

  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec) {
    throw cannot_write("store directory", options_.directory, ec.message());
  }

  // Creates the shard file at `path` with `bytes` bytes.
  const auto create = [](const std::string& path, std::uint64_t bytes) {
    ScopedFd fd(::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644));
    if (fd.fd < 0 || ::ftruncate(fd.fd, static_cast<off_t>(bytes)) != 0) {
      throw cannot_write("shard file", path, errno_text());
    }
    return fd;
  };
  shards_.reserve(s_count);
  for (std::uint32_t s = 0; s < s_count; ++s) {
    auto shard = std::make_unique<ShardFile>();
    shard->first_edge = std::min<std::uint64_t>(s * per_shard_, header.edges);
    const std::uint64_t end =
        std::min<std::uint64_t>(shard->first_edge + per_shard_, header.edges);
    shard->edges = end - shard->first_edge;
    shard->edge_path =
        (fs::path(options_.directory) / shard_file_name("edges", s)).string();
    shard->edge_fd = create(shard->edge_path, shard->edges * kEdgeBytes);
    if (header.with_properties) {
      shard->prop_path =
          (fs::path(options_.directory) / shard_file_name("props", s)).string();
      shard->prop_fd = create(shard->prop_path,
                              shard->edges * PropertyColumns::kRowBytes);
    }
    shards_.push_back(std::move(shard));
  }
}

void ShardStore::put_edges(std::uint64_t first_edge,
                           std::span<const VertexId> src,
                           std::span<const VertexId> dst) {
  CSB_CHECK_MSG(begun_ && !finished_, "put_edges outside begin/finish");
  CSB_CHECK_MSG(src.size() == dst.size(), "endpoint spans must align");
  CSB_CHECK_MSG(first_edge + src.size() <= header_.edges,
                "edge chunk exceeds the announced edge count");
  const std::uint64_t last = first_edge + src.size();
  for (std::uint64_t at = first_edge; at < last;) {
    const std::size_t s = static_cast<std::size_t>(at / per_shard_);
    ShardFile& shard = *shards_[s];
    const std::uint64_t end =
        std::min<std::uint64_t>(last, shard.first_edge + shard.edges);
    const std::uint64_t count = end - at;
    const std::uint64_t local = at - shard.first_edge;
    const std::uint64_t in_chunk = at - first_edge;
    pwrite_all(shard.edge_fd.fd, src.data() + in_chunk,
               count * sizeof(VertexId), local * sizeof(VertexId),
               shard.edge_path);
    pwrite_all(shard.edge_fd.fd, dst.data() + in_chunk,
               count * sizeof(VertexId),
               shard.edges * sizeof(VertexId) + local * sizeof(VertexId),
               shard.edge_path);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      sum += edge_checksum_term(at + i, src[in_chunk + i], dst[in_chunk + i]);
    }
    shard.edge_sum.fetch_add(sum, std::memory_order_relaxed);
    at = end;
  }
}

void ShardStore::put_properties(std::uint64_t first_edge,
                                const PropertyRowsView& rows) {
  CSB_CHECK_MSG(begun_ && !finished_, "put_properties outside begin/finish");
  CSB_CHECK_MSG(header_.with_properties,
                "put_properties on a structure-only store");
  CSB_CHECK_MSG(first_edge + rows.size() <= header_.edges,
                "property chunk exceeds the announced edge count");
  const std::uint64_t last = first_edge + rows.size();
  for (std::uint64_t at = first_edge; at < last;) {
    const std::size_t s = static_cast<std::size_t>(at / per_shard_);
    ShardFile& shard = *shards_[s];
    const std::uint64_t end =
        std::min<std::uint64_t>(last, shard.first_edge + shard.edges);
    const std::uint64_t count = end - at;
    const std::uint64_t local = at - shard.first_edge;
    const std::uint64_t in_chunk = at - first_edge;
    for_each_prop_column(
        rows, shard.edges, [&](const auto& column, std::uint64_t offset) {
          const std::uint64_t width = sizeof(column[0]);
          pwrite_all(shard.prop_fd.fd, column.data() + in_chunk,
                     count * width, offset + local * width, shard.prop_path);
        });
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      sum += property_checksum_term(at + i, rows.row(in_chunk + i));
    }
    shard.prop_sum.fetch_add(sum, std::memory_order_relaxed);
    at = end;
  }
}

void ShardStore::finish() {
  CSB_CHECK_MSG(begun_ && !finished_, "finish outside begin / called twice");
  finished_ = true;
  namespace fs = std::filesystem;

  std::uint64_t csr_checksum = 0;
  std::string csr_file;
  if (options_.build_csr) {
    const std::uint64_t n = header_.vertices;
    const std::uint64_t m = header_.edges;
    ThreadPool* pool = options_.pool;

    // Counting pass: out-degrees and in-counts, one task per shard, all
    // incrementing shared atomic arrays with relaxed adds. Integer
    // addition commutes, so the totals are identical at any pool size —
    // the same argument that already covers the shard checksums.
    std::vector<std::uint64_t> out_deg(n, 0);
    std::vector<std::uint64_t> offsets(n + 1, 0);
    {
      PhaseScope count_scope(TraceRecorder::current(), "store:csr:count");
      std::vector<std::atomic<std::uint64_t>> out_counts(n);
      std::vector<std::atomic<std::uint64_t>> in_counts(n);
      std::vector<std::function<void()>> tasks;
      tasks.reserve(shards_.size());
      for (const auto& shard_ptr : shards_) {
        ShardFile* shard = shard_ptr.get();
        tasks.push_back([shard, n, &out_counts, &in_counts] {
          advise_sequential_read(shard->edge_fd.fd);
          std::vector<VertexId> buf(kScanChunk);
          for (std::uint64_t at = 0; at < shard->edges; at += kScanChunk) {
            const std::uint64_t count =
                std::min<std::uint64_t>(kScanChunk, shard->edges - at);
            pread_all(shard->edge_fd.fd, buf.data(), count * sizeof(VertexId),
                      at * sizeof(VertexId), shard->edge_path);
            for (std::uint64_t i = 0; i < count; ++i) {
              CSB_CHECK_MSG(buf[i] < n,
                            "edge endpoints must be existing vertices");
              out_counts[buf[i]].fetch_add(1, std::memory_order_relaxed);
            }
            pread_all(shard->edge_fd.fd, buf.data(), count * sizeof(VertexId),
                      shard->edges * sizeof(VertexId) + at * sizeof(VertexId),
                      shard->edge_path);
            for (std::uint64_t i = 0; i < count; ++i) {
              CSB_CHECK_MSG(buf[i] < n,
                            "edge endpoints must be existing vertices");
              in_counts[buf[i]].fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
      }
      parallel_tasks(pool, tasks);
      for (std::uint64_t v = 0; v < n; ++v) {
        out_deg[v] = out_counts[v].load(std::memory_order_relaxed);
        offsets[v + 1] = in_counts[v].load(std::memory_order_relaxed);
      }
    }
    for (std::uint64_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

    // csr.bin is pre-sized and written with pwrite at computed offsets, so
    // concurrent range tasks each own a disjoint slice of the file. The
    // checksum is a commutative word-index-keyed sum (csr_checksum_term),
    // accumulated with relaxed adds in whatever order slices complete.
    csr_file = "csr.bin";
    const std::string csr_path =
        (fs::path(options_.directory) / csr_file).string();
    const std::uint64_t total_words = 3 + n + (n + 1) + m;
    ScopedFd csr_fd(::open(csr_path.c_str(), O_RDWR | O_CREAT | O_TRUNC,
                           0644));
    CSB_CHECK_MSG(csr_fd.fd >= 0, "cannot create CSR file: " << csr_path);
    CSB_CHECK_MSG(::ftruncate(csr_fd.fd,
                              static_cast<off_t>(total_words * 8)) == 0,
                  "cannot size CSR file: " << csr_path);
    std::uint64_t header_words[3] = {0, n, m};
    std::memcpy(header_words, kCsrMagic, sizeof kCsrMagic);
    std::memcpy(reinterpret_cast<char*>(header_words) + 4, &kCsrVersion,
                sizeof kCsrVersion);
    pwrite_all(csr_fd.fd, header_words, sizeof header_words, 0, csr_path);
    pwrite_all(csr_fd.fd, out_deg.data(), n * 8, kCsrHeaderBytes, csr_path);
    pwrite_all(csr_fd.fd, offsets.data(), (n + 1) * 8,
               kCsrHeaderBytes + n * 8, csr_path);

    std::atomic<std::uint64_t> csr_sum{0};
    const auto fold_words = [&csr_sum](std::uint64_t first_word,
                                       const std::uint64_t* words,
                                       std::size_t count) {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < count; ++i) {
        sum += csr_checksum_term(first_word + i, words[i]);
      }
      csr_sum.fetch_add(sum, std::memory_order_relaxed);
    };
    fold_words(0, header_words, 3);
    parallel_for_fixed_chunks(
        pool, 0, n, kScanChunk, [&](const ChunkRange& c) {
          fold_words(3 + c.begin, out_deg.data() + c.begin, c.end - c.begin);
        });
    parallel_for_fixed_chunks(
        pool, 0, n + 1, kScanChunk, [&](const ChunkRange& c) {
          fold_words(3 + n + c.begin, offsets.data() + c.begin,
                     c.end - c.begin);
        });

    // Scatter pass. The vertex space is cut into `ranges` contiguous
    // spans balanced by incoming-neighbor bytes; each range task owns the
    // disjoint csr.bin slice [offsets[range_begin], offsets[range_end])
    // and an even share of the memory budget. With more than one range, a
    // partition pre-pass splits every shard's (dst, src) pairs into
    // per-(shard, range) spill files in shard order, so a range task's
    // sub-buckets rescan only the 1/ranges-sized pair stream they own —
    // the rescan volume per task shrinks with the task count instead of
    // multiplying the whole job per sub-bucket. Slice content is the
    // global-edge-order subsequence with dst in the range either way, so
    // the bytes are identical at any range count or pool size.
    const std::uint64_t budget =
        std::max<std::uint64_t>(options_.memory_budget_bytes, 1 << 20);
    const std::size_t ranges =
        pool == nullptr ? 1 : std::min<std::size_t>(pool->size(),
                                                    kMaxRangeTasks);
    std::vector<std::uint64_t> range_starts(ranges + 1, n);
    range_starts[0] = 0;
    for (std::size_t r = 1; r < ranges; ++r) {
      const std::uint64_t target = (m / ranges) * r;
      range_starts[r] = static_cast<std::uint64_t>(
          std::lower_bound(offsets.begin(), offsets.end(), target) -
          offsets.begin());
      if (range_starts[r] > n) range_starts[r] = n;
    }
    const auto range_of = [&range_starts](VertexId dst) {
      return static_cast<std::size_t>(
                 std::upper_bound(range_starts.begin(), range_starts.end(),
                                  dst) -
                 range_starts.begin()) -
             1;
    };

    std::vector<std::vector<std::string>> part_paths(
        shards_.size(), std::vector<std::string>(ranges));
    std::vector<std::vector<std::uint64_t>> part_pairs(
        shards_.size(), std::vector<std::uint64_t>(ranges, 0));
    if (ranges > 1) {
      PhaseScope part_scope(TraceRecorder::current(), "store:csr:partition");
      std::vector<std::function<void()>> tasks;
      tasks.reserve(shards_.size());
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        for (std::size_t r = 0; r < ranges; ++r) {
          char name[64];
          std::snprintf(name, sizeof name, "csr-part-%04zu-%02zu.tmp", s, r);
          part_paths[s][r] = (fs::path(options_.directory) / name).string();
        }
        tasks.push_back([this, s, ranges, &part_paths, &part_pairs,
                         &range_of] {
          ShardFile& shard = *shards_[s];
          advise_sequential_read(shard.edge_fd.fd);
          std::vector<ScopedFd> fds;
          fds.reserve(ranges);
          for (std::size_t r = 0; r < ranges; ++r) {
            fds.emplace_back(::open(part_paths[s][r].c_str(),
                                    O_WRONLY | O_CREAT | O_TRUNC, 0644));
            CSB_CHECK_MSG(fds.back().fd >= 0, "cannot create CSR partition: "
                                                  << part_paths[s][r]);
          }
          std::vector<std::vector<std::uint64_t>> bufs(ranges);
          for (auto& b : bufs) b.reserve(2 * kPartitionBufPairs);
          std::vector<VertexId> srcs(kScanChunk);
          std::vector<VertexId> dsts(kScanChunk);
          for (std::uint64_t at = 0; at < shard.edges; at += kScanChunk) {
            const std::uint64_t count =
                std::min<std::uint64_t>(kScanChunk, shard.edges - at);
            pread_all(shard.edge_fd.fd, srcs.data(), count * sizeof(VertexId),
                      at * sizeof(VertexId), shard.edge_path);
            pread_all(shard.edge_fd.fd, dsts.data(), count * sizeof(VertexId),
                      shard.edges * sizeof(VertexId) + at * sizeof(VertexId),
                      shard.edge_path);
            for (std::uint64_t i = 0; i < count; ++i) {
              const std::size_t r = range_of(dsts[i]);
              auto& b = bufs[r];
              b.push_back(dsts[i]);
              b.push_back(srcs[i]);
              if (b.size() >= 2 * kPartitionBufPairs) {
                write_all(fds[r].fd, b.data(), b.size() * 8,
                          part_paths[s][r]);
                part_pairs[s][r] += b.size() / 2;
                b.clear();
              }
            }
          }
          for (std::size_t r = 0; r < ranges; ++r) {
            if (!bufs[r].empty()) {
              write_all(fds[r].fd, bufs[r].data(), bufs[r].size() * 8,
                        part_paths[s][r]);
              part_pairs[s][r] += bufs[r].size() / 2;
            }
          }
        });
      }
      parallel_tasks(pool, tasks);
    }

    {
      PhaseScope scatter_scope(TraceRecorder::current(), "store:csr:scatter");
      const std::uint64_t task_budget =
          std::max<std::uint64_t>(budget / ranges, kMinTaskBudget);
      const std::uint64_t neighbors_base_word = 3 + n + (n + 1);
      std::vector<std::function<void()>> tasks;
      tasks.reserve(ranges);
      for (std::size_t r = 0; r < ranges; ++r) {
        tasks.push_back([this, r, ranges, task_budget, neighbors_base_word,
                         &range_starts, &offsets, &part_paths, &part_pairs,
                         &csr_fd, &csr_path, &csr_sum] {
          const std::uint64_t r_begin = range_starts[r];
          const std::uint64_t r_end = range_starts[r + 1];
          if (r_begin >= r_end) return;
          std::vector<ScopedFd> parts;
          if (ranges > 1) {
            parts.reserve(shards_.size());
            for (std::size_t s = 0; s < shards_.size(); ++s) {
              parts.emplace_back(
                  ::open(part_paths[s][r].c_str(), O_RDONLY));
              CSB_CHECK_MSG(parts.back().fd >= 0,
                            "cannot open CSR partition: " << part_paths[s][r]);
              advise_sequential_read(parts.back().fd);
            }
          }
          // Streams the range's (dst, src) pairs in global edge order:
          // straight off the shard files when this is the only range,
          // otherwise off the per-shard partition spills.
          const auto for_each_pair = [&](const std::function<
                                         void(VertexId, VertexId)>& fn) {
            if (ranges == 1) {
              std::vector<VertexId> srcs(kScanChunk);
              std::vector<VertexId> dsts(kScanChunk);
              for (const auto& shard : shards_) {
                for (std::uint64_t at = 0; at < shard->edges;
                     at += kScanChunk) {
                  const std::uint64_t count =
                      std::min<std::uint64_t>(kScanChunk, shard->edges - at);
                  pread_all(shard->edge_fd.fd, srcs.data(),
                            count * sizeof(VertexId), at * sizeof(VertexId),
                            shard->edge_path);
                  pread_all(shard->edge_fd.fd, dsts.data(),
                            count * sizeof(VertexId),
                            shard->edges * sizeof(VertexId) +
                                at * sizeof(VertexId),
                            shard->edge_path);
                  for (std::uint64_t i = 0; i < count; ++i) {
                    fn(dsts[i], srcs[i]);
                  }
                }
              }
              return;
            }
            std::vector<std::uint64_t> pair_buf(2 * kPartitionBufPairs);
            for (std::size_t s = 0; s < parts.size(); ++s) {
              const std::uint64_t total = part_pairs[s][r];
              for (std::uint64_t at = 0; at < total;
                   at += kPartitionBufPairs) {
                const std::uint64_t count = std::min<std::uint64_t>(
                    kPartitionBufPairs, total - at);
                pread_all(parts[s].fd, pair_buf.data(), count * 16, at * 16,
                          part_paths[s][r]);
                for (std::uint64_t i = 0; i < count; ++i) {
                  fn(pair_buf[2 * i], pair_buf[2 * i + 1]);
                }
              }
            }
          };
          // Sub-buckets sized to this task's budget share, with a
          // double-buffered write-behind: while the next bucket scatters,
          // the previous slice pwrites into its disjoint file span on a
          // detached thread (std::async, never the pool — pool tasks
          // waiting on other pool tasks could deadlock a full pool).
          std::vector<VertexId> slices[2];
          std::vector<std::uint64_t> next;
          std::future<void> pending;
          int cur = 0;
          std::uint64_t v0 = r_begin;
          while (v0 < r_end) {
            std::uint64_t v1 = v0 + 1;
            while (v1 < r_end && (offsets[v1 + 1] - offsets[v0]) *
                                         sizeof(VertexId) <=
                                     task_budget) {
              ++v1;
            }
            std::vector<VertexId>& slice = slices[cur];
            slice.resize(offsets[v1] - offsets[v0]);
            next.assign(v1 - v0, 0);
            for (std::uint64_t v = v0; v < v1; ++v) {
              next[v - v0] = offsets[v] - offsets[v0];
            }
            for_each_pair([&](VertexId dst, VertexId src) {
              if (dst < v0 || dst >= v1) return;
              slice[next[dst - v0]++] = src;
            });
            if (pending.valid()) pending.get();
            const std::uint64_t slice_first = offsets[v0];
            const VertexId* data = slice.data();
            const std::size_t words = slice.size();
            // csblint: detached-thread-capture-ok — the future is awaited
            // (pending.get()) before the slice buffer is reused and before
            // this task returns, so every captured reference outlives the
            // thread.
            pending = std::async(
                std::launch::async,
                [data, words, slice_first, neighbors_base_word, &csr_fd,
                 &csr_path, &csr_sum] {
                  pwrite_all(csr_fd.fd, data, words * 8,
                             (neighbors_base_word + slice_first) * 8,
                             csr_path);
                  std::uint64_t sum = 0;
                  for (std::size_t i = 0; i < words; ++i) {
                    sum += csr_checksum_term(
                        neighbors_base_word + slice_first + i, data[i]);
                  }
                  csr_sum.fetch_add(sum, std::memory_order_relaxed);
                });
            cur ^= 1;
            v0 = v1;
          }
          if (pending.valid()) pending.get();
        });
      }
      parallel_tasks(pool, tasks);
      if (ranges > 1) {
        for (const auto& shard_parts : part_paths) {
          for (const std::string& path : shard_parts) {
            std::error_code ec;
            fs::remove(path, ec);
          }
        }
      }
    }
    csr_checksum = csr_sum.load(std::memory_order_relaxed);
  }

  for (auto& shard : shards_) {
    shard->edge_fd = ScopedFd();
    shard->prop_fd = ScopedFd();
  }

  // Manifest last: its presence marks the directory complete.
  manifest_.vertices = header_.vertices;
  manifest_.edges = header_.edges;
  manifest_.with_properties = header_.with_properties;
  manifest_.seed = header_.seed;
  manifest_.shard_count = options_.shard_count;
  manifest_.edges_per_shard = per_shard_;
  manifest_.csr_file = csr_file;
  manifest_.csr_checksum = csr_checksum;
  JsonValue shards_json = JsonValue::array({});
  for (const auto& shard : shards_) {
    ShardInfo info;
    info.edge_file = fs::path(shard->edge_path).filename().string();
    info.first_edge = shard->first_edge;
    info.edges = shard->edges;
    info.edge_checksum = shard->edge_sum.load(std::memory_order_relaxed);
    JsonValue row = JsonValue::object({});
    row.set("file", JsonValue(info.edge_file));
    row.set("first_edge", JsonValue(info.first_edge));
    row.set("edges", JsonValue(info.edges));
    row.set("edge_checksum", JsonValue(hex_u64(info.edge_checksum)));
    if (header_.with_properties) {
      info.prop_file = fs::path(shard->prop_path).filename().string();
      info.prop_checksum = shard->prop_sum.load(std::memory_order_relaxed);
      row.set("props", JsonValue(info.prop_file));
      row.set("prop_checksum", JsonValue(hex_u64(info.prop_checksum)));
    }
    manifest_.shards.push_back(info);
    shards_json.push_back(std::move(row));
  }
  JsonValue root = JsonValue::object({});
  root.set("format", JsonValue(std::string(kManifestFormat)));
  root.set("vertices", JsonValue(manifest_.vertices));
  root.set("edges", JsonValue(manifest_.edges));
  root.set("with_properties", JsonValue(manifest_.with_properties));
  root.set("seed", JsonValue(hex_u64(manifest_.seed)));
  root.set("shard_count",
           JsonValue(static_cast<std::uint64_t>(manifest_.shard_count)));
  root.set("edges_per_shard", JsonValue(manifest_.edges_per_shard));
  root.set("shards", std::move(shards_json));
  if (!csr_file.empty()) {
    JsonValue csr = JsonValue::object({});
    csr.set("file", JsonValue(csr_file));
    csr.set("checksum", JsonValue(hex_u64(csr_checksum)));
    root.set("csr", std::move(csr));
  }
  const std::string manifest_path =
      (fs::path(options_.directory) / kManifestName).string();
  std::ofstream manifest_out(manifest_path, std::ios::trunc);
  CSB_CHECK_MSG(manifest_out.is_open(),
                "cannot create manifest: " << manifest_path);
  manifest_out << root.dump() << "\n";
  CSB_CHECK_MSG(manifest_out.good(),
                "failed writing manifest: " << manifest_path);
}

const ShardManifest& ShardStore::manifest() const {
  CSB_CHECK_MSG(finished_, "ShardStore::manifest before finish");
  return manifest_;
}

// ------------------------------------------------------- ShardStoreReader

namespace {

std::uint64_t expected_file_size(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  CSB_CHECK_MSG(!ec, "missing shard store file: " << path);
  return size;
}

}  // namespace

ShardStoreReader::ShardStoreReader(const std::string& directory)
    : directory_(directory) {
  namespace fs = std::filesystem;
  const std::string manifest_path =
      (fs::path(directory_) / kManifestName).string();
  std::ifstream in(manifest_path);
  CSB_CHECK_MSG(in.is_open(), "cannot open manifest: " << manifest_path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  JsonValue root;
  try {
    root = parse_json(text);
  } catch (const CsbError& error) {
    throw CsbError("corrupt manifest " + manifest_path + ": " + error.what());
  }
  CSB_CHECK_MSG(root.is_object() && root.find("format") != nullptr &&
                    root.at("format").is_string() &&
                    root.at("format").as_string() == kManifestFormat,
                "corrupt manifest " << manifest_path
                                    << ": not a csb.shards.v2 manifest");
  try {
    manifest_.vertices = root.at("vertices").as_u64();
    manifest_.edges = root.at("edges").as_u64();
    manifest_.with_properties = root.at("with_properties").as_bool();
    manifest_.seed = parse_hex_u64(manifest_path, root.at("seed"));
    manifest_.shard_count =
        static_cast<std::uint32_t>(root.at("shard_count").as_u64());
    manifest_.edges_per_shard = root.at("edges_per_shard").as_u64();
    for (const JsonValue& row : root.at("shards").items()) {
      ShardInfo info;
      info.edge_file = row.at("file").as_string();
      info.first_edge = row.at("first_edge").as_u64();
      info.edges = row.at("edges").as_u64();
      info.edge_checksum =
          parse_hex_u64(manifest_path, row.at("edge_checksum"));
      if (manifest_.with_properties) {
        info.prop_file = row.at("props").as_string();
        info.prop_checksum =
            parse_hex_u64(manifest_path, row.at("prop_checksum"));
      }
      manifest_.shards.push_back(std::move(info));
    }
    if (const JsonValue* csr = root.find("csr")) {
      manifest_.csr_file = csr->at("file").as_string();
      manifest_.csr_checksum = parse_hex_u64(manifest_path, csr->at("checksum"));
    }
  } catch (const CsbError& error) {
    throw CsbError("corrupt manifest " + manifest_path + ": " + error.what());
  }
  // Plausibility caps (mirrors graph_io's binary loader): a corrupt
  // manifest must not drive a huge allocation before validation can fire.
  CSB_CHECK_MSG(manifest_.vertices <= (1ULL << 44) &&
                    manifest_.edges <= (1ULL << 40) &&
                    manifest_.shard_count > 0 &&
                    manifest_.shards.size() == manifest_.shard_count,
                "corrupt manifest " << manifest_path
                                    << ": implausible graph dimensions");
  std::uint64_t covered = 0;
  for (const ShardInfo& info : manifest_.shards) {
    CSB_CHECK_MSG(info.first_edge == covered,
                  "corrupt manifest " << manifest_path
                                      << ": shards must tile the edge range");
    covered += info.edges;
    const std::string edge_path =
        (fs::path(directory_) / info.edge_file).string();
    CSB_CHECK_MSG(expected_file_size(edge_path) == info.edges * kEdgeBytes,
                  "truncated shard file: " << edge_path);
    if (manifest_.with_properties) {
      const std::string prop_path =
          (fs::path(directory_) / info.prop_file).string();
      CSB_CHECK_MSG(expected_file_size(prop_path) ==
                        info.edges * PropertyColumns::kRowBytes,
                    "truncated shard file: " << prop_path);
    }
  }
  CSB_CHECK_MSG(covered == manifest_.edges,
                "corrupt manifest " << manifest_path
                                    << ": shards must tile the edge range");

  if (manifest_.csr_file.empty()) return;
  const std::string csr_path =
      (fs::path(directory_) / manifest_.csr_file).string();
  const std::uint64_t n = manifest_.vertices;
  const std::uint64_t m = manifest_.edges;
  const std::uint64_t expected =
      kCsrHeaderBytes + (n + (n + 1) + m) * sizeof(std::uint64_t);
  CSB_CHECK_MSG(expected_file_size(csr_path) == expected,
                "truncated CSR file: " << csr_path);
  const ScopedFd fd(::open(csr_path.c_str(), O_RDONLY));
  CSB_CHECK_MSG(fd.fd >= 0, "cannot open CSR file: " << csr_path);
  // Streamed veracity walks the mapped arrays front to back.
  csr_map_ = FileMapping(fd.fd, static_cast<std::size_t>(expected), csr_path);
  const auto* base =
      reinterpret_cast<const std::uint64_t*>(csr_map_.bytes().data());
  char magic[4];
  std::uint32_t version = 0;
  std::memcpy(magic, base, 4);
  std::memcpy(&version, reinterpret_cast<const char*>(base) + 4, 4);
  std::uint64_t file_n = 0;
  std::uint64_t file_m = 0;
  std::memcpy(&file_n, reinterpret_cast<const char*>(base) + 8, 8);
  std::memcpy(&file_m, reinterpret_cast<const char*>(base) + 16, 8);
  CSB_CHECK_MSG(std::memcmp(magic, kCsrMagic, 4) == 0 &&
                    version == kCsrVersion && file_n == n && file_m == m,
                "corrupt CSR file: " << csr_path);
  const std::uint64_t* arrays = base + kCsrHeaderBytes / sizeof(std::uint64_t);
  csr_.vertices_ = n;
  csr_.edges_ = m;
  csr_.out_degrees_ = {arrays, static_cast<std::size_t>(n)};
  csr_.in_offsets_ = {arrays + n, static_cast<std::size_t>(n + 1)};
  csr_.in_neighbors_ = {arrays + n + n + 1, static_cast<std::size_t>(m)};
}

const CsrIndexView& ShardStoreReader::csr() const {
  CSB_CHECK_MSG(has_csr(),
                "shard store " << directory_ << " was written without a CSR");
  return csr_;
}

void ShardStoreReader::scan_shard_edges(
    std::size_t s,
    const std::function<void(std::uint64_t, std::span<const VertexId>,
                             std::span<const VertexId>)>& emit) const {
  namespace fs = std::filesystem;
  const ShardInfo& info = manifest_.shards[s];
  const std::string path = (fs::path(directory_) / info.edge_file).string();
  ScopedFd fd(::open(path.c_str(), O_RDONLY));
  CSB_CHECK_MSG(fd.fd >= 0, "cannot open shard file: " << path);
  advise_sequential_read(fd.fd);
  std::vector<VertexId> src(kScanChunk);
  std::vector<VertexId> dst(kScanChunk);
  std::uint64_t sum = 0;
  for (std::uint64_t at = 0; at < info.edges; at += kScanChunk) {
    const std::uint64_t count =
        std::min<std::uint64_t>(kScanChunk, info.edges - at);
    pread_all(fd.fd, src.data(), count * sizeof(VertexId),
              at * sizeof(VertexId), path);
    pread_all(fd.fd, dst.data(), count * sizeof(VertexId),
              info.edges * sizeof(VertexId) + at * sizeof(VertexId), path);
    const std::uint64_t first = info.first_edge + at;
    for (std::uint64_t i = 0; i < count; ++i) {
      sum += edge_checksum_term(first + i, src[i], dst[i]);
    }
    if (emit) {
      emit(first, {src.data(), static_cast<std::size_t>(count)},
           {dst.data(), static_cast<std::size_t>(count)});
    }
  }
  CSB_CHECK_MSG(sum == info.edge_checksum,
                "checksum mismatch in shard file: " << path);
}

void ShardStoreReader::scan_edges(
    const std::function<void(std::uint64_t, std::span<const VertexId>,
                             std::span<const VertexId>)>& emit) const {
  for (std::size_t s = 0; s < manifest_.shards.size(); ++s) {
    scan_shard_edges(s, emit);
  }
}

void ShardStoreReader::read_shard_properties(std::size_t s,
                                             PropertyColumns& into,
                                             std::uint64_t first_row) const {
  CSB_CHECK_MSG(manifest_.with_properties,
                "shard store " << directory_ << " has no properties");
  CSB_CHECK_MSG(s < manifest_.shards.size(), "shard index out of range");
  namespace fs = std::filesystem;
  const ShardInfo& info = manifest_.shards[s];
  CSB_CHECK_MSG(first_row + info.edges <= into.size(),
                "property columns too short for shard " << s);
  const std::string path = (fs::path(directory_) / info.prop_file).string();
  const ScopedFd fd(::open(path.c_str(), O_RDONLY));
  CSB_CHECK_MSG(fd.fd >= 0, "cannot open shard file: " << path);
  advise_sequential_read(fd.fd);
  for_each_prop_column(
      into, info.edges, [&](auto& column, std::uint64_t offset) {
        pread_all(fd.fd, column.data() + first_row,
                  info.edges * sizeof(column[0]), offset, path);
      });
  const PropertyRowsView rows = into.view(first_row, info.edges);
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < info.edges; ++i) {
    sum += property_checksum_term(info.first_edge + i, rows.row(i));
  }
  CSB_CHECK_MSG(sum == info.prop_checksum,
                "checksum mismatch in shard file: " << path);
}

void ShardStoreReader::verify(ThreadPool* pool) const {
  {
    // One task per shard: edge checksum scan plus the property read when
    // present. The per-shard checks are independent, and parallel_tasks
    // rethrows the first failure in shard order, so the named file in the
    // error is the same at any pool size.
    PhaseScope shards_scope(TraceRecorder::current(), "store:verify:shards");
    std::vector<std::function<void()>> tasks;
    tasks.reserve(manifest_.shards.size());
    for (std::size_t s = 0; s < manifest_.shards.size(); ++s) {
      tasks.push_back([this, s] {
        scan_shard_edges(s, nullptr);
        if (manifest_.with_properties) {
          PropertyColumns rows;
          rows.resize_for_overwrite(manifest_.shards[s].edges);
          read_shard_properties(s, rows, 0);
        }
      });
    }
    parallel_tasks(pool, tasks);
  }
  if (!manifest_.csr_file.empty()) {
    // The CSR checksum is a commutative word-index-keyed sum, so chunked
    // parallel scans accumulate it in completion order without changing
    // the total.
    PhaseScope csr_scope(TraceRecorder::current(), "store:verify:csr");
    namespace fs = std::filesystem;
    const std::string path =
        (fs::path(directory_) / manifest_.csr_file).string();
    ScopedFd fd(::open(path.c_str(), O_RDONLY));
    CSB_CHECK_MSG(fd.fd >= 0, "cannot open CSR file: " << path);
    advise_sequential_read(fd.fd);
    const std::uint64_t n = manifest_.vertices;
    const std::uint64_t m = manifest_.edges;
    const std::uint64_t total_words = 3 + n + (n + 1) + m;
    std::atomic<std::uint64_t> total{0};
    parallel_for_fixed_chunks(
        pool, 0, static_cast<std::size_t>(total_words), kScanChunk,
        [&](const ChunkRange& c) {
          std::vector<std::uint64_t> buf(c.end - c.begin);
          pread_all(fd.fd, buf.data(), buf.size() * 8, c.begin * 8, path);
          std::uint64_t sum = 0;
          for (std::size_t i = 0; i < buf.size(); ++i) {
            sum += csr_checksum_term(c.begin + i, buf[i]);
          }
          total.fetch_add(sum, std::memory_order_relaxed);
        });
    CSB_CHECK_MSG(total.load(std::memory_order_relaxed) ==
                      manifest_.csr_checksum,
                  "checksum mismatch in CSR file: " << path);
  }
}

PropertyGraph ShardStoreReader::to_property_graph() const {
  std::vector<VertexId> src(manifest_.edges);
  std::vector<VertexId> dst(manifest_.edges);
  scan_edges([&src, &dst](std::uint64_t first, std::span<const VertexId> s,
                          std::span<const VertexId> d) {
    std::copy(s.begin(), s.end(), src.begin() + first);
    std::copy(d.begin(), d.end(), dst.begin() + first);
  });
  PropertyGraph graph = PropertyGraph::from_columns(
      manifest_.vertices, std::move(src), std::move(dst));
  if (!manifest_.with_properties) return graph;
  PropertyColumns props;
  props.resize_for_overwrite(manifest_.edges);
  for (std::size_t s = 0; s < manifest_.shards.size(); ++s) {
    read_shard_properties(s, props, manifest_.shards[s].first_edge);
  }
  graph.attach_properties(std::move(props));
  return graph;
}

}  // namespace csb
