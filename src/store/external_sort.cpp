#include "store/external_sort.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <queue>
#include <utility>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace csb {

namespace {

constexpr std::size_t kIoChunk = 1 << 16;  ///< keys per IO chunk
/// Keys per in-RAM scan segment — large enough that a segment amortizes a
/// task dispatch, small enough that typical sets still split across a pool.
constexpr std::size_t kScanSegment = kIoChunk * 16;
/// Cap on concurrent merge partitions (beyond this the per-range segments
/// get too small to amortize the heap and the binary searches).
constexpr std::size_t kMaxMergeRanges = 16;

/// Buffered sequential reader over one record segment of a sorted run.
class RunReader {
 public:
  RunReader(const std::string& path, std::uint64_t first_record,
            std::uint64_t records)
      : path_(path), in_(path, std::ios::binary), remaining_(records) {
    CSB_CHECK_MSG(in_.is_open(), "cannot open spill run: " << path);
    in_.seekg(static_cast<std::streamoff>(first_record *
                                          sizeof(std::uint64_t)));
    refill();
  }

  [[nodiscard]] bool done() const { return at_ >= have_; }
  [[nodiscard]] std::uint64_t head() const { return buf_[at_]; }
  void pop() {
    ++at_;
    if (at_ >= have_ && remaining_ > 0) refill();
  }

 private:
  void refill() {
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(kIoChunk,
                                                         remaining_));
    in_.read(reinterpret_cast<char*>(buf_.data()),
             static_cast<std::streamsize>(want * sizeof(std::uint64_t)));
    const auto got = static_cast<std::size_t>(in_.gcount());
    CSB_CHECK_MSG(got == want * sizeof(std::uint64_t),
                  "truncated spill run: " << path_);
    have_ = want;
    at_ = 0;
    remaining_ -= want;
  }

  std::string path_;
  std::ifstream in_;
  std::vector<std::uint64_t> buf_ = std::vector<std::uint64_t>(kIoChunk);
  std::size_t at_ = 0;
  std::size_t have_ = 0;
  std::uint64_t remaining_ = 0;
};

void write_all(std::ofstream& out, const std::uint64_t* data, std::size_t count,
               const std::string& path) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
  CSB_CHECK_MSG(out.good(), "failed writing spill run: " << path);
}

/// First record index in the sorted run whose key is >= `key` (the runs
/// are sorted-unique, so this is a plain binary search with one 8-byte
/// probe read per step).
std::uint64_t lower_bound_record(const std::string& path,
                                 std::uint64_t records, std::uint64_t key) {
  std::ifstream in(path, std::ios::binary);
  CSB_CHECK_MSG(in.is_open(), "cannot open spill run: " << path);
  std::uint64_t lo = 0;
  std::uint64_t hi = records;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    std::uint64_t probe = 0;
    in.seekg(static_cast<std::streamoff>(mid * sizeof(std::uint64_t)));
    in.read(reinterpret_cast<char*>(&probe), sizeof probe);
    CSB_CHECK_MSG(in.gcount() == sizeof probe,
                  "truncated spill run: " << path);
    if (probe < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Record `index` of a sorted run.
std::uint64_t read_record(const std::string& path, std::uint64_t index) {
  std::ifstream in(path, std::ios::binary);
  CSB_CHECK_MSG(in.is_open(), "cannot open spill run: " << path);
  std::uint64_t key = 0;
  in.seekg(static_cast<std::streamoff>(index * sizeof(std::uint64_t)));
  in.read(reinterpret_cast<char*>(&key), sizeof key);
  CSB_CHECK_MSG(in.gcount() == sizeof key, "truncated spill run: " << path);
  return key;
}

std::uint64_t run_record_count(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  CSB_CHECK_MSG(!ec && bytes % sizeof(std::uint64_t) == 0,
                "truncated spill run: " << path);
  return bytes / sizeof(std::uint64_t);
}

}  // namespace

ExternalDistinct::ExternalDistinct(ExternalDistinctOptions options)
    : options_(std::move(options)) {
  CSB_CHECK_MSG(options_.memory_budget_bytes >= kIoChunk * sizeof(std::uint64_t),
                "ExternalDistinct budget must cover at least one IO chunk");
}

ExternalDistinct::~ExternalDistinct() {
  std::error_code ec;
  for (const std::string& run : runs_) std::filesystem::remove(run, ec);
  for (const std::string& part : parts_) std::filesystem::remove(part, ec);
}

void ExternalDistinct::add(std::span<const std::uint64_t> keys) {
  std::lock_guard<std::mutex> lock(mutex_);
  CSB_CHECK_MSG(!sealed_, "ExternalDistinct::add after seal");
  buffer_.insert(buffer_.end(), keys.begin(), keys.end());
  if (buffer_.size() * sizeof(std::uint64_t) >= options_.memory_budget_bytes) {
    spill_locked();
  }
}

void ExternalDistinct::spill_locked() {
  if (buffer_.empty()) return;
  CSB_CHECK_MSG(!options_.spill_directory.empty(),
                "ExternalDistinct needs a spill directory once the budget "
                "overflows");
  std::sort(buffer_.begin(), buffer_.end());
  buffer_.erase(std::unique(buffer_.begin(), buffer_.end()), buffer_.end());
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(options_.spill_directory, ec);
  CSB_CHECK_MSG(!ec, "cannot create spill directory: "
                         << options_.spill_directory);
  char name[32];
  std::snprintf(name, sizeof name, "run-%04zu.bin", runs_.size());
  const std::string path = (fs::path(options_.spill_directory) / name).string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CSB_CHECK_MSG(out.is_open(), "cannot create spill run: " << path);
  write_all(out, buffer_.data(), buffer_.size(), path);
  runs_.push_back(path);
  ++spilled_;
  buffer_.clear();
  buffer_.shrink_to_fit();
}

std::uint64_t ExternalDistinct::seal() {
  std::lock_guard<std::mutex> lock(mutex_);
  CSB_CHECK_MSG(!sealed_, "ExternalDistinct::seal called twice");
  sealed_ = true;
  if (runs_.empty()) {
    // Everything fit: plain in-RAM sort + unique.
    std::sort(buffer_.begin(), buffer_.end());
    buffer_.erase(std::unique(buffer_.begin(), buffer_.end()), buffer_.end());
    unique_ = buffer_.size();
    return unique_;
  }
  spill_locked();  // flush the tail as a final run

  // Range-partitioned merge: the keys' actual span [lo, hi] — the smallest
  // first record and the largest last record over the sorted runs — is cut
  // into `ranges` even spans, and every span is k-way-merged independently
  // (duplicates collapse at each frontier) into its own part file. Each
  // merge binary-searches its span's segment inside every sorted run, so
  // the merges read disjoint data and can run concurrently; because the
  // spans are disjoint and ascending, concatenating the parts reproduces
  // the serial single-merge stream byte for byte at any range or pool
  // count. Cutting [lo, hi] rather than [0, 2^64) is what spreads narrow
  // keys (packed Kronecker edges lie below 2^(32+k)) over every range.
  PhaseScope merge_scope(TraceRecorder::current(), "store:merge:seal");
  namespace fs = std::filesystem;
  ThreadPool* pool = options_.pool;
  const std::size_t ranges =
      pool == nullptr ? 1 : std::min<std::size_t>(pool->size(),
                                                  kMaxMergeRanges);
  std::vector<std::uint64_t> run_records(runs_.size(), 0);
  std::uint64_t lo = ~std::uint64_t{0};
  std::uint64_t hi = 0;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    run_records[i] = run_record_count(runs_[i]);
    lo = std::min(lo, read_record(runs_[i], 0));
    hi = std::max(hi, read_record(runs_[i], run_records[i] - 1));
  }
  // floor((hi - lo + 1) x index / ranges), kept inside 64 bits.
  const std::uint64_t width = hi - lo;
  const auto range_floor = [lo, width, ranges](std::size_t index) {
    return lo + width / ranges * index + (width % ranges + 1) * index / ranges;
  };
  parts_.resize(ranges);
  std::vector<std::uint64_t> part_unique(ranges, 0);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(ranges);
  for (std::size_t r = 0; r < ranges; ++r) {
    char name[32];
    std::snprintf(name, sizeof name, "part-%02zu.bin", r);
    parts_[r] = (fs::path(options_.spill_directory) / name).string();
    tasks.push_back([this, r, ranges, &range_floor, &run_records,
                     &part_unique] {
      std::ofstream out(parts_[r], std::ios::binary | std::ios::trunc);
      CSB_CHECK_MSG(out.is_open(), "cannot create spill run: " << parts_[r]);
      std::vector<std::unique_ptr<RunReader>> readers;
      readers.reserve(runs_.size());
      for (std::size_t i = 0; i < runs_.size(); ++i) {
        const std::uint64_t first =
            r == 0 ? 0
                   : lower_bound_record(runs_[i], run_records[i],
                                        range_floor(r));
        const std::uint64_t stop =
            r + 1 == ranges ? run_records[i]
                            : lower_bound_record(runs_[i], run_records[i],
                                                 range_floor(r + 1));
        readers.push_back(
            std::make_unique<RunReader>(runs_[i], first, stop - first));
      }
      using HeapItem = std::pair<std::uint64_t, std::size_t>;  // (key, reader)
      std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>>
          heap;
      for (std::size_t i = 0; i < readers.size(); ++i) {
        if (!readers[i]->done()) heap.emplace(readers[i]->head(), i);
      }
      std::vector<std::uint64_t> chunk;
      chunk.reserve(kIoChunk);
      bool any = false;
      std::uint64_t last = 0;
      while (!heap.empty()) {
        const auto [key, i] = heap.top();
        heap.pop();
        readers[i]->pop();
        if (!readers[i]->done()) heap.emplace(readers[i]->head(), i);
        if (any && key == last) continue;
        any = true;
        last = key;
        ++part_unique[r];
        chunk.push_back(key);
        if (chunk.size() == kIoChunk) {
          write_all(out, chunk.data(), chunk.size(), parts_[r]);
          chunk.clear();
        }
      }
      if (!chunk.empty()) write_all(out, chunk.data(), chunk.size(),
                                    parts_[r]);
    });
  }
  parallel_tasks(pool, tasks);
  for (const std::uint64_t count : part_unique) unique_ += count;
  std::error_code ec;
  for (const std::string& run : runs_) fs::remove(run, ec);
  runs_.clear();
  return unique_;
}

std::uint64_t ExternalDistinct::unique_count() const {
  CSB_CHECK_MSG(sealed_, "ExternalDistinct::unique_count before seal");
  return unique_;
}

void ExternalDistinct::scan(
    const std::function<void(std::span<const std::uint64_t>)>& emit) const {
  CSB_CHECK_MSG(sealed_, "ExternalDistinct::scan before seal");
  for (std::size_t s = 0; s < scan_segments(); ++s) scan_segment(s, emit);
}

std::size_t ExternalDistinct::scan_segments() const {
  CSB_CHECK_MSG(sealed_, "ExternalDistinct::scan_segments before seal");
  if (!parts_.empty()) return parts_.size();
  return (buffer_.size() + kScanSegment - 1) / kScanSegment;
}

void ExternalDistinct::scan_segment(
    std::size_t segment,
    const std::function<void(std::span<const std::uint64_t>)>& emit) const {
  CSB_CHECK_MSG(sealed_, "ExternalDistinct::scan_segment before seal");
  if (parts_.empty()) {
    const std::size_t begin = segment * kScanSegment;
    CSB_CHECK_MSG(begin < buffer_.size(),
                  "ExternalDistinct scan segment out of range");
    const std::size_t end =
        std::min(begin + kScanSegment, buffer_.size());
    for (std::size_t at = begin; at < end; at += kIoChunk) {
      const std::size_t count = std::min(kIoChunk, end - at);
      emit({buffer_.data() + at, count});
    }
    return;
  }
  CSB_CHECK_MSG(segment < parts_.size(),
                "ExternalDistinct scan segment out of range");
  const std::string& part = parts_[segment];
  std::ifstream in(part, std::ios::binary);
  CSB_CHECK_MSG(in.is_open(), "cannot open spill run: " << part);
  std::vector<std::uint64_t> buf(kIoChunk);
  while (in) {
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size() *
                                         sizeof(std::uint64_t)));
    const auto got = static_cast<std::size_t>(in.gcount());
    CSB_CHECK_MSG(got % sizeof(std::uint64_t) == 0,
                  "truncated spill run: " << part);
    if (got == 0) break;
    emit({buf.data(), got / sizeof(std::uint64_t)});
  }
}

}  // namespace csb
