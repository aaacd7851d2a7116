// Binary serialization of SeedProfile: magic + version header, then each
// distribution as (value, probability) pair lists — exact round trip, no
// refitting on load.
#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>

#include "seed/seed.hpp"
#include "util/error.hpp"
#include "util/input_reader.hpp"

namespace csb {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'B', 'P'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

void write_empirical(std::ostream& out, const EmpiricalDistribution& dist) {
  write_pod(out, static_cast<std::uint64_t>(dist.support_size()));
  for (std::size_t i = 0; i < dist.support_size(); ++i) {
    write_pod(out, dist.values()[i]);
    write_pod(out, dist.probabilities()[i]);
  }
}

EmpiricalDistribution read_empirical(InputReader& in) {
  const std::uint64_t at = in.offset();
  const auto n = in.read_pod<std::uint64_t>();
  if (n == 0 || n > (1ULL << 32)) {
    in.fail(at, "implausible distribution size " + std::to_string(n));
  }
  // Every field is checked here, at its own offset, so a corrupted profile
  // never reaches from_weighted's invariant checks.
  std::vector<std::pair<double, double>> weighted;
  double total = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t value_at = in.offset();
    const double value = in.read_pod<double>();
    if (!std::isfinite(value)) {
      in.fail(value_at, "non-finite support value " + std::to_string(value));
    }
    const std::uint64_t prob_at = in.offset();
    const double prob = in.read_pod<double>();
    if (!std::isfinite(prob) || prob < 0.0) {
      in.fail(prob_at, "probability " + std::to_string(prob) +
                           " is negative or non-finite");
    }
    total += prob;
    weighted.emplace_back(value, prob);
  }
  if (!(total > 0.0) || !std::isfinite(total)) {
    in.fail(at, "probabilities sum to " + std::to_string(total));
  }
  return EmpiricalDistribution::from_weighted(std::move(weighted));
}

void write_conditional(std::ostream& out,
                       const ConditionalDistribution& dist) {
  const auto keys = dist.bucket_keys();
  write_pod(out, static_cast<std::uint64_t>(keys.size()));
  for (const std::uint32_t key : keys) {
    write_pod(out, key);
    write_empirical(out, dist.bucket(key));
  }
  write_empirical(out, dist.marginal());
}

ConditionalDistribution read_conditional(InputReader& in) {
  const std::uint64_t at = in.offset();
  const auto buckets = in.read_pod<std::uint64_t>();
  if (buckets > 64) {
    in.fail(at, "implausible bucket count " + std::to_string(buckets));
  }
  std::vector<std::pair<std::uint32_t, EmpiricalDistribution>> parts;
  parts.reserve(buckets);
  for (std::uint64_t i = 0; i < buckets; ++i) {
    const std::uint64_t key_at = in.offset();
    const auto key = in.read_pod<std::uint32_t>();
    // Keys are written ascending, so a key at or below its predecessor is
    // a repeat or out of order.
    if (key >= ConditionalDistribution::kBucketSlots ||
        (!parts.empty() && key <= parts.back().first)) {
      in.fail(key_at, "condition bucket " + std::to_string(key) +
                          " out of range or out of order");
    }
    parts.emplace_back(key, read_empirical(in));
  }
  return ConditionalDistribution::from_parts(std::move(parts),
                                             read_empirical(in));
}

bool empirical_equal(const EmpiricalDistribution& a,
                     const EmpiricalDistribution& b) {
  if (a.values() != b.values()) return false;
  // Probabilities are renormalized on load; allow the round-off of one
  // division (support values themselves stay bit-exact).
  if (a.probabilities().size() != b.probabilities().size()) return false;
  for (std::size_t i = 0; i < a.probabilities().size(); ++i) {
    if (std::abs(a.probabilities()[i] - b.probabilities()[i]) > 1e-12) {
      return false;
    }
  }
  return true;
}

bool conditional_equal(const ConditionalDistribution& a,
                       const ConditionalDistribution& b) {
  if (a.bucket_keys() != b.bucket_keys()) return false;
  for (const std::uint32_t key : a.bucket_keys()) {
    if (!empirical_equal(a.bucket(key), b.bucket(key))) return false;
  }
  return empirical_equal(a.marginal(), b.marginal());
}

}  // namespace

void SeedProfile::save(std::ostream& out) const {
  out.write(kMagic, sizeof kMagic);
  write_pod(out, kVersion);
  write_pod(out, seed_vertices_);
  write_pod(out, seed_edges_);
  write_empirical(out, in_degree_);
  write_empirical(out, out_degree_);
  write_empirical(out, in_bytes_);
  write_conditional(out, protocol_);
  write_conditional(out, src_port_);
  write_conditional(out, dst_port_);
  write_conditional(out, duration_ms_);
  write_conditional(out, out_bytes_);
  write_conditional(out, out_pkts_);
  write_conditional(out, in_pkts_);
  write_conditional(out, state_);
  CSB_CHECK_MSG(out.good(), "failed writing seed profile stream");
}

SeedProfile SeedProfile::load(std::istream& stream, const std::string& name) {
  InputReader in(stream, "seed profile", name);
  const auto magic = in.read_pod<std::array<char, 4>>();
  if (!std::equal(magic.begin(), magic.end(), kMagic)) {
    in.fail(0, "not a csb seed profile (bad magic)");
  }
  const auto version = in.read_pod<std::uint32_t>();
  if (version != kVersion) {
    in.fail(4, "unsupported version " + std::to_string(version));
  }
  SeedProfile profile;
  profile.seed_vertices_ = in.read_pod<std::uint64_t>();
  profile.seed_edges_ = in.read_pod<std::uint64_t>();
  profile.in_degree_ = read_empirical(in);
  profile.out_degree_ = read_empirical(in);
  profile.in_bytes_ = read_empirical(in);
  profile.protocol_ = read_conditional(in);
  profile.src_port_ = read_conditional(in);
  profile.dst_port_ = read_conditional(in);
  profile.duration_ms_ = read_conditional(in);
  profile.out_bytes_ = read_conditional(in);
  profile.out_pkts_ = read_conditional(in);
  profile.in_pkts_ = read_conditional(in);
  profile.state_ = read_conditional(in);
  return profile;
}

void SeedProfile::save_file(const std::string& path) const {
  std::ofstream out = open_output("seed profile", path);
  save(out);
  close_output(out, "seed profile", path);
}

SeedProfile SeedProfile::load_file(const std::string& path) {
  std::ifstream in = open_input("seed profile", path);
  return load(in, path);
}

bool operator==(const SeedProfile& a, const SeedProfile& b) {
  return a.seed_vertices_ == b.seed_vertices_ &&
         a.seed_edges_ == b.seed_edges_ &&
         empirical_equal(a.in_degree_, b.in_degree_) &&
         empirical_equal(a.out_degree_, b.out_degree_) &&
         empirical_equal(a.in_bytes_, b.in_bytes_) &&
         conditional_equal(a.protocol_, b.protocol_) &&
         conditional_equal(a.src_port_, b.src_port_) &&
         conditional_equal(a.dst_port_, b.dst_port_) &&
         conditional_equal(a.duration_ms_, b.duration_ms_) &&
         conditional_equal(a.out_bytes_, b.out_bytes_) &&
         conditional_equal(a.out_pkts_, b.out_pkts_) &&
         conditional_equal(a.in_pkts_, b.in_pkts_) &&
         conditional_equal(a.state_, b.state_);
}

}  // namespace csb
