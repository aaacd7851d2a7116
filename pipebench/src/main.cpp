// pipebench: runs one workload of the pipeline benchmark and prints its
// metrics. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any correctness check failed, 2 on bad usage.
//
//   pipebench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--spans-out FILE]
// The pool has one thread per hardware thread.
//   pipebench --list-metrics
#include <malloc.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using pipebench::MetricDef;

std::string number(double value) {
  std::ostringstream out;
  out.precision(12);
  out << value;
  return out.str();
}

std::string metrics_json(const std::vector<MetricDef>& defs,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    if (it == values.end()) continue;
    out += (first ? "" : ", ") + ("\"" + def.name + "\": {\"value\": ") +
           number(it->second) + ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  }
  return out + "}";
}

std::string defs_json(const std::vector<MetricDef>& defs) {
  std::string out = "[";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    out += (i == 0 ? "\n    " : ",\n    ") + ("{\"name\": \"" + defs[i].name) +
           "\", \"unit\": \"" + defs[i].unit + "\", \"better\": \"" +
           defs[i].better + "\"}";
  }
  return out + "\n  ]";
}

int usage(const std::string& why) {
  std::cerr << "pipebench: " << why
            << "\nusage: pipebench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--spans-out FILE]\n"
               "       pipebench --list-metrics\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap and trim thresholds as a process frees large
  // blocks, so a pass's resident set would depend on the passes before it.
  // Pinning both at their start values gives every pass the allocator of a
  // fresh process.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  pipebench::HarnessOptions options;
  options.threads = std::max(1U, std::thread::hardware_concurrency());
  std::string spans_out;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--list-metrics") {
      std::cout << "{\n  \"end_to_end\": "
                << defs_json(pipebench::end_to_end_metrics())
                << ",\n  \"per_layer\": "
                << defs_json(pipebench::per_layer_metrics()) << "\n}\n";
      return 0;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage("bad argument '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  try {
    for (const auto& [key, value] : args) {
      if (key == "workload") {
        options.workload = value;
      } else if (key == "seed") {
        options.seed = std::stoull(value);
      } else if (key == "seconds") {
        options.seconds = std::stod(value);
      } else if (key == "trace") {
        options.trace = value == "1";
      } else if (key == "workdir") {
        options.workdir = value;
      } else if (key == "spans-out") {
        spans_out = value;
      } else {
        return usage("unknown option --" + key);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed option value");
  }
  if (options.workload.empty() || options.workdir.empty()) {
    return usage("--workload and --workdir are required");
  }

  pipebench::Measurement m;
  try {
    m = pipebench::measure(options);
  } catch (const std::exception& e) {
    std::cerr << "pipebench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  std::cout << "workload " << options.workload << ", seed " << options.seed
            << ", pool " << options.threads << ", " << m.attempted
            << " passes, work files on " << m.filesystem << "\n";
  const bool trace = options.trace;
  const auto defs = trace ? pipebench::per_layer_metrics()
                          : pipebench::end_to_end_metrics();
  const auto& values = trace ? m.per_layer : m.end_to_end;
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    if (it == values.end()) continue;
    std::printf("  %-34s %16.6g %s\n", def.name.c_str(), it->second,
                def.unit.c_str());
  }
  for (const std::string& failure : m.failures) {
    std::cout << "FAIL: " << failure << "\n";
  }
  if (trace && !spans_out.empty()) {
    std::ofstream(spans_out) << m.spans_json;
    std::cout << "spans written to " << spans_out << "\n";
  }
  const bool correct = m.failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << m.attempted
            << ", \"failed\": " << m.failed
            << ", \"metrics\": " << metrics_json(defs, values) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
