// Benchmark result: metrics by name and unit, attempted/failed ops, the
// correctness verdict, and the digest of simulated results that must
// repeat exactly between the untraced and the traced pass.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "ssd/ssd_device.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smallest sizes that still run every code path (the self-test).
  bool tiny = false;
};

/// Worker threads of the pool the traced cloud runs hand the event loop
/// for their shard-path pass.  The calling thread drains ParallelFor
/// too, so at most 4 threads work.
inline constexpr unsigned kPoolWorkers = 3;

/// FNV-1a over the simulated results.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const std::string& s);
  /// Hashes a stats struct byte for byte (all-integer, no padding), so
  /// a counter added to the struct later is covered without an edit.
  template <typename T>
  void add_pod(const T& v) {
    static_assert(std::has_unique_object_representations_v<T>);
    add_bytes(&v, sizeof(T));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  void add_bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Flip events plus the DRAM/FTL/NAND/NVMe stats structs of a device.
void AddDeviceState(Digest& d, rhsd::SsdDevice& ssd);

/// The per-layer device counters the traced run reports.
struct DeviceCounts {
  std::map<std::string, double> values;
  void add(rhsd::SsdDevice& ssd);
};

/// Host-side NVMe command totals (all ops, writes only).
struct CommandCount {
  std::uint64_t all = 0;
  std::uint64_t writes = 0;
};
[[nodiscard]] CommandCount Commands(rhsd::SsdDevice& ssd);

class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Self time of every span whose `<name>_s` is a per-layer metric,
  /// plus activations per hammer second when hammer spans exist.
  void span_metrics(const Tracer& tracer);
  void counts(const DeviceCounts& counts);

  /// Records a correctness violation (also echoed on stderr).
  void fail(const std::string& what);
  void op(bool ok) { ops(1, ok ? 0 : 1); }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Compares two digests of the same inputs.
  void expect_same(const std::string& what, const Digest& a, const Digest& b);
  void print_digest(const std::string& label, const Digest& d) const;

  /// Prints the final JSON line with exactly the end-to-end metrics
  /// (untraced) or the per-layer metrics (traced).  A missing
  /// end-to-end metric is a failure; a per-layer metric the workload
  /// does not exercise reports 0.
  void print_json(bool traced) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Name and unit of every metric the benchmark defines.
struct MetricSpec {
  std::string name;
  std::string unit;
};
[[nodiscard]] std::vector<MetricSpec> EndToEndSpecs();
[[nodiscard]] std::vector<MetricSpec> PerLayerSpecs();

[[nodiscard]] double Median(std::vector<double> v);

/// Host time of the reference loop on the host the timed metrics are
/// quoted at.
inline constexpr double kReferenceS = 0.02;

/// Host-speed reference.  A shared host's speed drifts by tens of
/// percent within minutes, for all code alike.  HostScale() runs a
/// fixed loop of the benchmark's own code (dependent random reads over
/// an 8 MiB table mixed with integer hashing; nothing from src/, so no
/// change to the program moves it) and returns kReferenceS / its host
/// time.  Host seconds measured just before, times this factor, are
/// the seconds the same work takes on a host that runs the loop in
/// kReferenceS.
[[nodiscard]] double HostScale();
[[nodiscard]] double PeakRssMiB();

}  // namespace perfbench
