#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <set>

namespace perfbench {

void Digest::add_bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(std::uint64_t v) { add_bytes(&v, sizeof v); }

void Digest::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

void Digest::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  add_bytes(s.data(), s.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void AddDeviceState(Digest& d, rhsd::SsdDevice& ssd) {
  const auto& flips = ssd.dram().flip_events();
  d.add(static_cast<std::uint64_t>(flips.size()));
  for (const rhsd::FlipEvent& f : flips) {
    d.add(f.time_ns);
    d.add(f.global_row);
    d.add(static_cast<std::uint64_t>(f.byte_offset) << 16 |
          static_cast<std::uint64_t>(f.bit) << 8 | f.new_value);
  }
  d.add_pod(ssd.dram().stats());
  d.add_pod(ssd.ftl().stats());
  d.add_pod(ssd.nand().stats());
  d.add_pod(ssd.controller().stats());
  d.add(static_cast<std::uint64_t>(ssd.clock().now_ns()));
}

void DeviceCounts::add(rhsd::SsdDevice& ssd) {
  const rhsd::DramStats& dram = ssd.dram().stats();
  const rhsd::FtlStats& ftl = ssd.ftl().stats();
  const rhsd::NandStats& nand = ssd.nand().stats();
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"dram.activations", dram.activations},
      {"dram.bitflips", dram.bitflips},
      {"dram.trr_refreshes", dram.trr_refreshes},
      {"dram.para_refreshes", dram.para_refreshes},
      {"ftl.l2p_dram_reads", ftl.l2p_dram_reads},
      {"ftl.host_writes", ftl.host_writes},
      {"ftl.host_trims", ftl.host_trims},
      {"ftl.gc_runs", ftl.gc_runs},
      {"ftl.gc_relocations", ftl.gc_relocations},
      {"nand.reads", nand.reads},
      {"nand.programs", nand.programs},
      {"nand.erases", nand.erases},
  };
  for (const auto& [name, value] : fields) {
    values[name] += static_cast<double>(value);
  }
}

CommandCount Commands(rhsd::SsdDevice& ssd) {
  const rhsd::NvmeStats& s = ssd.controller().stats();
  return {s.read_cmds + s.write_cmds + s.trim_cmds + s.flush_cmds,
          s.write_cmds};
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Result::span_metrics(const Tracer& tracer) {
  std::set<std::string> layer;
  for (const MetricSpec& m : PerLayerSpecs()) layer.insert(m.name);
  const auto totals = tracer.totals();
  for (const auto& [name, t] : totals) {
    if (layer.count(name + "_s") > 0) metric(name + "_s", t.self_s, "s");
  }
  const auto hammer = totals.find("attack.hammer");
  if (hammer != totals.end() && hammer->second.total_s > 0) {
    metric("dram.acts_per_hammer_s",
           tracer.counter("dram.hammer_activations") /
               hammer->second.total_s,
           "1/s");
  }
}

void Result::counts(const DeviceCounts& counts) {
  for (const auto& [name, value] : counts.values) {
    metric(name, value, "count");
  }
}

void Result::fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  errors_.push_back(what);
}

void Result::expect_same(const std::string& what, const Digest& a,
                         const Digest& b) {
  if (a.value() != b.value()) {
    fail(what + ": digest " + a.hex() + " != " + b.hex());
  }
}

void Result::print_digest(const std::string& label, const Digest& d) const {
  std::printf("digest %s %s\n", label.c_str(), d.hex().c_str());
}

void Result::print_json(bool traced) const {
  const std::vector<MetricSpec> specs =
      traced ? PerLayerSpecs() : EndToEndSpecs();
  bool correct = errors_.empty();
  std::string body;
  for (const MetricSpec& spec : specs) {
    const auto it = metrics_.find(spec.name);
    double value = 0.0;
    if (it != metrics_.end()) {
      value = it->second.value;
      if (it->second.unit != spec.unit) {
        std::fprintf(stderr, "perfbench: metric %s has unit %s, not %s\n",
                     spec.name.c_str(), it->second.unit.c_str(),
                     spec.unit.c_str());
        correct = false;
      }
    } else if (!traced) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   spec.name.c_str());
      correct = false;
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!body.empty()) body += ", ";
    body += "\"" + spec.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            spec.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), body.c_str());
  std::fflush(stdout);
}

std::vector<MetricSpec> EndToEndSpecs() {
  return {
      {"sim_s_per_host_s", "s/s"},  {"scenarios_per_s", "1/s"},
      {"cmds_per_s", "1/s"},        {"write_cmds_per_s", "1/s"},
      {"setup_s", "s"},
  };
}

std::vector<MetricSpec> PerLayerSpecs() {
  return {
      // attack (fig3_exploit)
      {"attack.spray_s", "s"},
      {"attack.unspray_s", "s"},
      {"attack.attacker_spray_s", "s"},
      {"attack.scan_s", "s"},
      {"attack.dump_s", "s"},
      {"attack.finder_s", "s"},
      {"attack.hammer_s", "s"},
      {"attack.useful_flip_ratio", "ratio"},
      {"dram.acts_per_hammer_s", "1/s"},
      // nvme (cloud_*)
      {"nvme.loop_s", "s"},
      {"nvme.loop_calls", "count"},
      {"nvme.ns_per_cmd", "ns"},
      {"nvme.loop_s_pool", "s"},
      {"nvme.ns_per_cmd_pool", "ns"},
      {"nvme.pool_speedup", "ratio"},
      {"nvme.read_cmds", "count"},
      {"nvme.write_cmds", "count"},
      {"nvme.errors", "count"},
      // cloud / sim (set-up)
      {"cloud.host_build_s", "s"},
      {"cloud.add_tenant_s", "s"},
      {"cloud.attach_s", "s"},
      {"cloud.install_secret_s", "s"},
      {"sim.script_gen_s", "s"},
      // dram / ftl / nand device counters
      {"dram.activations", "count"},
      {"dram.bitflips", "count"},
      {"dram.trr_refreshes", "count"},
      {"dram.para_refreshes", "count"},
      {"ftl.l2p_dram_reads", "count"},
      {"ftl.host_writes", "count"},
      {"ftl.host_trims", "count"},
      {"ftl.gc_runs", "count"},
      {"ftl.gc_relocations", "count"},
      {"nand.reads", "count"},
      {"nand.programs", "count"},
      {"nand.erases", "count"},
      // the process and the tracing itself
      {"process.peak_rss_mib", "MiB"},
      {"trace.overhead", "ratio"},
  };
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double HostScale() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(std::size_t{1} << 21);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;  // xorshift64
    for (std::uint32_t& v : t) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x);
    }
    return t;
  }();
  const std::uint32_t mask = static_cast<std::uint32_t>(table.size() - 1);
  const double t0 = Now();
  std::uint32_t index = 1;
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < 200000; ++i) {
    index = table[(index ^ i) & mask];
    acc = acc * 0x9E3779B97F4A7C15ull + index;
    acc ^= acc >> 29;
  }
  const double dt = Now() - t0;
  static volatile std::uint64_t sink;
  sink = acc;
  return kReferenceS / dt;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
