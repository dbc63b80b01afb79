// rhsd_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--tiny]
//
// Runs one workload and prints, as its last line, one JSON object with
// `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  A traced run
// also writes its spans to .bench_out/spans_<workload>_<seed>.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

int Usage() {
  std::fprintf(stderr,
               "usage: rhsd_perfbench --workload <fig3_exploit|"
               "cloud_8_mixed|cloud_1024_reads> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return Usage();
    }
  }

  using Runner = void (*)(const Options&, perfbench::Result&,
                          perfbench::Tracer&);
  Runner run = nullptr;
  if (opts.workload == "fig3_exploit") run = perfbench::RunFig3Exploit;
  if (opts.workload == "cloud_8_mixed") run = perfbench::RunCloud8Mixed;
  if (opts.workload == "cloud_1024_reads") run = perfbench::RunCloud1024Reads;
  if (run == nullptr) return Usage();

  try {
    perfbench::Result result;
    perfbench::Tracer tracer(opts.trace);
    run(opts, result, tracer);
    if (opts.trace) {
      const std::string dir = ".bench_out";
      std::filesystem::create_directories(dir);
      const std::string path = dir + "/spans_" + opts.workload + "_" +
                               std::to_string(opts.seed) + ".json";
      if (!tracer.write_json(path)) {
        result.fail("cannot write span file " + path);
      }
      std::printf("spans %s (%zu spans)\n", path.c_str(),
                  tracer.spans().size());
      result.metric("process.peak_rss_mib", perfbench::PeakRssMiB(), "MiB");
    } else {
      std::printf("peak RSS %.1f MiB\n", perfbench::PeakRssMiB());
    }
    result.print_json(opts.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rhsd_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
