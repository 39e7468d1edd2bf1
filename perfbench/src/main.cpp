// Repository benchmark: one workload per process.
//
//   perfbench --workload <replay_mlp|replay_cnn|serve_http> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 measures the workload untraced and reports the end-to-end
// metrics. --trace 1 runs the same workload with spans recorded around
// every call into the library, plus the per-layer probes, and reports
// the per-layer metrics; the spans are written to
// .bench_build/perfbench/traces/. Every output produced is checked
// bit-for-bit against the scalar sequential engine; the last line of
// standard output is the result JSON.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using perfbench::Options;

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload replay_mlp|replay_cnn|serve_http "
               "--seed N --seconds S --trace 0|1\n");
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-reference") {
      options.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else {
      return false;
    }
  }
  return options.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  const bool replay_mlp = options.workload == "replay_mlp";
  const bool replay_cnn = options.workload == "replay_cnn";
  const bool serve = options.workload == "serve_http";
  if (!replay_mlp && !replay_cnn && !serve) {
    usage();
    return 2;
  }

  try {
    const KeepAwake keep_awake;
    Report report;
    Tracer tracer(options.trace);
    report.note("workload", options.workload);
    report.note("seed", static_cast<double>(options.seed));
    report.note("nproc",
                static_cast<double>(std::thread::hardware_concurrency()));
    report.note("pool_threads", kPoolThreads);
    report.note("keep_awake_threads",
                static_cast<double>(keep_awake.threads()));
    if (!options.trace) {
      if (serve) {
        run_serve(options, options.seconds, true, false, report, tracer);
      } else {
        run_replay(options, replay_mlp ? mlp_case() : cnn_case(),
                   options.seconds, true, report, tracer);
      }
    } else {
      // The traced run reports every layer on every workload: both
      // replay models' engine probes, the workload's own loop, and the
      // serving layers (a short serving run when the workload is a
      // replay).
      probe_model_layers(options, mlp_case(), report, tracer);
      probe_model_layers(options, cnn_case(), report, tracer);
      if (serve) {
        run_serve(options, options.seconds, false, true, report, tracer);
      } else {
        run_replay(options, replay_mlp ? mlp_case() : cnn_case(),
                   options.seconds, false, report, tracer);
        run_serve(options, 2.0, false, true, report, tracer);
      }
      const auto path = output_root() / "traces" /
                        (options.workload + "-seed" +
                         std::to_string(options.seed) + ".json");
      tracer.write(path);
      report.note("trace_file", path.string());
      report.note("trace_spans", static_cast<double>(tracer.size()));
    }
    report.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
