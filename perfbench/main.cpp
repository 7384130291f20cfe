// The benchmark binary: runs one workload for a fixed time and prints every
// metric by name and unit, ending with one JSON result line. Normally
// launched by run.py, which builds it first:
//
//   perfbench --workload sim-paper|offline-batch|serve-closed --seed N
//             --seconds S --trace 0|1 [--git-sha X] [--source-sha Y]
//
// With --trace 1 the run also replays the workload layer by layer with
// spans, prints the per-layer metrics instead of the end-to-end ones, and
// writes the spans to .bench_out/trace-<workload>-seed<N>.json.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
        if (!(a.seconds > 0.0 && a.seconds <= 600.0)) return false;
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") return false;
        a.trace = v == "1";
      } else if (flag == "--git-sha") {
        a.git_sha = v;
      } else if (flag == "--source-sha") {
        a.source_sha = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload;
}

std::string provenance(const Run& run) {
  std::ostringstream p;
  p << "{\"workload\": \"" << run.args.workload << "\", \"seed\": "
    << run.args.seed << ", \"seconds\": " << run.args.seconds
    << ", \"trace\": " << (run.args.trace ? 1 : 0) << ", \"git_sha\": \""
    << run.args.git_sha << "\", \"source_sha256\": \"" << run.args.source_sha
    << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
    << "\", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"workers\": " << kWorkers << ", \"configs\": [";
  const auto configs = paper_configs();
  for (std::size_t k = 0; k < configs.size(); ++k) {
    const auto& m = configs[k].machine;
    p << (k ? ", " : "") << "{\"name\": \"" << configs[k].name
      << "\", \"machine\": \"" << m.name << "\", \"vlen_bits\": "
      << m.vlen_bits << ", \"lanes\": " << m.effective_lanes()
      << ", \"l2_bytes\": " << m.l2.size_bytes
      << ", \"freq_ghz\": " << m.freq_ghz << ", \"winograd\": "
      << (configs[k].policy.winograd_stride1 ? "true" : "false") << "}";
  }
  p << "]}";
  return p.str();
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("-- %s --\n", title);
  for (const Metric& m : ms)
    std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

std::string result_json(const Result& r, const std::vector<Metric>& ms) {
  std::ostringstream j;
  j << "{\"correct\": " << (r.problems.empty() ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char v[40];
    std::snprintf(v, sizeof v, "%.17g", ms[i].value);
    j << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": " << v
      << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  j << "}}";
  return j.str();
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  if (!parse_args(argc, argv, run.args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload sim-paper|offline-batch|"
                 "serve-closed --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  try {
    if (run.args.workload == "sim-paper") {
      run_sim_paper(run);
    } else if (run.args.workload == "offline-batch") {
      run_offline_batch(run);
    } else if (run.args.workload == "serve-closed") {
      run_serve_closed(run);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n",
                   run.args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  Result& r = run.result;
  r.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");

  print_metrics("end-to-end", r.e2e);
  print_metrics("per-layer", r.layer);
  for (const std::string& p : r.problems)
    std::printf("CHECK FAILED: %s\n", p.c_str());
  const std::string prov = provenance(run);
  if (run.args.trace) {
    const std::filesystem::path dir = ".bench_out";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / ("trace-" + run.args.workload + "-seed" +
                                     std::to_string(run.args.seed) + ".json"))
                                 .string();
    run.tracer.write(path, prov);
    std::printf("spans written to %s\n", path.c_str());
  }
  std::printf("provenance: %s\n", prov.c_str());
  std::printf("%s\n", result_json(r, run.args.trace ? r.layer : r.e2e).c_str());
  return 0;
}
