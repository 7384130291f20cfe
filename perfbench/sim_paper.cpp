// sim-paper: two closed-loop clients, one op at a time each. One op
// simulates the paper's YOLOv3 prefix (first 20 layers) at 96x96 through
// core::run_simulated under the three paper configs, in order. It is the
// only workload where the simulator and the instrumented vector engine do
// the work.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "dnn/models.hpp"
#include "perfbench.hpp"

namespace perfbench {

using namespace vlacnn;

namespace {

constexpr int kInputHw = 96;
/// Goodput limit per op: about 3x the op's host time on a 4-core x86 box.
constexpr double kLimitS = 20.0;

/// Traced replays of `net` under every config, from the simulated address
/// layout the untraced op started from; checks that each config's
/// per-module cycles sum exactly to the untraced op's cycles and that the
/// replay's output equals the functional reference.
std::vector<ModuleTotals> traced_sim_op(Run& run, dnn::Network& net,
                                        const std::vector<SimConfig>& configs,
                                        const std::vector<dnn::Tensor>& refs,
                                        const std::vector<SimStats>& untraced,
                                        const char* label) {
  Tracer& tr = run.tracer;
  const std::uint64_t root =
      tr.add({label, "sim", 0, 0, 0, tr.now_us(), 0.0, {}});
  std::vector<ModuleTotals> traced;
  for (std::size_t k = 0; k < configs.size(); ++k) {
    dnn::Tensor out;
    ModuleTotals t =
        traced_sim_replay(net, configs[k], run.args.seed, tr, root, 0, out);
    std::uint64_t sum = 0;
    for (std::uint64_t c : t.cycles) sum += c;
    if (sum != untraced[k].cycles)
      run.result.problem("traced " + configs[k].name +
                         ": per-module cycles " + std::to_string(sum) +
                         " != untraced op's " +
                         std::to_string(untraced[k].cycles));
    if (!bitwise_equal(out, refs[k]))
      run.result.problem("traced " + configs[k].name +
                         ": output differs from the functional reference");
    traced.push_back(t);
  }
  tr.span(root).end_us = tr.now_us();
  return traced;
}

/// Each config's policy as a plan; adds the time taken to `*plan_s`.
std::vector<core::BackendPlan> config_plans(
    const std::vector<SimConfig>& configs, double* plan_s) {
  const auto t0 = Clock::now();
  std::vector<core::BackendPlan> plans;
  for (const SimConfig& c : configs)
    plans.push_back(core::BackendPlan::uniform(c.policy));
  if (plan_s != nullptr) *plan_s += seconds_between(t0, Clock::now());
  return plans;
}

/// Functional references of `net` on `input`, one per config (same vector
/// length and policy as the simulated run).
std::vector<dnn::Tensor> functional_refs(
    dnn::Network& net, const std::vector<SimConfig>& configs,
    const std::vector<core::BackendPlan>& plans, const dnn::Tensor& input,
    double* prepare_s) {
  std::vector<dnn::Tensor> refs;
  for (std::size_t k = 0; k < configs.size(); ++k)
    refs.push_back(reference_forward(net, plans[k],
                                     configs[k].machine.vlen_bits, input,
                                     prepare_s));
  return refs;
}

void check_sim_outputs(Result& r, const std::vector<SimConfig>& configs,
                       const std::vector<dnn::Tensor>& outs,
                       const std::vector<dnn::Tensor>& refs, bool& ok,
                       const std::string& where) {
  for (std::size_t k = 0; k < configs.size(); ++k)
    if (!bitwise_equal(outs[k], refs[k])) {
      ok = false;
      r.problem(where + " " + configs[k].name +
                ": simulated output differs from the functional reference");
    }
}

/// What one timed client did: per op, its host time, whether its outputs
/// matched the references, and each config's statistics.
struct ClientOps {
  std::vector<double> op_s;
  std::vector<bool> ok;
  std::vector<std::vector<SimStats>> stats;
  std::vector<std::string> problems;
};

/// The timed closed loop of one client (ops until `seconds` have passed, at
/// least one), serialized for the parent: one
/// `op <ok> <seconds> [<cycles> <vinst> <avg_vl> <l2_miss_rate> <dram>
/// <host_s>]...` line per op and one `problem <text>` line per failed check.
std::string timed_client(dnn::Network& net,
                         const std::vector<SimConfig>& configs,
                         const std::vector<dnn::Tensor>& refs,
                         std::uint64_t seed, double seconds) {
  std::ostringstream out;
  out.precision(17);
  const auto start = Clock::now();
  for (int op = 0; op == 0 || seconds_between(start, Clock::now()) < seconds;
       ++op) {
    std::vector<dnn::Tensor> outs;
    const auto t0 = Clock::now();
    const std::vector<SimStats> stats = simulate_all(net, configs, seed, &outs);
    const double op_s = seconds_between(t0, Clock::now());
    Result checks;
    bool ok = true;
    check_sim_outputs(checks, configs, outs, refs, ok,
                      "op " + std::to_string(op));
    for (const std::string& p : checks.problems) out << "problem " << p << "\n";
    out << "op " << ok << " " << op_s;
    for (const SimStats& s : stats)
      out << " " << s.cycles << " " << s.vinst << " " << s.avg_vl << " "
          << s.l2_miss_rate << " " << s.dram_lines << " " << s.host_s;
    out << "\n";
  }
  return out.str();
}

ClientOps parse_client(const std::string& text) {
  ClientOps c;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("problem ", 0) == 0) {
      c.problems.push_back(line.substr(8));
      continue;
    }
    std::istringstream f(line.substr(3));
    bool ok = false;
    double op_s = 0.0;
    f >> ok >> op_s;
    std::vector<SimStats> stats;
    SimStats s;
    while (f >> s.cycles >> s.vinst >> s.avg_vl >> s.l2_miss_rate >>
           s.dram_lines >> s.host_s)
      stats.push_back(s);
    c.op_s.push_back(op_s);
    c.ok.push_back(ok);
    c.stats.push_back(stats);
  }
  return c;
}

/// Runs `client` in `n` forked processes at once and returns what each
/// returned, in order. Waits for every child it started; a child that
/// fails, or one that could not be started, is a problem in `r`. Call only
/// while the process has a single thread.
std::vector<std::string> run_forked(
    int n, Result& r, const std::function<std::string()>& client) {
  struct Child {
    pid_t pid = -1;
    int fd = -1;
  };
  std::vector<Child> children;
  for (int i = 0; i < n; ++i) {
    int fds[2];
    if (pipe(fds) != 0) {
      r.problem("pipe failed");
      break;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      r.problem("fork failed");
      break;  // still wait for the clients already started
    }
    if (pid == 0) {
      close(fds[0]);
      int status = 0;
      std::string out;
      try {
        out = client();
      } catch (const std::exception& e) {
        out = std::string("problem client failed: ") + e.what() + "\n";
        status = 1;
      }
      for (std::size_t done = 0; done < out.size();) {
        const ssize_t w = write(fds[1], out.data() + done, out.size() - done);
        if (w <= 0) _exit(2);
        done += static_cast<std::size_t>(w);
      }
      _exit(status);
    }
    close(fds[1]);
    children.push_back({pid, fds[0]});
  }
  std::vector<std::string> outs;
  for (const Child& c : children) {
    std::string out;
    char buf[4096];
    ssize_t got = 0;
    while ((got = read(c.fd, buf, sizeof buf)) > 0)
      out.append(buf, static_cast<std::size_t>(got));
    close(c.fd);
    int status = 0;
    waitpid(c.pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      r.problem("timed client process failed");
    outs.push_back(std::move(out));
  }
  return outs;
}

/// One untimed op in a child forked from here, alone on the host. The child
/// starts from this process's simulated address layout, so a traced replay
/// run here next must reproduce its cycles exactly.
ClientOps op_in_child(Run& run, dnn::Network& net,
                      const std::vector<SimConfig>& configs,
                      const std::vector<dnn::Tensor>& refs,
                      std::uint64_t input_seed, const std::string& where) {
  std::fflush(stdout);
  const std::vector<std::string> outs = run_forked(1, run.result, [&] {
    return timed_client(net, configs, refs, input_seed, 0.0);
  });
  ClientOps op = parse_client(outs.at(0));
  for (const std::string& p : op.problems) run.result.problem(where + ": " + p);
  if (op.stats.size() != 1 || op.stats[0].size() != configs.size())
    throw std::runtime_error(where + " returned no statistics");
  return op;
}

}  // namespace

void sim_probe(Run& run, dnn::Network& net, std::uint64_t input_seed) {
  const std::vector<SimConfig> configs = paper_configs();
  const std::vector<dnn::Tensor> refs =
      functional_refs(net, configs, config_plans(configs, nullptr),
                      sim_input(net, input_seed), nullptr);
  const std::vector<SimStats> stats =
      op_in_child(run, net, configs, refs, input_seed, "sim probe").stats[0];
  for (std::size_t k = 0; k < configs.size(); ++k)
    run.result.add_e2e("sim_mcycles." + configs[k].name, stats[k].cycles / 1e6,
                       "Mcycles");
  if (run.args.trace)
    add_sim_layer_metrics(
        run.result, configs, stats,
        traced_sim_op(run, net, configs, refs, stats, "sim-probe"));
}

void run_sim_paper(Run& run) {
  Result& r = run.result;
  const std::vector<SimConfig> configs = paper_configs();
  const std::uint64_t seed = run.args.seed;

  // Set-up, repeated: model build, plan compile, prepare, and the
  // functional reference outputs (same vector length and policy per config).
  std::unique_ptr<dnn::Network> net;
  std::vector<core::BackendPlan> plans;
  std::vector<dnn::Tensor> refs;
  std::vector<double> setup_s, plan_s, prepare_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    refs.clear();
    net.reset();
    const auto t0 = Clock::now();
    net = dnn::build_yolov3_prefix_20(kInputHw);
    double plan = 0.0, prep = 0.0;
    plans = config_plans(configs, &plan);
    refs = functional_refs(*net, configs, plans, sim_input(*net, seed), &prep);
    plan_s.push_back(plan);
    prepare_s.push_back(prep);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Timed ops: two closed-loop clients, each a process forked after the
  // set-up, so both start from the same simulated address layout. One
  // single-threaded simulation's host time swings by up to ~1.5x from
  // second to second on a shared host; two running on different cores
  // swing largely independently, so the run's median is steadier. Sim
  // counts are reported for op 0: the layout drifts slightly from op to op
  // within a process (the address map's bump allocator never rewinds), but
  // op 0 is the same in both clients and in every run.
  std::fflush(stdout);
  std::vector<ClientOps> clients;
  for (const std::string& out : run_forked(kWorkers, r, [&] {
         return timed_client(*net, configs, refs, seed, run.args.seconds);
       }))
    clients.push_back(parse_client(out));
  std::vector<double> op_s;
  const std::vector<SimStats>& op0 = clients.at(0).stats.at(0);
  std::uint64_t good = 0;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    for (const std::string& p : clients[c].problems) r.problem(p);
    for (std::size_t i = 0; i < clients[c].op_s.size(); ++i) {
      const std::string where =
          "client " + std::to_string(c) + " op " + std::to_string(i);
      bool ok = clients[c].ok[i];
      for (std::size_t k = 0; k < configs.size(); ++k) {
        const SimStats& s = clients[c].stats[i][k];
        if (s.vinst != op0[k].vinst) {
          ok = false;
          r.problem(where + " " + configs[k].name +
                    ": vector-instruction count differs from op 0");
        }
        if (i == 0 && s.cycles != op0[k].cycles) {
          ok = false;
          r.problem(where + " " + configs[k].name +
                    ": op-0 cycles differ between clients");
        }
      }
      op_s.push_back(clients[c].op_s[i]);
      ++r.attempted;
      if (!ok) ++r.failed;
      if (ok && op_s.back() <= kLimitS) ++good;
    }
  }

  const double op_med = median(op_s);
  const Tail tail = tail_of(op_s);
  add_setup_metrics(r, setup_s, plan_s, prepare_s);
  r.add_e2e("ok_frac", 1.0 - static_cast<double>(r.failed) / r.attempted,
            "frac");
  r.add_e2e("goodput_frac", static_cast<double>(good) / r.attempted, "frac");
  r.add_e2e("lat_p50_ms", op_med * 1e3, "ms");
  r.add_e2e("lat_tail_ms", tail.value * 1e3, "ms");
  r.add_e2e("images_per_s", static_cast<double>(configs.size()) / op_med,
            "1/s");
  for (std::size_t k = 0; k < configs.size(); ++k)
    r.add_e2e("sim_mcycles." + configs[k].name, op0[k].cycles / 1e6,
              "Mcycles");
  std::printf("sim-paper: %zu ops on %d clients, sim_host_s %.4f (median), "
              "tail p%.1f of %zu ops\n",
              op_s.size(), kWorkers, op_med, tail.pct, tail.n);
  print_series("op_ms", op_s, 1e3);

  if (!run.args.trace) return;

  // The traced replay runs alone, so it is timed against an untraced op
  // that also ran alone, just before it (the timed ops ran two at a time).
  const double alone_s =
      op_in_child(run, *net, configs, refs, seed, "untraced op").op_s[0];
  const std::vector<ModuleTotals> traced =
      traced_sim_op(run, *net, configs, refs, op0, "sim-op");
  add_sim_layer_metrics(r, configs, op0, traced);
  double traced_s = 0.0, covered_s = 0.0;
  for (const ModuleTotals& t : traced) {
    traced_s += t.total_s;
    covered_s += t.covered_s();
  }
  add_trace_check_metrics(r, traced_s, covered_s, alone_s);

  // Host time per module of the functional passes behind the references:
  // one image per config.
  ModuleTotals fn;
  const dnn::Tensor input = sim_input(*net, seed);
  const std::uint64_t root = run.tracer.add(
      {"functional-refs", "vla", 0, 0, 0, run.tracer.now_us(), 0.0, {}});
  for (std::size_t k = 0; k < configs.size(); ++k) {
    dnn::Tensor out;
    const ModuleTotals t =
        traced_functional_replay(*net, plans[k], configs[k].machine.vlen_bits,
                                 input, run.tracer, root, 0, out);
    if (!bitwise_equal(out, refs[k]))
      r.problem("traced functional pass " + configs[k].name +
                ": output differs from the reference");
    for (int m = 0; m < kModules; ++m) fn.host_s[m] += t.host_s[m];
    fn.engine_bytes += t.engine_bytes;
  }
  run.tracer.span(root).end_us = run.tracer.now_us();
  add_functional_layer_metrics(r, fn, static_cast<int>(configs.size()));
  add_idle_runtime_metrics(r);
  add_idle_serve_metrics(r);
}

}  // namespace perfbench
