// snap_perfbench: the repository benchmark.
//
//   snap_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--smoke] [--corrupt-reference]
//
// Runs a fixed number of closed-loop training episodes of one workload,
// as many as fit --seconds at the workload's nominal episode time, each
// on inputs drawn from its own seed derived from --seed. It checks every
// episode's output and prints a table followed by one JSON line:
// {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 alternates plain
// and traced episodes, runs the per-layer probes, and reports the
// per-layer metrics. --smoke shrinks the workload to a seconds-long run
// for the benchmark's own tests; --corrupt-reference flips one bit of
// the reference trajectory so the tests can see the parity check fail.
//
// Socket workloads run shard 0 in this process and re-execute this
// binary (--shard-worker <k>) for every other shard, with a rendezvous
// directory under .bench_run/ that is removed after each episode.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/frame.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace fs = std::filesystem;
using perfbench::Episode;
using perfbench::WorkloadSpec;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool corrupt_reference = false;
  // Shard-worker mode (set only on re-executed shard processes).
  std::optional<std::size_t> shard_worker;
  std::string rendezvous;
  bool traced = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return std::nullopt;
    key = key.substr(2);
    if (key == "smoke" || key == "corrupt-reference") {
      kv[key] = "1";
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    kv[key] = argv[++i];
  }
  try {
    for (const auto& [key, value] : kv) {
      if (key == "workload") args.workload = value;
      else if (key == "seed") args.seed = std::stoull(value);
      else if (key == "seconds") args.seconds = std::stod(value);
      else if (key == "trace") args.trace = value == "1";
      else if (key == "smoke") args.smoke = true;
      else if (key == "corrupt-reference") args.corrupt_reference = true;
      else if (key == "shard-worker") args.shard_worker = std::stoul(value);
      else if (key == "rendezvous") args.rendezvous = value;
      else if (key == "traced") args.traced = value == "1";
      else return std::nullopt;
    }
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) return std::nullopt;
  return args;
}

// Per-iteration fingerprint compared bit for bit between episodes.
struct Point {
  std::uint64_t loss_bits = 0;
  std::uint64_t bytes = 0;
  friend bool operator==(const Point&, const Point&) = default;
};
using Trajectory = std::vector<Point>;

Trajectory trajectory_of(const snap::core::TrainResult& result) {
  Trajectory t;
  for (const auto& it : result.iterations) {
    t.push_back({std::bit_cast<std::uint64_t>(it.train_loss), it.bytes});
  }
  return t;
}

std::string result_path(const std::string& rendezvous, std::size_t shard) {
  return rendezvous + "/result-" + std::to_string(shard) + ".txt";
}

// --- shard worker -----------------------------------------------------------

int run_worker(const Args& args, const WorkloadSpec& spec) {
  const Episode ep = perfbench::run_episode(
      spec, args.seed, args.traced,
      {true, *args.shard_worker, args.rendezvous});
  std::ofstream out(result_path(args.rendezvous, *args.shard_worker));
  out << std::setprecision(17) << "wall_s " << ep.train_wall_s << "\ncpu_s "
      << ep.train_cpu_s << '\n';
  for (const Point& p : trajectory_of(ep.result)) {
    out << "point " << p.loss_bits << ' ' << p.bytes << '\n';
  }
  return out.good() ? 0 : 1;
}

struct WorkerResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Trajectory trajectory;
};

WorkerResult read_worker(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing shard result " + path);
  WorkerResult r;
  std::string key;
  while (in >> key) {
    if (key == "wall_s") {
      in >> r.wall_s;
    } else if (key == "cpu_s") {
      in >> r.cpu_s;
    } else if (key == "point") {
      Point p;
      in >> p.loss_bits >> p.bytes;
      r.trajectory.push_back(p);
    }
  }
  return r;
}

std::map<std::string, std::uint64_t> read_shard_stats(const std::string& path) {
  std::map<std::string, std::uint64_t> stats;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    stats[line.substr(0, eq)] = std::stoull(line.substr(eq + 1));
  }
  return stats;
}

// --- one attempted episode --------------------------------------------------

struct Attempt {
  Episode ep;            ///< in-process run, or shard 0 of a socket run
  bool traced = false;
  double wall_s = 0.0;   ///< train() wall time of the slowest shard
  double cpu_s = 0.0;    ///< train() CPU time summed over shards
  std::map<std::string, std::uint64_t> wire;  ///< shard stats, summed
  std::vector<Trajectory> peer_trajectories;  ///< shards 1..K-1
  std::string error;     ///< empty when every output check passed
};

pid_t spawn_worker(const Args& args, std::uint64_t seed, std::size_t shard,
                   const std::string& rendezvous, bool traced) {
  std::vector<std::string> child = {
      "snap_perfbench",  "--workload",   args.workload,
      "--seed",          std::to_string(seed),
      "--shard-worker",  std::to_string(shard),
      "--rendezvous",    rendezvous,
      "--traced",        traced ? "1" : "0"};
  if (args.smoke) child.push_back("--smoke");
  std::vector<char*> argv;
  for (std::string& a : child) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string log =
      rendezvous + "/shard-" + std::to_string(shard) + ".log";
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int fd = ::open(log.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::close(fd);
  }
  ::execv("/proc/self/exe", argv.data());
  _exit(127);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Attempt run_attempt(const Args& args, const WorkloadSpec& spec,
                    std::uint64_t seed, bool traced, std::size_t index) {
  Attempt a;
  a.traced = traced;
  if (spec.shards <= 1) {
    a.ep = perfbench::run_episode(spec, seed, traced, {});
    a.wall_s = a.ep.train_wall_s;
    a.cpu_s = a.ep.train_cpu_s;
    return a;
  }

  // Relative to the working directory every shard shares, which keeps
  // the socket paths short.
  const std::string rendezvous = ".bench_run/r" + std::to_string(::getpid()) +
                                 "-" + std::to_string(index);
  fs::remove_all(rendezvous);
  fs::create_directories(rendezvous);
  std::vector<pid_t> workers;
  for (std::size_t k = 1; k < spec.shards; ++k) {
    const pid_t pid = spawn_worker(args, seed, k, rendezvous, traced);
    if (pid < 0) throw std::runtime_error("fork failed");
    workers.push_back(pid);
  }
  const auto reap = [&](bool kill_first) {
    bool ok = true;
    for (const pid_t pid : workers) {
      if (kill_first) ::kill(pid, SIGKILL);
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    workers.clear();
    return ok;
  };
  try {
    a.ep = perfbench::run_episode(spec, seed, traced, {true, 0, rendezvous});
  } catch (...) {
    reap(true);
    fs::remove_all(rendezvous);
    throw;
  }
  const bool workers_ok = reap(false);
  a.wall_s = a.ep.train_wall_s;
  a.cpu_s = a.ep.train_cpu_s;
  for (std::size_t k = 0; k < spec.shards; ++k) {
    const std::string stats_path =
        rendezvous + "/shard-" + std::to_string(k) + ".stats";
    for (const auto& [key, value] : read_shard_stats(stats_path)) {
      a.wire[key] += value;
    }
    if (k == 0) continue;
    if (!workers_ok) {
      a.error = "shard " + std::to_string(k) + " failed: " +
                read_text(rendezvous + "/shard-" + std::to_string(k) + ".log");
      break;
    }
    const WorkerResult r = read_worker(result_path(rendezvous, k));
    a.wall_s = std::max(a.wall_s, r.wall_s);
    a.cpu_s += r.cpu_s;
    a.peer_trajectories.push_back(r.trajectory);
  }
  fs::remove_all(rendezvous);
  return a;
}

// --- output checks ----------------------------------------------------------

std::optional<std::size_t> target_index(const WorkloadSpec& spec,
                                        const Episode& ep) {
  const auto& its = ep.result.iterations;
  for (std::size_t k = 0; k < its.size(); ++k) {
    if (its[k].train_loss <= spec.target_loss) return k;
  }
  return std::nullopt;
}

// `reference` (may be null) is the trajectory the episode must match.
std::string check_attempt(const WorkloadSpec& spec, const Attempt& a,
                          const Trajectory* reference) {
  if (!a.error.empty()) return a.error;
  const auto& r = a.ep.result;
  if (r.iterations.size() != spec.rounds ||
      a.ep.round_end_s.size() != spec.rounds) {
    return "ran " + std::to_string(r.iterations.size()) + " of " +
           std::to_string(spec.rounds) + " rounds";
  }
  for (const auto& it : r.iterations) {
    if (!std::isfinite(it.train_loss)) return "non-finite train_loss";
  }
  if (!std::isfinite(r.final_train_loss)) return "non-finite final loss";
  if (!target_index(spec, a.ep)) {
    return "never reached target loss " + std::to_string(spec.target_loss);
  }
  const double residual = r.iterations.back().consensus_residual;
  if (!(residual < spec.residual_tolerance)) {
    return "final consensus residual " + std::to_string(residual) +
           " above tolerance";
  }
  if (reference != nullptr && trajectory_of(r) != *reference) {
    return "per-iteration loss/bytes differ from the reference trajectory";
  }
  for (const Trajectory& peer : a.peer_trajectories) {
    if (peer != trajectory_of(r)) return "a socket shard diverged from shard 0";
  }
  if (spec.shards > 1) {
    if (a.wire.count("mismatched_frames") == 0 || a.wire.at("frames_sent") == 0) {
      return "socket shards published no wire stats";
    }
    if (a.wire.at("mismatched_frames") != 0) return "mismatched wire frames";
  }
  return {};
}

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

double node_rounds(const Episode& ep) {
  double total = 0.0;
  for (const auto& it : ep.result.iterations) {
    total += static_cast<double>(it.alive_nodes);
  }
  return total;
}

// Wall time of rounds 2..R, between consecutive observer callbacks.
// Round 1 also carries train()'s own set-up (core.round1_ms).
std::vector<double> round_ms(const Episode& ep) {
  std::vector<double> out;
  for (std::size_t k = 1; k < ep.round_end_s.size(); ++k) {
    out.push_back((ep.round_end_s[k] - ep.round_end_s[k - 1]) * 1e3);
  }
  return out;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// Every episode yields one value per metric and the run reports their
// median, so an episode slowed by other load on a shared machine moves
// the result little.
std::vector<Metric> end_to_end(const WorkloadSpec& spec,
                               const std::vector<const Attempt*>& ok,
                               const std::vector<double>& setups) {
  std::vector<double> rate, p50, p90, cpu, to_target_s, to_target_rounds,
      to_target_bytes, final_loss;
  std::size_t samples = 0;
  for (const Attempt* a : ok) {
    const double done = node_rounds(a->ep);
    rate.push_back(done / a->wall_s);
    cpu.push_back(a->cpu_s / done * 1e6);
    const std::vector<double> r = round_ms(a->ep);
    samples += r.size();
    p50.push_back(perfbench::percentile(r, 0.5));
    p90.push_back(perfbench::percentile(r, 0.9));
    const std::size_t k = *target_index(spec, a->ep);
    to_target_s.push_back(a->ep.round_end_s[k]);
    to_target_rounds.push_back(static_cast<double>(k + 1));
    double bytes = 0.0;
    for (std::size_t i = 0; i <= k; ++i) {
      bytes += static_cast<double>(a->ep.result.iterations[i].bytes);
    }
    to_target_bytes.push_back(bytes);
    final_loss.push_back(a->ep.result.final_train_loss);
  }
  using perfbench::median;
  const std::string per_episode =
      "median of " + std::to_string(ok.size()) + " episodes";
  const std::string rounds = per_episode + ", " + std::to_string(samples) +
                             " rounds timed";
  return {
      {"setup_s", median(setups), "s",
       "median of " + std::to_string(setups.size()) + " set-ups"},
      {"node_rounds_per_s", median(rate), "1/s", per_episode},
      {"round_ms_p50", median(p50), "ms", rounds},
      {"round_ms_p90", median(p90), "ms", rounds},
      {"time_to_target_s", median(to_target_s), "s",
       "target loss " + std::to_string(spec.target_loss)},
      {"rounds_to_target", median(to_target_rounds), "count", per_episode},
      {"bytes_to_target", median(to_target_bytes), "B", per_episode},
      {"final_loss", median(final_loss), "loss", per_episode},
      {"cpu_us_per_node_round", median(cpu), "us", per_episode},
      {"peak_rss_mb", peak_rss_mb(), "MB", "max over this run's processes"},
  };
}

bool is_epoch_round(const snap::core::IterationStats& now,
                    const snap::core::IterationStats& before) {
  return now.partition_epoch != before.partition_epoch ||
         now.nodes_joined > 0 || now.alive_nodes != before.alive_nodes;
}

// Smallest transmitted-parameter count whose encoded frame is at least
// the observed mean frame size.
std::size_t observed_sent(std::size_t dim, double mean_frame_bytes) {
  std::size_t lo = 0, hi = dim;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (static_cast<double>(snap::net::encoded_frame_bytes(dim, mid)) <
        mean_frame_bytes) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double mean_frame_bytes(const WorkloadSpec& spec, const Attempt& a) {
  if (spec.shards > 1) {
    const double frames = static_cast<double>(a.wire.at("frames_sent"));
    return static_cast<double>(a.wire.at("payload_bytes_sent")) / frames;
  }
  double frames = 0.0, bytes = 0.0;
  for (const auto& it : a.ep.result.iterations) {
    frames += spec.fabric == snap::runtime::FabricKind::kGossip
                  ? 2.0 * static_cast<double>(it.links_activated)
                  : 2.0 * static_cast<double>(a.ep.edges);
    frames -= static_cast<double>(it.frames_dropped);
    bytes += static_cast<double>(it.bytes - it.state_sync_bytes);
  }
  return frames > 0 ? bytes / frames : 0.0;
}

std::vector<Metric> per_layer(const Args& args, const WorkloadSpec& spec,
                              const std::vector<const Attempt*>& plain,
                              const std::vector<const Attempt*>& traced,
                              const std::vector<Episode>& sim_references) {
  const double budget = args.smoke ? 0.05 : 0.4;
  const perfbench::Inputs inputs = perfbench::build_inputs(spec, args.seed);
  const std::size_t dim = inputs.model->param_count();

  // ml, from the traced episodes (shard 0 of a socket run).
  const Attempt& t0 = *traced.front();
  const perfbench::ModelCounts& mc = *t0.ep.model;
  std::vector<double> grad_s, loss_s, predict_s, share, non_model;
  for (const Attempt* a : traced) {
    const perfbench::ModelCounts& c = *a->ep.model;
    grad_s.push_back(c.gradient_s);
    loss_s.push_back(c.loss_s);
    predict_s.push_back(c.predict_s);
    share.push_back(c.busy_s() / a->ep.train_cpu_s);
    non_model.push_back((a->ep.train_cpu_s - c.busy_s()) /
                        node_rounds(a->ep) * 1e6);
  }

  // core, runtime and net, from the plain episodes.
  std::vector<double> round1, idle, plain_wall, traced_wall, rounds_plain,
      epoch_rounds, other_rounds;
  for (const Attempt* a : plain) {
    const Episode& ep = a->ep;
    round1.push_back(ep.round_end_s.front() * 1e3);
    idle.push_back(1.0 - ep.train_cpu_s /
                             (ep.train_wall_s * static_cast<double>(ep.threads)));
    plain_wall.push_back(a->wall_s);
    const std::vector<double> r = round_ms(ep);
    rounds_plain.insert(rounds_plain.end(), r.begin(), r.end());
    const auto& its = ep.result.iterations;
    for (std::size_t k = 1; k < its.size(); ++k) {
      (is_epoch_round(its[k], its[k - 1]) ? epoch_rounds : other_rounds)
          .push_back(r[k - 1]);
    }
  }
  for (const Attempt* a : traced) traced_wall.push_back(a->wall_s);

  const Attempt& p0 = *plain.front();
  const auto& its = p0.ep.result.iterations;
  double activated = 0.0, dropped = 0.0, down = 0.0;
  for (const auto& it : its) {
    activated += static_cast<double>(it.links_activated);
    dropped += static_cast<double>(it.frames_dropped);
    down += static_cast<double>(it.nodes_down);
  }
  const double epochs = static_cast<double>(its.back().partition_epoch);
  const std::size_t sent = observed_sent(dim, mean_frame_bytes(spec, p0));
  const perfbench::FrameCodec codec =
      perfbench::frame_codec_us(dim, sent, args.seed, budget);
  const perfbench::NodeReplay replay =
      perfbench::replay_snap_node(spec, inputs, args.seed, budget);
  const auto wire = [&](const char* key) {
    const auto it = p0.wire.find(key);
    return it == p0.wire.end() ? 0.0 : static_cast<double>(it->second);
  };

  std::vector<double> w_ms, graph_ms, generate_ms, partition_ms;
  for (const Attempt* a : plain) {
    w_ms.push_back(a->ep.w_build_ms);
    graph_ms.push_back(a->ep.graph_ms);
    generate_ms.push_back(a->ep.generate_ms);
    partition_ms.push_back(a->ep.partition_ms);
  }

  std::vector<double> rounds_sim;
  for (const Episode& ep : sim_references) {
    const std::vector<double> r = round_ms(ep);
    rounds_sim.insert(rounds_sim.end(), r.begin(), r.end());
  }
  const double socket_overhead =
      rounds_sim.empty() ? 0.0
                         : perfbench::median(rounds_plain) -
                               perfbench::median(rounds_sim);
  const std::string sent_note = "sent " + std::to_string(sent) + " of " +
                                std::to_string(dim) + " params";
  using perfbench::median;
  return {
      {"ml.gradient_calls", static_cast<double>(mc.gradient_calls), "count", ""},
      {"ml.gradient_busy_s", median(grad_s), "s", ""},
      {"ml.loss_calls", static_cast<double>(mc.loss_calls), "count", ""},
      {"ml.loss_busy_s", median(loss_s), "s", ""},
      {"ml.predict_calls", static_cast<double>(mc.predict_calls), "count", ""},
      {"ml.predict_busy_s", median(predict_s), "s", ""},
      {"ml.cpu_share", median(share), "frac", ""},
      {"core.non_model_cpu_us_per_node_round", median(non_model), "us", ""},
      {"core.compute_update_ns", replay.compute_update_ns, "ns", ""},
      {"core.collect_updates_ns", replay.collect_updates_ns, "ns", ""},
      {"core.advance_views_ns", replay.advance_views_ns, "ns", ""},
      {"core.apply_update_ns", replay.apply_update_ns, "ns", ""},
      {"core.round1_ms", median(round1), "ms", ""},
      {"core.epoch_round_extra_ms",
       epoch_rounds.empty() ? 0.0 : median(epoch_rounds) - median(other_rounds),
       "ms",
       std::to_string(epoch_rounds.size()) + " epoch rounds of " +
           std::to_string(epoch_rounds.size() + other_rounds.size())},
      {"runtime.parallel_idle_frac", median(idle), "frac", ""},
      {"runtime.empty_round_us",
       perfbench::empty_round_us(spec, inputs, args.seed), "us", ""},
      {"common.parallel_for_us",
       perfbench::parallel_for_us(spec.threads, inputs.graph.node_count(),
                                  budget),
       "us", ""},
      {"runtime.links_activated_per_round",
       activated / static_cast<double>(its.size()), "count", ""},
      {"net.bytes_per_node_round",
       static_cast<double>(p0.ep.result.total_bytes) / node_rounds(p0.ep), "B",
       ""},
      {"net.encode_us_per_frame", codec.encode_us, "us", sent_note},
      {"net.decode_us_per_frame", codec.decode_us, "us", sent_note},
      {"net.socket_round_overhead_ms", socket_overhead, "ms", ""},
      {"net.os_bytes_sent", wire("os_bytes_sent"), "B", ""},
      {"net.frames_sent", wire("frames_sent"), "count", ""},
      {"net.flips", wire("flips"), "count", ""},
      {"net.mismatched_frames", wire("mismatched_frames"), "count", ""},
      {"net.frames_dropped", dropped, "count", ""},
      {"net.nodes_down_rounds", down, "count", ""},
      {"net.partition_epochs", epochs, "count", ""},
      {"consensus.w_build_ms", median(w_ms), "ms", ""},
      {"consensus.reproject_ms",
       perfbench::reproject_ms(spec, inputs, args.seed, budget), "ms", ""},
      {"topology.graph_build_ms", median(graph_ms), "ms", ""},
      {"data.generate_ms", median(generate_ms), "ms", ""},
      {"data.partition_ms", median(partition_ms), "ms", ""},
      {"trace.overhead_frac", median(traced_wall) / median(plain_wall) - 1.0,
       "frac", ""},
  };
}

void print_report(const WorkloadSpec& spec, const Args& args,
                  std::size_t attempted, std::size_t failed,
                  const std::vector<std::string>& errors,
                  const std::vector<Metric>& metrics) {
  std::cout << "workload " << spec.name << "  seed " << args.seed
            << "  trace " << (args.trace ? 1 : 0) << "  nodes " << spec.nodes
            << "  rounds/episode " << spec.rounds << "  threads "
            << spec.threads << " x " << spec.shards << " process(es)\n";
  for (const std::string& e : errors) std::cout << "  FAILED: " << e << '\n';
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(38) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << ' '
              << std::left << std::setw(6) << m.unit << std::right << ' '
              << m.note << '\n';
  }
  std::ostringstream json;
  json << std::setprecision(17) << "{\"correct\": "
       << (failed == 0 && attempted > 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

// Seed of episode k of a run: a fixed function of the run's seed, so a
// run repeats exactly and its episodes sample distinct inputs.
std::uint64_t episode_seed(std::uint64_t seed, std::size_t k) {
  return snap::common::Rng(seed).fork(k).uniform_u64(
      std::numeric_limits<std::uint64_t>::max());
}

int run_benchmark(const Args& args, const WorkloadSpec& spec) {
  std::vector<std::string> errors;
  // A fixed amount of work per run: as many episodes as fit --seconds at
  // the workload's nominal episode time (two per step when tracing).
  const double step_s = spec.episode_s * (args.trace ? 2.0 : 1.0);
  const std::size_t steps =
      args.smoke ? 1
                 : std::max<std::size_t>(
                       1, static_cast<std::size_t>(args.seconds / step_s));

  std::vector<Attempt> attempts;
  std::vector<Episode> sim_references;
  const auto record = [&](Attempt a, std::optional<Trajectory> reference) {
    if (reference && args.corrupt_reference && !reference->empty()) {
      reference->front().loss_bits ^= 1;
    }
    a.error = check_attempt(spec, a, reference ? &*reference : nullptr);
    attempts.push_back(std::move(a));
  };
  const auto attempt = [&](std::uint64_t seed, bool traced) {
    Attempt a;
    a.traced = traced;
    try {
      a = run_attempt(args, spec, seed, traced, attempts.size());
    } catch (const std::exception& e) {
      a.error = e.what();
    }
    return a;
  };

  for (std::size_t k = 0; k < steps; ++k) {
    const std::uint64_t seed = episode_seed(args.seed, k);
    // The trajectory this step's episodes must reproduce bit for bit: an
    // in-process SimTransport run for socket workloads, otherwise the
    // plain episode (which the traced one must match).
    std::optional<Trajectory> reference;
    if (spec.shards > 1) {
      WorkloadSpec in_process = spec;
      in_process.shards = 1;
      try {
        sim_references.push_back(
            perfbench::run_episode(in_process, seed, false, {}));
      } catch (const std::exception& e) {
        Attempt failed;
        failed.error = std::string("in-process reference run: ") + e.what();
        attempts.push_back(std::move(failed));
        continue;
      }
      reference = trajectory_of(sim_references.back().result);
    }
    Attempt plain = attempt(seed, false);
    if (!reference && plain.error.empty() && args.trace) {
      reference = trajectory_of(plain.ep.result);
    }
    record(std::move(plain), reference);
    if (args.trace) record(attempt(seed, true), reference);
  }

  std::vector<const Attempt*> ok_plain, ok_traced;
  std::size_t failed = 0;
  for (const Attempt& a : attempts) {
    if (!a.error.empty()) {
      ++failed;
      errors.push_back(a.error);
      continue;
    }
    (a.traced ? ok_traced : ok_plain).push_back(&a);
  }

  std::vector<Metric> metrics;
  if (args.trace && !ok_plain.empty() && !ok_traced.empty()) {
    metrics = per_layer(args, spec, ok_plain, ok_traced, sim_references);
  } else if (!args.trace && !ok_plain.empty()) {
    // Set-up time: every episode's, topped up with set-up-only repeats.
    std::vector<double> setups;
    for (const Attempt* a : ok_plain) setups.push_back(a->ep.setup_s);
    while (setups.size() < (args.smoke ? 2u : 9u)) {
      setups.push_back(
          perfbench::setup_only_s(spec, episode_seed(args.seed, 0)));
    }
    metrics = end_to_end(spec, ok_plain, setups);
  }
  print_report(spec, args, attempts.size(), failed, errors, metrics);
  std::error_code ec;
  fs::remove(".bench_run", ec);  // only when empty
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: snap_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke] "
                 "[--corrupt-reference]\n";
    return 2;
  }
  const std::optional<WorkloadSpec> spec =
      perfbench::find_workload(args->workload, args->smoke);
  if (!spec) {
    std::cerr << "unknown workload '" << args->workload << "'; one of:";
    for (const std::string& name : perfbench::workload_names()) {
      std::cerr << ' ' << name;
    }
    std::cerr << '\n';
    return 2;
  }
  try {
    if (args->shard_worker) return run_worker(*args, *spec);
    return run_benchmark(*args, *spec);
  } catch (const std::exception& e) {
    std::cerr << "snap_perfbench: " << e.what() << '\n';
    return 1;
  }
}
