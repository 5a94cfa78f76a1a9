// snap_cli — run any paper scheme on a configurable scenario from the
// command line, with optional CSV export of the per-iteration series.
//
// Examples:
//   snap_cli --scheme=snap --nodes=60 --degree=3
//   snap_cli --scheme=terngrad --nodes=40 --alpha=0.2 --csv=run.csv
//   snap_cli --workload=mnist --nodes=3 --complete --iterations=40
//   snap_cli --help
//
// Each option is one entry of `options()`, which drives parsing, the
// range checks and --help; `settle()` holds the cross-option rules.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "experiments/csv.hpp"
#include "experiments/report.hpp"
#include "experiments/scenario.hpp"
#include "ml/checkpoint.hpp"
#include "net/transport.hpp"
#include "runtime/fabric.hpp"
#include "topology/io.hpp"

namespace {

using namespace snap;

/// A refused command line: main reports it and exits 2.
struct BadOption : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Everything a command line sets: the scenario, and what only the CLI
/// acts on.
struct Cli {
  experiments::ScenarioConfig cfg;
  experiments::Scheme scheme = experiments::Scheme::kSnap;
  double hetero = 0.0;
  double chaos_kill = 0.0;
  std::string csv, topology, save_model;  ///< paths; empty: not given
  bool help = false;
  /// The options the command line named; a repeat is refused.
  std::set<std::string_view> given;
};

/// What every command line starts from; --help prints its values as the
/// defaults.
Cli base_cli() {
  Cli cli;
  cli.cfg.train_samples = 12000;
  cli.cfg.test_samples = 3000;
  cli.cfg.convergence.max_iterations = 400;
  cli.cfg.convergence.loss_tolerance = 1e-3;
  cli.cfg.convergence.consensus_tolerance = 1e-2;
  return cli;
}

/// --link-burst's recovery probability when X is omitted.
constexpr double kBurstExit = 0.5;
/// --join-rate when --joiners is set and --join-rate is not.
constexpr double kJoinRateWithJoiners = 0.02;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The values a numeric option accepts; an open end excludes its bound.
/// NaN lies outside every range.
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool open_lo = false;
  bool open_hi = false;

  bool contains(double v) const {
    return (open_lo ? v > lo : v >= lo) && (open_hi ? v < hi : v <= hi);
  }
};
constexpr Range kProbability{0.0, 1.0};
constexpr Range kPositive{0.0, kInf, true};
constexpr Range kNonNegative{0.0};

/// The shortest text that reads back as `value`.
template <typename T>
std::string shown(T value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

/// What `range` admits, in words: "a number in [0, 1]".
template <typename T>
std::string describe(Range r) {
  constexpr bool kCount = std::is_integral_v<T>;
  if (r.lo == -kInf) return kCount ? "a non-negative integer" : "a number";
  return std::string(kCount ? "an integer" : "a number") + " in " +
         (r.open_lo ? "(" : "[") + shown(r.lo) + ", " + shown(r.hi) +
         (r.open_hi || r.hi == kInf ? ")" : "]");
}

/// All of `text` as a T inside `range`: a count takes digits only (no
/// sign, suffix or blank), a real whatever from_chars reads, end to end.
template <typename T>
T parse_number(std::string_view text, Range range = {}) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end ||
      !range.contains(static_cast<double>(value))) {
    throw BadOption("takes " + describe<T>(range));
  }
  return value;
}

/// One command-line option. `set` reads the value (empty for a flag)
/// into a Cli; a refusal throws BadOption("takes <what it takes>").
struct Option {
  std::string_view name;
  std::string placeholder;  ///< empty: a flag, which takes no value
  std::string help;
  std::function<void(Cli&, std::string_view)> set{};
  std::string base_value{};  ///< printed as the default; empty: none
  bool internal = false;  ///< set by the launcher on its workers
};

/// The table's field accessor: FIELD(cfg.nodes) returns `cli.cfg.nodes`.
#define FIELD(member) [](Cli& c) -> auto& { return c.member; }

/// An option stored in `field(cli)`. A bool is a flag: it flips the
/// base value (once; a repeat is refused). A string takes any non-empty
/// text, and a number what parse_number reads inside `range`.
template <typename F>
Option option(std::string_view name, std::string placeholder, F field,
              std::string help, Range range = {}, bool internal = false) {
  using T = std::remove_reference_t<std::invoke_result_t<F, Cli&>>;
  Option entry{name, std::move(placeholder), std::move(help), {}, {}, internal};
  entry.set = [=](Cli& cli, std::string_view text) {
    if constexpr (std::is_same_v<T, bool>) {
      field(cli) = !field(cli);
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (text.empty()) throw BadOption("takes a non-empty value");
      field(cli) = std::string(text);
    } else {
      field(cli) = parse_number<T>(text, range);
    }
  };
  if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    Cli base = base_cli();
    entry.base_value = shown(field(base));
  }
  return entry;
}

/// One of `choices`, matched by spelling; the spellings form the
/// placeholder.
template <typename T, typename F>
Option choice(std::string_view name, F field, std::string help,
              std::vector<std::pair<std::string_view, T>> choices) {
  Cli base = base_cli();
  std::vector<std::string> spellings;
  std::string base_value;
  for (const auto& [spelling, value] : choices) {
    spellings.emplace_back(spelling);
    if (field(base) == value) base_value = spelling;
  }
  const std::string listed = common::join(spellings, ", ");
  return {name, common::join(spellings, "|"), std::move(help),
          [=](Cli& cli, std::string_view text) {
            for (const auto& [spelling, value] : choices) {
              if (text == spelling) {
                field(cli) = value;
                return;
              }
            }
            throw BadOption("takes one of " + listed);
          },
          base_value};
}

/// A choice spelled by the library's own names for `values`.
template <typename T, typename F, typename Spell>
Option named(std::string_view name, F field, std::string help,
             std::initializer_list<T> values, Spell spell) {
  std::vector<std::pair<std::string_view, T>> choices;
  for (const T value : values) choices.emplace_back(spell(value), value);
  return choice(name, field, std::move(help), std::move(choices));
}

/// --link-burst=E[:X]: Gilbert-Elliott enter and exit probabilities.
void set_link_burst(Cli& cli, std::string_view spec) {
  const auto colon = spec.find(':');
  net::FaultPlan& plan = cli.cfg.faults;
  plan.link_enter_burst =
      parse_number<double>(spec.substr(0, colon), kProbability);
  plan.link_exit_burst =
      colon == std::string_view::npos
          ? kBurstExit
          : parse_number<double>(spec.substr(colon + 1), kProbability);
}

/// --partition=START:HEAL:u-v[,u-v...] (a scheduled edge cut) or
/// random:P[:DURATION] (seeded random region cuts).
void set_partition(Cli& cli, std::string_view spec) {
  net::FaultPlan& plan = cli.cfg.faults;
  if (spec.starts_with("random:")) {
    const std::string_view rest = spec.substr(7);
    const auto colon = rest.find(':');
    plan.partition_probability =
        parse_number<double>(rest.substr(0, colon), {0.0, 1.0, true});
    if (colon != std::string_view::npos) {
      plan.partition_duration =
          parse_number<std::size_t>(rest.substr(colon + 1), {1.0});
    }
    return;
  }
  const BadOption bad("takes START:HEAL:u-v[,u-v...] or random:P[:DURATION]");
  const std::vector<std::string> fields = common::split(spec, ':');
  if (fields.size() != 3) throw bad;
  net::PartitionEvent event;
  event.start_round = parse_number<std::size_t>(fields[0], {1.0});
  event.heal_round = parse_number<std::size_t>(fields[1]);
  if (event.heal_round != 0 && event.heal_round <= event.start_round) throw bad;
  for (const std::string& edge : common::split(fields[2], ',')) {
    const auto dash = edge.find('-');
    if (dash == std::string::npos || dash == 0) throw bad;
    event.edges.emplace_back(
        parse_number<topology::NodeId>(edge.substr(0, dash)),
        parse_number<topology::NodeId>(edge.substr(dash + 1)));
  }
  plan.scheduled_partitions.push_back(std::move(event));
}

/// --sparsify=slem:BOUND or cost:BUDGET.
void set_sparsify(Cli& cli, std::string_view spec) {
  consensus::SparsifierConfig& sparsify = cli.cfg.sparsify;
  if (spec.starts_with("slem:")) {
    sparsify.slem_bound =
        parse_number<double>(spec.substr(5), {0.0, 1.0, true});
  } else if (spec.starts_with("cost:")) {
    sparsify.cost_budget = parse_number<double>(spec.substr(5), kProbability);
  } else {
    throw BadOption("takes slem:BOUND or cost:BUDGET");
  }
  sparsify.enabled = true;
}

/// Every option snap_cli takes, in --help order.
const std::vector<Option>& options() {
  using experiments::Scheme;
  using net::TransportKind;
  using runtime::FabricKind;
  static const std::vector<Option> table = {
      choice<Scheme>("scheme", FIELD(scheme), "the training scheme",
                     {{"centralized", Scheme::kCentralized},
                      {"snap", Scheme::kSnap}, {"snap0", Scheme::kSnap0},
                      {"sno", Scheme::kSno}, {"ps", Scheme::kPs},
                      {"terngrad", Scheme::kTernGrad}}),
      choice<experiments::Workload>(
          "workload", FIELD(cfg.workload),
          "the 24-feature SVM or the 784-30-10 MLP",
          {{"credit", experiments::Workload::kCreditSvm},
           {"mnist", experiments::Workload::kMnistMlp}}),
      option("nodes", "N", FIELD(cfg.nodes), "edge servers", {2.0}),
      option("degree", "D", FIELD(cfg.average_degree),
             "average node degree of the random topology", kPositive),
      option("complete", "", FIELD(cfg.complete_topology),
             "use the complete graph instead of a random one"),
      option("train", "N", FIELD(cfg.train_samples),
             "training samples (0 = generator default)"),
      option("test", "N", FIELD(cfg.test_samples),
             "test samples (0 = generator default)"),
      option("alpha", "A", FIELD(cfg.alpha), "step size", kPositive),
      option("iterations", "K", FIELD(cfg.convergence.max_iterations),
             "iteration cap"),
      option("failure", "P", FIELD(cfg.link_failure_probability),
             "per-round link failure probability", kProbability),
      option("crash-rate", "P", FIELD(cfg.faults.crash_probability),
             "per-round probability an alive node crashes", kProbability),
      option("restart-rate", "P", FIELD(cfg.faults.restart_probability),
             "per-round probability a crashed node restarts", kProbability),
      {"link-burst", "E[:X]",
       "bursty (Gilbert-Elliott) link outages: down with probability E per "
       "round, up again with probability X (" + shown(kBurstExit) +
           " if omitted; X = 1-E reproduces --failure)",
       set_link_burst},
      option("corrupt", "P", FIELD(cfg.faults.frame_corruption_probability),
             "per-frame corruption probability", kProbability),
      {"partition", "SPEC",
       "START:HEAL:u-v[,u-v...] cuts the listed edges for rounds [START, "
       "HEAL) (HEAL 0 = never heals); random:P[:DURATION] starts a seeded "
       "region cut with probability P per round, healed after DURATION (" +
           shown(base_cli().cfg.faults.partition_duration) +
           ") rounds. Split components train apart and merge on heal.",
       set_partition},
      option("partition-confirm", "N",
             FIELD(cfg.faults.partition_confirm_rounds),
             "rounds an edge stays down before it counts as cut"),
      option("recovery-timeout", "S", FIELD(cfg.recovery.suspect_after_s),
             "async crash-suspicion window (0 = auto)", kNonNegative),
      option("no-reproject", "", FIELD(cfg.reproject_on_churn),
             "ablation: no weight re-projection on confirmed churn"),
      option("joiners", "N", FIELD(cfg.latent_joiners),
             "latent nodes that start outside the run and join mid-run"),
      option("join-rate", "P", FIELD(cfg.faults.join_probability),
             "per-round probability an absent latent node joins (" +
                 shown(kJoinRateWithJoiners) + " if --joiners is set)",
             kProbability),
      option("join-degree", "K", FIELD(cfg.faults.join_degree),
             "attachment edges a first-time joiner adds"),
      option("leave-rate", "P", FIELD(cfg.faults.leave_probability),
             "per-round probability an alive member leaves", kProbability),
      option("rejoin-rate", "P", FIELD(cfg.faults.rejoin_probability),
             "per-round probability a departed node rejoins", kProbability),
      choice<bool>("warm-start", FIELD(cfg.warm_start_joins),
                   "joiners start from a neighbor's model (off: from x0)",
                   {{"on", true}, {"off", false}}),
      option("seed", "S", FIELD(cfg.seed), "experiment seed"),
      named("fabric", FIELD(cfg.fabric),
            "shared-clock rounds, the event-driven runtime, or gossip",
            {FabricKind::kSync, FabricKind::kAsync, FabricKind::kGossip},
            runtime::fabric_name),
      named("gossip-mode", FIELD(cfg.gossip.mode),
            "a random maximal matching, or --gossip-fanout picks per node",
            {runtime::GossipMode::kMatching, runtime::GossipMode::kPushPull},
            runtime::gossip_mode_name),
      option("gossip-fanout", "K", FIELD(cfg.gossip.fanout),
             "neighbors each node activates per round in pushpull mode"),
      option("gossip-restart", "R", FIELD(cfg.gossip.restart_every),
             "synchronized EXTRA restart every R gossip rounds (0 = never)"),
      {"sparsify", "SPEC",
       "slem:BOUND prunes links while every component's SLEM stays <= "
       "BOUND; cost:BUDGET prunes until the kept link cost is BUDGET x the "
       "initial cost. Re-runs at every epoch, never disconnects a component.",
       set_sparsify},
      choice<consensus::LinkCostModel>(
          "link-cost", FIELD(cfg.sparsify.cost_model),
          "link price for --sparsify: detour hops, or 1 per link",
          {{"hops", consensus::LinkCostModel::kHops},
           {"uniform", consensus::LinkCostModel::kUniform}}),
      option("compute", "S", FIELD(cfg.async.compute_s),
             "per-round compute seconds (async)", kPositive),
      option("hetero", "H", FIELD(hetero),
             "the slowest node computes (1+H)x as long (async)", kNonNegative),
      option("jitter", "J", FIELD(cfg.async.compute_jitter),
             "compute jitter fraction (async)", {0.0, 1.0, false, true}),
      option("latency", "S", FIELD(cfg.async.link_latency_s),
             "per-hop link latency in seconds (async)", kNonNegative),
      option("bandwidth", "B", FIELD(cfg.async.nic_bandwidth_bytes_per_s),
             "NIC bandwidth in bytes/s (async)", kPositive),
      option("max-staleness", "K", FIELD(cfg.async.max_staleness_rounds),
             "max rounds ahead of the slowest neighbor (0 = off; async)"),
      option("free-run", "", FIELD(cfg.async_free_run),
             "async: no neighborhood pacing gate (EXTRA can diverge)"),
      named("transport", FIELD(cfg.transport.kind),
            "the in-process oracle, or one process per shard over sockets "
            "(SNAP-family schemes, sync or gossip; bitwise the sim's run)",
            {TransportKind::kSim, TransportKind::kUds, TransportKind::kTcp},
            net::transport_name),
      option("shards", "K", FIELD(cfg.transport.shards),
             "shard processes of a socket run; snap_cli forks K-1 of them"),
      option("rendezvous", "DIR", FIELD(cfg.transport.rendezvous_dir),
             "shard sockets, logs and stats [a fresh /tmp directory]"),
      option("checkpoint-every", "N", FIELD(cfg.checkpoint.every),
             "socket runs: checkpoint each shard every N rounds (0 = never)"),
      option("chaos-kill", "RATE", FIELD(chaos_kill),
             "SIGKILL and respawn a worker shard RATE times a second",
             kNonNegative),
      option("csv", "FILE", FIELD(csv), "write the per-iteration series"),
      option("topology", "FILE", FIELD(topology),
             "load the peer topology from an edge-list file"),
      option("save-model", "FILE", FIELD(save_model),
             "write the trained parameters as a checkpoint"),
      option("help", "", FIELD(help), "this text"),
      option("shard-worker", "I", FIELD(cfg.transport.shard_id),
             "run as shard I of a socket run", {}, /*internal=*/true),
      option("resume", "", FIELD(cfg.transport.resume),
             "reconnect and resume from the last checkpoint", {},
             /*internal=*/true),
      option("resume-incarnation", "N", FIELD(cfg.transport.incarnation),
             "respawn counter; a RECONNECT must supersede the last", {},
             /*internal=*/true),
  };
  return table;
}
#undef FIELD

Cli parse_command_line(int argc, char** argv) {
  Cli cli = base_cli();
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      throw BadOption("unrecognized argument: " + std::string(arg));
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    const auto entry = std::ranges::find(options(), name, &Option::name);
    if (entry == options().end()) throw BadOption("unknown option --" + name);
    // A repeat is refused, never resolved in favor of one of its values.
    if (!cli.given.insert(entry->name).second) {
      throw BadOption("repeated option --" + name);
    }
    const bool has_value = eq != std::string_view::npos;
    if (has_value == entry->placeholder.empty()) {
      throw BadOption("--" + name +
                      (has_value ? " takes no value" : " needs a value"));
    }
    const std::string_view value = has_value ? arg.substr(eq + 1) : "";
    try {
      entry->set(cli, value);
    } catch (const BadOption& bad) {
      throw BadOption("--" + name + " " + bad.what() + ", got '" +
                      std::string(value) + "'");
    }
  }
  return cli;
}

/// The table as help text: each option, its help wrapped at 78 columns,
/// and the base Cli's value in brackets.
void print_help() {
  constexpr std::size_t kIndent = 22;
  constexpr std::size_t kWidth = 78;
  std::cout << "snap_cli — run SNAP and its baselines on synthetic edge "
               "workloads\n\noptions (defaults in brackets):\n";
  for (const bool internal : {false, true}) {
    if (internal) std::cout << "\ninternal (set by the launcher):\n";
    for (const Option& entry : options()) {
      if (entry.internal != internal) continue;
      std::string line = "  --" + std::string(entry.name);
      if (!entry.placeholder.empty()) line += "=" + entry.placeholder;
      if (line.size() + 2 > kIndent) {
        std::cout << line << '\n';
        line.clear();
      }
      line.resize(kIndent, ' ');
      const std::string text =
          entry.help +
          (entry.base_value.empty() ? "" : " [" + entry.base_value + "]");
      for (const std::string& word : common::split(text, ' ')) {
        if (line.size() > kIndent && line.size() + 1 + word.size() > kWidth) {
          std::cout << line << '\n';
          line.assign(kIndent, ' ');
        }
        line += (line.size() > kIndent ? " " : "") + word;
      }
      std::cout << line << '\n';
    }
  }
}

/// The rules that tie options together, checked once every option is
/// read and the topology is loaded. Throws BadOption on a refusal.
void settle(Cli& cli) {
  experiments::ScenarioConfig& cfg = cli.cfg;
  if (cfg.latent_joiners > 0 && !cli.given.contains("join-rate")) {
    cfg.faults.join_probability = kJoinRateWithJoiners;
  }
  const bool snap_family = cli.scheme == experiments::Scheme::kSnap ||
                           cli.scheme == experiments::Scheme::kSnap0 ||
                           cli.scheme == experiments::Scheme::kSno;
  const bool async = cfg.fabric == runtime::FabricKind::kAsync;
  const bool worker = cli.given.contains("shard-worker");
  const bool socket = cfg.transport.kind != net::TransportKind::kSim;
  const std::size_t shards = cfg.transport.shards;
  const bool sparsify = cfg.sparsify.enabled;
  const std::pair<bool, const char*> refusals[] = {
      {sparsify && !snap_family, "--sparsify needs scheme snap, snap0 or sno"},
      {sparsify && async, "--sparsify needs --fabric=sync or gossip"},
      {!socket && (shards > 1 || worker),
       "--shards/--shard-worker need --transport=uds or tcp"},
      {socket && !snap_family, "--transport needs scheme snap, snap0 or sno"},
      {socket && async, "--transport=uds|tcp needs --fabric=sync or gossip"},
      {socket && (shards == 0 || shards > cfg.nodes + cfg.latent_joiners),
       "--shards must be between 1 and the node count"},
      {socket && worker && cfg.transport.rendezvous_dir.empty(),
       "--shard-worker needs --rendezvous"},
      {cfg.transport.resume && !worker,
       "--resume is a shard-worker flag (the supervisor sets it on respawn)"},
      {cfg.checkpoint.every > 0 && !socket,
       "--checkpoint-every needs --transport=uds or tcp"},
      // Workers inherit the launcher's argv; the flag only acts there.
      {cli.chaos_kill > 0.0 && !worker && (!socket || shards < 2),
       "--chaos-kill needs a socket-transport launcher with 2+ shards"},
  };
  for (const auto& [refused, message] : refusals) {
    if (refused) throw BadOption(message);
  }
}

}  // namespace

static int run_cli(int argc, char** argv) {
  Cli cli = parse_command_line(argc, argv);
  if (cli.help) {
    print_help();
    return 0;
  }
  experiments::ScenarioConfig& cfg = cli.cfg;
  if (!cli.topology.empty()) {
    std::string error;
    auto loaded = topology::load_edge_list(cli.topology, &error);
    if (!loaded.has_value() || !loaded->is_connected()) {
      std::cerr << (loaded ? "topology must be connected"
                           : "bad topology file: " + error) << "\n";
      return 1;
    }
    cfg.custom_topology = std::move(*loaded);
    cfg.nodes = cfg.custom_topology->node_count();
  }
  settle(cli);
  if (cli.hetero > 0.0) {
    // Latent joiners occupy node slots from round 1, so the per-node
    // timing vector must cover them too.
    cfg.async.node_compute_s = runtime::linear_compute_spread(
        cfg.nodes + cfg.latent_joiners, cfg.async.compute_s, cli.hetero);
  }
  cfg.async.seed = cfg.seed;
  if (!cfg.faults.scheduled_partitions.empty()) {
    // A --partition naming a pair the seeded graph does not link exits 2
    // like a bad option, before any worker shard or directory exists.
    try {
      experiments::scenario_graph(cfg);
    } catch (const common::ContractViolation& refused) {
      throw BadOption(refused.what());
    }
  }
  const bool worker = cli.given.contains("shard-worker");
  const bool socket_run = cfg.transport.kind != net::TransportKind::kSim;

  // Launcher: shard 0 runs in this process; the other shards are forked
  // copies of this binary in --shard-worker mode, with their output
  // captured as shard-<i>.log next to the rendezvous artifacts. The
  // launcher is also the supervisor: it waitpid-watches the workers and
  // respawns any that die by signal with --resume and a superseding
  // incarnation, so a SIGKILL-ed shard rejoins the parked survivors.
  bool created_rendezvous = false;
  struct WorkerSlot {
    std::size_t shard = 0;
    pid_t pid = -1;
    std::uint64_t incarnation = 0;
    bool done = false;    ///< exited 0
    bool failed = false;  ///< nonzero exit or respawn budget exhausted
  };
  std::mutex slots_mutex;
  std::vector<WorkerSlot> slots;
  std::thread supervisor_thread;
  std::thread chaos_thread;
  std::atomic<bool> chaos_stop{false};
  const bool launcher = socket_run && !worker && cfg.transport.shards > 1;
  if (launcher) {
    if (cfg.transport.rendezvous_dir.empty()) {
      std::string tmpl = "/tmp/snap-rdv-XXXXXX";
      if (::mkdtemp(tmpl.data()) == nullptr) {
        std::cerr << "cannot create a rendezvous directory under /tmp\n";
        return 1;
      }
      cfg.transport.rendezvous_dir = tmpl;
      created_rendezvous = true;
    } else {
      // An explicit --rendezvous gets mkdir -p semantics: the callers
      // (CI, scripts) should not have to pre-create scratch dirs.
      std::error_code ec;
      std::filesystem::create_directories(cfg.transport.rendezvous_dir, ec);
      if (ec) {
        std::cerr << "cannot create rendezvous directory "
                  << cfg.transport.rendezvous_dir << ": " << ec.message()
                  << "\n";
        return 1;
      }
    }
  }
  // The per-shard checkpoint path needs the final rendezvous dir.
  if (cfg.checkpoint.every > 0) {
    cfg.checkpoint.path = cfg.transport.rendezvous_dir + "/shard-" +
                          std::to_string(cfg.transport.shard_id) + ".ckpt";
    cfg.checkpoint.resume = cfg.transport.resume;
  }
  auto spawn_shard = [&](std::size_t s, std::uint64_t incarnation) -> pid_t {
    const pid_t pid = ::fork();
    if (pid != 0) return pid;  // parent (or fork failure, pid < 0)
    const std::string log = cfg.transport.rendezvous_dir + "/shard-" +
                            std::to_string(s) + ".log";
    const int fd = ::open(
        log.c_str(),
        O_CREAT | O_WRONLY | (incarnation == 0 ? O_TRUNC : O_APPEND), 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    // The launcher's own argv, with each worker option set once: one
    // the launcher already carries is replaced, never repeated.
    std::vector<std::string> child_args(argv, argv + argc);
    const auto set_option = [&child_args](const std::string& name,
                                          const std::string& value) {
      std::erase_if(child_args, [&name](const std::string& a) {
        return a == "--" + name || a.starts_with("--" + name + "=");
      });
      child_args.push_back(value.empty() ? "--" + name
                                         : "--" + name + "=" + value);
    };
    set_option("shard-worker", std::to_string(s));
    set_option("rendezvous", cfg.transport.rendezvous_dir);
    if (incarnation > 0) {
      set_option("resume", "");
      set_option("resume-incarnation", std::to_string(incarnation));
    }
    std::vector<char*> child_argv;
    child_argv.reserve(child_args.size() + 1);
    for (std::string& a : child_args) child_argv.push_back(a.data());
    child_argv.push_back(nullptr);
    ::execv("/proc/self/exe", child_argv.data());
    _exit(127);  // exec failed; never run the parent's cleanup paths
  };
  if (launcher) {
    for (std::size_t s = 1; s < cfg.transport.shards; ++s) {
      const pid_t pid = spawn_shard(s, 0);
      if (pid < 0) {
        std::cerr << "fork failed for shard " << s << "\n";
        return 1;
      }
      slots.push_back({s, pid, 0, false, false});
    }
    supervisor_thread = std::thread([&] {
      // A worker that dies by signal is respawned with the next
      // incarnation. SIGKILLs are the chaos harness doing its job, so
      // their budget is generous; any other signal (SIGABRT from a failed
      // contract, SIGSEGV) is likely deterministic and gets a tight
      // budget. Nonzero exits (config errors) fail immediately.
      constexpr std::uint64_t kMaxChaosRespawns = 1000;
      constexpr std::uint64_t kMaxCrashRespawns = 20;
      while (true) {
        bool all_settled = true;
        {
          const std::lock_guard<std::mutex> lock(slots_mutex);
          for (WorkerSlot& slot : slots) {
            if (slot.done || slot.failed) continue;
            all_settled = false;
            int status = 0;
            const pid_t ret = ::waitpid(slot.pid, &status, WNOHANG);
            if (ret != slot.pid) continue;
            if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
              slot.done = true;
            } else if (WIFSIGNALED(status) &&
                       slot.incarnation < (WTERMSIG(status) == SIGKILL
                                               ? kMaxChaosRespawns
                                               : kMaxCrashRespawns)) {
              ++slot.incarnation;
              slot.pid = spawn_shard(slot.shard, slot.incarnation);
              if (slot.pid < 0) slot.failed = true;
            } else {
              slot.failed = true;
            }
          }
        }
        if (all_settled) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    if (cli.chaos_kill > 0.0) {
      chaos_thread = std::thread([&] {
        // Poissonish kill schedule: each 5 ms tick SIGKILLs one
        // random live worker with probability chaos_kill * 0.005,
        // until the launcher's own replica finishes the run.
        std::mt19937_64 rng(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        while (!chaos_stop.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          if (unit(rng) >= cli.chaos_kill * 0.005) continue;
          const std::lock_guard<std::mutex> lock(slots_mutex);
          std::vector<pid_t> alive;
          for (const WorkerSlot& slot : slots) {
            if (!slot.done && !slot.failed && slot.pid > 0) {
              alive.push_back(slot.pid);
            }
          }
          if (alive.empty()) continue;
          const std::size_t pick = std::uniform_int_distribution<
              std::size_t>(0, alive.size() - 1)(rng);
          ::kill(alive[pick], SIGKILL);
        }
      });
    }
  }

  std::cout << "building scenario: "
            << (cfg.workload == experiments::Workload::kMnistMlp
                    ? "mnist-mlp"
                    : "credit-svm")
            << ", " << cfg.nodes << " nodes, seed " << cfg.seed << "\n";
  const experiments::Scenario scenario(cfg);
  const auto result = scenario.run(cli.scheme);

  experiments::Table table({"metric", "value"});
  table.add_row({"scheme", std::string(experiments::scheme_name(cli.scheme))});
  table.add_row({"fabric", std::string(runtime::fabric_name(cfg.fabric))});
  table.add_row({"converged", result.converged ? "yes" : "no"});
  table.add_row({"iterations", std::to_string(result.converged_after)});
  table.add_row({"final accuracy",
                 common::format_percent(result.final_test_accuracy, 2)});
  table.add_row({"final train loss",
                 common::format_double(result.final_train_loss, 5)});
  table.add_row(
      {"wire bytes", common::format_bytes(double(result.total_bytes))});
  table.add_row({"hop-weighted cost",
                 common::format_bytes(double(result.total_cost))});
  table.add_row({"simulated time",
                 common::format_double(result.total_sim_seconds, 3) + " s"});
  if (socket_run) {
    table.add_row({"transport",
                   std::string(net::transport_name(cfg.transport.kind))});
    table.add_row({"shards", std::to_string(cfg.transport.shards)});
    // The trainer's SocketHub published this shard's wire counters as
    // shard-<id>.stats: real bytes on the wire next to the charged
    // frame bytes (the per-frame parity the oracle contract promises).
    std::ifstream stats(cfg.transport.rendezvous_dir + "/shard-" +
                        std::to_string(cfg.transport.shard_id) + ".stats");
    const std::pair<std::string_view, std::string_view> labels[] = {
        {"frames_sent", "wire frames sent"},
        {"payload_bytes_sent", "wire frame bytes"},
        {"charged_bytes_sent", "charged frame bytes"},
        {"mismatched_frames", "byte-parity mismatches"},
        {"os_bytes_sent", "os bytes sent"},
        {"os_bytes_received", "os bytes received"}};
    for (std::string line; std::getline(stats, line);) {
      const auto eq = line.find('=');
      for (const auto& [key, label] : labels) {
        if (eq != std::string::npos && line.substr(0, eq) == key) {
          table.add_row({std::string(label), line.substr(eq + 1)});
        }
      }
    }
  }
  if (cfg.fabric == runtime::FabricKind::kGossip) {
    std::uint64_t activated = 0;
    for (const auto& it : result.iterations) activated += it.links_activated;
    table.add_row({"gossip mode",
                   std::string(runtime::gossip_mode_name(cfg.gossip.mode))});
    table.add_row({"links activated", std::to_string(activated)});
  }
  if (cfg.sparsify.enabled && !result.iterations.empty()) {
    const auto& last = result.iterations.back();
    table.add_row({"links pruned", std::to_string(last.links_pruned)});
    table.add_row({"effective edges", std::to_string(last.effective_edges)});
    table.add_row({"slem after prune",
                   common::format_double(last.slem_after_prune, 4)});
  }
  if (cfg.faults.any() || cfg.latent_joiners > 0 ||
      cfg.link_failure_probability > 0.0) {
    std::uint64_t dropped = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t retried = 0;
    std::uint64_t joined = 0;
    std::uint64_t sync_bytes = 0;
    for (const auto& it : result.iterations) {
      dropped += it.frames_dropped;
      corrupted += it.frames_corrupted;
      retried += it.frames_retried;
      joined += it.nodes_joined;
      sync_bytes += it.state_sync_bytes;
    }
    table.add_row({"frames dropped", std::to_string(dropped)});
    table.add_row({"frames corrupted", std::to_string(corrupted)});
    table.add_row({"frames retried", std::to_string(retried)});
    if (cfg.faults.has_partitions()) {
      std::uint64_t max_components = 1;
      std::uint64_t final_epoch = 0;
      for (const auto& it : result.iterations) {
        if (it.components > max_components) max_components = it.components;
        final_epoch = it.partition_epoch;
      }
      table.add_row({"max components", std::to_string(max_components)});
      table.add_row({"partition epoch", std::to_string(final_epoch)});
    }
    if (cfg.latent_joiners > 0 || cfg.faults.has_membership()) {
      table.add_row({"nodes joined", std::to_string(joined)});
      table.add_row({"state-sync bytes",
                     common::format_bytes(double(sync_bytes))});
      const std::uint64_t members =
          result.iterations.empty() ? 0 : result.iterations.back().alive_nodes;
      table.add_row({"final membership", std::to_string(members)});
    }
  }
  table.print(std::cout);

  // Artifacts are shard 0's job: worker shards compute the identical
  // replica but must not race the launcher for the output files.
  if (!worker && !cli.save_model.empty()) {
    const ml::Checkpoint checkpoint{scenario.model().name(),
                                    result.final_params};
    if (!ml::save_checkpoint(cli.save_model, checkpoint)) {
      std::cerr << "cannot write checkpoint to " << cli.save_model << "\n";
      return 1;
    }
    std::cout << "model checkpoint written to " << cli.save_model << "\n";
  }

  if (!worker && !cli.csv.empty()) {
    std::ofstream file(cli.csv);
    if (!file) {
      std::cerr << "cannot open " << cli.csv << " for writing\n";
      return 1;
    }
    experiments::write_train_result_csv(file, result);
    std::cout << "per-iteration series written to " << cli.csv << "\n";
  }

  // Wind down the supervision tree: stop injecting chaos, let the
  // supervisor reap (and, if needed, respawn) workers until every one
  // settles. A failed shard leaves the rendezvous artifacts (logs,
  // stats) in place for inspection.
  chaos_stop.store(true);
  if (chaos_thread.joinable()) chaos_thread.join();
  if (supervisor_thread.joinable()) supervisor_thread.join();
  bool shards_ok = true;
  std::uint64_t respawns = 0;
  for (const WorkerSlot& slot : slots) {
    respawns += slot.incarnation;
    if (!slot.done) {
      std::cerr << "shard " << slot.shard
                << " failed (see shard logs in "
                << cfg.transport.rendezvous_dir << ")\n";
      shards_ok = false;
    }
  }
  if (launcher && (cli.chaos_kill > 0.0 || respawns > 0)) {
    std::cout << "supervisor: " << respawns
              << " worker respawn(s) injected/recovered\n";
  }
  if (!shards_ok) return 1;
  if (launcher) {
    // Graceful exit: every shard unlinked its socket/port file on
    // close; sweep the remaining per-shard logs and stats, and the
    // directory itself when this run created it.
    std::error_code ec;
    namespace fs = std::filesystem;
    for (const auto& entry :
         fs::directory_iterator(cfg.transport.rendezvous_dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("shard-", 0) == 0) fs::remove(entry.path(), ec);
    }
    if (created_rendezvous) fs::remove(cfg.transport.rendezvous_dir, ec);
  }
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const BadOption& bad) {
    std::cerr << bad.what() << " (try --help)\n";
    return 2;
  }
}
