#include "net/fault_injector.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace snap::net {

namespace {

double clamp01(double p) { return std::clamp(p, 0.0, 1.0); }

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

FaultPlan FaultPlan::memoryless_links(double failure_probability) {
  FaultPlan plan;
  plan.link_enter_burst = clamp01(failure_probability);
  plan.link_exit_burst = 1.0 - plan.link_enter_burst;
  return plan;
}

bool FaultPlan::any() const noexcept {
  return link_enter_burst > 0.0 || has_node_faults() ||
         frame_corruption_probability > 0.0 || has_membership() ||
         has_partitions();
}

bool FaultPlan::has_node_faults() const noexcept {
  return crash_probability > 0.0 || !scheduled_crashes.empty();
}

bool FaultPlan::has_membership() const noexcept {
  return !latent_nodes.empty() || !scheduled_joins.empty() ||
         !scheduled_leaves.empty() || leave_probability > 0.0;
}

bool FaultPlan::has_partitions() const noexcept {
  return !scheduled_partitions.empty() || partition_probability > 0.0;
}

FaultInjector::FaultInjector(const topology::Graph& graph, FaultPlan plan,
                             common::Rng rng)
    : plan_(std::move(plan)),
      link_rng_(rng),
      node_rng_(rng.fork("fault-nodes")),
      member_rng_(rng.fork("fault-members")),
      partition_rng_(rng.fork("fault-partitions")),
      dynamic_graph_(graph) {
  plan_.link_enter_burst = clamp01(plan_.link_enter_burst);
  plan_.link_exit_burst = clamp01(plan_.link_exit_burst);
  plan_.crash_probability = clamp01(plan_.crash_probability);
  plan_.restart_probability = clamp01(plan_.restart_probability);
  plan_.frame_corruption_probability =
      clamp01(plan_.frame_corruption_probability);
  plan_.join_probability = clamp01(plan_.join_probability);
  plan_.leave_probability = clamp01(plan_.leave_probability);
  plan_.rejoin_probability = clamp01(plan_.rejoin_probability);
  plan_.join_degree = std::max<std::size_t>(plan_.join_degree, 1);
  plan_.partition_probability = clamp01(plan_.partition_probability);
  plan_.partition_duration =
      std::max<std::size_t>(plan_.partition_duration, 1);
  const std::size_t n = dynamic_graph_.node_count();
  for (const PartitionEvent& event : plan_.scheduled_partitions) {
    SNAP_REQUIRE_MSG(!event.edges.empty(),
                     "scheduled partition cuts no edges");
    SNAP_REQUIRE_MSG(event.start_round >= 1,
                     "start_round is 1-based; got " << event.start_round);
    SNAP_REQUIRE_MSG(
        event.heal_round == 0 || event.heal_round > event.start_round,
        "heal_round must follow start_round");
    for (const auto& [u, v] : event.edges) {
      SNAP_REQUIRE_MSG(u < n && v < n && dynamic_graph_.has_edge(u, v),
                       "scheduled partition cuts non-edge (" << u << ","
                                                             << v << ")");
    }
  }
  for (const NodeCrashEvent& event : plan_.scheduled_crashes) {
    SNAP_REQUIRE_MSG(event.node < n,
                     "scheduled crash for unknown node " << event.node);
    SNAP_REQUIRE_MSG(event.crash_round >= 1,
                     "crash_round is 1-based; got " << event.crash_round);
    SNAP_REQUIRE_MSG(
        event.restart_round == 0 || event.restart_round > event.crash_round,
        "restart_round must follow crash_round");
  }
  common::Rng corrupt = rng.fork("fault-corrupt");
  corrupt_seed_ = (corrupt.uniform_u64(1ULL << 32) << 32) |
                  corrupt.uniform_u64(1ULL << 32);

  link_chain_down_.assign(dynamic_graph_.edge_count(), false);
  edge_down_streak_.assign(dynamic_graph_.edge_count(), 0);
  random_node_down_.assign(n, false);
  down_streak_.assign(n, 0);
  confirmed_.assign(n, false);

  // Membership state: latent nodes (and scheduled-join targets) start
  // absent; everyone else is an initial member.
  member_.assign(n, true);
  latent_pending_.assign(n, false);
  departed_.assign(n, false);
  for (const topology::NodeId node : plan_.latent_nodes) {
    SNAP_REQUIRE_MSG(node < n, "latent node " << node << " out of range");
    member_[node] = false;
    latent_pending_[node] = true;
  }
  for (const NodeJoinEvent& event : plan_.scheduled_joins) {
    SNAP_REQUIRE_MSG(event.node < n,
                     "scheduled join for unknown node " << event.node);
    SNAP_REQUIRE_MSG(event.join_round >= 1,
                     "join_round is 1-based; got " << event.join_round);
    member_[event.node] = false;
    latent_pending_[event.node] = true;
  }
  for (const NodeLeaveEvent& event : plan_.scheduled_leaves) {
    SNAP_REQUIRE_MSG(event.node < n,
                     "scheduled leave for unknown node " << event.node);
    SNAP_REQUIRE_MSG(member_[event.node],
                     "scheduled leave for latent node " << event.node);
    SNAP_REQUIRE_MSG(event.leave_round >= 1,
                     "leave_round is 1-based; got " << event.leave_round);
    SNAP_REQUIRE_MSG(
        event.rejoin_round == 0 || event.rejoin_round > event.leave_round,
        "rejoin_round must follow leave_round");
  }
  initial_member_ = member_;
  SNAP_REQUIRE_MSG(
      std::count(member_.begin(), member_.end(), true) >= 1,
      "at least one node must be an initial member");

  if (tracks_partitions()) {
    // The pre-round-1 labeling the first round's delta compares against:
    // the initial member set over the full (un-cut) graph.
    std::vector<std::uint8_t> include(n, 0);
    for (std::size_t i = 0; i < n; ++i) include[i] = member_[i] ? 1 : 0;
    prev_component_ =
        topology::connected_components(dynamic_graph_, include).label;
  }

  // Mirror LinkFailureModel's constructor, which burns one draw batch
  // before the first round: legacy memoryless schedules stay bitwise
  // identical. (For the bursty chain this is one pre-roll transition
  // from the all-up state — harmless.)
  const auto& edges = dynamic_graph_.edges();
  const bool iid =
      plan_.link_enter_burst + plan_.link_exit_burst == 1.0;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (iid || !link_chain_down_[e]) {
      link_chain_down_[e] = link_rng_.bernoulli(plan_.link_enter_burst);
    } else {
      link_chain_down_[e] = !link_rng_.bernoulli(plan_.link_exit_burst);
    }
  }
}

std::uint64_t FaultInjector::link_key(topology::NodeId u,
                                      topology::NodeId v) noexcept {
  const auto lo = static_cast<std::uint64_t>(std::min(u, v));
  const auto hi = static_cast<std::uint64_t>(std::max(u, v));
  return (hi << 32) | lo;
}

void FaultInjector::ensure_round(std::size_t round) {
  while (rounds_.size() < round) materialize_next();
}

bool FaultInjector::scheduled_down(topology::NodeId node,
                                   std::size_t round) const {
  for (const NodeCrashEvent& event : plan_.scheduled_crashes) {
    if (event.node == node && round >= event.crash_round &&
        (event.restart_round == 0 || round < event.restart_round)) {
      return true;
    }
  }
  return false;
}

void FaultInjector::join_node(topology::NodeId node, ChurnDelta& delta) {
  member_[node] = true;
  latent_pending_[node] = false;
  departed_[node] = false;
  // A join supersedes any crash state accumulated while absent.
  random_node_down_[node] = false;
  down_streak_[node] = 0;
  confirmed_[node] = false;
  if (dynamic_graph_.degree(node) == 0) {
    // First join of an isolated latent node: attach to `join_degree`
    // alive members (falling back to crashed members if every member is
    // down — those links stay dark until the endpoint recovers).
    const std::size_t round = rounds_.size() + 1;
    std::vector<topology::NodeId> candidates;
    for (topology::NodeId c = 0; c < dynamic_graph_.node_count(); ++c) {
      if (c != node && member_[c] && !random_node_down_[c] &&
          !scheduled_down(c, round)) {
        candidates.push_back(c);
      }
    }
    if (candidates.empty()) {
      for (topology::NodeId c = 0; c < dynamic_graph_.node_count(); ++c) {
        if (c != node && member_[c]) candidates.push_back(c);
      }
    }
    SNAP_REQUIRE_MSG(!candidates.empty(),
                     "node " << node << " joined an empty membership");
    const std::size_t k = std::min(plan_.join_degree, candidates.size());
    for (const std::size_t idx :
         member_rng_.sample_without_replacement(candidates.size(), k)) {
      dynamic_graph_.add_edge(node, candidates[idx]);
      link_chain_down_.push_back(false);  // new links start up
      edge_down_streak_.push_back(0);
    }
  }
  delta.joined.push_back(node);
}

void FaultInjector::leave_node(topology::NodeId node, ChurnDelta& delta) {
  member_[node] = false;
  departed_[node] = true;
  // The announced leave supersedes crash suspicion: no restart delta
  // will fire for this node, and its streak restarts on rejoin.
  random_node_down_[node] = false;
  down_streak_[node] = 0;
  confirmed_[node] = false;
  delta.left.push_back(node);
}

void FaultInjector::materialize_membership(std::size_t round,
                                           ChurnDelta& delta) {
  for (const NodeJoinEvent& event : plan_.scheduled_joins) {
    if (event.join_round == round && !member_[event.node]) {
      join_node(event.node, delta);
    }
  }
  for (const NodeLeaveEvent& event : plan_.scheduled_leaves) {
    if (event.leave_round == round && member_[event.node]) {
      leave_node(event.node, delta);
    }
    if (event.rejoin_round == round && !member_[event.node]) {
      join_node(event.node, delta);
    }
  }
  // Random arrival/departure chains, at most one draw per node per
  // round, consumed in id order so the stream is a pure function of the
  // (deterministic) membership state.
  const std::size_t n = dynamic_graph_.node_count();
  const std::size_t members =
      static_cast<std::size_t>(std::count(member_.begin(), member_.end(),
                                          true));
  std::size_t remaining = members;
  for (topology::NodeId i = 0; i < n; ++i) {
    if (!member_[i]) {
      if (departed_[i]) {
        if (plan_.rejoin_probability > 0.0 &&
            member_rng_.bernoulli(plan_.rejoin_probability)) {
          join_node(i, delta);
          ++remaining;
        }
      } else if (latent_pending_[i]) {
        if (plan_.join_probability > 0.0 &&
            member_rng_.bernoulli(plan_.join_probability)) {
          join_node(i, delta);
          ++remaining;
        }
      }
    } else if (plan_.leave_probability > 0.0 && !random_node_down_[i] &&
               remaining > 2 &&
               member_rng_.bernoulli(plan_.leave_probability)) {
      // Random departures keep at least two members so the run can
      // still mix; scheduled leaves are the caller's responsibility.
      leave_node(i, delta);
      --remaining;
    }
  }
}

void FaultInjector::materialize_next() {
  const std::size_t round = rounds_.size() + 1;
  const std::size_t n = dynamic_graph_.node_count();
  RoundState state;
  state.node_down.assign(n, false);
  state.confirmed.assign(n, false);

  // Membership transitions first, so a joiner's attachment edges enter
  // this round's link chain and its crash state is reset before the
  // node-fault draws below. Legacy plans take zero membership draws.
  if (plan_.has_membership()) {
    materialize_membership(round, state.delta);
  }

  // Partition events next: cut edges drop frames from this round on,
  // and the persistence streaks below fold them into the effective
  // graph. Plans without partitions take zero partition draws.
  if (plan_.has_partitions()) {
    materialize_partitions(round, state);
  }

  // Advance the per-link chain: one uniform draw per edge, consumed in
  // edges() order. The iid special case (exit == 1 − enter) takes the
  // exact LinkFailureModel path so legacy seeds replay unchanged.
  const auto& edges = dynamic_graph_.edges();
  const bool iid =
      plan_.link_enter_burst + plan_.link_exit_burst == 1.0;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (iid || !link_chain_down_[e]) {
      link_chain_down_[e] = link_rng_.bernoulli(plan_.link_enter_burst);
    } else {
      link_chain_down_[e] = !link_rng_.bernoulli(plan_.link_exit_burst);
    }
    if (link_chain_down_[e]) {
      state.burst_down.insert(link_key(edges[e].first, edges[e].second));
    }
  }

  // Outage-persistence streaks: an edge down (cut or burst) for more
  // than partition_confirm_rounds consecutive rounds leaves the
  // effective graph the component labeling sees. Only maintained when
  // the component structure is tracked at all.
  if (tracks_partitions()) {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const std::uint64_t k = link_key(edges[e].first, edges[e].second);
      const bool down = link_chain_down_[e] || state.cut.contains(k);
      edge_down_streak_[e] = down ? edge_down_streak_[e] + 1 : 0;
      if (edge_down_streak_[e] > plan_.partition_confirm_rounds) {
        state.sustained_down.insert(k);
      }
    }
  }

  if (plan_.has_node_faults() || plan_.has_membership()) {
    // Random churn chain, drawn per node in id order. Non-members take
    // draws too (the stream must not depend on the member set's
    // history), but their crash state is ignored and reset on join.
    if (plan_.crash_probability > 0.0) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!random_node_down_[i]) {
          random_node_down_[i] = node_rng_.bernoulli(plan_.crash_probability);
        } else {
          random_node_down_[i] =
              !node_rng_.bernoulli(plan_.restart_probability);
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!member_[i]) {
        // Absent nodes are down but not *crashed*: no streak, no
        // confirmation, not counted in down_nodes.
        state.node_down[i] = true;
        state.confirmed[i] = false;
        continue;
      }
      bool down = random_node_down_[i];
      for (const NodeCrashEvent& event : plan_.scheduled_crashes) {
        if (event.node == i && round >= event.crash_round &&
            (event.restart_round == 0 || round < event.restart_round)) {
          down = true;
        }
      }
      state.node_down[i] = down;
      if (down) {
        ++state.down_nodes;
        ++down_streak_[i];
        if (!confirmed_[i] &&
            down_streak_[i] > plan_.churn_confirm_rounds) {
          confirmed_[i] = true;
          state.delta.crashed.push_back(i);
        }
      } else {
        down_streak_[i] = 0;
        if (confirmed_[i]) {
          confirmed_[i] = false;
          state.delta.restarted.push_back(i);
        }
      }
      state.confirmed[i] = confirmed_[i];
    }
  }

  if (!state.delta.empty()) ++epoch_;
  state.epoch = epoch_;
  state.member = member_;
  for (std::size_t i = 0; i < n; ++i) {
    if (member_[i] && !state.node_down[i]) ++state.alive_members;
  }

  if (tracks_partitions()) {
    materialize_components(round, state);
  }

  rounds_.push_back(std::move(state));
}

void FaultInjector::materialize_partitions(std::size_t round,
                                           RoundState& state) {
  for (const PartitionEvent& event : plan_.scheduled_partitions) {
    if (round >= event.start_round &&
        (event.heal_round == 0 || round < event.heal_round)) {
      for (const auto& [u, v] : event.edges) state.cut.insert(link_key(u, v));
    }
  }
  if (plan_.partition_probability > 0.0) {
    if (!random_cut_.empty() && round >= random_cut_until_) {
      random_cut_.clear();
    }
    // One bernoulli per idle round, so the stream is a pure function of
    // (plan, seed) regardless of what any fabric does with the cuts.
    if (random_cut_.empty() &&
        partition_rng_.bernoulli(plan_.partition_probability)) {
      std::vector<topology::NodeId> members;
      for (topology::NodeId i = 0; i < dynamic_graph_.node_count(); ++i) {
        if (member_[i]) members.push_back(i);
      }
      if (members.size() >= 2) {
        // Sever a BFS-grown region around a random member: deterministic
        // growth order (queue over sorted adjacency), random seed node
        // and region size.
        const topology::NodeId seed = members[static_cast<std::size_t>(
            partition_rng_.uniform_u64(members.size()))];
        const std::size_t target =
            1 + static_cast<std::size_t>(partition_rng_.uniform_u64(
                    std::max<std::size_t>(members.size() / 2, 1)));
        std::vector<bool> in_region(dynamic_graph_.node_count(), false);
        std::vector<topology::NodeId> frontier{seed};
        in_region[seed] = true;
        std::size_t grown = 1;
        for (std::size_t head = 0;
             head < frontier.size() && grown < target; ++head) {
          for (const topology::NodeId v :
               dynamic_graph_.neighbors(frontier[head])) {
            if (grown >= target) break;
            if (!in_region[v] && member_[v]) {
              in_region[v] = true;
              frontier.push_back(v);
              ++grown;
            }
          }
        }
        for (const auto& [u, v] : dynamic_graph_.edges()) {
          if (in_region[u] != in_region[v]) {
            random_cut_.insert(link_key(u, v));
          }
        }
        random_cut_until_ = round + plan_.partition_duration;
      }
    }
  }
  for (const std::uint64_t k : random_cut_) state.cut.insert(k);
}

void FaultInjector::materialize_components(std::size_t round,
                                           RoundState& state) {
  const std::size_t n = dynamic_graph_.node_count();
  std::vector<std::uint8_t> include(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    include[i] = (member_[i] && !confirmed_[i]) ? 1 : 0;
  }
  const topology::ComponentMap map = topology::connected_components(
      dynamic_graph_, include,
      [&state](topology::NodeId u, topology::NodeId v) {
        return state.sustained_down.contains(link_key(u, v));
      });
  state.component = map.label;
  state.component_count = map.count;
  state.largest_component_frac = map.largest_fraction();
  if (state.component != prev_component_) {
    ++partition_epoch_;
    PartitionDelta& delta = state.pdelta;
    delta.epoch = partition_epoch_;
    delta.components = map.count;
    delta.labels = map.label;
    constexpr std::size_t kEx = topology::ComponentMap::kExcluded;
    std::size_t prev_count = 0;
    for (const std::size_t l : prev_component_) {
      if (l != kEx) prev_count = std::max(prev_count, l + 1);
    }
    delta.split = map.count > prev_count;
    delta.merged = map.count < prev_count;
    // Healed boundary edges: effective edges whose endpoints were in
    // different components last round and share one now. Nodes that
    // were excluded last round (joins, restarts) don't qualify — the
    // churn path owns their warm-start.
    for (const auto& [u, v] : dynamic_graph_.edges()) {
      if (map.label[u] == kEx || map.label[u] != map.label[v]) continue;
      if (state.sustained_down.contains(link_key(u, v))) continue;
      const std::size_t pu = prev_component_[u];
      const std::size_t pv = prev_component_[v];
      if (pu == kEx || pv == kEx || pu == pv) continue;
      delta.healed_edges.emplace_back(u, v);
      delta.merged = true;
    }
  }
  state.partition_epoch = partition_epoch_;
  prev_component_ = state.component;
  (void)round;
}

const FaultInjector::RoundState& FaultInjector::state(
    std::size_t round) const {
  SNAP_REQUIRE_MSG(round >= 1 && round <= rounds_.size(),
                   "round " << round << " not materialized (have "
                            << rounds_.size() << ")");
  return rounds_[round - 1];
}

bool FaultInjector::link_down(std::size_t round, topology::NodeId u,
                              topology::NodeId v) const {
  return node_down(round, u) || node_down(round, v) ||
         link_burst_down(round, u, v) || link_cut(round, u, v);
}

bool FaultInjector::link_cut(std::size_t round, topology::NodeId u,
                             topology::NodeId v) const {
  const RoundState& s = state(round);
  return !s.cut.empty() && s.cut.contains(link_key(u, v));
}

bool FaultInjector::tracks_partitions() const noexcept {
  // Pure memoryless link noise (the legacy Fig. 9 knob) is excluded on
  // purpose: its transient two-round streaks would otherwise register
  // as splits and perturb long-stable trajectories. Bursty chains,
  // churn, membership, and explicit partitions all track.
  return plan_.has_partitions() || plan_.has_node_faults() ||
         plan_.has_membership() ||
         (plan_.link_enter_burst > 0.0 &&
          plan_.link_enter_burst + plan_.link_exit_burst != 1.0);
}

std::size_t FaultInjector::component_count(std::size_t round) const {
  return state(round).component_count;
}

double FaultInjector::largest_component_fraction(std::size_t round) const {
  return state(round).largest_component_frac;
}

std::size_t FaultInjector::partition_epoch(std::size_t round) const {
  return state(round).partition_epoch;
}

const PartitionDelta& FaultInjector::partition_delta(
    std::size_t round) const {
  return state(round).pdelta;
}

const std::vector<std::size_t>& FaultInjector::component_labels(
    std::size_t round) const {
  return state(round).component;
}

bool FaultInjector::same_component(std::size_t round, topology::NodeId u,
                                   topology::NodeId v) const {
  const RoundState& s = state(round);
  if (s.component.empty()) return true;  // not tracked: one component
  if (u >= s.component.size() || v >= s.component.size()) return false;
  constexpr std::size_t kEx = topology::ComponentMap::kExcluded;
  return s.component[u] != kEx && s.component[u] == s.component[v];
}

bool FaultInjector::link_burst_down(std::size_t round, topology::NodeId u,
                                    topology::NodeId v) const {
  return state(round).burst_down.contains(link_key(u, v));
}

bool FaultInjector::node_down(std::size_t round, topology::NodeId i) const {
  const RoundState& s = state(round);
  return i < s.node_down.size() && s.node_down[i];
}

bool FaultInjector::confirmed_down(std::size_t round,
                                   topology::NodeId i) const {
  const RoundState& s = state(round);
  if (i < s.member.size() && !s.member[i]) return true;
  return i < s.confirmed.size() && s.confirmed[i];
}

const ChurnDelta& FaultInjector::churn_delta(std::size_t round) const {
  return state(round).delta;
}

bool FaultInjector::member(std::size_t round, topology::NodeId i) const {
  const RoundState& s = state(round);
  return i >= s.member.size() || s.member[i];
}

bool FaultInjector::initial_member(topology::NodeId i) const {
  return i >= initial_member_.size() || initial_member_[i];
}

std::size_t FaultInjector::alive_member_count(std::size_t round) const {
  return state(round).alive_members;
}

std::size_t FaultInjector::membership_epoch(std::size_t round) const {
  return state(round).epoch;
}

bool FaultInjector::frame_corrupted(std::size_t round, topology::NodeId from,
                                    topology::NodeId to,
                                    std::size_t attempt) const {
  const double p = plan_.frame_corruption_probability;
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  std::uint64_t x = corrupt_seed_;
  x = mix64(x ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(round)));
  x = mix64(x ^ ((static_cast<std::uint64_t>(from) << 32) |
                 static_cast<std::uint64_t>(to)));
  x = mix64(x ^ (static_cast<std::uint64_t>(attempt) +
                 0x632BE59BD9B4E019ULL));
  return static_cast<double>(x >> 11) * 0x1.0p-53 < p;
}

std::size_t FaultInjector::down_link_count(std::size_t round) const {
  return state(round).burst_down.size();
}

std::size_t FaultInjector::down_node_count(std::size_t round) const {
  return state(round).down_nodes;
}

}  // namespace snap::net
