#include <gtest/gtest.h>

#include <sstream>

#include "common/check.hpp"
#include "consensus/weight_matrix.hpp"
#include "experiments/report.hpp"
#include "experiments/scenario.hpp"

namespace snap::experiments {
namespace {

// ------------------------------------------------------------------ Table

TEST(TableTest, AlignsColumns) {
  Table t({"scheme", "iters"});
  t.add_row({"SNAP", "42"});
  t.add_row({"Centralized", "7"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("scheme       iters"), std::string::npos);
  EXPECT_NE(out.find("SNAP         42"), std::string::npos);
  EXPECT_NE(out.find("Centralized  7"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), common::ContractViolation);
}

TEST(ReportTest, SeriesFormat) {
  std::ostringstream os;
  print_series(os, "fig", {1.0, 2.0}, {10.0, 20.0});
  EXPECT_EQ(os.str(), "# fig\n1 10\n2 20\n");
  EXPECT_THROW(print_series(os, "bad", {1.0}, {}),
               common::ContractViolation);
}

TEST(ReportTest, Banner) {
  std::ostringstream os;
  print_banner(os, "Fig. 4(a)");
  EXPECT_EQ(os.str(), "\n==== Fig. 4(a) ====\n");
}

// --------------------------------------------------------------- Scenario

TEST(SchemeNameTest, AllNamesDistinct) {
  EXPECT_EQ(scheme_name(Scheme::kCentralized), "Centralized");
  EXPECT_EQ(scheme_name(Scheme::kSnap), "SNAP");
  EXPECT_EQ(scheme_name(Scheme::kSnap0), "SNAP-0");
  EXPECT_EQ(scheme_name(Scheme::kSno), "SNO");
  EXPECT_EQ(scheme_name(Scheme::kPs), "PS");
  EXPECT_EQ(scheme_name(Scheme::kTernGrad), "TernGrad");
}

ScenarioConfig small_svm_config() {
  ScenarioConfig cfg;
  cfg.workload = Workload::kCreditSvm;
  cfg.nodes = 8;
  cfg.average_degree = 3.0;
  cfg.train_samples = 1200;
  cfg.test_samples = 400;
  cfg.alpha = 0.3;
  cfg.convergence.max_iterations = 400;
  cfg.convergence.loss_tolerance = 1e-3;
  cfg.convergence.consensus_tolerance = 1e-2;
  cfg.weight_optimizer.max_iterations = 60;
  return cfg;
}

TEST(ScenarioTest, BuildsConsistentWorkload) {
  const Scenario scenario(small_svm_config());
  EXPECT_EQ(scenario.graph().node_count(), 8u);
  EXPECT_TRUE(scenario.graph().is_connected());
  EXPECT_EQ(scenario.model().param_count(), 25u);
  EXPECT_EQ(scenario.train_size(), 1200u);
  EXPECT_EQ(scenario.test_set().size(), 400u);
  // Optimized W never scores below the baseline.
  EXPECT_GE(scenario.optimized_weights().score + 1e-12,
            consensus::convergence_score(scenario.baseline_weights()));
}

TEST(ScenarioTest, SnapConvergesAndTracksCentralizedAccuracy) {
  const Scenario scenario(small_svm_config());
  const auto snap = scenario.run(Scheme::kSnap);
  const auto central = scenario.run(Scheme::kCentralized);
  EXPECT_TRUE(snap.converged);
  EXPECT_TRUE(central.converged);
  // Headline accuracy property (Fig. 7): SNAP ≈ centralized.
  EXPECT_NEAR(snap.final_test_accuracy, central.final_test_accuracy, 0.03);
  EXPECT_GT(snap.final_test_accuracy, 0.7);
}

TEST(ScenarioTest, CommunicationOrderingAcrossSchemes) {
  const Scenario scenario(small_svm_config());
  const auto snap = scenario.run(Scheme::kSnap);
  const auto sno = scenario.run(Scheme::kSno);
  EXPECT_LT(snap.total_bytes, sno.total_bytes);
}

TEST(ScenarioTest, RunsAreDeterministic) {
  const ScenarioConfig cfg = small_svm_config();
  const Scenario a(cfg);
  const Scenario b(cfg);
  const auto ra = a.run(Scheme::kSnap);
  const auto rb = b.run(Scheme::kSnap);
  EXPECT_EQ(ra.total_bytes, rb.total_bytes);
  EXPECT_EQ(ra.converged_after, rb.converged_after);
  EXPECT_DOUBLE_EQ(ra.final_test_accuracy, rb.final_test_accuracy);
}

TEST(ScenarioTest, SnapVariantKnobsWork) {
  const Scenario scenario(small_svm_config());
  // Unoptimized weights must still converge.
  const auto plain = scenario.run_snap_variant(core::FilterMode::kApe,
                                               /*optimized=*/false, 0.0);
  EXPECT_TRUE(plain.converged);
  // Straggler injection still converges (Fig. 9's regime).
  const auto lossy = scenario.run_snap_variant(core::FilterMode::kApe,
                                               true, 0.05);
  EXPECT_TRUE(lossy.converged);
}

TEST(ScenarioTest, RefusesAScheduledCutOfANonEdge) {
  ScenarioConfig cfg = small_svm_config();
  const Scenario plain(cfg);
  const topology::Graph& g = plain.graph();
  topology::NodeId u = 0;
  topology::NodeId v = 1;
  while (g.has_edge(u, v)) ++v;  // degree 3 of 8 leaves a non-neighbor
  net::PartitionEvent cut;
  cut.start_round = 2;
  cut.edges = {g.edges().front(), {u, v}};
  cfg.faults.scheduled_partitions = {cut};
  EXPECT_THROW(Scenario{cfg}, common::ContractViolation);
  cfg.faults.scheduled_partitions.front().edges = {g.edges().front()};
  EXPECT_NO_THROW(Scenario{cfg});
}

TEST(ScenarioTest, MnistWorkloadBuildsMlp) {
  ScenarioConfig cfg;
  cfg.workload = Workload::kMnistMlp;
  cfg.nodes = 3;
  cfg.complete_topology = true;
  cfg.train_samples = 120;
  cfg.test_samples = 30;
  cfg.convergence.max_iterations = 3;
  cfg.convergence.loss_tolerance = 0.0;
  const Scenario scenario(cfg);
  EXPECT_EQ(scenario.model().param_count(), 23'860u);
  EXPECT_EQ(scenario.graph().edge_count(), 3u);
  const auto result = scenario.run(Scheme::kSno);
  EXPECT_EQ(result.iterations.size(), 3u);
  EXPECT_GT(result.total_bytes, 0u);
}

}  // namespace
}  // namespace snap::experiments
