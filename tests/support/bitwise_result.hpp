// Bitwise comparison of whole training runs, shared by every suite that
// promises "the same trajectory, bit for bit": two TrainResults must
// agree on every core::kIterationStatsColumns column of every iteration
// and on every summary field (convergence, totals, final loss/accuracy,
// the final mean model). Doubles compare by bit pattern, so 0.0 vs −0.0
// or a 1-ulp drift fails.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/training.hpp"

namespace snap::testing {

inline std::uint64_t bits_of(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}
inline std::uint64_t bits_of(std::uint64_t value) { return value; }
inline std::uint64_t bits_of(bool value) { return value ? 1 : 0; }

/// One word of a run's fingerprint and what it holds.
struct LabeledWord {
  std::string label;
  std::uint64_t bits = 0;
};

/// Every observable of `result` as labeled u64 words: the iteration
/// count, each iteration's table columns in table order, then the
/// summary fields and the final mean model.
inline std::vector<LabeledWord> labeled_words(
    const core::TrainResult& result) {
  std::vector<LabeledWord> words;
  words.push_back({"iterations.size()", result.iterations.size()});
  for (std::size_t k = 0; k < result.iterations.size(); ++k) {
    const core::IterationStats& it = result.iterations[k];
    core::for_each_stat_column([&](const auto& column) {
      words.push_back({"iteration " + std::to_string(k + 1) + " " +
                           std::string(column.name),
                       bits_of(it.*column.member)});
    });
  }
  words.push_back({"converged", bits_of(result.converged)});
  words.push_back({"converged_after", result.converged_after});
  words.push_back({"final_train_loss", bits_of(result.final_train_loss)});
  words.push_back(
      {"final_test_accuracy", bits_of(result.final_test_accuracy)});
  words.push_back({"total_bytes", result.total_bytes});
  words.push_back({"total_cost", result.total_cost});
  words.push_back({"total_sim_seconds", bits_of(result.total_sim_seconds)});
  words.push_back({"final_params.size()", result.final_params.size()});
  for (std::size_t d = 0; d < result.final_params.size(); ++d) {
    words.push_back({"final_params[" + std::to_string(d) + "]",
                     bits_of(result.final_params[d])});
  }
  return words;
}

/// The unlabeled fingerprint, for suites that carry a run across a
/// process boundary (a forked shard writes it to a file).
inline std::vector<std::uint64_t> result_words(
    const core::TrainResult& result) {
  std::vector<std::uint64_t> out;
  for (const LabeledWord& word : labeled_words(result)) {
    out.push_back(word.bits);
  }
  return out;
}

/// Expects `words` (result_words of some run) to equal `expected`'s
/// fingerprint; each mismatch names the column and iteration.
inline void expect_words_equal(const std::vector<std::uint64_t>& words,
                               const core::TrainResult& expected) {
  const std::vector<LabeledWord> want = labeled_words(expected);
  ASSERT_EQ(words.size(), want.size()) << "fingerprint length differs";
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(words[i], want[i].bits) << want[i].label;
  }
}

/// Expects `a` and `b` to agree bit for bit on every column of every
/// iteration and on every summary field.
inline void expect_bitwise_equal(const core::TrainResult& a,
                                 const core::TrainResult& b) {
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  expect_words_equal(result_words(a), b);
}

}  // namespace snap::testing
