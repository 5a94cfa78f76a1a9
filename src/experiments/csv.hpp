// CSV export for experiment results — machine-readable counterpart of
// the printed tables, for plotting the reproduced figures.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "core/training.hpp"

namespace snap::experiments {

/// RFC-4180-style field quoting: fields containing commas, quotes or
/// newlines are wrapped in double quotes with inner quotes doubled.
std::string csv_escape(const std::string& field);

/// Writes one CSV row.
void write_csv_row(std::ostream& os, const std::vector<std::string>& cells);

/// Writes the per-iteration series of a TrainResult: an `iteration`
/// column (1-based), then every core::kIterationStatsColumns entry
/// marked `csv`, in table order and under the table's names. Doubles
/// print through `ostream <<`, counters as integers, bools as 1/0.
void write_train_result_csv(std::ostream& os,
                            const core::TrainResult& result);

}  // namespace snap::experiments
