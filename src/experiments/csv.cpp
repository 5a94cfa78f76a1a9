#include "experiments/csv.hpp"

#include <cstdint>
#include <sstream>

namespace snap::experiments {

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void write_csv_row(std::ostream& os,
                   const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) os << ',';
    os << csv_escape(cells[i]);
  }
  os << '\n';
}

namespace {

std::string format_cell(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}
std::string format_cell(std::uint64_t value) { return std::to_string(value); }
std::string format_cell(bool value) { return value ? "1" : "0"; }

}  // namespace

void write_train_result_csv(std::ostream& os,
                            const core::TrainResult& result) {
  std::vector<std::string> cells{"iteration"};
  core::for_each_stat_column([&](const auto& column) {
    if (column.csv) cells.emplace_back(column.name);
  });
  write_csv_row(os, cells);
  for (std::size_t k = 0; k < result.iterations.size(); ++k) {
    const core::IterationStats& stat = result.iterations[k];
    cells.assign({std::to_string(k + 1)});
    core::for_each_stat_column([&](const auto& column) {
      if (column.csv) cells.push_back(format_cell(stat.*column.member));
    });
    write_csv_row(os, cells);
  }
}

}  // namespace snap::experiments
