#include "metrics/table.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/strings.hpp"
#include "obs/json.hpp"

namespace p2panon::metrics {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("Table::add_row: column count mismatch");
  }
  rows_.push_back(std::move(row));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << row[c] << std::string(widths[c] - row[c].size() + 2, ' ');
    }
    out << "\n";
  };
  emit_row(header_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  out << std::string(total, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string Table::to_json() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r > 0) out << ",";
    out << "{";
    for (std::size_t c = 0; c < header_.size(); ++c) {
      if (c > 0) out << ",";
      out << "\"" << obs::json_escape(header_[c]) << "\":\""
          << obs::json_escape(rows_[r][c]) << "\"";
    }
    out << "}";
  }
  out << "]";
  return out.str();
}

Series::Series(std::string x_label, std::vector<std::string> y_labels)
    : x_label_(std::move(x_label)), y_labels_(std::move(y_labels)) {}

void Series::add(double x, std::vector<double> ys) {
  if (ys.size() != y_labels_.size()) {
    throw std::invalid_argument("Series::add: series count mismatch");
  }
  points_.emplace_back(x, std::move(ys));
}

std::string Series::render(int digits) const {
  std::ostringstream out;
  out << "# " << x_label_;
  for (const auto& label : y_labels_) out << "\t" << label;
  out << "\n";
  for (const auto& [x, ys] : points_) {
    out << format_double(x, digits);
    for (double y : ys) out << "\t" << format_double(y, digits);
    out << "\n";
  }
  return out.str();
}

std::string Series::to_json() const {
  std::ostringstream out;
  out.precision(10);
  out << "[";
  for (std::size_t p = 0; p < points_.size(); ++p) {
    if (p > 0) out << ",";
    out << "{\"" << obs::json_escape(x_label_) << "\":" << points_[p].first;
    for (std::size_t c = 0; c < y_labels_.size(); ++c) {
      out << ",\"" << obs::json_escape(y_labels_[c])
          << "\":" << points_[p].second[c];
    }
    out << "}";
  }
  out << "]";
  return out.str();
}

std::string pair_cell(double random_value, double biased_value, int digits) {
  std::string cell = "[";
  cell += format_double(random_value, digits);
  cell += ", ";
  cell += format_double(biased_value, digits);
  cell += "]";
  return cell;
}

}  // namespace p2panon::metrics
