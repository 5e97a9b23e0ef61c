#include "engine/table.h"

#include <algorithm>

#include "common/fault_injection.h"

namespace sgb::engine {

// The storage growth path: every materialized result row lands here, so an
// armed fault simulates running out of table storage mid-query.
static FaultSite g_table_append_fault("engine.table.append",
                                      Status::Code::kResourceExhausted);

size_t ApproxRowVectorBytes(const std::vector<Row>& rows) {
  size_t total = rows.capacity() * sizeof(Row);
  for (const Row& row : rows) total += row.capacity() * sizeof(Value);
  return total;
}

size_t Table::bytes() const { return ApproxRowVectorBytes(rows_); }

Result<TableCursorPtr> Table::Pin() const {
  return MakeIndexedCursor(
      rows_.size(), [this](size_t i) -> const Row& { return rows_[i]; });
}

Status Table::Append(Row row) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match schema arity " + std::to_string(schema_.size()));
  }
  SGB_RETURN_IF_ERROR(g_table_append_fault.Check());
  rows_.push_back(std::move(row));
  return Status::OK();
}

std::string Table::ToString(size_t max_rows) const {
  const size_t ncols = schema_.size();
  std::vector<std::vector<std::string>> cells;
  std::vector<size_t> width(ncols, 0);

  std::vector<std::string> header(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    header[c] = schema_.column(c).name;
    width[c] = header[c].size();
  }
  const size_t shown = std::min(max_rows, rows_.size());
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> line(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      line[c] = rows_[r][c].ToString();
      width[c] = std::max(width[c], line[c].size());
    }
    cells.push_back(std::move(line));
  }

  auto emit_row = [&](const std::vector<std::string>& line, std::string* out) {
    for (size_t c = 0; c < ncols; ++c) {
      *out += "| ";
      *out += line[c];
      out->append(width[c] - line[c].size() + 1, ' ');
    }
    *out += "|\n";
  };

  std::string out;
  emit_row(header, &out);
  for (size_t c = 0; c < ncols; ++c) {
    out += '+';
    out.append(width[c] + 2, '-');
  }
  out += "+\n";
  for (const auto& line : cells) emit_row(line, &out);
  if (shown < rows_.size()) {
    out += "... (" + std::to_string(rows_.size() - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace sgb::engine
