/**
 * @file
 * Minimal aligned-column table printer used by the benchmark binaries
 * to emit paper-style tables.
 */

#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace herald::util
{

/**
 * Accumulates rows of string cells and prints them with aligned
 * columns. Intended for human-readable bench output that mirrors the
 * paper's tables.
 */
class Table
{
  public:
    /** Create a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must have the same arity as the headers. */
    void addRow(std::vector<std::string> cells);

    /** Render with padded columns and a header underline. */
    void print(std::ostream &os) const;

    /** Number of data rows added so far. */
    std::size_t numRows() const { return rows.size(); }

  private:
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

/** Format @p value with @p digits significant decimal digits. */
std::string fmtDouble(double value, int digits = 4);

/** Format a ratio as a signed percentage string, e.g. "-65.3%". */
std::string fmtPercent(double fraction, int digits = 1);

} // namespace herald::util

