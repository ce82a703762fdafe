#include "util/table.hh"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "util/logging.hh"

namespace herald::util
{

Table::Table(std::vector<std::string> headers)
    : headers(std::move(headers))
{
    if (this->headers.empty())
        panic("Table requires at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers.size()) {
        panic("Table row arity ", cells.size(), " != header arity ",
              headers.size());
    }
    rows.push_back(std::move(cells));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c)
        widths[c] = headers[c].size();
    for (const auto &row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << row[c];
            os << (c + 1 == row.size() ? "\n" : "  ");
        }
    };

    print_row(headers);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    for (const auto &row : rows)
        print_row(row);
}

std::string
fmtDouble(double value, int digits)
{
    std::ostringstream oss;
    oss << std::setprecision(digits);
    if (value != 0.0 && (std::abs(value) >= 1e6 || std::abs(value) < 1e-3))
        oss << std::scientific;
    else
        oss << std::fixed;
    oss << value;
    return oss.str();
}

std::string
fmtPercent(double fraction, int digits)
{
    std::ostringstream oss;
    oss << std::showpos << std::fixed << std::setprecision(digits)
        << fraction * 100.0 << "%";
    return oss.str();
}

} // namespace herald::util
