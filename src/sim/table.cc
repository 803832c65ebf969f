#include "sim/table.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace molecule::sim {

void
Table::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
Table::row(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
Table::num(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
Table::hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

std::string
Table::render() const
{
    // Column widths over header + all rows.
    std::vector<std::size_t> widths;
    auto grow = [&](const std::vector<std::string> &cells) {
        if (widths.size() < cells.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    grow(header_);
    for (const auto &r : rows_)
        grow(r);

    std::ostringstream out;
    out << "== " << title_ << " ==\n";
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            out << cells[i];
            if (i + 1 < cells.size())
                out << std::string(widths[i] - cells[i].size() + 2, ' ');
        }
        out << '\n';
    };
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (std::size_t i = 0; i < widths.size(); ++i)
            total += widths[i] + (i + 1 < widths.size() ? 2 : 0);
        out << std::string(total, '-') << '\n';
    }
    for (const auto &r : rows_)
        emit(r);
    return out.str();
}

void
Table::print() const
{
    std::fputs(render().c_str(), stdout);
    std::fputc('\n', stdout);
}

} // namespace molecule::sim
