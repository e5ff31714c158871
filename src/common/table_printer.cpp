#include "common/table_printer.h"

#include <iomanip>
#include <sstream>
#include <utility>

#include "common/error.h"

namespace mcsm {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
    require(cells.size() == header_.size(),
            "TablePrinter: row width differs from header");
    rows_.push_back(std::move(cells));
}

std::string TablePrinter::num(double v, int precision) {
    std::ostringstream os;
    os << std::setprecision(precision) << v;
    return os.str();
}

void TablePrinter::print_csv(std::ostream& os) const {
    auto print_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c) os << ',';
            os << row[c];
        }
        os << '\n';
    };
    print_row(header_);
    for (const auto& row : rows_) print_row(row);
}

}  // namespace mcsm
