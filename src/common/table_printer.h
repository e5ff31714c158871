// Minimal CSV table printer for bench harness output.
#ifndef MCSM_COMMON_TABLE_PRINTER_H
#define MCSM_COMMON_TABLE_PRINTER_H

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace mcsm {

// Collects rows of string cells and prints them as CSV. Bench harnesses use
// this to emit the paper's figure series.
class TablePrinter {
public:
    explicit TablePrinter(std::vector<std::string> header);

    void add_row(std::vector<std::string> cells);

    // Formats a double with the given precision (default engineering-style).
    static std::string num(double v, int precision = 6);

    void print_csv(std::ostream& os) const;

    std::size_t row_count() const { return rows_.size(); }

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace mcsm

#endif  // MCSM_COMMON_TABLE_PRINTER_H
