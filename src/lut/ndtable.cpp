#include "lut/ndtable.h"

#include <cmath>

#include "common/error.h"
#include "lut/table_view.h"

namespace mcsm::lut {

NdTable::NdTable(std::vector<Axis> axes, std::string name)
    : name_(std::move(name)), axes_(std::move(axes)) {
    require(!axes_.empty(), "NdTable: need at least one axis");
    require(axes_.size() <= 8, "NdTable: rank above 8 is unsupported");
    strides_.assign(axes_.size(), 1);
    std::size_t total = 1;
    // Last axis is the fastest-varying dimension.
    for (std::size_t d = axes_.size(); d-- > 0;) {
        strides_[d] = total;
        total *= axes_[d].size();
    }
    values_.assign(total, 0.0);
}

NdTable::NdTable(const TableView& view)
    : NdTable(
          [&] {
              std::vector<Axis> axes;
              for (std::size_t d = 0; d < view.rank(); ++d)
                  axes.emplace_back(
                      std::string(view.axis(d).name),
                      std::vector<double>(view.axis(d).knots.begin(),
                                          view.axis(d).knots.end()));
              return axes;
          }(),
          std::string(view.name())) {
    values_.assign(view.values().begin(), view.values().end());
}

std::size_t NdTable::flat_index(std::span<const std::size_t> idx) const {
    require(idx.size() == axes_.size(), "NdTable: index rank mismatch");
    std::size_t flat = 0;
    for (std::size_t d = 0; d < axes_.size(); ++d) {
        require(idx[d] < axes_[d].size(), "NdTable: knot index out of range");
        flat += idx[d] * strides_[d];
    }
    return flat;
}

double NdTable::grid_value(std::span<const std::size_t> idx) const {
    return values_[flat_index(idx)];
}

void NdTable::set_grid_value(std::span<const std::size_t> idx, double v) {
    values_[flat_index(idx)] = v;
}

void NdTable::fill(const std::function<double(std::span<const double>)>& f) {
    for_each_grid_point([&](std::span<const std::size_t>,
                            std::span<const double> x, double& v) {
        v = f(x);
    });
}

void NdTable::for_each_grid_point(
    const std::function<void(std::span<const std::size_t>,
                             std::span<const double>, double&)>& f) {
    const std::size_t rank = axes_.size();
    std::vector<std::size_t> idx(rank, 0);
    std::vector<double> coord(rank);
    for (std::size_t d = 0; d < rank; ++d) coord[d] = axes_[d].knots()[0];
    for (;;) {
        f(idx, coord, values_[flat_index(idx)]);
        // Odometer increment over the grid, last axis fastest.
        std::size_t d = rank;
        while (d-- > 0) {
            if (++idx[d] < axes_[d].size()) {
                coord[d] = axes_[d].knots()[idx[d]];
                break;
            }
            idx[d] = 0;
            coord[d] = axes_[d].knots()[0];
            if (d == 0) return;
        }
    }
}

double NdTable::at(std::span<const double> x) const {
    return at_with_gradient(x, {});
}

double NdTable::at_with_gradient(std::span<const double> x,
                                 std::span<double> grad) const {
    // One multilinear kernel serves owned tables and borrowed storage
    // alike: delegate to TableView so NdTable::at and a view over an
    // mmap'd copy of the same data are bitwise-identical by construction.
    return TableView::of(*this).at_with_gradient(x, grad);
}

double NdTable::max_abs() const {
    double m = 0.0;
    for (double v : values_) m = std::max(m, std::fabs(v));
    return m;
}

}  // namespace mcsm::lut
