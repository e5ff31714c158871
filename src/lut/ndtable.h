// N-dimensional lookup table on non-uniform axes with multilinear
// interpolation and analytic gradient. This is the storage format the paper
// prescribes for the MCSM current sources and capacitances (4-D tables).
#ifndef MCSM_LUT_NDTABLE_H
#define MCSM_LUT_NDTABLE_H

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "lut/axis.h"

namespace mcsm::lut {

class TableView;

class NdTable {
public:
    NdTable() = default;
    // Creates a zero-filled table over the given axes.
    explicit NdTable(std::vector<Axis> axes, std::string name = {});
    // Owned copy of a view's axes, values and name (bit-exact).
    explicit NdTable(const TableView& view);

    const std::string& name() const { return name_; }
    std::size_t rank() const { return axes_.size(); }
    const std::vector<Axis>& axes() const { return axes_; }
    const Axis& axis(std::size_t d) const { return axes_[d]; }
    std::size_t value_count() const { return values_.size(); }
    const std::vector<double>& values() const { return values_; }

    // Flat index of a grid point given per-axis knot indices.
    std::size_t flat_index(std::span<const std::size_t> idx) const;

    double grid_value(std::span<const std::size_t> idx) const;
    void set_grid_value(std::span<const std::size_t> idx, double v);

    // Fills every grid point by evaluating f at the knot coordinates.
    void fill(const std::function<double(std::span<const double>)>& f);

    // Multilinear interpolation at x (clamped to the axis ranges).
    double at(std::span<const double> x) const;

    // Interpolated value and gradient d(value)/dx_d. The gradient is the
    // exact derivative of the multilinear interpolant (piecewise constant in
    // each cell along its own axis).
    double at_with_gradient(std::span<const double> x,
                            std::span<double> grad) const;

    // Max |value| over the whole grid.
    double max_abs() const;

    // Visits every grid point: f(indices, coordinates, value reference).
    void for_each_grid_point(
        const std::function<void(std::span<const std::size_t>,
                                 std::span<const double>, double&)>& f);

private:
    std::string name_;
    std::vector<Axis> axes_;
    std::vector<std::size_t> strides_;  // strides_[d]: flat step per knot in dim d
    std::vector<double> values_;
};

}  // namespace mcsm::lut

#endif  // MCSM_LUT_NDTABLE_H
