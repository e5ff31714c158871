#include "lut/table_view.h"

#include <algorithm>

#include "common/error.h"
#include "lut/ndtable.h"

namespace mcsm::lut {

namespace {

// The kernel's one segment locate (NdTable::at evaluates through a view
// too): index i with knots[i] <= x < knots[i+1], clamped to the range, and
// the normalized position u in [0,1] within the segment (clamped, so
// queries outside the axis hold the end values).
struct Locate {
    std::size_t index;
    double u;
};

Locate locate(std::span<const double> knots, double x) {
    const auto it = std::upper_bound(knots.begin(), knots.end(), x);
    std::size_t i = it == knots.begin()
                        ? 0
                        : static_cast<std::size_t>(it - knots.begin()) - 1;
    i = std::min(i, knots.size() - 2);
    const double x0 = knots[i];
    const double x1 = knots[i + 1];
    const double u = std::clamp((x - x0) / (x1 - x0), 0.0, 1.0);
    return {i, u};
}

}  // namespace

TableView::TableView(std::span<const AxisView> axes,
                     std::span<const double> values, std::string_view name)
    : name_(name), rank_(axes.size()), values_(values) {
    require(rank_ >= 1, "TableView: need at least one axis");
    require(rank_ <= kMaxRank, "TableView: rank above 8 is unsupported");
    std::size_t total = 1;
    // Last axis is the fastest-varying dimension (NdTable layout).
    for (std::size_t d = rank_; d-- > 0;) {
        const AxisView& ax = axes[d];
        require(ax.knots.size() >= 2,
                "TableView: axis needs at least two knots");
        for (std::size_t i = 1; i < ax.knots.size(); ++i)
            require(ax.knots[i] > ax.knots[i - 1],
                    "TableView: axis knots must strictly increase");
        axes_[d] = ax;
        strides_[d] = total;
        total *= ax.knots.size();
    }
    require(values_.size() == total,
            "TableView: value count does not match axes");
}

TableView TableView::of(const NdTable& table) {
    std::array<AxisView, kMaxRank> axes;
    require(table.rank() >= 1 && table.rank() <= kMaxRank,
            "TableView: rank above 8 is unsupported");
    for (std::size_t d = 0; d < table.rank(); ++d) {
        const Axis& ax = table.axis(d);
        axes[d] = AxisView{ax.name(), ax.knots()};
    }
    return TableView({axes.data(), table.rank()}, table.values(),
                     table.name());
}

double TableView::eval(std::span<const double> x,
                       std::span<double> grad) const {
    const std::size_t rank = rank_;
    require(x.size() == rank, "NdTable::at: coordinate rank mismatch");
    const bool want_grad = !grad.empty();
    if (want_grad)
        require(grad.size() == rank, "NdTable::at: gradient rank mismatch");

    // Locate the cell and the normalized position within it per axis.
    std::size_t base = 0;
    double u[kMaxRank];
    double inv_h[kMaxRank];
    std::size_t stride[kMaxRank];
    for (std::size_t d = 0; d < rank; ++d) {
        const std::span<const double> knots = axes_[d].knots;
        const Locate loc = locate(knots, x[d]);
        base += loc.index * strides_[d];
        u[d] = loc.u;
        inv_h[d] = 1.0 / (knots[loc.index + 1] - knots[loc.index]);
        stride[d] = strides_[d];
    }

    // Accumulate over the 2^rank cell corners.
    const std::size_t corners = static_cast<std::size_t>(1) << rank;
    double value = 0.0;
    if (want_grad)
        for (std::size_t d = 0; d < rank; ++d) grad[d] = 0.0;
    for (std::size_t corner = 0; corner < corners; ++corner) {
        std::size_t flat = base;
        double weight = 1.0;
        for (std::size_t d = 0; d < rank; ++d) {
            const bool high = (corner >> d) & 1u;
            if (high) flat += stride[d];
            weight *= high ? u[d] : (1.0 - u[d]);
        }
        const double v = values_[flat];
        value += weight * v;
        if (want_grad) {
            for (std::size_t d = 0; d < rank; ++d) {
                // d(weight)/du_d: replace this axis factor by +/-1.
                double w = 1.0;
                for (std::size_t e = 0; e < rank; ++e) {
                    if (e == d) continue;
                    const bool high = (corner >> e) & 1u;
                    w *= high ? u[e] : (1.0 - u[e]);
                }
                const bool high_d = (corner >> d) & 1u;
                grad[d] += (high_d ? 1.0 : -1.0) * w * v;
            }
        }
    }
    if (want_grad)
        for (std::size_t d = 0; d < rank; ++d) grad[d] *= inv_h[d];
    return value;
}

}  // namespace mcsm::lut
