// A lookup-table axis: a named, strictly increasing knot vector.
#ifndef MCSM_LUT_AXIS_H
#define MCSM_LUT_AXIS_H

#include <cstddef>
#include <string>
#include <vector>

namespace mcsm::lut {

class Axis {
public:
    Axis() = default;
    Axis(std::string name, std::vector<double> knots);

    // Uniform axis with n knots over [lo, hi].
    static Axis uniform(std::string name, double lo, double hi, std::size_t n);

    const std::string& name() const { return name_; }
    const std::vector<double>& knots() const { return knots_; }
    std::size_t size() const { return knots_.size(); }
    double lo() const { return knots_.front(); }
    double hi() const { return knots_.back(); }

private:
    std::string name_;
    std::vector<double> knots_;
};

}  // namespace mcsm::lut

#endif  // MCSM_LUT_AXIS_H
