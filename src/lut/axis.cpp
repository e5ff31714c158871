#include "lut/axis.h"

#include "common/error.h"
#include "common/numeric.h"

namespace mcsm::lut {

Axis::Axis(std::string name, std::vector<double> knots)
    : name_(std::move(name)), knots_(std::move(knots)) {
    require(knots_.size() >= 2, "Axis: need at least two knots");
    for (std::size_t i = 1; i < knots_.size(); ++i)
        require(knots_[i] > knots_[i - 1], "Axis: knots must strictly increase");
}

Axis Axis::uniform(std::string name, double lo, double hi, std::size_t n) {
    return Axis(std::move(name), linspace(lo, hi, n));
}

}  // namespace mcsm::lut
