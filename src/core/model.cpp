#include "core/model.h"

#include <cstring>

#include "common/error.h"

namespace mcsm::core {

const char* to_string(ModelKind kind) {
    switch (kind) {
        case ModelKind::kSis: return "SIS";
        case ModelKind::kMisBaseline: return "MIS-baseline";
        case ModelKind::kMcsm: return "MCSM";
    }
    return "?";
}

namespace {

// Names and knots of every axis equal, bit for bit.
bool same_axes(const lut::NdTable& a, const lut::NdTable& b) {
    if (a.rank() != b.rank()) return false;
    for (std::size_t d = 0; d < a.rank(); ++d) {
        const lut::Axis& x = a.axis(d);
        const lut::Axis& y = b.axis(d);
        if (x.name() != y.name() || x.size() != y.size() ||
            std::memcmp(x.knots().data(), y.knots().data(),
                        x.size() * sizeof(double)) != 0)
            return false;
    }
    return true;
}

}  // namespace

void CsmModel::check_consistent() const {
    const std::size_t d = dim();
    require(pin_count() >= 1, "CsmModel: need at least one switching pin");
    require(kind == ModelKind::kMcsm || internals.empty(),
            "CsmModel: only MCSM models carry internal nodes");
    require(i_out.rank() == d, "CsmModel: i_out rank mismatch");
    require(i_internal.size() == internals.size(),
            "CsmModel: i_internal count mismatch");
    require(c_internal.size() == internals.size(),
            "CsmModel: c_internal count mismatch");
    require(c_miller.size() == pins.size(),
            "CsmModel: c_miller count mismatch");
    require(c_in.size() == pins.size(), "CsmModel: c_in count mismatch");
    require(c_miller_internal.size() == pins.size() * internals.size(),
            "CsmModel: c_miller_internal count mismatch");
    // Every D-dimensional table shares i_out's axes [pins..., internals...,
    // out], names and knots bit for bit.
    const auto check_shared_axes = [&](const lut::NdTable& t) {
        if (same_axes(t, i_out)) return;
        std::string msg = "CsmModel: table '";
        msg += t.name();
        msg += "' does not share i_out's axes";
        throw ModelError(msg);
    };
    for (const auto& t : i_internal) check_shared_axes(t);
    for (const auto& t : c_miller) check_shared_axes(t);
    check_shared_axes(c_out);
    for (const auto& t : c_internal) check_shared_axes(t);
    for (const auto& t : c_miller_internal) check_shared_axes(t);
    for (const auto& t : c_in)
        require(t.rank() == 1, "CsmModel: c_in must be 1-D");
    require(fixed_pins.size() == fixed_values.size(),
            "CsmModel: fixed pin/value mismatch");
}

double CsmModel::cin(std::size_t p, double vin) const {
    const double q[1] = {vin};
    return c_in[p].at(std::span<const double>(q, 1));
}

}  // namespace mcsm::core
