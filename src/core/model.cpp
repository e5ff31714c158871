#include "core/model.h"

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
    for (const auto& t : i_internal)
        require(t.rank() == d, "CsmModel: i_internal rank mismatch");
    for (const auto& t : c_miller)
        require(t.rank() == d, "CsmModel: c_miller rank mismatch");
    require(c_out.rank() == d, "CsmModel: c_out rank mismatch");
    for (const auto& t : c_internal)
        require(t.rank() == d, "CsmModel: c_internal rank mismatch");
    require(c_miller_internal.size() == pins.size() * internals.size(),
            "CsmModel: c_miller_internal count mismatch");
    for (const auto& t : c_miller_internal)
        require(t.rank() == d, "CsmModel: c_miller_internal rank mismatch");
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
