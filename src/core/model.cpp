#include "core/model.h"

#include <cstring>

#include "common/error.h"
#include "lut/table_view.h"

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

// Checked before anything is sized from the counts.
void require_rank(std::size_t pins, std::size_t internals) {
    require(pins + internals + 1 <= lut::TableView::kMaxRank,
            "CsmModel: too many pins and internal nodes for a table rank");
}

// Every table of `m` in list order, const with `m`. Checks each family's
// count before it indexes anything.
template <typename Model>
auto table_walk(Model& m) {
    const std::size_t p = m.pin_count();
    const std::size_t k = m.internal_count();
    require(m.i_internal.size() == k, "CsmModel: i_internal count mismatch");
    require(m.c_miller.size() == p, "CsmModel: c_miller count mismatch");
    require(m.c_internal.size() == k, "CsmModel: c_internal count mismatch");
    require(m.c_miller_internal.size() == p * k,
            "CsmModel: c_miller_internal count mismatch");
    require(m.c_in.size() == p, "CsmModel: c_in count mismatch");
    std::vector<decltype(&m.i_out)> tables{&m.i_out};
    for (auto& t : m.i_internal) tables.push_back(&t);
    for (auto& t : m.c_miller) tables.push_back(&t);
    tables.push_back(&m.c_out);
    for (auto& t : m.c_internal) tables.push_back(&t);
    for (auto& t : m.c_miller_internal) tables.push_back(&t);
    for (auto& t : m.c_in) tables.push_back(&t);
    return tables;
}

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

// Pin i is axis i and internal node j axis p + j, so out is axis p + k.
std::vector<TableRole> table_roles(std::size_t p, std::size_t k) {
    require_rank(p, k);
    using enum TableRole::Kind;
    const std::size_t out = p + k;
    std::vector<TableRole> roles{{kCurrent, out}};
    for (std::size_t j = 0; j < k; ++j) roles.push_back({kCurrent, p + j});
    for (std::size_t i = 0; i < p; ++i) roles.push_back({kCap, i, out});
    roles.push_back({kCap, out});
    for (std::size_t j = 0; j < k; ++j) roles.push_back({kCap, p + j});
    for (std::size_t i = 0; i < p; ++i)
        for (std::size_t j = 0; j < k; ++j) roles.push_back({kCap, i, p + j});
    for (std::size_t i = 0; i < p; ++i) roles.push_back({kInputCap, i});
    return roles;
}

std::vector<const lut::NdTable*> CsmModel::tables() const {
    return table_walk(*this);
}

std::vector<lut::NdTable*> CsmModel::reset_tables() {
    const std::size_t p = pin_count();
    const std::size_t k = internal_count();
    require_rank(p, k);
    i_out = {};
    i_internal.assign(k, {});
    c_miller.assign(p, {});
    c_out = {};
    c_internal.assign(k, {});
    c_miller_internal.assign(p * k, {});
    c_in.assign(p, {});
    return table_walk(*this);
}

std::string CsmModel::table_name(const TableRole& role) const {
    using Kind = TableRole::Kind;
    const std::size_t out = out_axis();
    if (role.a == out) return role.kind == Kind::kCurrent ? "Io" : "Co";
    const auto node = [&](std::size_t d) -> const std::string& {
        return d < pin_count() ? pins[d] : internals[d - pin_count()];
    };
    std::string name = role.kind == Kind::kCurrent    ? "I_"
                       : role.kind == Kind::kInputCap ? "Cin_"
                       : role.b == TableRole::kGround ? "C_"
                                                      : "Cm_";
    name += node(role.a);
    if (role.b != TableRole::kGround && role.b != out) {
        name += '_';
        name += node(role.b);
    }
    return name;
}

void CsmModel::check_consistent() const {
    require(pin_count() >= 1, "CsmModel: need at least one switching pin");
    require(kind == ModelKind::kMcsm || internals.empty(),
            "CsmModel: only MCSM models carry internal nodes");
    require(i_out.rank() == dim(), "CsmModel: i_out rank mismatch");
    const std::vector<TableRole> r = roles();
    const std::vector<const lut::NdTable*> t = tables();
    for (std::size_t i = 0; i < t.size(); ++i) {
        const bool input_cap = r[i].kind == TableRole::Kind::kInputCap;
        if (input_cap ? t[i]->rank() == 1 : same_axes(*t[i], i_out)) continue;
        std::string msg = "CsmModel: table '";
        msg += table_name(r[i]);
        msg += input_cap ? "' must be 1-D" : "' does not share i_out's axes";
        throw ModelError(msg);
    }
    require(fixed_pins.size() == fixed_values.size(),
            "CsmModel: fixed pin/value mismatch");
}

double CsmModel::cin(std::size_t p, double vin) const {
    const double q[1] = {vin};
    return c_in[p].at(std::span<const double>(q, 1));
}

}  // namespace mcsm::core
