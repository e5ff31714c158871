// Current-source-model data structures (the paper's Section 3).
//
// Three model families share one representation:
//  * kSis         - single switching input, no internal node (ref. [5]),
//  * kMisBaseline - two switching inputs, no internal node (Section 3.1,
//                   the model shown to err by ~22%),
//  * kMcsm        - two switching inputs plus modeled internal stack
//                   node(s) (Section 3.2/3.3, the paper's contribution).
//
// Voltage-space axes are ordered [switching pins..., internal nodes..., out].
// Current sign convention: Io / IN are the currents flowing from the node
// INTO the cell (positive current discharges the node), matching the signs
// in the paper's eqs. (1), (2), (4), (5).
//
// The table list. A model is one family of lookup tables over those
// voltages. Every walk over a model's tables (the CSM device, the pack
// format, the audit, the characterizer) goes through one list, in one
// canonical order, which is the pack payload order. With
// p pins and k internal nodes it holds (names for pin A, internal node N):
//   Io      1    current into the cell at out
//   I_N     k    current into the cell at N
//   Cm_A    p    cap between A and out (Miller)
//   Co      1    cap between out and ground
//   C_N     k    cap between N and ground
//   Cm_A_N  p*k  cap between A and N; pin i, node j at [i * k + j]
//   Cin_A   p    receiver input cap of A, 1-D over A's voltage
// Every table but Cin is D-dimensional and shares i_out's axes.
#ifndef MCSM_CORE_MODEL_H
#define MCSM_CORE_MODEL_H

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "lut/ndtable.h"

namespace mcsm::core {

enum class ModelKind { kSis, kMisBaseline, kMcsm };

const char* to_string(ModelKind kind);

// One table's role: what it models and the nodes it joins, as axis
// indices into [pins..., internals..., out]. A current enters the cell at
// node a, a cap joins nodes a and b, an input cap loads pin a.
struct TableRole {
    enum class Kind { kCurrent, kCap, kInputCap };
    static constexpr std::size_t kGround = static_cast<std::size_t>(-1);

    Kind kind;
    std::size_t a;
    std::size_t b = kGround;  // a cap's second node, or ground

    // A cap between node a and ground (Co, C_N).
    bool grounded() const { return kind == Kind::kCap && b == kGround; }
};

// The roles in list order for `pins` pins and `internals` internal nodes:
// the count-only form, for loaders that validate a payload before a model
// exists. Throws ModelError past lut::TableView::kMaxRank.
std::vector<TableRole> table_roles(std::size_t pins, std::size_t internals);

struct CsmModel {
    ModelKind kind = ModelKind::kMcsm;
    std::string cell_name;
    double vdd = 1.2;
    double dv_margin = 0.12;
    // Junction temperature the model was characterized at [degC]. Purely
    // descriptive at evaluation time (the tables already embody it), but
    // it keys corner-aware stores and round trips through both formats.
    double temp_c = 25.0;

    std::vector<std::string> pins;         // switching input pins
    std::vector<std::string> fixed_pins;   // remaining inputs...
    std::vector<double> fixed_values;      // ...held at these voltages
    std::vector<std::string> internals;    // modeled internal nodes (kMcsm)

    // All D-dimensional tables share the axes [pins..., internals..., out].
    lut::NdTable i_out;                    // Io(V)
    std::vector<lut::NdTable> i_internal;  // IN_j(V), one per internal node
    std::vector<lut::NdTable> c_miller;    // Cm_p(V), one per switching pin
    lut::NdTable c_out;                    // Co(V)
    std::vector<lut::NdTable> c_internal;  // CN_j(V)
    // Pin -> internal-node Miller caps, indexed [p * internal_count + j].
    // The paper neglects these ("we do not model the Miller effect between
    // node N and other nodes"); with our Meyer-style substrate the stack
    // transistor's gate-source cap is a significant part of the stack-node
    // charge balance, so the characterizer extracts them by default. Tables
    // of zeros reproduce the paper's simplification (ablation bench A7).
    std::vector<lut::NdTable> c_miller_internal;
    std::vector<lut::NdTable> c_in;        // 1-D receiver cap per pin

    // --- shape helpers ---------------------------------------------------
    std::size_t pin_count() const { return pins.size(); }
    std::size_t internal_count() const { return internals.size(); }
    // Rank of the D-dimensional tables: pins + internals + 1 (output).
    std::size_t dim() const { return pins.size() + internals.size() + 1; }
    std::size_t out_axis() const { return dim() - 1; }

    // Validates the table counts against the pins/internals; every Cin
    // table must be 1-D and every other share i_out's axes bit for bit.
    void check_consistent() const;

    // --- the table list (see the file comment) ---------------------------
    std::vector<TableRole> roles() const {
        return table_roles(pin_count(), internal_count());
    }
    // Every table in list order, parallel to roles(). Throws ModelError
    // when a family's count disagrees with the pins/internals.
    std::vector<const lut::NdTable*> tables() const;
    // Replaces every table with an empty one, one per role, and returns
    // them in list order for a loader or the characterizer to fill.
    std::vector<lut::NdTable*> reset_tables();
    // The canonical name of the table with `role` (Io, I_N, Cm_A, ...).
    std::string table_name(const TableRole& role) const;

    // --- queries -----------------------------------------------------------
    // v has dim() entries ordered [pins..., internals..., out].
    double io(std::span<const double> v) const { return i_out.at(v); }
    double in(std::size_t j, std::span<const double> v) const {
        return i_internal[j].at(v);
    }
    double cm(std::size_t p, std::span<const double> v) const {
        return c_miller[p].at(v);
    }
    double co(std::span<const double> v) const { return c_out.at(v); }
    double cn(std::size_t j, std::span<const double> v) const {
        return c_internal[j].at(v);
    }
    // Miller capacitance between switching pin p and internal node j.
    double cmn(std::size_t p, std::size_t j, std::span<const double> v) const {
        return c_miller_internal[p * internal_count() + j].at(v);
    }
    // Receiver input capacitance of pin p at input voltage vin.
    double cin(std::size_t p, double vin) const;

    // Model-consistent DC state: solves Io = 0 and IN_j = 0 for the output
    // and internal-node voltages, given the pin voltages. Used to initialize
    // the explicit integrator (core/explicit_sim.h). `pin_volts` has
    // pin_count() entries. Returns [internals..., out] voltages.
    //
    // This is spice::solve_dc on a one-cell circuit (a DC source per pin, a
    // CsmCellDevice on fresh internal and output nodes) with the exact
    // path's t=0 settings (spice::fast_dc_options()), so it is the operating
    // point a ModelCell transient starts from; it is defined next to the
    // device in core/csm_device.cpp. Throws NumericalError when that solve
    // does not converge, and ModelError on a pin count mismatch or an
    // inconsistent model.
    std::vector<double> dc_state(std::span<const double> pin_volts) const;
};

}  // namespace mcsm::core

#endif  // MCSM_CORE_MODEL_H
