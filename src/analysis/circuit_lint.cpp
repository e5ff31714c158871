#include "analysis/circuit_lint.h"

#include <cmath>
#include <cstddef>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/structural.h"
#include "core/csm_device.h"
#include "spice/circuit.h"
#include "spice/solver_workspace.h"

namespace mcsm::analysis {

namespace {

using spice::Capacitor;
using spice::Circuit;
using spice::Device;
using spice::ISource;
using spice::Mosfet;
using spice::Resistor;
using spice::VSource;

// Plain union-find over node ids.
class UnionFind {
public:
    explicit UnionFind(std::size_t n) : parent_(n) {
        std::iota(parent_.begin(), parent_.end(), 0);
    }

    int find(int a) {
        while (parent_[static_cast<std::size_t>(a)] != a) {
            parent_[static_cast<std::size_t>(a)] =
                parent_[static_cast<std::size_t>(
                    parent_[static_cast<std::size_t>(a)])];
            a = parent_[static_cast<std::size_t>(a)];
        }
        return a;
    }

    // Returns false when a and b were already connected.
    bool unite(int a, int b) {
        const int ra = find(a);
        const int rb = find(b);
        if (ra == rb) return false;
        parent_[static_cast<std::size_t>(ra)] = rb;
        return true;
    }

private:
    std::vector<int> parent_;
};

// "n1, n2, n3, ... (+4 more)" with at most `cap` names spelled out.
std::string join_names(const std::vector<std::string>& names,
                       std::size_t cap = 8) {
    std::ostringstream os;
    for (std::size_t i = 0; i < names.size() && i < cap; ++i) {
        if (i > 0) os << ", ";
        os << '\'' << names[i] << '\'';
    }
    if (names.size() > cap)
        os << " (+" << names.size() - cap << " more)";
    return os.str();
}

bool valid_node(int node, const Circuit& circuit) {
    return node >= 0 && node < circuit.node_count();
}

// Name of MNA unknown `u`: a node voltage for u < n_nodes-1, otherwise the
// branch current of the owning voltage source.
std::string unknown_name(const Circuit& circuit, int u) {
    const int n_nodes = circuit.node_count();
    if (u < n_nodes - 1) return "v(" + circuit.node_name(u + 1) + ")";
    const int branch = u - (n_nodes - 1);
    for (const auto& dev : circuit.devices()) {
        if (dev->branch_count() > 0 && branch >= dev->branch_base() &&
            branch < dev->branch_base() + dev->branch_count())
            return "i(" + dev->name() + ")";
    }
    return "branch#" + std::to_string(branch);
}

}  // namespace

LintReport lint_circuit(Circuit& circuit, const CircuitLintOptions& options) {
    LintReport report;
    const auto& devices = circuit.devices();
    const std::size_t n_nodes = static_cast<std::size_t>(circuit.node_count());

    if (devices.empty()) {
        report.add(Severity::kWarning, "circuit.empty",
                   "circuit has no devices");
        return report;
    }

    // --- terminal scan: dangling ids, per-node degree --------------------
    bool dangling = false;
    std::vector<int> degree(n_nodes, 0);
    for (const auto& dev : devices) {
        for (const int t : dev->terminals()) {
            if (!valid_node(t, circuit)) {
                Diagnostic& d = report.add(
                    Severity::kError, "circuit.dangling-terminal",
                    "device '" + dev->name() + "' references node id " +
                        std::to_string(t) + " outside [0, " +
                        std::to_string(n_nodes) + ")");
                d.devices.push_back(dev->name());
                d.hint = "create nodes through Circuit::node() and pass the "
                         "returned id";
                dangling = true;
                continue;
            }
            ++degree[static_cast<std::size_t>(t)];
        }
    }

    // --- device value rules ----------------------------------------------
    for (const auto& dev : devices) {
        if (const auto* r = dynamic_cast<const Resistor*>(dev.get())) {
            if (!(std::isfinite(r->resistance()) && r->resistance() > 0.0)) {
                Diagnostic& d = report.add(
                    Severity::kError, "circuit.nonpositive-resistance",
                    "resistor '" + r->name() + "' has R = " +
                        std::to_string(r->resistance()) + " Ohm");
                d.devices.push_back(r->name());
                d.hint = "resistances must be finite and > 0; use a voltage "
                         "source for an ideal short";
            }
            if (r->node_a() == r->node_b() && valid_node(r->node_a(), circuit)) {
                Diagnostic& d = report.add(
                    Severity::kWarning, "circuit.shorted-passive",
                    "resistor '" + r->name() +
                        "' has both terminals on node '" +
                        circuit.node_name(r->node_a()) + "'");
                d.devices.push_back(r->name());
                d.nodes.push_back(circuit.node_name(r->node_a()));
                d.hint = "self-loops stamp nothing; remove the device";
            }
        } else if (const auto* c = dynamic_cast<const Capacitor*>(dev.get())) {
            if (!std::isfinite(c->capacitance()) || c->capacitance() < 0.0) {
                Diagnostic& d = report.add(
                    Severity::kError, "circuit.negative-capacitance",
                    "capacitor '" + c->name() + "' has C = " +
                        std::to_string(c->capacitance()) + " F");
                d.devices.push_back(c->name());
                d.hint = "capacitances must be finite and >= 0";
            } else if (c->capacitance() == 0.0) {
                Diagnostic& d = report.add(
                    Severity::kWarning, "circuit.zero-capacitance",
                    "capacitor '" + c->name() + "' has C = 0");
                d.devices.push_back(c->name());
                d.hint = "a zero capacitor has no effect; remove the device";
            }
            if (c->node_a() == c->node_b() && valid_node(c->node_a(), circuit)) {
                Diagnostic& d = report.add(
                    Severity::kWarning, "circuit.shorted-passive",
                    "capacitor '" + c->name() +
                        "' has both terminals on node '" +
                        circuit.node_name(c->node_a()) + "'");
                d.devices.push_back(c->name());
                d.nodes.push_back(circuit.node_name(c->node_a()));
                d.hint = "self-loops stamp nothing; remove the device";
            }
        } else if (const auto* v = dynamic_cast<const VSource*>(dev.get())) {
            if (v->positive_node() == v->negative_node()) {
                Diagnostic& d = report.add(
                    Severity::kError, "circuit.shorted-vsource",
                    "voltage source '" + v->name() +
                        "' has both terminals on one node");
                d.devices.push_back(v->name());
                if (valid_node(v->positive_node(), circuit))
                    d.nodes.push_back(circuit.node_name(v->positive_node()));
                d.hint = "a self-looped source forces 0 = V(t); its branch "
                         "current is indeterminate";
            }
        }
    }

    // --- per-node rules: floating / dangling nodes -----------------------
    for (std::size_t n = 1; n < n_nodes; ++n) {
        if (degree[n] == 0) {
            Diagnostic& d = report.add(
                Severity::kError, "circuit.floating-node",
                "node '" + circuit.node_name(static_cast<int>(n)) +
                    "' is not connected to any device");
            d.nodes.push_back(circuit.node_name(static_cast<int>(n)));
            d.hint = "its voltage is defined only by the gmin shunt; "
                     "connect or remove the node";
        } else if (degree[n] == 1) {
            Diagnostic& d = report.add(
                Severity::kWarning, "circuit.dangling-node",
                "node '" + circuit.node_name(static_cast<int>(n)) +
                    "' is connected to a single device terminal");
            d.nodes.push_back(circuit.node_name(static_cast<int>(n)));
            d.hint = "dead-end nets usually indicate a missing load or a "
                     "typo in a node name";
        }
    }

    // --- connectivity: DC paths to ground, full-graph components ---------
    if (!dangling) {
        UnionFind dc(n_nodes);
        UnionFind any(n_nodes);
        UnionFind vloop(n_nodes);
        for (const auto& dev : devices) {
            const std::vector<int> terms = dev->terminals();
            for (std::size_t i = 1; i < terms.size(); ++i)
                any.unite(terms[0], terms[i]);

            if (const auto* r = dynamic_cast<const Resistor*>(dev.get())) {
                dc.unite(r->node_a(), r->node_b());
            } else if (const auto* v = dynamic_cast<const VSource*>(dev.get())) {
                dc.unite(v->positive_node(), v->negative_node());
                if (v->positive_node() != v->negative_node() &&
                    !vloop.unite(v->positive_node(), v->negative_node())) {
                    Diagnostic& d = report.add(
                        Severity::kError, "circuit.vsource-loop",
                        "voltage source '" + v->name() +
                            "' closes a loop of ideal voltage sources "
                            "between nodes '" +
                            circuit.node_name(v->positive_node()) +
                            "' and '" +
                            circuit.node_name(v->negative_node()) + "'");
                    d.devices.push_back(v->name());
                    d.nodes.push_back(
                        circuit.node_name(v->positive_node()));
                    d.nodes.push_back(
                        circuit.node_name(v->negative_node()));
                    d.hint = "the loop current is indeterminate (the MNA "
                             "branch rows are structurally dependent); "
                             "insert a series resistance or drop one source";
                }
            } else if (const auto* m = dynamic_cast<const Mosfet*>(dev.get())) {
                // Channel and junctions conduct at DC; the gate does not.
                dc.unite(m->drain(), m->source());
                dc.unite(m->drain(), m->bulk());
            } else if (const auto* cell =
                           dynamic_cast<const core::CsmCellDevice*>(
                               dev.get())) {
                // The cell's current sources pin the internal and output
                // nodes (the terminals after the pins) to a model-consistent
                // DC state; its input pins are capacitive only.
                const std::vector<int> t = cell->terminals();
                for (std::size_t d = cell->model().pin_count(); d < t.size();
                     ++d)
                    dc.unite(t[d], Circuit::kGround);
            }
            // Capacitors, LutCapDevice and current sources conduct nothing
            // at DC.
        }

        std::vector<std::string> no_path;
        for (std::size_t n = 1; n < n_nodes; ++n) {
            if (degree[n] == 0) continue;  // already reported as floating
            if (dc.find(static_cast<int>(n)) != dc.find(Circuit::kGround))
                no_path.push_back(circuit.node_name(static_cast<int>(n)));
        }
        if (!no_path.empty()) {
            Diagnostic d;
            d.severity = options.dc_path_is_error ? Severity::kError
                                                  : Severity::kWarning;
            d.rule = "circuit.no-dc-path";
            d.message = "node(s) " + join_names(no_path) +
                        " have no DC path to ground (reachable only "
                        "through capacitors, current sources, or MOSFET "
                        "gates)";
            d.nodes = no_path;
            d.hint = "their DC operating point is set by the gmin shunt "
                     "alone; add a resistive/source path or expect "
                     "gmin-dependent results";
            report.add(std::move(d));
        }

        std::vector<std::string> disconnected;
        for (std::size_t n = 1; n < n_nodes; ++n) {
            if (degree[n] == 0) continue;
            if (any.find(static_cast<int>(n)) != any.find(Circuit::kGround))
                disconnected.push_back(
                    circuit.node_name(static_cast<int>(n)));
        }
        if (!disconnected.empty()) {
            Diagnostic d;
            d.severity = Severity::kWarning;
            d.rule = "circuit.disconnected-subgraph";
            d.message = "node(s) " + join_names(disconnected) +
                        " form a subgraph with no connection of any kind "
                        "to the ground component";
            d.nodes = disconnected;
            d.hint = "isolated islands simulate independently; split them "
                     "into separate circuits or wire them up";
            report.add(std::move(d));
        }
    }

    // --- structural singularity of the MNA pattern -----------------------
    if (options.structural && !dangling) {
        circuit.prepare();
        const std::vector<std::pair<int, int>> entries =
            spice::collect_mna_entries(circuit, /*include_gmin=*/false);
        const std::size_t n = static_cast<std::size_t>(
            circuit.node_count() - 1 + circuit.branch_total());
        const StructuralResult sr = structural_analysis(n, entries);
        if (sr.structurally_singular()) {
            std::vector<std::string> rows;
            for (const int r : sr.unmatched_rows)
                rows.push_back(unknown_name(circuit, r));
            std::vector<std::string> cols;
            for (const int c : sr.unmatched_cols)
                cols.push_back(unknown_name(circuit, c));
            Diagnostic d;
            d.severity = Severity::kError;
            d.rule = "circuit.structural-singularity";
            d.message =
                "the MNA pattern has no full transversal (max matching " +
                std::to_string(sr.matching_size) + " of " +
                std::to_string(sr.size) +
                "): every factorization must hit a zero pivot; deficient "
                "equations: " +
                join_names(rows) + "; deficient unknowns: " + join_names(cols);
            d.nodes = std::move(rows);
            d.devices = std::move(cols);
            d.hint = "the named KCL/branch rows have no independent entry "
                     "-- typically a current-source-only node or a "
                     "voltage-source loop";
            report.add(std::move(d));
        }
    }

    return report;
}

}  // namespace mcsm::analysis
