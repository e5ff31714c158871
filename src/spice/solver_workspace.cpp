#include "spice/solver_workspace.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "spice/circuit.h"
#include "spice/ekv_lanes.h"

namespace mcsm::spice {

namespace {

// The MNA sparsity pattern of an index-bound circuit, gmin diagonal
// included. Values are ignored during pattern collection; the entries a
// device touches are fixed by its node/branch bindings, so a zero-bias pass
// covers every operating point.
SparseMatrix mna_pattern(const Circuit& circuit) {
    const int n_nodes = circuit.node_count();
    const int n_branches = circuit.branch_total();
    std::vector<std::pair<int, int>> entries;
    Stamper pat(n_nodes, n_branches, &entries);

    const std::vector<double> x(
        static_cast<std::size_t>(n_nodes + n_branches), 0.0);
    const std::vector<double> state(
        static_cast<std::size_t>(circuit.state_total()), 0.0);

    SimContext dc;
    dc.mode = SimContext::Mode::kDc;
    dc.x = &x;
    for (const auto& dev : circuit.devices()) dev->stamp(pat, dc);

    SimContext tran;
    tran.mode = SimContext::Mode::kTran;
    tran.dt = 1e-12;
    tran.integrator = Integrator::kTrapezoidal;
    tran.x = &x;
    tran.x_prev = &x;
    tran.state = &state;
    for (const auto& dev : circuit.devices()) dev->stamp(pat, tran);

    pat.add_gmin_everywhere(1.0);
    SparseMatrix m;
    m.build(static_cast<std::size_t>(n_nodes - 1 + n_branches),
            std::move(entries));
    return m;
}

}  // namespace

SolverWorkspace::SolverWorkspace(const Circuit& circuit)
    : matrix_(mna_pattern(circuit)),
      stamper_(circuit.node_count(), circuit.branch_total(), &matrix_) {
    // Group devices for assemble(): MOSFETs into the SoA batch and linear
    // two-terminal devices into the LinearBatch, the rest onto the virtual
    // path in original order.
    std::vector<const Mosfet*> mosfets;
    std::vector<const Resistor*> resistors;
    std::vector<const Capacitor*> capacitors;
    std::vector<const VSource*> vsources;
    std::vector<const ISource*> isources;
    for (const auto& dev : circuit.devices()) {
        if (const auto* m = dynamic_cast<const Mosfet*>(dev.get()))
            mosfets.push_back(m);
        else if (const auto* r = dynamic_cast<const Resistor*>(dev.get()))
            resistors.push_back(r);
        else if (const auto* c = dynamic_cast<const Capacitor*>(dev.get()))
            capacitors.push_back(c);
        else if (const auto* v = dynamic_cast<const VSource*>(dev.get()))
            vsources.push_back(v);
        else if (const auto* i = dynamic_cast<const ISource*>(dev.get()))
            isources.push_back(i);
        else
            scalar_devices_.push_back(dev.get());
    }
    if (!mosfets.empty()) batch_.build(mosfets, matrix_);
    // Dispatch is per-process, but surfacing it per workspace makes the
    // active kernel visible wherever stats are read (obs dump, server
    // stats line) without a solve having run yet.
    static obs::Gauge& width_gauge = obs::gauge("solver.simd.width");
    width_gauge.set(simd_width());
    if (!resistors.empty() || !capacitors.empty() || !vsources.empty() ||
        !isources.empty())
        linear_batch_.build(resistors, capacitors, vsources, isources,
                            matrix_, circuit.node_count());
}

int SolverWorkspace::simd_width() const { return ekv_lane_width(); }

const char* SolverWorkspace::simd_kernel_name() const {
    return simd_width() > 1 ? ekv_lane_kernel_name() : "scalar";
}

Stamper& SolverWorkspace::begin_assembly() {
    stamper_.clear();
    return stamper_;
}

Stamper& SolverWorkspace::assemble(const SimContext& ctx) {
    // DetailSpan/Counter keep the zero-allocation Newton contract: with
    // tracing off the span is one relaxed load + branch, and the counter
    // reference is resolved once per process.
    const obs::DetailSpan span("spice.assemble");
    static obs::Counter& assembles = obs::counter("solver.ws.assembles");
    assembles.add();
    stamper_.clear();
    if (!batch_.empty())
        batch_.evaluate_and_stamp(matrix_, stamper_.rhs(), ctx);
    if (!linear_batch_.empty())
        linear_batch_.stamp(matrix_, stamper_.rhs(), ctx);
    for (const Device* dev : scalar_devices_) dev->stamp(stamper_, ctx);
    return stamper_;
}

void SolverWorkspace::factor() {
    const obs::DetailSpan span("spice.factor");
    static obs::Counter& factors = obs::counter("solver.ws.factors");
    factors.add();
    lu_.factor(matrix_);
}

void SolverWorkspace::solve_block(const double* b, double* x,
                                  std::size_t nrhs) {
    const obs::DetailSpan span("spice.solve");
    static obs::Counter& solves = obs::counter("solver.ws.solves");
    solves.add();
    lu_.solve_block(b, x, nrhs);
}

void SolverWorkspace::residual(std::span<const double> x,
                               std::span<double> r) const {
    matrix_.multiply(x.subspan(1), r);
    const std::vector<double>& b = stamper_.rhs();
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
}

}  // namespace mcsm::spice
