// Oracle for the characterizer's model-linearization cap tables: one helper
// per table kind, each re-evaluating every MOSFET's caps at the bias it is
// given. Slow, but written independently of the characterizer's single-pass
// pair rule, so those tables are cross-checked against it bit for bit. Both
// helpers sum from 0.0, device by device in MosCaps member order.
#ifndef MCSM_TESTS_CAP_ORACLE_H
#define MCSM_TESTS_CAP_ORACLE_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "spice/mosfet.h"

namespace mcsm {

// Sums the small-signal MOSFET capacitance between two circuit nodes at the
// bias in `x` (node voltages indexed by node id).
inline double pair_cap(const std::vector<const spice::Mosfet*>& mosfets,
                       const std::vector<double>& x, int a, int b) {
    double total = 0.0;
    for (const spice::Mosfet* m : mosfets) {
        const spice::MosCaps c = m->evaluate_caps(
            x[static_cast<std::size_t>(m->drain())],
            x[static_cast<std::size_t>(m->gate())],
            x[static_cast<std::size_t>(m->source())],
            x[static_cast<std::size_t>(m->bulk())]);
        const struct {
            int u, v;
            double cap;
        } pairs[5] = {{m->gate(), m->source(), c.cgs},
                      {m->gate(), m->drain(), c.cgd},
                      {m->gate(), m->bulk(), c.cgb},
                      {m->drain(), m->bulk(), c.cdb},
                      {m->source(), m->bulk(), c.csb}};
        for (const auto& p : pairs) {
            if ((p.u == a && p.v == b) || (p.u == b && p.v == a))
                total += p.cap;
        }
    }
    return total;
}

// Sums all MOSFET capacitance incident to node `a`, excluding couplings to
// nodes in `excluded`.
inline double incident_cap(const std::vector<const spice::Mosfet*>& mosfets,
                           const std::vector<double>& x, int a,
                           const std::vector<int>& excluded) {
    double total = 0.0;
    for (const spice::Mosfet* m : mosfets) {
        const spice::MosCaps c = m->evaluate_caps(
            x[static_cast<std::size_t>(m->drain())],
            x[static_cast<std::size_t>(m->gate())],
            x[static_cast<std::size_t>(m->source())],
            x[static_cast<std::size_t>(m->bulk())]);
        const struct {
            int u, v;
            double cap;
        } pairs[5] = {{m->gate(), m->source(), c.cgs},
                      {m->gate(), m->drain(), c.cgd},
                      {m->gate(), m->bulk(), c.cgb},
                      {m->drain(), m->bulk(), c.cdb},
                      {m->source(), m->bulk(), c.csb}};
        for (const auto& p : pairs) {
            int other = -1;
            if (p.u == a) other = p.v;
            else if (p.v == a) other = p.u;
            else continue;
            if (other == a) continue;  // no self terms
            if (std::find(excluded.begin(), excluded.end(), other) !=
                excluded.end())
                continue;
            total += p.cap;
        }
    }
    return total;
}

}  // namespace mcsm

#endif  // MCSM_TESTS_CAP_ORACLE_H
