// Per-layer probes of the traced run. Each probe times calls into one
// layer's public functions from here (the library itself is not
// instrumented for the benchmark) and counts work from obs::snapshot()
// deltas; the metric names are "<layer>.<what>".
#ifndef SERVEBENCH_LAYERS_H
#define SERVEBENCH_LAYERS_H

#include <map>
#include <string>
#include <vector>

#include "loadgen.h"
#include "rig.h"
#include "stats.h"

namespace servebench {

// Counter values and histogram (count, sum) pairs of one obs snapshot.
struct ObsPoint {
    std::map<std::string, double> counters;
    std::map<std::string, std::pair<double, double>> histograms;

    static ObsPoint take();
    // Counter delta `name` from `before` to this point (0 when absent).
    double delta(const ObsPoint& before, const std::string& name) const;
    // (count, sum) of the observations histogram `name` took since `before`.
    std::pair<double, double> hist_delta(const ObsPoint& before,
                                         const std::string& name) const;
};

// Median seconds per call of fn(), timing `calls` back-to-back calls per
// sample until `min_s` has passed and at least `min_samples` samples exist.
template <typename F>
double seconds_per_call(F&& fn, std::size_t calls, double min_s,
                        std::size_t min_samples = 5) {
    std::vector<double> samples;
    const double t_stop = now_s() + min_s;
    while (samples.size() < min_samples || now_s() < t_stop) {
        const double t0 = now_s();
        for (std::size_t i = 0; i < calls; ++i) fn();
        samples.push_back((now_s() - t0) / static_cast<double>(calls));
    }
    return median(samples);
}

// net: wire parse/render over the workload's own lines and answers.
void probe_net(const std::vector<Line>& lines,
               const std::vector<mcsm::serve::TimingResult>& answers,
               Report& out);

// serve: LUT evaluation per pin class, exact queries, cold characterize and
// surface builds, store load. Adds the spice stepping ratios (from the
// exact batch's solver.* deltas) and fills the inputs of the
// unattributed-time shares: the part of a root call's wall time that the
// layer calls below it do not cover.
struct Attribution {
    double exact_wall_ms = 0.0;  // one NOR2 exact query, serial run_one
    double exact_core_ms = 0.0;  // core::ModelCell build + run of its scenario
    double cold_wall_ms = 0.0;   // one 2-pin cold answer, end to end
    double cold_parts_ms = 0.0;  // characterize + surface build of such
};
void probe_serve(Stack& stack, QueryGen& gen, Report& out, Attribution& attr);

// core, lut and spice kernels on the set-up's NOR2 and NAND3 models.
void probe_kernels(Stack& stack, std::uint64_t seed, Report& out);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H
