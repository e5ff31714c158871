#include "sta/wave_sta.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"
#include "common/parallel.h"
#include "core/csm_device.h"
#include "spice/circuit.h"

namespace mcsm::sta {

using core::CsmModel;
using spice::Circuit;
using spice::SourceSpec;

WaveformSta::WaveformSta(
    const GateNetlist& netlist,
    std::unordered_map<std::string, const CsmModel*> models)
    : netlist_(&netlist), models_(std::move(models)) {
    for (const Instance& inst : netlist.instances())
        require(models_.count(inst.cell) == 1,
                "WaveformSta: no model for cell " + inst.cell);
}

namespace {

// A reusable stage circuit: driver CSM device + receiver caps + wire cap,
// with one programmable source per driver model pin. Stages of the same
// (cell, fanout signature) differ only in their input waveforms, so one
// prepared circuit per signature per worker serves them all with source
// re-programming — the node/device construction, pattern discovery, and
// workspace allocation happen once.
struct StageFixture {
    Circuit circuit;
    std::vector<spice::VSource*> pin_sources;  // model.pins order
    int out_node = -1;
    bool used = false;
};

// Signature of a stage: driver cell plus everything load-side that shapes
// the circuit (wire cap bits, ordered receiver (cell, pin) list).
std::string stage_signature(const GateNetlist& netlist, const Instance& inst,
                            double wire_cap) {
    std::string key = inst.cell;
    char buf[24];
    std::snprintf(buf, sizeof(buf), "|%a", wire_cap);
    key += buf;
    for (const Sink& sink : netlist.sinks_of(inst.conn.at("OUT"))) {
        const Instance& s_inst = netlist.instances()[sink.instance];
        key += '|';
        key += s_inst.cell;
        key += ':';
        key += sink.pin;
    }
    return key;
}

}  // namespace

std::unordered_map<std::string, wave::Waveform> WaveformSta::run(
    const WaveStaOptions& options) const {
    std::unordered_map<std::string, wave::Waveform> nets;
    for (const auto& [net, w] : netlist_->primary_inputs()) nets[net] = w;

    // Builds the stage circuit for `inst` (sources carry placeholder DC
    // drives until a use programs them).
    auto build_fixture = [&](const Instance& inst) -> StageFixture {
        const CsmModel& model = *models_.at(inst.cell);
        const std::string& out_net = inst.conn.at("OUT");

        StageFixture fx;
        std::vector<int> pin_nodes;
        for (const std::string& pin : model.pins) {
            const int n = fx.circuit.node("in_" + pin);
            pin_nodes.push_back(n);
            fx.circuit.add_vsource("V" + pin, n, Circuit::kGround,
                                   SourceSpec::dc(0.0));
        }
        for (const std::string& pin : model.pins)
            fx.pin_sources.push_back(&fx.circuit.vsource("V" + pin));
        std::vector<int> internal_nodes;
        for (const std::string& formal : model.internals)
            internal_nodes.push_back(fx.circuit.node("int_" + formal));
        fx.out_node = fx.circuit.node("out");
        fx.circuit.add_device<core::CsmCellDevice>("DRV", model, pin_nodes,
                                                   internal_nodes, fx.out_node,
                                                   /*stamp_input_caps=*/false);

        const double wire = netlist_->wire_cap(out_net);
        if (wire > 0.0)
            fx.circuit.add_capacitor("CW", fx.out_node, Circuit::kGround,
                                     wire);
        int sink_idx = 0;
        for (const Sink& sink : netlist_->sinks_of(out_net)) {
            const Instance& s_inst = netlist_->instances()[sink.instance];
            const CsmModel& s_model = *models_.at(s_inst.cell);
            const auto pin_it = std::find(s_model.pins.begin(),
                                          s_model.pins.end(), sink.pin);
            require(pin_it != s_model.pins.end(),
                    "WaveformSta: sink pin not in receiver model: " +
                        sink.pin);
            const auto p =
                static_cast<std::size_t>(pin_it - s_model.pins.begin());
            fx.circuit.add_device<core::LutCapDevice>(
                "CSINK" + std::to_string(sink_idx++), s_model.c_in[p],
                fx.out_node);
        }
        return fx;
    };

    // Simulates one stage against the already-evaluated input nets through
    // a (cached) fixture; returns the output-net waveform.
    auto run_stage =
        [&](const Instance& inst,
            std::unordered_map<std::string, StageFixture>& cache)
        -> wave::Waveform {
        const CsmModel& model = *models_.at(inst.cell);
        const std::string key =
            stage_signature(*netlist_, inst,
                            netlist_->wire_cap(inst.conn.at("OUT")));
        auto it = cache.find(key);
        if (it == cache.end())
            it = cache.emplace(key, build_fixture(inst)).first;
        StageFixture& fx = it->second;

        for (std::size_t p = 0; p < model.pins.size(); ++p) {
            const auto cit = inst.conn.find(model.pins[p]);
            // The model itself holds non-controlling values only for its
            // fixed pins, so an unconnected switching pin is a netlist
            // error.
            require(cit != inst.conn.end(),
                    "WaveformSta: instance " + inst.name +
                        " leaves model pin " + model.pins[p] +
                        " unconnected");
            const auto nit = nets.find(cit->second);
            require(nit != nets.end(),
                    "WaveformSta: net evaluated out of order: " +
                        cit->second);
            fx.pin_sources[p]->set_spec(SourceSpec::pwl(nit->second));
        }

        if (fx.used) {
            // Drop the frozen pivot order so a reused fixture solves bit-
            // identically to a freshly built one: the LU re-pivots from
            // this stage's own first Jacobian instead of inheriting the
            // order from whatever stage this worker ran before.
            fx.circuit.workspace().invalidate_factorization();
        }
        fx.used = true;

        spice::TranOptions topt;
        topt.tstop = options.tstop;
        topt.dt = options.dt;
        const spice::TranResult result = spice::solve_tran(fx.circuit, topt);
        return result.node_waveform(fx.out_node);
    };

    // Group the topological order into dependency levels: a stage's level
    // is one past the deepest driver feeding it (primary inputs sit at 0).
    // Stages within a level are independent and fan out over the thread
    // pool; `nets` is merged between levels only, so workers read it
    // concurrently but never write it.
    const std::vector<std::size_t> topo = netlist_->topological_order();
    std::unordered_map<std::string, std::size_t> net_level;
    for (const auto& [net, w] : netlist_->primary_inputs())
        net_level[net] = 0;

    std::vector<std::vector<std::size_t>> levels;
    for (const std::size_t idx : topo) {
        const Instance& inst = netlist_->instances()[idx];
        std::size_t level = 0;
        for (const auto& [pin, net] : inst.conn) {
            if (pin == "OUT") continue;
            const auto it = net_level.find(net);
            if (it != net_level.end()) level = std::max(level, it->second);
        }
        net_level[inst.conn.at("OUT")] = level + 1;
        if (levels.size() <= level) levels.resize(level + 1);
        levels[level].push_back(idx);
    }

    // Per-slot fixture caches persist across levels (slot w always uses
    // caches[w]); stages are claimed dynamically, which is safe because a
    // reused fixture produces bit-identical results to a fresh build.
    std::vector<std::unordered_map<std::string, StageFixture>> caches(
        parallel_slots(options.threads));

    for (const std::vector<std::size_t>& level : levels) {
        std::vector<wave::Waveform> outs(level.size());
        parallel_for(
            level.size(),
            [&](std::size_t i, std::size_t slot) {
                outs[i] = run_stage(netlist_->instances()[level[i]],
                                    caches[slot]);
            },
            options.threads);
        for (std::size_t i = 0; i < level.size(); ++i) {
            const Instance& inst = netlist_->instances()[level[i]];
            nets[inst.conn.at("OUT")] = std::move(outs[i]);
        }
    }
    return nets;
}

}  // namespace mcsm::sta
