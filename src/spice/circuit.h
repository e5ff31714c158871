// Netlist container: named nodes plus an owned list of devices.
#ifndef MCSM_SPICE_CIRCUIT_H
#define MCSM_SPICE_CIRCUIT_H

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "spice/device.h"
#include "spice/linear_devices.h"
#include "spice/mosfet.h"
#include "spice/solver_workspace.h"

namespace mcsm::spice {

class Circuit {
public:
    Circuit();

    Circuit(const Circuit&) = delete;
    Circuit& operator=(const Circuit&) = delete;
    Circuit(Circuit&&) = default;
    Circuit& operator=(Circuit&&) = default;

    // --- nodes -----------------------------------------------------------
    static constexpr int kGround = 0;

    // Returns the id for `name`, creating the node on first use.
    int node(const std::string& name);
    bool has_node(const std::string& name) const;
    int node_id(const std::string& name) const;  // throws if missing
    const std::string& node_name(int id) const;
    int node_count() const { return static_cast<int>(node_names_.size()); }

    // --- devices ---------------------------------------------------------
    template <typename D, typename... Args>
    D& add_device(Args&&... args) {
        auto dev = std::make_unique<D>(std::forward<Args>(args)...);
        D& ref = *dev;
        require(device_index_.find(ref.name()) == device_index_.end(),
                "Circuit: duplicate device name");
        device_index_[ref.name()] = devices_.size();
        devices_.push_back(std::move(dev));
        prepared_ = false;
        return ref;
    }

    Resistor& add_resistor(const std::string& name, int a, int b, double r) {
        return add_device<Resistor>(name, a, b, r);
    }
    Capacitor& add_capacitor(const std::string& name, int a, int b, double c) {
        return add_device<Capacitor>(name, a, b, c);
    }
    VSource& add_vsource(const std::string& name, int p, int m,
                         SourceSpec spec) {
        return add_device<VSource>(name, p, m, std::move(spec));
    }
    ISource& add_isource(const std::string& name, int p, int m,
                         SourceSpec spec) {
        return add_device<ISource>(name, p, m, std::move(spec));
    }
    Mosfet& add_mosfet(const std::string& name, int d, int g, int s, int b,
                       const MosParams& params, double w, double l) {
        return add_device<Mosfet>(name, d, g, s, b, params, w, l);
    }

    Device* find_device(const std::string& name);
    const Device* find_device(const std::string& name) const;
    // Typed lookup; throws ModelError when the name or type does not match.
    VSource& vsource(const std::string& name);

    const std::vector<std::unique_ptr<Device>>& devices() const {
        return devices_;
    }

    // --- solver support ----------------------------------------------------
    // Assigns branch/state indices, computes the MNA sparsity pattern from
    // the device incidence, and (re)builds the persistent SolverWorkspace.
    // Safe to call repeatedly; re-runs after any device was added.
    void prepare();
    int branch_total() const { return branch_total_; }
    int state_total() const { return state_total_; }
    // Branch index of a voltage source (for current measurement).
    int branch_of(const std::string& vsource_name) const;

    // The persistent per-topology workspace (valid after prepare()).
    SolverWorkspace& workspace();

private:
    std::vector<std::string> node_names_;
    std::unordered_map<std::string, int> node_index_;
    std::vector<std::unique_ptr<Device>> devices_;
    std::unordered_map<std::string, std::size_t> device_index_;
    bool prepared_ = false;
    int branch_total_ = 0;
    int state_total_ = 0;
    std::unique_ptr<SolverWorkspace> workspace_;
};

}  // namespace mcsm::spice

#endif  // MCSM_SPICE_CIRCUIT_H
