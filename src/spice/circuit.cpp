#include "spice/circuit.h"

namespace mcsm::spice {

Circuit::Circuit() {
    node_names_.push_back("0");
    node_index_["0"] = kGround;
    node_index_["gnd"] = kGround;
}

int Circuit::node(const std::string& name) {
    const auto it = node_index_.find(name);
    if (it != node_index_.end()) return it->second;
    const int id = static_cast<int>(node_names_.size());
    node_names_.push_back(name);
    node_index_[name] = id;
    return id;
}

bool Circuit::has_node(const std::string& name) const {
    return node_index_.find(name) != node_index_.end();
}

int Circuit::node_id(const std::string& name) const {
    const auto it = node_index_.find(name);
    require(it != node_index_.end(), "Circuit: unknown node name");
    return it->second;
}

const std::string& Circuit::node_name(int id) const {
    require(id >= 0 && id < node_count(), "Circuit: bad node id");
    return node_names_[static_cast<std::size_t>(id)];
}

Device* Circuit::find_device(const std::string& name) {
    const auto it = device_index_.find(name);
    return it == device_index_.end() ? nullptr : devices_[it->second].get();
}

const Device* Circuit::find_device(const std::string& name) const {
    const auto it = device_index_.find(name);
    return it == device_index_.end() ? nullptr : devices_[it->second].get();
}

VSource& Circuit::vsource(const std::string& name) {
    auto* dev = dynamic_cast<VSource*>(find_device(name));
    require(dev != nullptr, "Circuit: no voltage source with that name");
    return *dev;
}

void Circuit::prepare() {
    if (prepared_) return;
    // Stampers index the system by node id without a bounds check: an id
    // past the last node would write past the right-hand side, and a
    // negative one would drop its stamps without a word.
    for (const auto& dev : devices_) {
        for (const int t : dev->terminals()) {
            if (t >= 0 && t < node_count()) continue;
            std::string what = "Circuit: device '";
            what += dev->name();
            what += "' has terminal node id ";
            what += std::to_string(t);
            what += " outside [0, ";
            what += std::to_string(node_count());
            what += ')';
            throw ModelError(what);
        }
    }
    int branch = 0;
    int state = 0;
    for (const auto& dev : devices_) {
        dev->bind(branch, state);
        branch += dev->branch_count();
        state += dev->state_count();
    }
    branch_total_ = branch;
    state_total_ = state;
    prepared_ = true;
    // The workspace captures the topology (sparsity pattern + LU analysis);
    // device parameter/source changes do not invalidate it, adding devices
    // does.
    workspace_ = std::make_unique<SolverWorkspace>(*this);
}

SolverWorkspace& Circuit::workspace() {
    require(prepared_ && workspace_ != nullptr,
            "Circuit: prepare() must run before workspace()");
    return *workspace_;
}

int Circuit::branch_of(const std::string& vsource_name) const {
    const auto it = device_index_.find(vsource_name);
    require(it != device_index_.end(), "Circuit: unknown device");
    const Device& dev = *devices_[it->second];
    require(dev.branch_count() == 1, "Circuit: device has no branch current");
    require(prepared_, "Circuit: prepare() must run before branch_of()");
    return dev.branch_base();
}

}  // namespace mcsm::spice
