#include "core/model_io.h"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/fp_text.h"
#include "lut/table_io.h"

namespace mcsm::core {

namespace {

ModelKind kind_from_string(const std::string& s) {
    if (s == "SIS") return ModelKind::kSis;
    if (s == "MIS-baseline") return ModelKind::kMisBaseline;
    if (s == "MCSM") return ModelKind::kMcsm;
    throw ModelError("read_model: unknown model kind " + s);
}

// Token-wise double read: accepts the hexfloat tokens written here plus the
// decimal values of legacy cache files.
bool read_double(std::istream& is, double& out) {
    std::string token;
    return static_cast<bool>(is >> token) && parse_exact_double(token, out);
}

}  // namespace

void write_model(std::ostream& os, const CsmModel& model) {
    model.check_consistent();
    os << "csmmodel v1\n";
    os << "kind " << to_string(model.kind) << '\n';
    os << "cell " << model.cell_name << '\n';
    os << "vdd ";
    write_exact_double(os, model.vdd);
    os << '\n';
    os << "dv ";
    write_exact_double(os, model.dv_margin);
    os << '\n';
    os << "temp ";
    write_exact_double(os, model.temp_c);
    os << '\n';
    os << "pins " << model.pins.size();
    for (const auto& p : model.pins) os << ' ' << p;
    os << '\n';
    os << "fixed " << model.fixed_pins.size();
    for (std::size_t i = 0; i < model.fixed_pins.size(); ++i) {
        os << ' ' << model.fixed_pins[i] << ' ';
        write_exact_double(os, model.fixed_values[i]);
    }
    os << '\n';
    os << "internals " << model.internals.size();
    for (const auto& n : model.internals) os << ' ' << n;
    os << '\n';

    for (const lut::NdTable* t : model.tables()) lut::write_table(os, *t);
    os << "endmodel\n";
}

CsmModel read_model(std::istream& is) {
    std::string word;
    std::string version;
    require(static_cast<bool>(is >> word >> version) && word == "csmmodel" &&
                version == "v1",
            "read_model: bad header");

    CsmModel m;
    std::string kind_str;
    require(static_cast<bool>(is >> word >> kind_str) && word == "kind",
            "read_model: missing kind");
    m.kind = kind_from_string(kind_str);
    require(static_cast<bool>(is >> word >> m.cell_name) && word == "cell",
            "read_model: missing cell");
    require(static_cast<bool>(is >> word) && word == "vdd" &&
                read_double(is, m.vdd),
            "read_model: missing vdd");
    require(std::isfinite(m.vdd) && m.vdd > 0.0,
            "read_model: vdd = " + std::to_string(m.vdd) +
                " (must be finite and > 0)");
    require(static_cast<bool>(is >> word) && word == "dv" &&
                read_double(is, m.dv_margin),
            "read_model: missing dv");
    require(std::isfinite(m.dv_margin) && m.dv_margin >= 0.0,
            "read_model: dv = " + std::to_string(m.dv_margin) +
                " (must be finite and >= 0)");

    // `temp` was added after the format shipped; legacy files jump straight
    // to `pins` and keep the nominal default.
    require(static_cast<bool>(is >> word), "read_model: truncated header");
    if (word == "temp") {
        require(read_double(is, m.temp_c) && std::isfinite(m.temp_c),
                "read_model: bad temp");
        require(static_cast<bool>(is >> word), "read_model: missing pins");
    }

    std::size_t n = 0;
    require(word == "pins" && static_cast<bool>(is >> n),
            "read_model: missing pins");
    m.pins.resize(n);
    for (auto& p : m.pins)
        require(static_cast<bool>(is >> p), "read_model: truncated pins");

    require(static_cast<bool>(is >> word >> n) && word == "fixed",
            "read_model: missing fixed");
    m.fixed_pins.resize(n);
    m.fixed_values.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        require(static_cast<bool>(is >> m.fixed_pins[i]) &&
                    read_double(is, m.fixed_values[i]),
                "read_model: truncated fixed pins");
        require(std::isfinite(m.fixed_values[i]),
                "read_model: fixed pin '" + m.fixed_pins[i] +
                    "' held at a non-finite voltage");
    }

    require(static_cast<bool>(is >> word >> n) && word == "internals",
            "read_model: missing internals");
    m.internals.resize(n);
    for (auto& s : m.internals)
        require(static_cast<bool>(is >> s), "read_model: truncated internals");

    for (lut::NdTable* t : m.reset_tables()) *t = lut::read_table(is);

    require(static_cast<bool>(is >> word) && word == "endmodel",
            "read_model: missing endmodel");
    m.check_consistent();
    return m;
}

void save_model(const std::string& path, const CsmModel& model) {
    std::ofstream os(path);
    require(os.good(), "save_model: cannot open " + path);
    write_model(os, model);
    require(os.good(), "save_model: write failed for " + path);
}

CsmModel load_model(const std::string& path) {
    std::ifstream is(path);
    require(is.good(), "load_model: cannot open " + path);
    return read_model(is);
}

}  // namespace mcsm::core
