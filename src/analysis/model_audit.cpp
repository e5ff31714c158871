#include "analysis/model_audit.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "serve/mapped_store.h"

namespace mcsm::analysis {

namespace fs = std::filesystem;

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// First non-finite entry of `values`; -1 when all finite.
long first_nonfinite(const std::vector<double>& values) {
    for (std::size_t i = 0; i < values.size(); ++i)
        if (!std::isfinite(values[i])) return static_cast<long>(i);
    return -1;
}

std::size_t count_nonfinite(const std::vector<double>& values) {
    std::size_t n = 0;
    for (const double v : values)
        if (!std::isfinite(v)) ++n;
    return n;
}

// Audits every axis of `table`; messages name the axes' owner (`owner`
// axis 'A' ...). `vdd` > 0 also requires each axis to cover [0, vdd].
void audit_axes(const lut::NdTable& table, const std::string& owner,
                double vdd, LintReport& report) {
    for (std::size_t d = 0; d < table.rank(); ++d) {
        const lut::Axis& ax = table.axis(d);
        const std::vector<double>& knots = ax.knots();
        const std::string axis = owner + " axis '" + ax.name() + "'";
        const long bad = first_nonfinite(knots);
        if (bad >= 0) {
            Diagnostic& diag = report.add(
                Severity::kError, "table.axis-nonfinite",
                axis + " knot " + std::to_string(bad) + " is not finite");
            diag.hint = "re-characterize or restore the table from a good "
                        "copy";
            continue;
        }
        for (std::size_t i = 1; i < knots.size(); ++i) {
            if (!(knots[i] > knots[i - 1])) {
                Diagnostic& diag = report.add(
                    Severity::kError, "table.axis-nonmonotone",
                    axis + " is not strictly increasing (knot " +
                        std::to_string(i) + " = " + std::to_string(knots[i]) +
                        " <= knot " + std::to_string(i - 1) + " = " +
                        std::to_string(knots[i - 1]) + ")");
                diag.hint = "interpolation needs strictly increasing knots";
                break;
            }
        }
        if (vdd > 0.0 && (ax.lo() > 0.0 || ax.hi() < vdd)) {
            Diagnostic& diag = report.add(
                Severity::kError, "model.knot-coverage",
                axis + " spans [" + std::to_string(ax.lo()) + ", " +
                    std::to_string(ax.hi()) +
                    "] V and does not cover the rail range [0, " +
                    std::to_string(vdd) + "] V");
            diag.hint = "evaluation clamps outside the grid; the model "
                        "would serve edge values for in-range voltages";
        }
    }
}

// Audits the payload of a table whose axes are audited separately.
void audit_values(const lut::NdTable& table, const std::string& name,
                  LintReport& report) {
    const long bad = first_nonfinite(table.values());
    if (bad < 0) return;
    Diagnostic& diag = report.add(
        Severity::kError, "table.nonfinite-value",
        "table '" + name + "' holds " +
            std::to_string(count_nonfinite(table.values())) +
            " non-finite value(s) (first at flat index " +
            std::to_string(bad) + " of " +
            std::to_string(table.value_count()) + ")");
    diag.hint = "a NaN knot poisons every interpolation that touches its "
                "cell; re-characterize the model";
}

void range_check(double value, double lo, double hi, const char* what,
                 LintReport& report) {
    if (std::isfinite(value) && value > lo && value < hi) return;
    Diagnostic& diag = report.add(
        Severity::kError, "model.physical-range",
        std::string(what) + " = " + std::to_string(value) +
            " outside the physical range (" + std::to_string(lo) + ", " +
            std::to_string(hi) + ")");
    diag.hint = "the model header is corrupt or was characterized with "
                "nonsensical options";
}

// Audits a standalone table, `name` naming it in messages.
LintReport audit_table(const lut::NdTable& table, const std::string& name) {
    LintReport report;
    if (table.rank() == 0 || table.value_count() == 0) {
        report.add(Severity::kError, "table.empty",
                   "table '" + name + "' has no axes/values");
        return report;
    }
    audit_axes(table, "table '" + name + "'", 0.0, report);
    audit_values(table, name, report);
    return report;
}

// Minimum over a table's payload (0 for empty tables).
double min_value(const lut::NdTable& t) {
    if (t.values().empty()) return 0.0;
    return *std::min_element(t.values().begin(), t.values().end());
}

}  // namespace

LintReport audit_model(const core::CsmModel& model) {
    LintReport report;
    const std::string cell =
        model.cell_name.empty() ? "<unnamed>" : model.cell_name;

    try {
        model.check_consistent();
    } catch (const ModelError& e) {
        Diagnostic& diag = report.add(
            Severity::kError, "model.inconsistent-shape",
            "model '" + cell + "': " + e.what());
        diag.hint = "table ranks, counts or shared axes disagree with the "
                    "declared pins/internals; the store file is corrupt or "
                    "hand-edited";
        return report;  // table iteration below assumes consistent shape
    }

    range_check(model.vdd, 0.0, 10.0, "vdd [V]", report);
    range_check(model.dv_margin, 0.0, model.vdd > 0.0 ? model.vdd : 10.0,
                "dv_margin [V]", report);
    range_check(model.temp_c, -100.0, 400.0, "temp_c [degC]", report);

    std::set<std::string> seen;
    std::vector<std::string> all_names = model.pins;
    all_names.insert(all_names.end(), model.fixed_pins.begin(),
                     model.fixed_pins.end());
    all_names.insert(all_names.end(), model.internals.begin(),
                     model.internals.end());
    for (const std::string& pin : all_names) {
        if (!seen.insert(pin).second) {
            Diagnostic& diag = report.add(
                Severity::kError, "model.duplicate-pin",
                "model '" + cell + "' declares '" + pin +
                    "' more than once across pins/fixed/internals");
            diag.nodes.push_back(pin);
        }
    }
    for (std::size_t i = 0; i < model.fixed_values.size(); ++i) {
        if (!std::isfinite(model.fixed_values[i]))
            report.add(Severity::kError, "model.physical-range",
                       "model '" + cell + "' fixed pin '" +
                           model.fixed_pins[i] + "' held at non-finite " +
                           "voltage");
    }

    // Walk the table list. check_consistent passed, so every table has
    // axes and values, and every D-dimensional table shares i_out's axes:
    // those are audited once, each 1-D Cin axis on its own.
    const double vdd = std::isfinite(model.vdd) ? model.vdd : 0.0;
    const std::vector<core::TableRole> roles = model.roles();
    const std::vector<const lut::NdTable*> tables = model.tables();
    audit_axes(*tables.front(), "model '" + cell + "' shared", vdd, report);
    for (std::size_t i = 0; i < tables.size(); ++i) {
        const core::TableRole& role = roles[i];
        const lut::NdTable& t = *tables[i];
        const std::string name = model.table_name(role);
        const std::string label = cell + "." + name;
        const bool input_cap = role.kind == core::TableRole::Kind::kInputCap;
        if (input_cap) audit_axes(t, "table '" + label + "'", vdd, report);
        audit_values(t, label, report);

        // Grounded capacitances (Co, C_N, Cin) should not dip
        // (meaningfully) below zero; Miller tables are excluded (their sign
        // convention is bias-dependent).
        constexpr double kCapTol = -1e-18;  // transient-extraction noise
        if ((input_cap || role.grounded()) && min_value(t) < kCapTol) {
            Diagnostic& diag = report.add(
                Severity::kWarning, "model.negative-capacitance",
                "model '" + cell + "' " + name + " dips to " +
                    std::to_string(min_value(t)) + " F");
            diag.hint = "sizeable negative grounded capacitance usually "
                        "means a broken cap extraction";
        }
    }
    return report;
}

LintReport audit_surface(const serve::ArcSurfaceData& surface) {
    LintReport report;
    const std::string arc =
        surface.arc_id.empty() ? "<unnamed-arc>" : surface.arc_id;
    if (surface.arc_id.empty())
        report.add(Severity::kWarning, "surface.bad-parameters",
                   "surface has an empty arc id");
    if (!(std::isfinite(surface.dt) && surface.dt > 0.0) ||
        !(std::isfinite(surface.settle) && surface.settle > 0.0)) {
        Diagnostic& diag = report.add(
            Severity::kError, "surface.bad-parameters",
            "surface '" + arc + "' has dt = " + std::to_string(surface.dt) +
                ", settle = " + std::to_string(surface.settle) +
                " (both must be finite and > 0)");
        diag.hint = "the parameter block is corrupt; delete the file and "
                    "let the service rebuild it";
    }
    report.merge(audit_table(surface.delay, arc + ".delay"));
    report.merge(audit_table(surface.slew, arc + ".slew"));
    // Output slews are 10-90% transition times: strictly positive in any
    // physical surface. (Delays may legitimately be negative -- they are
    // referenced to pin 0's edge, not the latest edge.)
    if (!surface.slew.values().empty() && min_value(surface.slew) <= 0.0) {
        Diagnostic& diag = report.add(
            Severity::kError, "surface.nonpositive-slew",
            "surface '" + arc + "' slew table dips to " +
                std::to_string(min_value(surface.slew)) + " s");
        diag.hint = "a non-positive transition time cannot come from a "
                    "converged transient; rebuild the surface";
    }
    return report;
}

LintReport audit_file(const std::string& path) {
    LintReport report;
    const auto unreadable = [&](const std::string& what) {
        Diagnostic& diag = report.add(Severity::kError, "store.unreadable",
                                      path + ": " + what);
        diag.hint = "the file is corrupt, truncated, or not a store file; "
                    "delete it and let the repository rebuild it";
    };
    try {
        if (ends_with(path, serve::kPackExt)) {
            const auto pack = serve::MappedPack::map(path);
            for (const std::string& name : pack->model_names())
                report.merge(audit_model(pack->materialize_model(name)));
            for (const std::string& name : pack->surface_names()) {
                const serve::MappedSurface& s = *pack->find_surface(name);
                report.merge(audit_surface(serve::ArcSurfaceData{
                    std::string(s.arc_id), s.dt, s.settle, s.model_check,
                    lut::NdTable(s.delay), lut::NdTable(s.slew)}));
            }
        } else {
            unreadable("unknown store extension (expected .mcsmpack)");
        }
    } catch (const ModelError& e) {
        unreadable(e.what());
    }
    // Prefix every diagnostic with the file it came from.
    LintReport prefixed;
    for (Diagnostic d : report.diagnostics()) {
        if (d.message.compare(0, path.size(), path) != 0)
            d.message = path + ": " + d.message;
        prefixed.add(std::move(d));
    }
    return prefixed;
}

LintReport audit_path(const std::string& path) {
    LintReport report;
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
        std::vector<std::string> files;
        for (const auto& entry : fs::directory_iterator(path, ec)) {
            if (!entry.is_regular_file()) continue;
            const std::string p = entry.path().string();
            if (ends_with(p, serve::kPackExt)) files.push_back(p);
        }
        std::sort(files.begin(), files.end());
        for (const std::string& f : files) report.merge(audit_file(f));
        report.add(Severity::kInfo, "store.scanned",
                   path + ": audited " + std::to_string(files.size()) +
                       " store file(s)");
        return report;
    }
    if (fs::is_regular_file(path, ec)) return audit_file(path);
    Diagnostic& diag = report.add(Severity::kError, "store.unreadable",
                                  path + ": no such file or directory");
    diag.hint = "pass a store file or a directory of store files";
    return report;
}

}  // namespace mcsm::analysis
