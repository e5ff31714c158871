// mcsm_lint: standalone pre-flight auditor for MCSM store artifacts.
//
// Walks the given .mcsmpack packs (every model and surface entry) or
// directories of them through analysis::audit_path and prints every
// diagnostic -- severity, rule id, offending objects, fix hint. The same
// checks gate every model ModelRepository admits; this tool runs them
// without a serving process, e.g. in CI over a model store artifact.
//
//   usage: mcsm_lint [--strict] [--demo] [path ...]
//     path      .mcsmpack pack or directory of packs
//     --strict  non-zero exit on warnings too, not just errors
//     --demo    lint built-in demonstration artifacts instead of (or in
//               addition to) paths: a defective netlist, a clean netlist,
//               and a NaN-poisoned model. Needs no files; the CI smoke
//               test runs this mode.
//
//   exit status: 0 clean, 1 diagnostics at the gating severity, 2 usage
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "analysis/circuit_lint.h"
#include "analysis/model_audit.h"
#include "lut/axis.h"
#include "spice/circuit.h"
#include "spice/source_spec.h"

using namespace mcsm;

namespace {

constexpr const char* kUsage =
    "usage: mcsm_lint [--strict] [--demo] [path ...]\n"
    "  path      .mcsmpack pack or a directory of them\n"
    "  --strict  exit 1 on warnings too, not just errors\n"
    "  --demo    lint built-in demonstration artifacts (no files needed)\n";

void print_report(const char* title, const analysis::LintReport& report) {
    std::printf("== %s\n", title);
    if (report.empty()) {
        std::printf("   clean (no diagnostics)\n");
    } else {
        for (const analysis::Diagnostic& d : report.diagnostics())
            std::printf("   %s\n", d.format().c_str());
    }
    std::printf("   %zu error(s), %zu warning(s)\n\n", report.error_count(),
                report.warning_count());
}

// A netlist seeded with most of the defect classes the linter knows:
// floating and dangling nodes, a voltage-source loop, nonphysical element
// values, a capacitively-suspended node with no DC path, and a structurally
// singular MNA pattern (a node fed only by a current source).
analysis::LintReport lint_defective_demo() {
    spice::Circuit c;
    const int in = c.node("in");
    const int out = c.node("out");
    c.node("nowhere");  // floating: no device terminal ever touches it
    const int island = c.node("island");
    const int cap_only = c.node("cap_only");

    c.add_vsource("Vin", in, spice::Circuit::kGround,
                  spice::SourceSpec::dc(1.2));
    // Same two terminals as Vin: an ideal-source loop (and a singular MNA).
    c.add_vsource("Vdup", in, spice::Circuit::kGround,
                  spice::SourceSpec::dc(1.1));
    // Negative values are rejected at construction; non-finite ones slip
    // through the ctor guards (inf > 0) and only the linter names them.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    c.add_resistor("Rinf", in, out, kInf);
    c.add_capacitor("Cinf", out, spice::Circuit::kGround, kInf);
    c.add_capacitor("Czero", out, spice::Circuit::kGround, 0.0);
    // cap_only hangs off `out` through a capacitor alone: no DC path.
    c.add_capacitor("Chang", out, cap_only, 1e-15);
    // island is driven only by a current source: its MNA row is empty at
    // DC and in transient -- the structural-singularity detector names it.
    c.add_isource("Ifloat", island, spice::Circuit::kGround,
                  spice::SourceSpec::dc(1e-6));
    return analysis::lint_circuit(c);
}

// The same rules on a healthy RC divider: must stay silent.
analysis::LintReport lint_clean_demo() {
    spice::Circuit c;
    const int in = c.node("in");
    const int mid = c.node("mid");
    c.add_vsource("Vin", in, spice::Circuit::kGround,
                  spice::SourceSpec::dc(1.2));
    c.add_resistor("R1", in, mid, 1e3);
    c.add_resistor("R2", mid, spice::Circuit::kGround, 1e3);
    c.add_capacitor("C1", mid, spice::Circuit::kGround, 1e-15);
    return analysis::lint_circuit(c);
}

// A shape-consistent SIS model poisoned with a NaN payload value and a
// grid that misses the upper rail: what a corrupt or mis-characterized
// store entry looks like to audit_model.
analysis::LintReport lint_poisoned_model_demo() {
    core::CsmModel m;
    m.kind = core::ModelKind::kSis;
    m.cell_name = "DEMO_INV";
    m.vdd = 1.2;
    m.dv_margin = 0.12;
    m.pins = {"A"};

    const lut::Axis va("A", {-0.12, 0.0, 0.6, 1.2, 1.32});
    // Covers only [0, 0.9] V: fails the rail-coverage rule at vdd = 1.2.
    // Every 2-D table of the model's table list shares it, as the model's
    // shape requires; the 1-D Cin table spans the pin axis.
    const lut::Axis vo_short("out", {0.0, 0.45, 0.9});
    const std::vector<core::TableRole> roles = m.roles();
    const std::vector<lut::NdTable*> tables = m.reset_tables();
    for (std::size_t i = 0; i < tables.size(); ++i) {
        const bool input_cap =
            roles[i].kind == core::TableRole::Kind::kInputCap;
        *tables[i] = input_cap
                         ? lut::NdTable({va}, m.table_name(roles[i]))
                         : lut::NdTable({va, vo_short}, m.table_name(roles[i]));
    }
    m.i_out.set_grid_value(std::vector<std::size_t>{1, 1},
                           std::nan(""));  // poisoned payload
    return analysis::audit_model(m);
}

}  // namespace

int main(int argc, char** argv) {
    bool strict = false;
    bool demo = false;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--strict") == 0) {
            strict = true;
        } else if (std::strcmp(argv[i], "--demo") == 0) {
            demo = true;
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::fputs(kUsage, stdout);
            return 0;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "mcsm_lint: unknown option %s\n%s", argv[i],
                         kUsage);
            return 2;
        } else {
            paths.emplace_back(argv[i]);
        }
    }
    if (!demo && paths.empty()) {
        std::fputs(kUsage, stderr);
        return 2;
    }

    std::size_t errors = 0;
    std::size_t warnings = 0;
    const auto tally = [&](const analysis::LintReport& r) {
        errors += r.error_count();
        warnings += r.warning_count();
    };

    if (demo) {
        const analysis::LintReport defective = lint_defective_demo();
        print_report("demo: defective netlist", defective);
        const analysis::LintReport clean = lint_clean_demo();
        print_report("demo: clean RC netlist", clean);
        const analysis::LintReport poisoned = lint_poisoned_model_demo();
        print_report("demo: NaN-poisoned SIS model", poisoned);
        // The demo demonstrates the rules; it only fails the run when the
        // linter itself misbehaves (missed defects or false positives).
        if (defective.error_count() == 0 || !clean.empty() ||
            !poisoned.fired("table.nonfinite-value") ||
            !poisoned.fired("model.knot-coverage")) {
            std::fprintf(stderr,
                         "mcsm_lint: demo expectations violated "
                         "(defective=%zu clean=%zu poisoned=%zu)\n",
                         defective.error_count(), clean.size(),
                         poisoned.error_count());
            return 1;
        }
    }

    for (const std::string& path : paths) {
        const analysis::LintReport report = analysis::audit_path(path);
        print_report(path.c_str(), report);
        tally(report);
    }

    std::printf("mcsm_lint: %zu error(s), %zu warning(s) across %zu path(s)%s\n",
                errors, warnings, paths.size(), demo ? " + demo" : "");
    if (errors > 0 || (strict && warnings > 0)) return 1;
    return 0;
}
