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
//     --demo    also audit a built-in NaN-poisoned model whose grid misses
//               the supply rail, and fail unless both defects are named.
//               Needs no files; the CI smoke test runs this mode.
//
//   exit status: 0 clean, 1 diagnostics at the gating severity, 2 usage
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/model_audit.h"
#include "lut/axis.h"

using namespace mcsm;

namespace {

constexpr const char* kUsage =
    "usage: mcsm_lint [--strict] [--demo] [path ...]\n"
    "  path      .mcsmpack pack or a directory of them\n"
    "  --strict  exit 1 on warnings too, not just errors\n"
    "  --demo    also audit a built-in defective model (no files needed)\n";

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
        const analysis::LintReport poisoned = lint_poisoned_model_demo();
        print_report("demo: NaN-poisoned SIS model", poisoned);
        // The demo demonstrates the rules; it only fails the run when the
        // auditor itself misbehaves (a seeded defect goes unnamed).
        if (!poisoned.fired("table.nonfinite-value") ||
            !poisoned.fired("model.knot-coverage")) {
            std::fprintf(stderr,
                         "mcsm_lint: demo expectations violated "
                         "(poisoned=%zu error(s))\n",
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
