// Static-analysis subsystem tests: a corpus of deliberately defective
// models, surfaces and store files, each asserting that exactly the right
// rule fires (and that nothing fires on a clean one). Also covers the
// hardened pack load path and the repository's admission gate.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/model_audit.h"
#include "common/error.h"
#include "serve/mapped_store.h"
#include "serve/repository.h"

namespace mcsm::analysis {
namespace {

namespace fs = std::filesystem;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string what_of(const std::function<void()>& f) {
    try {
        f();
    } catch (const ModelError& e) {
        return e.what();
    }
    return {};
}

// --- model audit ---------------------------------------------------------

// Builds every table of `m` through the model's table list: the
// D-dimensional ones over `axes`, each Cin over its pin on `pin_knots`.
void build_tables(core::CsmModel& m, const std::vector<lut::Axis>& axes,
                  const std::vector<double>& pin_knots) {
    const std::vector<core::TableRole> roles = m.roles();
    const std::vector<lut::NdTable*> tables = m.reset_tables();
    for (std::size_t i = 0; i < tables.size(); ++i) {
        const core::TableRole& r = roles[i];
        *tables[i] =
            r.kind == core::TableRole::Kind::kInputCap
                ? lut::NdTable({lut::Axis(m.pins[r.a], pin_knots)},
                               m.table_name(r))
                : lut::NdTable(axes, m.table_name(r));
    }
}

const std::vector<double> kRailKnots = {-0.12, 0.0, 0.6, 1.2, 1.32};

// Minimal shape-consistent SIS model with rail-covering axes; the knobs
// let each test seed exactly one defect.
core::CsmModel make_sis_model(double vdd = 1.2) {
    core::CsmModel m;
    m.kind = core::ModelKind::kSis;
    m.cell_name = "TEST_INV";
    m.vdd = vdd;
    m.dv_margin = 0.12;
    m.pins = {"A"};
    build_tables(m, {lut::Axis("A", kRailKnots), lut::Axis("out", kRailKnots)},
                 kRailKnots);
    return m;
}

// make_sis_model with every 2-D table on an output axis that stops at
// 0.9 V: the shape is consistent, but the 1.2 V rail is outside the grid.
core::CsmModel make_short_out_model() {
    core::CsmModel m = make_sis_model();
    build_tables(m,
                 {lut::Axis("A", kRailKnots),
                  lut::Axis("out", {0.0, 0.45, 0.9})},
                 kRailKnots);
    return m;
}

// Two-pin MCSM model with one stack node N: every family of the list
// holds at least one table.
core::CsmModel make_mcsm_model() {
    core::CsmModel m;
    m.kind = core::ModelKind::kMcsm;
    m.cell_name = "TEST_NAND2";
    m.vdd = 1.2;
    m.dv_margin = 0.12;
    m.pins = {"A", "B"};
    m.internals = {"N"};
    build_tables(m,
                 {lut::Axis("A", kRailKnots), lut::Axis("B", kRailKnots),
                  lut::Axis("N", kRailKnots), lut::Axis("out", kRailKnots)},
                 kRailKnots);
    return m;
}

TEST(ModelAudit, CleanModelPasses) {
    const LintReport report = audit_model(make_sis_model());
    EXPECT_TRUE(report.empty()) << report.format();
}

TEST(ModelAudit, NanPayloadFires) {
    core::CsmModel m = make_sis_model();
    m.i_out.set_grid_value(std::vector<std::size_t>{2, 2}, std::nan(""));
    const LintReport report = audit_model(m);
    ASSERT_TRUE(report.fired("table.nonfinite-value")) << report.format();
    const Diagnostic* d = report.by_rule("table.nonfinite-value")[0];
    EXPECT_NE(d->message.find("Io"), std::string::npos);
}

TEST(ModelAudit, RequireCleanThrowsWithContext) {
    core::CsmModel m = make_sis_model();
    m.i_out.set_grid_value(std::vector<std::size_t>{0, 0}, kInf);
    const LintReport report = audit_model(m);
    const std::string what =
        what_of([&] { report.require_clean("UnitTest[TEST_INV]"); });
    EXPECT_NE(what.find("UnitTest[TEST_INV]"), std::string::npos) << what;
    EXPECT_NE(what.find("table.nonfinite-value"), std::string::npos) << what;
}

TEST(ModelAudit, KnotCoverageFires) {
    // The short axis is shared by every 2-D table: one diagnostic.
    const LintReport report = audit_model(make_short_out_model());
    EXPECT_TRUE(report.fired("model.knot-coverage")) << report.format();
    EXPECT_EQ(report.size(), 1u) << report.format();
}

TEST(ModelAudit, PhysicalRangeFires) {
    core::CsmModel bad_vdd = make_sis_model();
    bad_vdd.vdd = -1.0;
    EXPECT_TRUE(audit_model(bad_vdd).fired("model.physical-range"));

    core::CsmModel bad_temp = make_sis_model();
    bad_temp.temp_c = 1000.0;
    EXPECT_TRUE(audit_model(bad_temp).fired("model.physical-range"));
}

TEST(ModelAudit, DuplicatePinFires) {
    core::CsmModel m = make_sis_model();
    m.fixed_pins = {"A"};  // already a switching pin
    m.fixed_values = {0.0};
    EXPECT_TRUE(audit_model(m).fired("model.duplicate-pin"));
}

TEST(ModelAudit, InconsistentShapeShortCircuits) {
    core::CsmModel m = make_sis_model();
    m.c_in.clear();  // rank bookkeeping now disagrees with pins
    const LintReport report = audit_model(m);
    ASSERT_TRUE(report.fired("model.inconsistent-shape")) << report.format();
    // Shape errors end the audit: no table iteration over a broken layout.
    EXPECT_EQ(report.size(), 1u);
}

TEST(ModelAudit, NegativeCapacitanceWarns) {
    core::CsmModel m = make_sis_model();
    m.c_out.set_grid_value(std::vector<std::size_t>{1, 1}, -1e-15);
    const LintReport report = audit_model(m);
    EXPECT_TRUE(report.fired("model.negative-capacitance"))
        << report.format();
    EXPECT_EQ(report.error_count(), 0u);  // warning, not rejection
}

TEST(ModelAudit, NegativeStackNodeCapacitanceWarns) {
    core::CsmModel m = make_mcsm_model();
    ASSERT_TRUE(audit_model(m).empty()) << audit_model(m).format();
    m.c_internal[0].set_grid_value(std::vector<std::size_t>{1, 1, 1, 1},
                                   -1e-15);
    const LintReport report = audit_model(m);
    const auto warnings = report.by_rule("model.negative-capacitance");
    ASSERT_EQ(warnings.size(), 1u) << report.format();
    EXPECT_NE(warnings[0]->message.find("C_N"), std::string::npos)
        << warnings[0]->message;
    EXPECT_EQ(report.size(), 1u) << report.format();
}

TEST(ModelAudit, LabelsTablesByCanonicalName) {
    core::CsmModel m = make_mcsm_model();
    m.c_miller_internal[0].set_grid_value(
        std::vector<std::size_t>{2, 2, 2, 2}, std::nan(""));
    const LintReport report = audit_model(m);
    const auto errors = report.by_rule("table.nonfinite-value");
    ASSERT_EQ(errors.size(), 1u) << report.format();
    EXPECT_NE(errors[0]->message.find("'TEST_NAND2.Cm_A_N'"),
              std::string::npos)
        << errors[0]->message;
}

// --- surface audit -------------------------------------------------------

serve::ArcSurfaceData make_surface() {
    serve::ArcSurfaceData s;
    s.arc_id = "INV.SIS.A";
    s.dt = 1e-12;
    s.settle = 1e-9;
    const lut::Axis slew("slew_in", {1e-12, 1e-11, 1e-10});
    const lut::Axis load("cload", {1e-15, 5e-15, 2e-14});
    s.delay = lut::NdTable({slew, load}, "delay");
    s.slew = lut::NdTable({slew, load}, "slew");
    s.slew.fill([](std::span<const double>) { return 2e-11; });
    s.delay.fill([](std::span<const double>) { return -3e-12; });
    return s;
}

TEST(SurfaceAudit, CleanSurfacePasses) {
    // Note the negative delay values: legitimate (pin-0-referenced).
    const LintReport report = audit_surface(make_surface());
    EXPECT_TRUE(report.empty()) << report.format();
}

TEST(SurfaceAudit, NonpositiveSlewFires) {
    serve::ArcSurfaceData s = make_surface();
    s.slew.set_grid_value(std::vector<std::size_t>{1, 1}, 0.0);
    EXPECT_TRUE(audit_surface(s).fired("surface.nonpositive-slew"));
}

TEST(SurfaceAudit, BadParametersFire) {
    serve::ArcSurfaceData s = make_surface();
    s.dt = 0.0;
    EXPECT_TRUE(audit_surface(s).fired("surface.bad-parameters"));
}

// --- store-file audits ---------------------------------------------------

class TempDir {
public:
    TempDir() {
        static std::atomic<unsigned> counter{0};
        dir_ = fs::temp_directory_path() /
               ("mcsm_analysis_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter++));
        fs::create_directories(dir_);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string path(const std::string& name) const {
        return (dir_ / name).string();
    }
    std::string root() const { return dir_.string(); }

private:
    fs::path dir_;
};

// Publishes a single-entry model pack, as the repository's write-back does.
void write_model_pack(const std::string& path, const core::CsmModel& m) {
    serve::PackWriter writer;
    writer.add_model("X.SIS.A", m);
    writer.write(path);
}

TEST(StoreAudit, TruncatedFileIsReportedNotThrown) {
    TempDir tmp;
    const std::string path = tmp.path("X.SIS.A.mcsmpack");
    write_model_pack(path, make_sis_model());
    // Chop the file mid-payload.
    std::string bytes;
    {
        std::ifstream is(path, std::ios::binary);
        std::stringstream ss;
        ss << is.rdbuf();
        bytes = ss.str();
    }
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
    }
    const LintReport report = audit_file(path);
    ASSERT_TRUE(report.fired("store.unreadable")) << report.format();
    EXPECT_NE(report.by_rule("store.unreadable")[0]->message.find(path),
              std::string::npos);
}

TEST(StoreAudit, DirectoryScanMixesCleanAndBroken) {
    TempDir tmp;
    write_model_pack(tmp.path("GOOD.SIS.A.mcsmpack"), make_sis_model());
    {
        std::ofstream os(tmp.path("BAD.SIS.A.mcsmpack"), std::ios::binary);
        os << "not a store file";
    }
    const LintReport report = audit_path(tmp.root());
    EXPECT_TRUE(report.fired("store.scanned")) << report.format();
    EXPECT_EQ(report.error_count(), 1u) << report.format();
    EXPECT_TRUE(report.fired("store.unreadable"));
}

TEST(StoreAudit, EveryPackEntryIsAudited) {
    // A pack that maps cleanly can still hold a defective entry: the
    // auditor checks each model and surface, not just the container.
    TempDir tmp;
    const std::string path = tmp.path("served.mcsmpack");
    serve::ArcSurfaceData surface = make_surface();
    surface.slew.set_grid_value(std::vector<std::size_t>{1, 1}, 0.0);
    serve::PackWriter writer;
    writer.add_model("X.SIS.A", make_sis_model());
    writer.add_surface(surface.arc_id, surface);
    writer.write(path);
    const LintReport report = audit_path(path);
    EXPECT_TRUE(report.fired("surface.nonpositive-slew")) << report.format();
    EXPECT_EQ(report.error_count(), 1u) << report.format();
}

TEST(StoreAudit, MissingPathIsAnError) {
    EXPECT_TRUE(audit_path("/nonexistent/mcsm/store")
                    .fired("store.unreadable"));
}

// --- hardened load paths -------------------------------------------------

// A pack whose model entry the writer accepts (encode_model checks shape
// only) but map-time validation must refuse.
std::string map_error_of(const core::CsmModel& m) {
    TempDir tmp;
    const std::string path = tmp.path("m.mcsmpack");
    write_model_pack(path, m);
    return what_of([&] { serve::MappedPack::map(path); });
}

TEST(LoadHardening, BinaryModelRejectsNanPayload) {
    core::CsmModel m = make_sis_model();
    m.i_out.set_grid_value(std::vector<std::size_t>{1, 1}, std::nan(""));
    const std::string what = map_error_of(m);
    EXPECT_NE(what.find("not finite"), std::string::npos) << what;
}

TEST(LoadHardening, BinaryModelRejectsBadVdd) {
    core::CsmModel m = make_sis_model();
    m.vdd = kInf;
    const std::string what = map_error_of(m);
    EXPECT_NE(what.find("vdd"), std::string::npos) << what;
}

// --- repository admission gate -------------------------------------------

TEST(RepositoryLint, DefectiveStoreModelIsRejectedOnLoad) {
    TempDir tmp;
    // Parses and maps fine (finite, monotone, shape-consistent) but audits
    // dirty: the output axis misses the rail, so only the admission audit
    // can catch it.
    const core::CsmModel m = make_short_out_model();
    const serve::ModelKey key = serve::ModelKey::arc("TEST_INV", {"A"});

    serve::RepositoryOptions opt;
    opt.dir = tmp.root();
    serve::ModelRepository repo(nullptr, opt);
    // put() runs the same gate: the defective model must not enter.
    EXPECT_THROW(repo.put(key, m), ModelError);
    EXPECT_FALSE(repo.cached(key));

    // Published behind the repository's back as the key's store file.
    serve::PackWriter writer;
    writer.add_model(key.to_string(), m);
    writer.write(repo.store_path(key));

    const std::string what = what_of([&] { repo.get(key); });
    EXPECT_NE(what.find("ModelRepository[TEST_INV.SIS.A]"), std::string::npos)
        << what;
    EXPECT_NE(what.find("model.knot-coverage"), std::string::npos) << what;
    EXPECT_FALSE(repo.cached(key));  // failed audits are never cached
}

TEST(RepositoryLint, CleanModelPassesTheGate) {
    TempDir tmp;
    serve::RepositoryOptions opt;
    opt.dir = tmp.root();
    serve::ModelRepository repo(nullptr, opt);
    const serve::ModelKey key = serve::ModelKey::arc("TEST_INV", {"A"});
    repo.put(key, make_sis_model());
    EXPECT_EQ(repo.get(key)->cell_name, "TEST_INV");
}

}  // namespace
}  // namespace mcsm::analysis
