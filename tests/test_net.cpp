// Network-tier tests: the wire-protocol codec (locale-proof from_chars
// parsing, shortest-round-trip result rendering), durable store plumbing
// (atomic publish, EXDEV fallback, orphan-temp cleanup / crash recovery),
// the mmap zero-parse pack (bit-exact round trip, corruption rejection,
// hot reload + generation retirement) and the socket server (concurrent
// pipelined clients bitwise-identical to in-process batches, control
// lines, admission, the line-length and connection caps, client-disconnect
// resilience, per-connection reply order, the cold lane -- warm answers
// during a cold build, failed productions, corrupt reloads -- and the
// bound on a non-reading client's buffered replies).
#include <gtest/gtest.h>

#include <clocale>
#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cells/library.h"
#include "common/error.h"
#include "common/fp_text.h"
#include "common/single_flight.h"
#include "core/characterizer.h"
#include "net/client.h"
#include "net/query_text.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/mapped_store.h"
#include "serve/repository.h"
#include "serve/timing_service.h"
#include "tech/tech130.h"

namespace mcsm::net {
namespace {

namespace fs = std::filesystem;
using serve::TimingQuery;
using serve::TimingResult;

core::CharOptions fast_options() {
    core::CharOptions opt;
    opt.transient_caps = false;
    opt.grid_points = 5;
    opt.cin_points = 5;
    opt.threads = 1;
    return opt;
}

// Publishes a single-entry model pack, as the repository's write-back does.
void write_model_pack(const fs::path& path, const std::string& name,
                      const core::CsmModel& model) {
    serve::PackWriter writer;
    writer.add_model(name, model);
    writer.write(path.string());
}

// Shared characterized models (expensive; characterize once per suite).
struct Shared {
    tech::Technology tech = tech::make_tech130();
    cells::CellLibrary lib{tech};
    core::CsmModel inv;
    core::CsmModel nor;

    static const Shared& get() {
        static Shared s;
        return s;
    }

private:
    Shared() {
        const core::Characterizer chr(lib);
        inv = chr.characterize("INV_X1", core::ModelKind::kSis, {"A"},
                               fast_options());
        nor = chr.characterize("NOR2", core::ModelKind::kMcsm, {"A", "B"},
                               fast_options());
    }
};

// Unique scratch directory per test, removed on scope exit.
struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag) {
        path = fs::temp_directory_path() /
               ("mcsm_net_" + tag + "_" + std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string str() const { return path.string(); }
};

// Small surface grid: socket tests need warm surfaces, not wide ones.
serve::ServeOptions small_serve_options() {
    serve::ServeOptions sopt;
    sopt.slew_knots = {30e-12, 200e-12};
    sopt.skew_knots = {-2.0, 0.0, 2.0};
    sopt.load_knots = {1e-15, 16e-15};
    return sopt;
}

TimingQuery mixed_query(std::size_t i) {
    TimingQuery q;
    if (i % 3 == 0) {
        q.cell = "INV_X1";
        q.pins = {"A"};
        q.slews = {(35 + 11.0 * (i % 13)) * 1e-12};
    } else {
        q.cell = "NOR2";
        q.pins = {"A", "B"};
        q.slews = {(40 + 7.0 * (i % 17)) * 1e-12,
                   (50 + 9.0 * (i % 11)) * 1e-12};
        q.skews = {0.0, (static_cast<double>(i % 9) - 4.0) * 20e-12};
    }
    q.inputs_rise = (i % 2) == 1;
    q.load_cap = (1.5 + 0.7 * static_cast<double>(i % 19)) * 1e-15;
    return q;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The socket tier counts in the process-wide obs registry, so tests assert
// deltas: the value moved since `before`, whatever earlier tests recorded.
long long net_count(const char* name) { return obs::counter(name).value(); }

// --- wire codec ---------------------------------------------------------

TEST(WireCodec, ParsesTheFullGrammar) {
    TimingQuery q;
    ASSERT_TRUE(parse_query_line(
        "NOR2 A,B fall 50,60.5 0,-20 3.25 pi=1.5:350:4 vdd=1.08 temp=85", q));
    EXPECT_EQ(q.cell, "NOR2");
    ASSERT_EQ(q.pins.size(), 2u);
    EXPECT_EQ(q.pins[0], "A");
    EXPECT_EQ(q.pins[1], "B");
    EXPECT_FALSE(q.inputs_rise);
    ASSERT_EQ(q.slews.size(), 2u);
    EXPECT_DOUBLE_EQ(q.slews[1], 60.5e-12);
    ASSERT_EQ(q.skews.size(), 2u);
    EXPECT_DOUBLE_EQ(q.skews[1], -20e-12);
    EXPECT_DOUBLE_EQ(q.load_cap, 3.25e-15);
    EXPECT_DOUBLE_EQ(q.c_near, 1.5e-15);
    EXPECT_DOUBLE_EQ(q.r_wire, 350.0);
    EXPECT_DOUBLE_EQ(q.c_far, 4e-15);
    EXPECT_DOUBLE_EQ(q.corner.vdd, 1.08);
    EXPECT_DOUBLE_EQ(q.corner.temp_c, 85.0);
    EXPECT_FALSE(q.exact);

    // A lone 0 in the skew field means simultaneous switching.
    ASSERT_TRUE(parse_query_line("NOR2 A,B rise 50,60 0 3 exact", q));
    EXPECT_TRUE(q.skews.empty());
    EXPECT_TRUE(q.exact);

    // Blank / comment lines parse to "nothing", not an error.
    EXPECT_FALSE(parse_query_line("", q));
    EXPECT_FALSE(parse_query_line("   ", q));
    EXPECT_FALSE(parse_query_line("# comment", q));

    // Malformed lines throw (truncated, bad direction, bad number,
    // trailing junk inside a number, unknown option).
    EXPECT_THROW(parse_query_line("INV_X1 A rise 50", q), ModelError);
    EXPECT_THROW(parse_query_line("INV_X1 A up 50 0 3", q), ModelError);
    EXPECT_THROW(parse_query_line("INV_X1 A rise x 0 3", q), ModelError);
    EXPECT_THROW(parse_query_line("INV_X1 A rise 50 0 3z", q), ModelError);
    EXPECT_THROW(parse_query_line("INV_X1 A rise 50 0 3 bogus=1", q),
                 ModelError);
    EXPECT_THROW(parse_query_line("INV_X1 A rise 50 0 inf", q), ModelError);
}

TEST(WireCodec, QueryLineRoundTripsThroughTheFormatter) {
    for (std::size_t i = 0; i < 40; ++i) {
        TimingQuery q = mixed_query(i);
        if (i % 5 == 0) {
            q.c_near = 1.5e-15;
            q.r_wire = 420.0;
            q.c_far = 3e-15;
        }
        if (i % 7 == 0) {
            q.corner.vdd = 1.08;
            q.corner.temp_c = 85.0;
        }
        if (i % 11 == 0) q.exact = true;
        const std::string line = format_query_line(q);
        TimingQuery back;
        ASSERT_TRUE(parse_query_line(line, back)) << line;
        EXPECT_EQ(back.cell, q.cell);
        EXPECT_EQ(back.pins, q.pins);
        EXPECT_EQ(back.inputs_rise, q.inputs_rise);
        EXPECT_EQ(back.exact, q.exact);
        ASSERT_EQ(back.slews.size(), q.slews.size());
        for (std::size_t k = 0; k < q.slews.size(); ++k)
            EXPECT_NEAR(back.slews[k], q.slews[k], 1e-9 * q.slews[k]);
        EXPECT_NEAR(back.load_cap, q.load_cap, 1e-9 * q.load_cap);
        EXPECT_NEAR(back.r_wire, q.r_wire, 1e-9 * (q.r_wire + 1));
        // vdd/temp travel unscaled, so shortest-round-trip rendering makes
        // them exact; ps/fF fields pick up one ULP from the unit scaling,
        // which the NEAR checks above allow.
        EXPECT_EQ(bits(back.corner.vdd), bits(q.corner.vdd));
        EXPECT_EQ(bits(back.corner.temp_c), bits(q.corner.temp_c));
    }
}

TEST(WireCodec, ResultLineRoundTripsBitwise) {
    const double quirks[] = {5e-324,  -5e-324, -0.0,    1e308,
                             3.141592653589793, 7.77e-16, 2.5e-11};
    std::uint64_t next_id = 0;
    for (double d : quirks) {
        for (double s : quirks) {
            TimingResult r;
            r.valid = true;
            r.delay = d;
            r.slew = s;
            r.path = (next_id % 2) == 0 ? serve::ResultPath::kLut
                                        : serve::ResultPath::kTransient;
            const std::uint64_t id = next_id++;
            std::uint64_t got_id = 0;
            const TimingResult back =
                parse_result_line(format_result_line(id, r), got_id);
            EXPECT_EQ(got_id, id);
            ASSERT_TRUE(back.valid);
            EXPECT_EQ(bits(back.delay), bits(r.delay));
            EXPECT_EQ(bits(back.slew), bits(r.slew));
            EXPECT_EQ(back.path, r.path);
        }
    }

    TimingResult err;
    err.valid = false;
    err.error = "model not found:\nmulti line";
    std::uint64_t got_id = 0;
    const TimingResult back =
        parse_result_line(format_result_line(17, err), got_id);
    EXPECT_EQ(got_id, 17u);
    EXPECT_FALSE(back.valid);
    EXPECT_EQ(back.error, "model not found: multi line");

    EXPECT_THROW(parse_result_line("ok x 1 2 lut", got_id), ModelError);
    EXPECT_THROW(parse_result_line("nope 1", got_id), ModelError);
    EXPECT_THROW(parse_result_line("ok 1 2 3 warp", got_id), ModelError);
}

// setlocale is process-global; always restore "C" (the gtest default) so
// a failing assertion cannot leak a comma locale into later tests.
struct LocaleGuard {
    ~LocaleGuard() { std::setlocale(LC_ALL, "C"); }
};

TEST(WireCodec, CommaLocaleDoesNotChangeTheWireFormat) {
    LocaleGuard guard;
    const char* candidates[] = {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                                "fr_FR.utf8",  "nl_NL.UTF-8", "de_DE",
                                "fr_FR"};
    const char* chosen = nullptr;
    for (const char* name : candidates) {
        if (std::setlocale(LC_ALL, name) != nullptr &&
            std::localeconv()->decimal_point[0] == ',') {
            chosen = name;
            break;
        }
    }
    if (chosen == nullptr)
        GTEST_SKIP() << "no comma-decimal locale installed";

    // The regression this guards: std::stod under a comma locale reads
    // "2.5" as 2 (radix mismatch). from_chars is locale-independent.
    double v = 0.0;
    EXPECT_TRUE(parse_double_token("2.5", v));
    EXPECT_EQ(v, 2.5);
    EXPECT_FALSE(parse_double_token("2,5", v));  // comma is never a radix

    TimingQuery q;
    ASSERT_TRUE(parse_query_line("INV_X1 A rise 50.5 0 2.5", q));
    EXPECT_EQ(q.load_cap, 2.5e-15);
    EXPECT_EQ(q.slews[0], 50.5e-12);

    TimingResult r;
    r.valid = true;
    r.delay = 1.25e-12;
    r.slew = 3.5e-11;
    const std::string line = format_result_line(3, r);
    EXPECT_EQ(line.find(','), std::string::npos) << line;
    std::uint64_t id = 0;
    const TimingResult back = parse_result_line(line, id);
    EXPECT_EQ(bits(back.delay), bits(r.delay));
    EXPECT_EQ(bits(back.slew), bits(r.slew));
}

// --- durable store plumbing ---------------------------------------------

TEST(Durability, AtomicSaveLeavesContentAndNoTemp) {
    TempDir dir("atomic");
    const std::string path = (dir.path / "blob.bin").string();
    serve::save_bytes_atomically(path, "payload-1");
    serve::save_bytes_atomically(path, "payload-2");  // atomic overwrite
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), "payload-2");
    for (const auto& entry : fs::directory_iterator(dir.path))
        EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                  std::string::npos);
}

TEST(Durability, CleanOrphanTempsHonorsAgeAndSparesRealFiles) {
    TempDir dir("orphans");
    std::ofstream(dir.path / "real.mcsmpack") << "keep";
    std::ofstream(dir.path / "dead.mcsmpack.tmp.1234") << "partial";
    std::ofstream(dir.path / "dead2.mcsmpack.tmp.77") << "partial";
    // A writer-in-flight temp must survive a min_age_s guard.
    EXPECT_EQ(serve::clean_orphan_temps(dir.str(), 3600), 0u);
    EXPECT_TRUE(fs::exists(dir.path / "dead.mcsmpack.tmp.1234"));
    // Aged-out orphans go; real files stay.
    EXPECT_EQ(serve::clean_orphan_temps(dir.str(), 0), 2u);
    EXPECT_FALSE(fs::exists(dir.path / "dead.mcsmpack.tmp.1234"));
    EXPECT_FALSE(fs::exists(dir.path / "dead2.mcsmpack.tmp.77"));
    EXPECT_TRUE(fs::exists(dir.path / "real.mcsmpack"));
    // Missing directory counts as empty, not an error.
    EXPECT_EQ(serve::clean_orphan_temps((dir.path / "nope").string(), 0), 0u);
}

TEST(Durability, CrashArtifactsAreNeverServed) {
    const Shared& s = Shared::get();
    TempDir dir("crash");
    const std::string key =
        serve::ModelKey::arc("INV_X1", {"A"}).to_string();
    const fs::path real = dir.path / (key + serve::kPackExt);
    write_model_pack(real, key, s.inv);
    // A crashed writer's partial file under a temp name: truncated bytes
    // of the real pack.
    std::string bytes;
    {
        std::ifstream in(real, std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        bytes = ss.str();
    }
    std::ofstream(dir.path / (key + ".mcsmpack.tmp.999"), std::ios::binary)
        << bytes.substr(0, bytes.size() / 2);

    // The pack builder skips in-flight/orphaned temps entirely.
    const serve::PackWriter w = serve::pack_from_dirs(dir.str(), "");
    EXPECT_EQ(w.entry_count(), 1u);

    // The repository constructor sweeps aged orphans; the real file loads.
    serve::RepositoryOptions ropt;
    ropt.dir = dir.str();
    serve::ModelRepository repo(&s.lib, ropt);
    const auto model = repo.get(serve::ModelKey::arc("INV_X1", {"A"}));
    EXPECT_EQ(serve::encode_model(*model), serve::encode_model(s.inv));
    EXPECT_EQ(repo.characterize_count(), 0u);
}

TEST(Durability, DurableReplaceFallsBackAcrossFilesystems) {
    TempDir dir("exdev");
    const fs::path shm = "/dev/shm";
    std::error_code ec;
    if (!fs::is_directory(shm, ec) || ec)
        GTEST_SKIP() << "/dev/shm not available";
    struct stat a{}, b{};
    ASSERT_EQ(::stat(shm.c_str(), &a), 0);
    ASSERT_EQ(::stat(dir.path.c_str(), &b), 0);
    if (a.st_dev == b.st_dev)
        GTEST_SKIP() << "/dev/shm shares a filesystem with the temp dir";

    const std::string tmp =
        (shm / ("mcsm_exdev_" + std::to_string(::getpid()))).string();
    std::ofstream(tmp, std::ios::binary) << "cross-device payload";
    const std::string dst = (dir.path / "landed.bin").string();
    serve::durable_replace_file(tmp, dst);  // rename fails EXDEV -> copy
    EXPECT_FALSE(fs::exists(tmp));
    std::ifstream in(dst, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), "cross-device payload");
}

// --- mmap zero-parse pack -----------------------------------------------

lut::NdTable quirk_table(const std::string& name) {
    lut::NdTable t({lut::Axis("slew", {20e-12, 80e-12, 200e-12}),
                    lut::Axis("load", {1e-15, 8e-15})},
                   name);
    const double vals[] = {5e-324, -0.0, 1e-300, 3.14, -2e-9, 7.7e-16};
    std::size_t i = 0;
    t.for_each_grid_point([&](std::span<const std::size_t>,
                              std::span<const double>, double& slot) {
        slot = vals[i++ % (sizeof vals / sizeof vals[0])];
    });
    return t;
}

serve::ArcSurfaceData quirk_surface(const std::string& arc_id,
                                    std::uint64_t model_check) {
    serve::ArcSurfaceData s;
    s.arc_id = arc_id;
    s.dt = 2e-12;
    s.settle = 2e-9;
    s.model_check = model_check;
    s.delay = quirk_table("delay");
    s.slew = quirk_table("slew");
    return s;
}

TEST(Pack, RoundTripIsBitExactAndEvaluatesZeroParse) {
    const Shared& s = Shared::get();
    TempDir dir("pack");
    const std::string path = (dir.path / ("p" + std::string(serve::kPackExt)))
                                 .string();
    const std::uint64_t check = serve::model_checksum(s.inv);

    serve::PackWriter writer;
    writer.add_model("INV_X1.SIS.A", s.inv);
    writer.add_surface("arc0", quirk_surface("arc0", check));
    EXPECT_THROW(writer.add_model("INV_X1.SIS.A", s.inv), ModelError);
    writer.write(path);

    const auto pack = serve::MappedPack::map(path);
    EXPECT_EQ(pack->model_count(), 1u);
    EXPECT_EQ(pack->surface_count(), 1u);
    EXPECT_EQ(pack->model_check("INV_X1.SIS.A"), check);
    EXPECT_EQ(pack->model_check("absent"), 0u);
    EXPECT_EQ(serve::encode_model(pack->materialize_model("INV_X1.SIS.A")),
              serve::encode_model(s.inv));

    const serve::MappedSurface* surf = pack->find_surface("arc0");
    ASSERT_NE(surf, nullptr);
    EXPECT_EQ(surf->arc_id, "arc0");
    EXPECT_EQ(surf->model_check, check);
    const lut::NdTable owned = quirk_table("delay");
    const lut::TableView owned_view = lut::TableView::of(owned);
    ASSERT_EQ(surf->delay.rank(), owned_view.rank());
    for (std::size_t d = 0; d < owned_view.rank(); ++d) {
        EXPECT_EQ(surf->delay.axis(d).name, owned_view.axis(d).name);
        ASSERT_EQ(surf->delay.axis(d).size(), owned_view.axis(d).size());
        for (std::size_t k = 0; k < owned_view.axis(d).size(); ++k)
            EXPECT_EQ(bits(surf->delay.axis(d).knots[k]),
                      bits(owned_view.axis(d).knots[k]));
    }
    ASSERT_EQ(surf->delay.values().size(), owned_view.values().size());
    for (std::size_t k = 0; k < owned_view.values().size(); ++k)
        EXPECT_EQ(bits(surf->delay.values()[k]),
                  bits(owned_view.values()[k]));
    // Owned table and mapped view run the SAME interpolation kernel:
    // off-grid lookups are bitwise identical.
    const double x[] = {47e-12, 3.3e-15};
    EXPECT_EQ(bits(surf->delay.at(x)), bits(owned_view.at(x)));
}

TEST(Pack, RejectsCorruptionTruncationAndBadMagic) {
    const Shared& s = Shared::get();
    TempDir dir("packcorrupt");
    const std::string path = (dir.path / "p.mcsmpack").string();
    serve::PackWriter writer;
    writer.add_model("m", s.inv);
    writer.add_surface("a", quirk_surface("a", serve::model_checksum(s.inv)));
    writer.write(path);

    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string good = ss.str();
    ASSERT_TRUE(serve::MappedPack::map(path) != nullptr);

    const auto write_bytes = [&](const std::string& bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    };
    // One flipped byte in the magic, a payload, or the directory fails
    // the map-time validation. (Header-page padding bytes are outside the
    // checksummed regions, so corruption there is harmless by design.)
    for (const std::size_t pos :
         {std::size_t{3}, good.size() / 2, good.size() - 9}) {
        std::string bad = good;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
        write_bytes(bad);
        EXPECT_THROW(serve::MappedPack::map(path), ModelError) << pos;
    }
    write_bytes(good.substr(0, good.size() - 128));  // truncated
    EXPECT_THROW(serve::MappedPack::map(path), ModelError);
    write_bytes(good.substr(0, 100));  // shorter than the header page
    EXPECT_THROW(serve::MappedPack::map(path), ModelError);
    EXPECT_THROW(serve::MappedPack::map((dir.path / "absent").string()),
                 ModelError);
    write_bytes(good);
    EXPECT_TRUE(serve::MappedPack::map(path) != nullptr);
}

TEST(Pack, SameDirectoryForModelsAndSurfacesPacksEachEntryOnce) {
    const Shared& s = Shared::get();
    TempDir dir("packsame");
    const std::string key = serve::ModelKey::arc("INV_X1", {"A"}).to_string();
    write_model_pack(dir.path / (key + serve::kPackExt), key, s.inv);
    {
        const std::string arc = "INV_X1|A|F";
        serve::PackWriter w;
        w.add_surface(arc, quirk_surface(arc, serve::model_checksum(s.inv)));
        w.write((dir.path / "INV_X1.A.F.mcsmpack").string());
    }
    const serve::PackWriter merged =
        serve::pack_from_dirs(dir.str(), dir.str());
    EXPECT_EQ(merged.entry_count(), 2u);
    TempDir out("packsame_out");
    const std::string path = (out.path / "p.mcsmpack").string();
    merged.write(path);
    const auto pack = serve::MappedPack::map(path);
    EXPECT_EQ(pack->model_count(), 1u);
    EXPECT_EQ(pack->surface_count(), 1u);
    // Entries travel verbatim: the merged model is still the same bytes.
    EXPECT_EQ(pack->model_check(key), serve::model_checksum(s.inv));
    EXPECT_EQ(serve::encode_model(pack->materialize_model(key)),
              serve::encode_model(s.inv));
}

TEST(Pack, HotReloadSwapsGenerationsAndRetiresOldMappings) {
    const Shared& s = Shared::get();
    TempDir dir("packreload");
    const std::string path = (dir.path / "p.mcsmpack").string();
    const std::uint64_t check = serve::model_checksum(s.inv);

    serve::PackWriter w1;
    w1.add_model("m", s.inv);
    w1.add_surface("a", quirk_surface("a", check));
    w1.write(path);

    const auto host = std::make_shared<serve::PackHost>(path);
    EXPECT_EQ(host->generation(), 1u);
    const auto old = host->current();
    EXPECT_FALSE(host->refresh());  // unchanged file: no swap
    EXPECT_EQ(host->generation(), 1u);

    serve::PackWriter w2;
    w2.add_model("m", s.inv);
    w2.add_surface("a", quirk_surface("a", check));
    w2.add_surface("b", quirk_surface("b", check));
    w2.write(path);
    EXPECT_TRUE(host->refresh());
    EXPECT_EQ(host->generation(), 2u);
    const auto fresh = host->current();
    EXPECT_NE(fresh.get(), old.get());
    EXPECT_EQ(fresh->surface_count(), 2u);

    // The retired mapping stays fully usable for its holders.
    EXPECT_EQ(old->surface_count(), 1u);
    ASSERT_NE(old->find_surface("a"), nullptr);
    EXPECT_EQ(old->model_check("m"), check);

    // A botched replacement (corrupt bytes under the pack path) must keep
    // the current mapping serving.
    serve::save_bytes_atomically(path, "garbage, not a pack");
    EXPECT_FALSE(host->refresh());
    EXPECT_EQ(host->generation(), 2u);
    EXPECT_EQ(host->current().get(), fresh.get());
}

TEST(SingleFlight, EraseReadyIfDropsOnlyMatchingReadyEntries) {
    SingleFlightCache<int> cache;
    const auto produce = [](int v) {
        return [v] { return std::make_shared<const int>(v); };
    };
    EXPECT_EQ(*cache.get_or_produce("g1|a", produce(1)), 1);
    EXPECT_EQ(*cache.get_or_produce("g1|b", produce(2)), 2);
    EXPECT_EQ(*cache.get_or_produce("g2|a", produce(3)), 3);
    EXPECT_EQ(cache.erase_ready_if([](const std::string& key) {
        return key.rfind("g1|", 0) == 0;
    }), 2u);
    // Evicted keys reproduce; survivors still hit.
    CacheOutcome outcome = CacheOutcome::kHit;
    EXPECT_EQ(*cache.get_or_produce("g2|a", produce(99), &outcome), 3);
    EXPECT_EQ(outcome, CacheOutcome::kHit);
    EXPECT_EQ(*cache.get_or_produce("g1|a", produce(42), &outcome), 42);
    EXPECT_EQ(outcome, CacheOutcome::kMiss);
}

// --- serving from the pack ----------------------------------------------

TEST(ServePack, ZeroParseSurfacesMatchBuiltOnesBitwise) {
    const Shared& s = Shared::get();
    TempDir models("sp_models");
    TempDir surfaces("sp_surfs");
    TempDir served("sp_served");
    // Outside the store directories: pack_from_dirs would merge it too.
    const std::string pack_path = (served.path / "p.mcsmpack").string();

    for (const auto& [key, model] :
         {std::pair{serve::ModelKey::arc("INV_X1", {"A"}), &s.inv},
          std::pair{serve::ModelKey::arc("NOR2", {"A", "B"}), &s.nor}})
        write_model_pack(models.path / (key.to_string() + serve::kPackExt),
                         key.to_string(), *model);

    std::vector<TimingQuery> batch;
    for (std::size_t i = 0; i < 64; ++i) batch.push_back(mixed_query(i));

    // Service A builds its surfaces from transients and persists them.
    std::vector<TimingResult> built;
    serve::ServeOptions sopt_a = small_serve_options();
    sopt_a.surface_dir = surfaces.str();
    serve::RepositoryOptions ropt_a;
    ropt_a.dir = models.str();
    {
        serve::ModelRepository repo(&s.lib, ropt_a);
        serve::TimingService service(repo, sopt_a);
        built = service.run_batch(batch);
        EXPECT_EQ(repo.characterize_count(), 0u);  // models came from disk
    }
    for (const TimingResult& r : built) ASSERT_TRUE(r.valid) << r.error;

    // The surface store maps back through the same acceptance check as
    // the served pack: a fresh service reloads every arc, zero-parse,
    // bitwise equal.
    {
        serve::ModelRepository repo(nullptr, ropt_a);
        serve::TimingService service(repo, sopt_a);
        const std::vector<TimingResult> reloaded = service.run_batch(batch);
        EXPECT_EQ(service.surface_load_count(), service.surface_count());
        for (std::size_t i = 0; i < reloaded.size(); ++i) {
            ASSERT_TRUE(reloaded[i].valid) << reloaded[i].error;
            EXPECT_EQ(bits(reloaded[i].delay), bits(built[i].delay));
            EXPECT_EQ(bits(reloaded[i].slew), bits(built[i].slew));
        }
    }

    serve::pack_from_dirs(models.str(), surfaces.str()).write(pack_path);
    const auto host = std::make_shared<serve::PackHost>(pack_path);

    // Service B has NO cell library and NO store directory: any lookup
    // that misses the pack would throw. Every query must be answered
    // zero-parse off the mapping -- bitwise equal to service A.
    serve::RepositoryOptions ropt_b;
    ropt_b.pack = host;
    serve::ModelRepository repo_b(nullptr, ropt_b);
    serve::ServeOptions sopt_b = small_serve_options();
    sopt_b.pack = host;
    serve::TimingService service_b(repo_b, sopt_b);
    const std::vector<TimingResult> mapped = service_b.run_batch(batch);
    ASSERT_EQ(mapped.size(), built.size());
    for (std::size_t i = 0; i < mapped.size(); ++i) {
        ASSERT_TRUE(mapped[i].valid) << mapped[i].error;
        EXPECT_EQ(bits(mapped[i].delay), bits(built[i].delay));
        EXPECT_EQ(bits(mapped[i].slew), bits(built[i].slew));
    }

    // Hot reload: republish the pack, refresh, serve again -- same answers
    // through the new generation.
    serve::pack_from_dirs(models.str(), surfaces.str()).write(pack_path);
    EXPECT_TRUE(host->refresh());
    EXPECT_EQ(host->generation(), 2u);
    const std::vector<TimingResult> reloaded = service_b.run_batch(batch);
    for (std::size_t i = 0; i < reloaded.size(); ++i) {
        ASSERT_TRUE(reloaded[i].valid) << reloaded[i].error;
        EXPECT_EQ(bits(reloaded[i].delay), bits(built[i].delay));
        EXPECT_EQ(bits(reloaded[i].slew), bits(built[i].slew));
    }
}

// --- socket server ------------------------------------------------------

struct ServerFixture {
    const Shared& s = Shared::get();
    serve::ModelRepository repo;
    serve::TimingService service;
    NetServerOptions nopt;
    std::unique_ptr<NetServer> server;
    std::thread loop;

    explicit ServerFixture(const TempDir& dir, NetServerOptions opts = {},
                           serve::RepositoryOptions ropt = {},
                           serve::ServeOptions sopt = small_serve_options())
        : repo(&Shared::get().lib, std::move(ropt)),
          service(repo, std::move(sopt)),
          nopt(std::move(opts)) {
        repo.put(serve::ModelKey::arc("INV_X1", {"A"}), s.inv);
        repo.put(serve::ModelKey::arc("NOR2", {"A", "B"}), s.nor);
        if (nopt.unix_path.empty())
            nopt.unix_path = (dir.path / "srv.sock").string();
        server = std::make_unique<NetServer>(service, nopt);
        loop = std::thread([this] { server->run(); });
    }
    ~ServerFixture() {
        server->stop();
        loop.join();
    }
};

TEST(NetServer, ConcurrentClientsGetBitwiseIdenticalOrderedResults) {
    TempDir dir("sock");
    NetServerOptions opts;
    opts.tcp_port = 0;  // ephemeral loopback listener as well
    opts.batch_max = 64;
    opts.linger_us = 200;
    ServerFixture fx(dir, opts);

    const std::size_t kClients = 4;
    const std::size_t kPerClient = 200;
    std::vector<std::string> request(kClients);
    std::vector<TimingQuery> ref;
    for (std::size_t c = 0; c < kClients; ++c) {
        for (std::size_t i = 0; i < kPerClient; ++i) {
            const std::string line =
                format_query_line(mixed_query(c * kPerClient + i));
            request[c] += line;
            request[c] += '\n';
            TimingQuery q;
            ASSERT_TRUE(parse_query_line(line, q));
            ref.push_back(q);
        }
    }
    const std::vector<TimingResult> want = fx.service.run_batch(ref);
    const long long served0 = net_count("net.served");
    const long long parse_errors0 = net_count("net.parse_errors");
    const long long batches0 = net_count("net.batches");

    std::vector<std::vector<std::string>> responses(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            // Half the clients pipeline over unix, half over TCP.
            LineClient cli =
                c % 2 == 0
                    ? LineClient::connect_unix(fx.nopt.unix_path)
                    : LineClient::connect_tcp(fx.server->tcp_port());
            cli.send_text(request[c]);
            cli.shutdown_write();
            try {
                for (;;) responses[c].push_back(cli.recv_line());
            } catch (const ModelError&) {
                // EOF: server drained and closed.
            }
        });
    }
    for (auto& t : clients) t.join();

    for (std::size_t c = 0; c < kClients; ++c) {
        ASSERT_EQ(responses[c].size(), kPerClient) << "client " << c;
        for (std::size_t i = 0; i < kPerClient; ++i) {
            std::uint64_t id = 0;
            const TimingResult got = parse_result_line(responses[c][i], id);
            EXPECT_EQ(id, i + 1);  // per-connection order, 1-based ids
            const TimingResult& expect = want[c * kPerClient + i];
            ASSERT_TRUE(got.valid) << got.error;
            EXPECT_EQ(bits(got.delay), bits(expect.delay));
            EXPECT_EQ(bits(got.slew), bits(expect.slew));
            EXPECT_EQ(got.path, expect.path);
        }
    }
    EXPECT_EQ(net_count("net.served") - served0,
              static_cast<long long>(kClients * kPerClient));
    EXPECT_EQ(net_count("net.parse_errors") - parse_errors0, 0);
    EXPECT_GE(net_count("net.batches") - batches0, 1);
}

TEST(NetServer, ControlLinesAndPerLineErrors) {
    TempDir dir("ctl");
    ServerFixture fx(dir);
    LineClient cli = LineClient::connect_unix(fx.nopt.unix_path);

    EXPECT_EQ(cli.request("ping"), "pong");

    // Malformed query: per-line error carrying the 1-based id; the
    // connection keeps serving.
    const std::string err = cli.request("INV_X1 A sideways 50 0 3");
    EXPECT_EQ(err.rfind("err 1 ", 0), 0u) << err;
    EXPECT_NE(err.find("rise|fall"), std::string::npos) << err;

    // A good query after the error gets the next id.
    cli.send_line(format_query_line(mixed_query(0)));
    cli.send_line("flush");
    std::uint64_t id = 0;
    const TimingResult got = parse_result_line(cli.recv_line(), id);
    EXPECT_EQ(id, 2u);
    EXPECT_TRUE(got.valid) << got.error;

    // Comments and blank lines produce no response and consume no id.
    cli.send_line("# comment");
    cli.send_line("");
    EXPECT_EQ(cli.request("ping"), "pong");

    // reload without a pack is an explicit error, not a crash.
    EXPECT_EQ(cli.request("reload"), "err 0 reload: no pack configured");

    // stats: length-prefixed obs snapshot JSON.
    const std::string header = cli.request("stats");
    ASSERT_EQ(header.rfind("stats ", 0), 0u) << header;
    const std::size_t nbytes = std::stoul(header.substr(6));
    ASSERT_GT(nbytes, 0u);
    const std::string json = cli.recv_bytes(nbytes);
    EXPECT_NE(json.find("net.accepted"), std::string::npos);
}

TEST(NetServer, AdmissionRejectsBeyondMaxPending) {
    TempDir dir("busy");
    NetServerOptions opts;
    opts.max_pending = 1;
    opts.batch_max = 1024;
    opts.linger_us = 1000000;  // only "flush" executes the batch
    ServerFixture fx(dir, opts);
    LineClient cli = LineClient::connect_unix(fx.nopt.unix_path);
    const long long rejected0 = net_count("net.rejected");

    const std::string q = format_query_line(mixed_query(1));
    cli.send_text(q + "\n" + q + "\n" + q + "\nflush\n");
    // Query 1 is admitted; 2 and 3 bounce with busy errors, which keep
    // their place behind query 1's answer.
    std::uint64_t id = 0;
    const TimingResult r1 = parse_result_line(cli.recv_line(), id);
    EXPECT_EQ(id, 1u);
    EXPECT_TRUE(r1.valid) << r1.error;
    const TimingResult r2 = parse_result_line(cli.recv_line(), id);
    EXPECT_EQ(id, 2u);
    EXPECT_FALSE(r2.valid);
    EXPECT_NE(r2.error.find("busy"), std::string::npos);
    const TimingResult r3 = parse_result_line(cli.recv_line(), id);
    EXPECT_EQ(id, 3u);
    EXPECT_FALSE(r3.valid);
    EXPECT_EQ(net_count("net.rejected") - rejected0, 2);
}

TEST(NetServer, EveryReplyLeavesInRequestOrder) {
    // A malformed line, a busy rejection and a ping, each behind a query
    // that is still pending: every reply waits for the answers before it.
    TempDir dir("order");
    NetServerOptions opts;
    opts.max_pending = 2;
    opts.batch_max = 1024;
    opts.linger_us = 1000000;  // only "flush" executes the batch
    ServerFixture fx(dir, opts);
    LineClient cli = LineClient::connect_unix(fx.nopt.unix_path);
    const std::string q = format_query_line(mixed_query(0));
    // The malformed line waits in the batch too (lines parse when their
    // batch runs), so the second query is the one over max_pending.
    cli.send_text(q + "\nINV_X1 A sideways 50 0 3\n" + q +
                  "\nping\nflush\n");
    std::uint64_t id = 0;
    const TimingResult r1 = parse_result_line(cli.recv_line(), id);
    EXPECT_EQ(id, 1u);
    EXPECT_TRUE(r1.valid) << r1.error;
    const TimingResult r2 = parse_result_line(cli.recv_line(), id);
    EXPECT_EQ(id, 2u);
    EXPECT_NE(r2.error.find("rise|fall"), std::string::npos) << r2.error;
    const TimingResult r3 = parse_result_line(cli.recv_line(), id);
    EXPECT_EQ(id, 3u);
    EXPECT_NE(r3.error.find("busy"), std::string::npos) << r3.error;
    EXPECT_EQ(cli.recv_line(), "pong");
}

TEST(NetServer, OverLongLineClosesTheConnection) {
    // The cap holds for a whole line that arrives in one read, not only for
    // an unterminated tail: the outcome must not depend on how the kernel
    // split the bytes.
    TempDir dir("long");
    ServerFixture fx(dir);
    LineClient cli = LineClient::connect_unix(fx.nopt.unix_path);
    EXPECT_EQ(cli.request("ping"), "pong");
    cli.send_text(std::string(fx.nopt.max_line + 904, 'x') + "\n");
    ASSERT_EQ(cli.recv_line(), "err 0 line too long");
    EXPECT_THROW(cli.recv_line(), ModelError);  // then the server hangs up

    // Other connections are unaffected.
    LineClient other = LineClient::connect_unix(fx.nopt.unix_path);
    EXPECT_EQ(other.request("ping"), "pong");
}

TEST(NetServer, ConnectionLimitRefusesAndCountsInObs) {
    TempDir dir("conns");
    NetServerOptions opts;
    opts.max_conns = 1;
    ServerFixture fx(dir, opts);
    LineClient first = LineClient::connect_unix(fx.nopt.unix_path);
    EXPECT_EQ(first.request("ping"), "pong");  // accepted before the next
    const long long refused0 = net_count("net.refused");

    LineClient second = LineClient::connect_unix(fx.nopt.unix_path);
    ASSERT_EQ(second.recv_line(), "err 0 busy: connection limit reached");
    EXPECT_THROW(second.recv_line(), ModelError);  // EOF after the refusal
    EXPECT_EQ(net_count("net.refused") - refused0, 1);

    EXPECT_EQ(first.request("ping"), "pong");
}

TEST(NetServer, ClientDisconnectDoesNotDisturbOtherClients) {
    TempDir dir("gone");
    ServerFixture fx(dir);
    {
        // Client A submits a query and vanishes without reading the
        // response (destructor closes the socket outright).
        LineClient gone = LineClient::connect_unix(fx.nopt.unix_path);
        gone.send_line(format_query_line(mixed_query(2)));
    }
    // Client B is served normally afterwards; the dropped client's
    // response went to /dev/null, not into B's stream.
    LineClient cli = LineClient::connect_unix(fx.nopt.unix_path);
    EXPECT_EQ(cli.request("ping"), "pong");
    cli.send_line(format_query_line(mixed_query(3)));
    cli.send_line("flush");
    std::uint64_t id = 0;
    const TimingResult got = parse_result_line(cli.recv_line(), id);
    EXPECT_EQ(id, 1u);
    EXPECT_TRUE(got.valid) << got.error;
}

TEST(NetServer, ReloadCommandSwapsThePackGeneration) {
    const Shared& s = Shared::get();
    TempDir dir("netreload");
    const std::string pack_path = (dir.path / "p.mcsmpack").string();
    serve::PackWriter w;
    w.add_model("m", s.inv);
    w.write(pack_path);
    const auto host = std::make_shared<serve::PackHost>(pack_path);

    NetServerOptions opts;
    opts.pack = host;
    ServerFixture fx(dir, opts);
    LineClient cli = LineClient::connect_unix(fx.nopt.unix_path);

    EXPECT_EQ(cli.request("reload"), "reload noop 1");
    serve::PackWriter w2;
    w2.add_model("m", s.inv);
    w2.add_model("m2", s.nor);
    w2.write(pack_path);
    EXPECT_EQ(cli.request("reload"), "reload ok 2");
    EXPECT_EQ(host->generation(), 2u);
}

// --- cold lane ------------------------------------------------------------
//
// A FIFO standing where a production expects a store file parks that
// production in open() until the test releases it: a cold build held open
// for as long as the test needs, with no sleep deciding the outcome.

// Waits (bounded) until obs instrument `value()` exceeds `floor`: the
// point where a request has reached the cold lane.
template <typename Read>
bool rises_above(long long floor, const Read& value) {
    for (int ms = 0; ms < 60000; ++ms) {
        if (value() > floor) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

// True when `fd` has bytes to read within `seconds`.
bool readable_within(int fd, int seconds) {
    pollfd p{fd, POLLIN, 0};
    return ::poll(&p, 1, seconds * 1000) > 0;
}

// A FIFO at `path`. release() waits (bounded) until a production has it
// open, then opens and closes the write end: the reader wakes to a file of
// size 0, too short to be a pack. (Nothing is written: the reader may have
// closed its end already, and a write would raise SIGPIPE.) A gate still
// closed when it goes out of scope is released then, so a failing test
// never leaves a server parked in open(): declare it after the fixture.
struct FifoGate {
    fs::path path;
    bool released = false;

    explicit FifoGate(fs::path at) : path(std::move(at)) {
        EXPECT_EQ(::mkfifo(path.c_str(), 0600), 0) << path;
    }
    ~FifoGate() {
        if (!released) release();
    }

    // False when no reader came within two minutes.
    bool release() {
        for (int tries = 0; tries < 12000; ++tries) {
            const int fd =
                ::open(path.c_str(), O_WRONLY | O_NONBLOCK | O_CLOEXEC);
            if (fd >= 0) {
                ::close(fd);
                released = true;
                return true;
            }
            if (errno != ENXIO) return false;  // ENXIO: no reader yet
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return false;
    }
};

// Characterize-on-miss at grids small enough for a sanitizer build, and
// 3-pin surfaces of 2^6 knots.
serve::RepositoryOptions small_char_options() {
    serve::RepositoryOptions ropt;
    ropt.char_options = fast_options();
    ropt.char_options_mis3.grid_points = 4;
    ropt.char_options_mis3.cin_points = 5;
    return ropt;
}

serve::ServeOptions small_mis3_options() {
    serve::ServeOptions sopt = small_serve_options();
    sopt.slew_knots_mis3 = {30e-12, 200e-12};
    sopt.skew_knots_mis3 = {-1.0, 1.0};
    sopt.skew_pair_knots_mis3 = {-1.0, 1.0};
    sopt.load_knots_mis3 = {1e-15, 16e-15};
    return sopt;
}

// Warm LUT lines over every arc the fixture models (INV_X1 and NOR2, both
// directions), then a flush.
std::string warm_lines() {
    std::string text;
    for (std::size_t i = 0; i < 4; ++i) {
        text += format_query_line(mixed_query(i));
        text += '\n';
    }
    return text + "flush\n";
}

// Reads warm_lines()' replies: four LUT answers with ids from `first`.
void expect_warm_replies(LineClient& cli, std::uint64_t first) {
    for (std::uint64_t k = first; k < first + 4; ++k) {
        std::uint64_t id = 0;
        const TimingResult r = parse_result_line(cli.recv_line(), id);
        EXPECT_EQ(id, k);
        EXPECT_TRUE(r.valid) << r.error;
        EXPECT_EQ(r.path, serve::ResultPath::kLut);
    }
}

TEST(NetServer, WarmAnswersArriveWhileAColdBuildRuns) {
    TempDir dir("coldlane");
    const fs::path surfaces = dir.path / "surfaces";
    fs::create_directories(surfaces);
    serve::ServeOptions sopt = small_mis3_options();
    sopt.surface_dir = surfaces.string();
    ServerFixture fx(dir, {}, small_char_options(), sopt);

    LineClient warm = LineClient::connect_unix(fx.nopt.unix_path);
    warm.send_text(warm_lines());  // builds the warm surfaces
    expect_warm_replies(warm, 1);
    const long long deferred0 = net_count("net.deferred");

    // A fresh-corner NAND3 miss: it characterizes a 6-D model, then its
    // surface build parks on a FIFO under the arc's store file name (arc
    // id NAND3|A-B-C|R|1.05V70C, '|' -> '.').
    FifoGate gate(surfaces / "NAND3.A-B-C.R.1.05V70C.mcsmpack");
    LineClient cold = LineClient::connect_unix(fx.nopt.unix_path);
    cold.send_text(
        "NAND3 A,B,C rise 60,80,100 0,20,40 4 vdd=1.05 temp=70\nflush\n");
    EXPECT_TRUE(rises_above(deferred0, [] {
        return net_count("net.deferred");
    })) << "the cold query never reached the cold lane";

    warm.send_text(warm_lines());
    const bool served = readable_within(warm.fd(), 60);
    EXPECT_TRUE(served) << "warm queries waited behind a cold build";
    if (served) {
        expect_warm_replies(warm, 5);
        EXPECT_EQ(warm.request("ping"), "pong");
        // The cold answer cannot exist yet: its build is parked.
        EXPECT_FALSE(readable_within(cold.fd(), 0));
        EXPECT_EQ(net_count("net.deferred") - deferred0, 1);
    }

    // Released, the unreadable surface file is rebuilt from transients.
    ASSERT_TRUE(gate.release());
    ASSERT_TRUE(readable_within(cold.fd(), 300));
    std::uint64_t id = 0;
    const TimingResult r = parse_result_line(cold.recv_line(), id);
    EXPECT_EQ(id, 1u);
    EXPECT_TRUE(r.valid) << r.error;
    EXPECT_EQ(r.path, serve::ResultPath::kLut);
}

TEST(NetServer, FailedColdProductionAnswersANamedError) {
    TempDir dir("coldfail");
    serve::RepositoryOptions ropt = small_char_options();
    ropt.dir = (dir.path / "models").string();
    ServerFixture fx(dir, {}, ropt);
    LineClient warm = LineClient::connect_unix(fx.nopt.unix_path);
    warm.send_text(warm_lines());
    expect_warm_replies(warm, 1);

    // The fresh-corner NOR2 model's store file is a FIFO: the lane's model
    // load parks on it, then finds garbage.
    FifoGate gate(fx.repo.store_path(serve::ModelKey::arc(
        "NOR2", {"A", "B"}, serve::Corner{1.05, 70.0})));
    const long long deferred0 = net_count("net.deferred");
    LineClient cold = LineClient::connect_unix(fx.nopt.unix_path);
    cold.send_text("NOR2 A,B fall 80,95 0,-30 6 vdd=1.05 temp=70\nflush\n");
    ASSERT_TRUE(rises_above(deferred0, [] {
        return net_count("net.deferred");
    })) << "the cold query never reached the cold lane";

    warm.send_text(warm_lines());
    ASSERT_TRUE(readable_within(warm.fd(), 60))
        << "warm queries waited behind a cold production";
    expect_warm_replies(warm, 5);

    ASSERT_TRUE(gate.release());
    ASSERT_TRUE(readable_within(cold.fd(), 300));
    const std::string answer = cold.recv_line();
    EXPECT_EQ(answer.rfind("err 1 ", 0), 0u) << answer;
    EXPECT_NE(answer.find("too small to be a pack"), std::string::npos)
        << answer;
    EXPECT_NE(answer.find(gate.path.filename().string()), std::string::npos)
        << answer;

    // The failure is not cached and costs nobody else an answer.
    warm.send_text(warm_lines());
    expect_warm_replies(warm, 9);
}

// warm_lines()' queries, and their answers off a pack that holds their
// models and surfaces.
struct PackedBatch {
    std::string text;
    std::vector<TimingResult> want;
};

// Builds a store for warm_lines()' arcs under `dir` and bundles it into the
// pack `pack_path`.
PackedBatch pack_warm_batch(const TempDir& dir, const fs::path& pack_path) {
    const Shared& s = Shared::get();
    const fs::path models = dir.path / "models";
    const fs::path surfaces = dir.path / "surfaces";
    // The socket answers the parsed lines, which may differ from the
    // formatted queries by an ULP: the reference batch is the parsed one.
    PackedBatch packed;
    std::vector<TimingQuery> batch(4);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::string line = format_query_line(mixed_query(i));
        EXPECT_TRUE(parse_query_line(line, batch[i]));
        packed.text += line;
        packed.text += '\n';
    }
    packed.text += "flush\n";
    serve::RepositoryOptions ropt;
    ropt.dir = models.string();
    serve::ModelRepository repo(&s.lib, ropt);
    repo.put(serve::ModelKey::arc("INV_X1", {"A"}), s.inv);
    repo.put(serve::ModelKey::arc("NOR2", {"A", "B"}), s.nor);
    serve::ServeOptions sopt = small_serve_options();
    sopt.surface_dir = surfaces.string();
    serve::TimingService service(repo, sopt);
    packed.want = service.run_batch(batch);
    serve::pack_from_dirs(models.string(), surfaces.string())
        .write(pack_path.string());
    return packed;
}

// Reads the answers to a PackedBatch's text: ids from `next_id` on, bitwise
// equal to its reference answers.
void expect_packed_answers(LineClient& cli, const PackedBatch& packed,
                           std::uint64_t& next_id) {
    for (const TimingResult& expect : packed.want) {
        std::uint64_t id = 0;
        const TimingResult got = parse_result_line(cli.recv_line(), id);
        EXPECT_EQ(id, next_id++);
        ASSERT_TRUE(got.valid) << got.error;
        EXPECT_EQ(bits(got.delay), bits(expect.delay));
        EXPECT_EQ(bits(got.slew), bits(expect.slew));
    }
}

TEST(NetServer, PackSurfacesAreServedWhileAColdProductionHoldsTheLane) {
    TempDir dir("packwarm");
    const fs::path pack_path = dir.path / "p.mcsmpack";
    const PackedBatch packed = pack_warm_batch(dir, pack_path);
    const auto host = std::make_shared<serve::PackHost>(pack_path.string());
    NetServerOptions nopt;
    nopt.pack = host;
    serve::RepositoryOptions ropt = small_char_options();
    ropt.pack = host;
    ropt.dir = (dir.path / "store").string();
    serve::ServeOptions sopt = small_serve_options();
    sopt.pack = host;
    ServerFixture fx(dir, nopt, ropt, sopt);

    // A fresh-corner NOR2 model load parks the lane on a FIFO.
    FifoGate gate(fx.repo.store_path(serve::ModelKey::arc(
        "NOR2", {"A", "B"}, serve::Corner{1.05, 70.0})));
    const long long deferred0 = net_count("net.deferred");
    const long long pack_loads0 = net_count("serve.surface.pack_loads");
    LineClient cold = LineClient::connect_unix(fx.nopt.unix_path);
    cold.send_text("NOR2 A,B fall 80,95 0,-30 6 vdd=1.05 temp=70\nflush\n");
    ASSERT_TRUE(rises_above(deferred0, [] {
        return net_count("net.deferred");
    })) << "the cold query never reached the cold lane";

    // No query touched the pack's surfaces yet: the loop adopts them off
    // the mapping instead of queueing them behind the parked production.
    LineClient user = LineClient::connect_unix(fx.nopt.unix_path);
    user.send_text(packed.text);
    ASSERT_TRUE(readable_within(user.fd(), 60))
        << "pack-held arcs waited behind a cold production";
    std::uint64_t next_id = 1;
    expect_packed_answers(user, packed, next_id);
    EXPECT_EQ(net_count("serve.surface.pack_loads") - pack_loads0, 4);
    EXPECT_EQ(net_count("net.deferred") - deferred0, 1);
    EXPECT_FALSE(readable_within(cold.fd(), 0));

    ASSERT_TRUE(gate.release());
    ASSERT_TRUE(readable_within(cold.fd(), 300));
    const std::string answer = cold.recv_line();
    EXPECT_EQ(answer.rfind("err 1 ", 0), 0u) << answer;
}

TEST(NetServer, CorruptPackReloadKeepsServingTheOldMapping) {
    TempDir dir("badreload");
    const fs::path pack_path = dir.path / "p.mcsmpack";
    const PackedBatch packed = pack_warm_batch(dir, pack_path);
    const auto host = std::make_shared<serve::PackHost>(pack_path.string());

    NetServerOptions nopt;
    nopt.pack = host;
    serve::RepositoryOptions ropt;
    ropt.pack = host;
    serve::ServeOptions sopt = small_serve_options();
    sopt.pack = host;
    ServerFixture fx(dir, nopt, ropt, sopt);

    LineClient user = LineClient::connect_unix(fx.nopt.unix_path);
    std::uint64_t next_id = 1;
    user.send_text(packed.text);  // maps the surfaces off the pack
    expect_packed_answers(user, packed, next_id);

    // A corrupt replacement that arrives slowly: the refresh parks in
    // open() on the cold lane while the user keeps being served.
    fs::remove(pack_path);
    FifoGate gate(pack_path);
    const obs::Gauge& lane_depth = obs::gauge("net.cold_queue_depth");
    LineClient admin = LineClient::connect_unix(fx.nopt.unix_path);
    admin.send_line("reload");
    ASSERT_TRUE(rises_above(0, [&] { return lane_depth.value(); }))
        << "the reload never reached the cold lane";
    user.send_text(packed.text);
    ASSERT_TRUE(readable_within(user.fd(), 60))
        << "queries waited behind a pack refresh";
    expect_packed_answers(user, packed, next_id);
    ASSERT_TRUE(gate.release());
    EXPECT_EQ(admin.recv_line(), "reload noop 1");

    // A corrupt regular file gets the same verdict.
    serve::save_bytes_atomically(pack_path.string(), "garbage, not a pack");
    EXPECT_EQ(admin.request("reload"), "reload noop 1");
    user.send_text(packed.text);
    expect_packed_answers(user, packed, next_id);
    EXPECT_EQ(host->generation(), 1u);
}

TEST(NetServer, ClientThatNeverReadsIsPausedAtTheOutputBound) {
    TempDir dir("bound");
    NetServerOptions opts;
    opts.batch_max = 16;
    opts.max_line = 128;
    ServerFixture fx(dir, opts);
    const long long bound = 16 * 128;  // batch_max * max_line
    const obs::Gauge& buffered = obs::gauge("net.buffered_bytes");
    {
        LineClient warm = LineClient::connect_unix(fx.nopt.unix_path);
        warm.send_text(warm_lines());
        expect_warm_replies(warm, 1);
    }

    // Far more replies than the bound and the kernel's socket buffers
    // hold. The sender blocks once the server stops reading.
    const std::size_t kQueries = 20000;
    std::string text;
    for (std::size_t i = 0; i < kQueries; ++i) {
        text += format_query_line(mixed_query(i % 4));
        text += '\n';
    }
    text += "flush\n";
    LineClient hog = LineClient::connect_unix(fx.nopt.unix_path);
    std::thread sender([&] {
        try {
            hog.send_text(text);
        } catch (const ModelError&) {
            // The server hung up; the reads below report it.
        }
    });

    long long peak = 0;
    for (int ms = 0; ms < 60000 && peak <= bound; ++ms) {
        peak = std::max(peak, buffered.value());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(peak, bound) << "the replies never backed up";

    // Another connection is served meanwhile, and the backlog stays
    // within one batch of the bound.
    LineClient other = LineClient::connect_unix(fx.nopt.unix_path);
    other.send_text(warm_lines());
    expect_warm_replies(other, 1);
    peak = std::max(peak, buffered.value());
    EXPECT_LE(peak, 2 * bound);

    // Once the client reads, every reply arrives, in order.
    for (std::uint64_t k = 1; k <= kQueries; ++k) {
        std::uint64_t id = 0;
        const TimingResult r = parse_result_line(hog.recv_line(), id);
        ASSERT_EQ(id, k);
        ASSERT_TRUE(r.valid) << r.error;
    }
    sender.join();
}

}  // namespace
}  // namespace mcsm::net
