// Serving-layer tests: bit-exact pack-store round trips (for every library
// cell), corrupt-input rejection (bad magic, bad checksums, truncations,
// structurally bad entries under valid checksums -- always ModelError,
// never a partial model), repository caching semantics (lazy load,
// single-flight characterization, clean cache after failures, best-effort
// write-back), and deterministic batched timing queries across thread
// counts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/model_audit.h"
#include "cells/library.h"
#include "common/parallel.h"
#include "common/single_flight.h"
#include "core/characterizer.h"
#include "obs/metrics.h"
#include "serve/mapped_store.h"
#include "serve/repository.h"
#include "serve/timing_service.h"
#include "tech/tech130.h"

namespace mcsm::serve {
namespace {

namespace fs = std::filesystem;

core::CharOptions fast_options(std::size_t grid_points = 6) {
    core::CharOptions opt;
    opt.transient_caps = false;  // model-linearized caps: test-fast
    opt.grid_points = grid_points;
    opt.cin_points = 5;
    opt.threads = 1;
    return opt;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

// Publishes a single-entry model pack, as the repository's write-back does.
void write_model_pack(const std::string& path, const std::string& name,
                      const core::CsmModel& model) {
    PackWriter writer;
    writer.add_model(name, model);
    writer.write(path);
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
               ("mcsm_serve_" + tag + "_" + std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string str() const { return path.string(); }
};

// --- pack store round trips ---------------------------------------------

TEST(ModelStore, ModelRoundTripEveryLibraryCell) {
    const Shared& s = Shared::get();
    const core::Characterizer chr(s.lib);
    TempDir dir("every_cell");
    for (const std::string& name : s.lib.names()) {
        const cells::CellType& cell = s.lib.get(name);
        std::vector<std::string> pins{cell.inputs().front().name};
        core::ModelKind kind = core::ModelKind::kSis;
        if (cell.input_count() >= 2) {
            pins.push_back(cell.inputs()[1].name);
            kind = core::ModelKind::kMcsm;
        }
        // 5-D models (two internals) get a smaller grid to stay test-fast.
        const core::CsmModel model = chr.characterize(
            name, kind, pins,
            fast_options(cell.internal_nodes().size() >= 2 ? 5u : 6u));

        const std::string path = dir.str() + "/" + name + kPackExt;
        write_model_pack(path, name, model);
        EXPECT_EQ(encode_model(MappedPack::map(path)->materialize_model(name)),
                  encode_model(model))
            << "pack round trip not bit-exact for " << name;
    }
}

TEST(ModelStore, SaveLoadFileRoundTrip) {
    const Shared& s = Shared::get();
    TempDir dir("file_roundtrip");
    const std::string path = dir.str() + "/nor" + kPackExt;
    write_model_pack(path, "nor", s.nor);
    const auto pack = MappedPack::map(path);
    EXPECT_EQ(pack->model_count(), 1u);
    EXPECT_EQ(pack->model_check("nor"), model_checksum(s.nor));
    EXPECT_EQ(encode_model(pack->materialize_model("nor")),
              encode_model(s.nor));
    // Atomic write: only the published file, no temp left behind.
    std::size_t entries = 0;
    for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir.path))
        ++entries;
    EXPECT_EQ(entries, 1u);
}

// --- corrupt / malformed inputs ------------------------------------------

// Bytes of a single-entry model pack for `model`.
std::string model_pack_bytes(const core::CsmModel& model) {
    TempDir dir("pack_bytes");
    const std::string path = dir.str() + "/m" + kPackExt;
    write_model_pack(path, "m", model);
    return read_file(path);
}

// Maps `bytes` as a pack file; throws what MappedPack::map throws.
std::shared_ptr<const MappedPack> map_bytes(const std::string& bytes) {
    TempDir dir("map_bytes");
    const std::string path = dir.str() + "/p" + kPackExt;
    write_file(path, bytes);
    // The mapping outlives the file's directory entry.
    return MappedPack::map(path);
}

void poke_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
        bytes[at + static_cast<std::size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xff);
}

void poke_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
        bytes[at + static_cast<std::size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint64_t peek_u64(const std::string& bytes, std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof v);
    return v;
}

std::uint64_t test_fnv1a(std::string_view bytes) {
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

// Pack geometry (see the layout in serve/mapped_store.h).
constexpr std::size_t kPackPage = 4096;
constexpr std::size_t kEntryCountAt = 24;
constexpr std::size_t kDirOffsetAt = 32;
constexpr std::size_t kPayloadCheckAt = 48;
constexpr std::size_t kHeaderCheckAt = 56;
constexpr std::size_t kHeaderEnd = 64;
constexpr std::size_t kDirRecordBytes = 40;  // content_check at +32

// Recomputes the body and header checksums after byte surgery.
void reseal_file(std::string& bytes) {
    poke_u64(bytes, kPayloadCheckAt,
             test_fnv1a(std::string_view(bytes).substr(kPackPage)));
    poke_u64(bytes, kHeaderCheckAt,
             test_fnv1a(std::string_view(bytes).substr(0, kHeaderCheckAt)));
}

// Recomputes every directory record's content_check, then both file
// checksums, so a structurally corrupt entry reaches the map-time entry
// validation instead of a checksum.
void reseal(std::string& bytes) {
    const std::uint64_t entries = peek_u64(bytes, kEntryCountAt);
    const std::uint64_t dir = peek_u64(bytes, kDirOffsetAt);
    for (std::uint64_t i = 0; i < entries; ++i) {
        const std::size_t rec = dir + i * kDirRecordBytes;
        const std::string_view payload = std::string_view(bytes).substr(
            peek_u64(bytes, rec + 16), peek_u64(bytes, rec + 24));
        poke_u64(bytes, rec + 32, test_fnv1a(payload));
    }
    reseal_file(bytes);
}

TEST(ModelStoreValidation, RejectsBadMagic) {
    std::string bytes = model_pack_bytes(Shared::get().nor);
    bytes[0] = 'X';
    EXPECT_THROW(map_bytes(bytes), ModelError);
}

TEST(ModelStoreValidation, RejectsBadVersion) {
    std::string bytes = model_pack_bytes(Shared::get().nor);
    bytes[8] = static_cast<char>(bytes[8] + 1);  // version field
    EXPECT_THROW(map_bytes(bytes), ModelError);
    reseal(bytes);  // a consistent header of another version still fails
    EXPECT_THROW(map_bytes(bytes), ModelError);
}

TEST(ModelStoreValidation, RejectsKindMismatch) {
    // The directory's kind field decides how an entry is validated: a
    // model payload relabelled as a surface, or an unknown kind, fails at
    // map time even with consistent checksums.
    const std::string good = model_pack_bytes(Shared::get().nor);
    std::uint64_t dir_offset = 0;
    std::memcpy(&dir_offset, good.data() + 32, 8);
    for (const std::uint32_t kind : {kSurfaceKind, 1u, 7u}) {
        std::string bytes = good;
        poke_u32(bytes, dir_offset, kind);
        reseal(bytes);
        EXPECT_THROW(map_bytes(bytes), ModelError) << "kind=" << kind;
    }
}

TEST(ModelStoreValidation, RejectsTruncationAtAnyDepth) {
    const std::string bytes = model_pack_bytes(Shared::get().nor);
    for (const double frac : {0.001, 0.1, 0.5, 0.9, 0.9999}) {
        const std::size_t cut =
            static_cast<std::size_t>(frac * static_cast<double>(bytes.size()));
        EXPECT_THROW(map_bytes(bytes.substr(0, cut)), ModelError)
            << "cut=" << cut;
    }
}

TEST(ModelStoreValidation, RejectsPayloadBitFlips) {
    const std::string bytes = model_pack_bytes(Shared::get().nor);
    // Flip one bit at several body offsets; the checksum must catch all.
    for (const double frac : {0.2, 0.5, 0.95}) {
        std::string corrupt = bytes;
        const std::size_t at =
            kPackPage + static_cast<std::size_t>(
                            frac * static_cast<double>(bytes.size() -
                                                       kPackPage - 1));
        corrupt[at] = static_cast<char>(corrupt[at] ^ 0x10);
        EXPECT_THROW(map_bytes(corrupt), ModelError) << "at=" << at;
    }
}

// The ModelError message `fn` throws; "" when it does not throw.
std::string error_of(const std::function<void()>& fn) {
    try {
        fn();
    } catch (const ModelError& e) {
        return e.what();
    }
    return "";
}

// The bytes a pack stores for the string `s` (see the layout in
// serve/mapped_store.h): u64 length, the characters, zero padding to 8.
std::string padded_str(std::string_view s) {
    std::string out(8, '\0');
    poke_u64(out, 0, s.size());
    out += s;
    out.resize((out.size() + 7) / 8 * 8, '\0');
    return out;
}

// Offset of knot `i` of the OUT axis of the model table named `table` in
// the bytes of a single-entry model pack; npos when either is absent.
std::size_t out_knot_offset(const std::string& bytes, std::string_view table,
                            std::size_t i) {
    const std::string axis = padded_str("OUT");
    const std::size_t out =
        bytes.find(axis, bytes.find(padded_str(table), kPackPage));
    if (out == std::string::npos) return out;
    return out + axis.size() + 8 + 8 * i;  // past the name and knot count
}

double peek_f64(const std::string& bytes, std::size_t at) {
    double v = 0.0;
    std::memcpy(&v, bytes.data() + at, sizeof v);
    return v;
}

TEST(ModelStoreValidation, RejectsTableOffTheSharedAxes) {
    // Co's third OUT-axis knot moved by 50 mV: every table is valid on its
    // own, so the entry maps, but the model's shared axes no longer hold.
    std::string bytes = model_pack_bytes(Shared::get().inv);
    const std::size_t at = out_knot_offset(bytes, "Co", 2);
    ASSERT_NE(at, std::string::npos);
    poke_u64(bytes, at,
             std::bit_cast<std::uint64_t>(peek_f64(bytes, at) + 0.05));
    reseal(bytes);
    TempDir dir("shared_axes");
    const std::string path = dir.str() + "/m" + kPackExt;
    write_file(path, bytes);
    std::shared_ptr<const MappedPack> pack;
    ASSERT_NO_THROW(pack = MappedPack::map(path));
    const std::string what = error_of([&] { pack->materialize_model("m"); });
    EXPECT_NE(what.find("'Co'"), std::string::npos) << what;
    const analysis::LintReport report = analysis::audit_file(path);
    EXPECT_TRUE(report.fired("store.unreadable")) << report.format();
}

TEST(ModelStoreValidation, RejectsUnknownModelKind) {
    std::string bytes = model_pack_bytes(Shared::get().inv);
    poke_u64(bytes, kPackPage, 7);  // the model payload's leading kind
    reseal(bytes);
    const std::string what = error_of([&] { map_bytes(bytes); });
    EXPECT_NE(what.find("unknown model kind"), std::string::npos) << what;
}

TEST(ModelStoreValidation, RejectsBadAxisKnots) {
    const std::string good = model_pack_bytes(Shared::get().inv);
    const std::size_t at = out_knot_offset(good, "Co", 2);
    ASSERT_NE(at, std::string::npos);
    for (const double knot : {std::numeric_limits<double>::quiet_NaN(),
                              peek_f64(good, at - 8)}) {
        std::string bytes = good;
        poke_u64(bytes, at, std::bit_cast<std::uint64_t>(knot));
        reseal(bytes);
        const std::string what = error_of([&] { map_bytes(bytes); });
        EXPECT_NE(what.find("non-finite or non-increasing axis knots"),
                  std::string::npos)
            << "knot=" << knot << ": " << what;
    }
}

TEST(ModelStoreValidation, RejectsContentCheckThatMissesThePayload) {
    // A rewritten pack whose file checksums were recomputed: only the
    // directory's content_check, the model identity surfaces are matched
    // against, still describes the old model.
    std::string bytes = model_pack_bytes(Shared::get().inv);
    const std::size_t at = kPackPage + 16;  // dv_margin: after kind, vdd
    poke_u64(bytes, at,
             std::bit_cast<std::uint64_t>(peek_f64(bytes, at) + 0.01));
    reseal_file(bytes);
    const std::string what = error_of([&] { map_bytes(bytes); });
    EXPECT_NE(what.find("'m'"), std::string::npos) << what;
    EXPECT_NE(what.find("content check"), std::string::npos) << what;
    // Resealed with its content check too, the identity is the new model's.
    reseal(bytes);
    const auto pack = map_bytes(bytes);
    EXPECT_EQ(pack->model_check("m"),
              model_checksum(pack->materialize_model("m")));
    EXPECT_NE(pack->model_check("m"), model_checksum(Shared::get().inv));
}

// --- corner metadata and arc surfaces ------------------------------------

ArcSurfaceData sample_surface() {
    ArcSurfaceData s;
    s.arc_id = "NOR2|A-B|F";
    s.dt = 4e-12;
    s.settle = 1.5e-9;
    s.model_check = 0x5eedf00dULL;
    std::vector<lut::Axis> axes{lut::Axis("slew", {50e-12, 150e-12}),
                                lut::Axis("load", {2e-15, 8e-15})};
    s.delay = lut::NdTable(axes, s.arc_id + ".delay");
    s.slew = lut::NdTable(axes, s.arc_id + ".slew");
    double v = 11e-12;
    s.delay.for_each_grid_point([&](std::span<const std::size_t>,
                                    std::span<const double>, double& slot) {
        slot = (v += 3e-12);
    });
    s.slew.for_each_grid_point([&](std::span<const std::size_t>,
                                   std::span<const double>, double& slot) {
        slot = (v += 5e-12);
    });
    return s;
}

std::string surface_pack_bytes(const ArcSurfaceData& s) {
    TempDir dir("surface_bytes");
    const std::string path = dir.str() + "/s" + kPackExt;
    PackWriter writer;
    writer.add_surface(s.arc_id, s);
    writer.write(path);
    return read_file(path);
}

// Owned copy of a mapped surface: what the writer takes as input.
ArcSurfaceData owned(const MappedSurface& m) {
    return ArcSurfaceData{std::string(m.arc_id), m.dt,
                          m.settle, m.model_check,
                          lut::NdTable(m.delay), lut::NdTable(m.slew)};
}

TEST(ModelStore, SurfaceRoundTripIsBitExact) {
    const ArcSurfaceData s = sample_surface();
    const std::string bytes = surface_pack_bytes(s);
    const auto pack = map_bytes(bytes);
    const MappedSurface* back = pack->find_surface(s.arc_id);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->arc_id, s.arc_id);
    EXPECT_EQ(back->dt, s.dt);
    EXPECT_EQ(back->settle, s.settle);
    EXPECT_EQ(back->model_check, s.model_check);
    EXPECT_EQ(surface_pack_bytes(owned(*back)), bytes);
}

TEST(ModelStore, ModelCarriesCharacterizationTemperature) {
    core::CsmModel m = Shared::get().inv;
    m.temp_c = 85.0;
    EXPECT_EQ(map_bytes(model_pack_bytes(m))->materialize_model("m").temp_c,
              85.0);
}

TEST(ModelStoreValidation, SurfaceAndModelKindsDoNotCrossLoad) {
    TempDir dir("cross_kind");
    const std::string path = dir.str() + "/p" + kPackExt;
    PackWriter writer;
    writer.add_model("m", Shared::get().nor);
    writer.add_surface("s", sample_surface());
    writer.write(path);
    const auto pack = MappedPack::map(path);
    EXPECT_EQ(pack->find_surface("m"), nullptr);
    EXPECT_EQ(pack->model_check("s"), 0u);
    EXPECT_THROW(pack->materialize_model("s"), ModelError);
}

// Every mapped entry of `pack`, rendered to bytes: equal fingerprints mean
// bitwise-equal models and surfaces.
std::string fingerprint(const MappedPack& pack) {
    std::string out;
    for (const std::string& name : pack.model_names())
        out += name + encode_model(pack.materialize_model(name));
    for (const std::string& name : pack.surface_names()) {
        const ArcSurfaceData s = owned(*pack.find_surface(name));
        out += name + s.arc_id;
        for (const double v : {s.dt, s.settle})
            out.append(reinterpret_cast<const char*>(&v), sizeof v);
        out += std::to_string(s.model_check);
        for (const lut::NdTable* t : {&s.delay, &s.slew}) {
            for (const lut::Axis& ax : t->axes())
                out.append(reinterpret_cast<const char*>(ax.knots().data()),
                           ax.knots().size() * sizeof(double));
            out.append(reinterpret_cast<const char*>(t->values().data()),
                       t->values().size() * sizeof(double));
        }
    }
    return out;
}

// Fuzz-style robustness over both entry kinds: seeded random truncations
// and single-bit flips over freshly written single-entry packs must throw
// ModelError at map time -- never crash, never yield a partial entry. The
// one exception is the header-page padding after the header fields, which
// no checksum covers by design: a flip there must leave every mapped entry
// bitwise equal to the original.
TEST(ModelStoreValidation, FuzzedTruncationsAndBitFlipsAlwaysThrow) {
    std::mt19937 gen(0xC0FFEEu);
    for (const std::string& bytes :
         {surface_pack_bytes(sample_surface()),
          model_pack_bytes(Shared::get().inv)}) {
        const std::string want = fingerprint(*map_bytes(bytes));
        for (int i = 0; i < 60; ++i) {
            const std::size_t cut = std::uniform_int_distribution<
                std::size_t>(0, bytes.size() - 1)(gen);
            EXPECT_THROW(map_bytes(bytes.substr(0, cut)), ModelError)
                << "cut=" << cut;
        }
        for (int i = 0; i < 80; ++i) {
            std::string corrupt = bytes;
            const std::size_t at = std::uniform_int_distribution<
                std::size_t>(0, bytes.size() - 1)(gen);
            const int bit = std::uniform_int_distribution<int>(0, 7)(gen);
            corrupt[at] = static_cast<char>(corrupt[at] ^ (1 << bit));
            if (at >= kHeaderEnd && at < kPackPage) {
                EXPECT_EQ(fingerprint(*map_bytes(corrupt)), want)
                    << "padding at=" << at;
            } else {
                EXPECT_THROW(map_bytes(corrupt), ModelError)
                    << "at=" << at << " bit=" << bit;
            }
        }
    }
}

// --- single-flight cache ---------------------------------------------------

TEST(SingleFlight, FailureIsNotCachedAndRetries) {
    SingleFlightCache<int> cache;
    EXPECT_THROW(cache.get_or_produce(
                     "k",
                     []() -> std::shared_ptr<const int> {
                         throw ModelError("production failed");
                     }),
                 ModelError);
    EXPECT_FALSE(cache.ready("k"));
    const auto v = cache.get_or_produce(
        "k", [] { return std::make_shared<const int>(7); });
    EXPECT_EQ(*v, 7);
    EXPECT_TRUE(cache.ready("k"));
}

TEST(SingleFlight, FailedProducerDoesNotEvictConcurrentPut) {
    // A put() that lands while a production for the same key is failing
    // must survive the producer's eviction (the producer may only remove
    // its own in-flight entry).
    SingleFlightCache<int> cache;
    const auto put_value = std::make_shared<const int>(42);
    EXPECT_THROW(cache.get_or_produce(
                     "k",
                     [&]() -> std::shared_ptr<const int> {
                         cache.put("k", put_value);
                         throw ModelError("production failed");
                     }),
                 ModelError);
    EXPECT_TRUE(cache.ready("k"));
    const auto got = cache.get_or_produce(
        "k", []() -> std::shared_ptr<const int> {
            ADD_FAILURE() << "producer ran despite cached value";
            return nullptr;
        });
    EXPECT_EQ(got.get(), put_value.get());
}

// --- repository -----------------------------------------------------------

TEST(Repository, CorruptFileFailsAndCacheStaysClean) {
    const Shared& s = Shared::get();
    TempDir dir("corrupt");
    const ModelKey key = ModelKey::arc("NOR2", {"A", "B"});

    RepositoryOptions opt;
    opt.dir = dir.str();
    ModelRepository repo(nullptr, opt);
    write_file(repo.store_path(key), "MCSMMAP3 but not really");
    EXPECT_THROW(repo.get(key), ModelError);
    EXPECT_EQ(repo.cached_count(), 0u);  // no partial model cached

    // A valid pack that lacks the key's entry fails the same way.
    write_model_pack(repo.store_path(key), "other", s.nor);
    EXPECT_THROW(repo.get(key), ModelError);
    EXPECT_EQ(repo.cached_count(), 0u);

    // Replacing the corrupt file heals the key without restarting.
    write_model_pack(repo.store_path(key), key.to_string(), s.nor);
    const auto model = repo.get(key);
    EXPECT_EQ(encode_model(*model), encode_model(s.nor));
    EXPECT_TRUE(repo.cached(key));
}

TEST(Repository, FullMissWithoutLibraryThrows) {
    ModelRepository repo(nullptr, RepositoryOptions{});
    EXPECT_THROW(repo.get(ModelKey::arc("NOR2", {"A", "B"})), ModelError);
    EXPECT_EQ(repo.cached_count(), 0u);
}

TEST(Repository, SingleFlightCharacterizesOnceUnderConcurrency) {
    const Shared& s = Shared::get();
    RepositoryOptions opt;
    opt.char_options = fast_options();
    ModelRepository repo(&s.lib, opt);

    const ModelKey key = ModelKey::arc("INV_X1", {"A"});
    std::vector<std::shared_ptr<const core::CsmModel>> seen(6);
    parallel_for(
        seen.size(), [&](std::size_t w) { seen[w] = repo.get(key); },
        seen.size());
    EXPECT_EQ(repo.characterize_count(), 1u);
    for (const auto& m : seen) EXPECT_EQ(m.get(), seen.front().get());
}

TEST(Repository, WriteBackThenColdLoadIsBitExact) {
    const Shared& s = Shared::get();
    TempDir dir("writeback");
    const ModelKey key = ModelKey::arc("NOR2", {"A", "B"});

    RepositoryOptions opt;
    opt.dir = dir.str();
    {
        ModelRepository warm(&s.lib, opt);
        warm.put(key, s.nor);
        EXPECT_TRUE(fs::exists(warm.store_path(key)));
    }
    ModelRepository cold(nullptr, opt);  // no library: disk only
    EXPECT_EQ(encode_model(*cold.get(key)), encode_model(s.nor));
    EXPECT_EQ(cold.characterize_count(), 0u);
}

TEST(Repository, FailedWriteBackStillCachesTheModel) {
    // The store directory cannot exist: its parent is a regular file. The
    // characterized model must still be cached and served -- one
    // characterization, however many gets -- and the lost write counted.
    const Shared& s = Shared::get();
    TempDir dir("blocked");
    write_file(dir.str() + "/blocker", "a file, not a directory");
    RepositoryOptions opt;
    opt.dir = dir.str() + "/blocker/models";
    opt.char_options = fast_options();
    ModelRepository repo(&s.lib, opt);

    obs::Counter& failures = obs::counter("serve.store.write_failures");
    const long long before = failures.value();
    const ModelKey key = ModelKey::arc("NOR2", {"A", "B"});
    for (int i = 0; i < 3; ++i) EXPECT_NO_THROW(repo.get(key));
    EXPECT_EQ(repo.characterize_count(), 1u);
    EXPECT_TRUE(repo.cached(key));
    EXPECT_EQ(failures.value() - before, 1);
}

// --- repository corner keying ---------------------------------------------

TEST(Repository, CornerModelsCharacterizeCacheAndReloadDistinctly) {
    const Shared& s = Shared::get();
    TempDir dir("corners");
    RepositoryOptions opt;
    opt.dir = dir.str();
    opt.char_options = fast_options();

    const Corner hot{1.0, 100.0};
    const ModelKey nominal = ModelKey::arc("INV_X1", {"A"});
    const ModelKey corner = ModelKey::arc("INV_X1", {"A"}, hot);
    // 0.1 uV away in supply: a different corner with its own key, model
    // and store file, though six significant digits print both alike.
    const ModelKey near =
        ModelKey::arc("INV_X1", {"A"}, Corner{1.0000001, 100.0});
    ASSERT_NE(nominal.to_string(), corner.to_string());
    EXPECT_EQ(corner.to_string(), "INV_X1.SIS.A@1V100C");
    EXPECT_EQ(near.to_string(), "INV_X1.SIS.A@1.0000001V100C");

    std::string nom_bytes;
    std::string hot_bytes;
    {
        ModelRepository warm(&s.lib, opt);
        const auto nom = warm.get(nominal);
        const auto hot_model = warm.get(corner);
        const auto near_model = warm.get(near);
        EXPECT_EQ(warm.characterize_count(), 3u);  // no cross-corner hit
        EXPECT_TRUE(warm.cached(nominal));
        EXPECT_TRUE(warm.cached(corner));
        EXPECT_TRUE(warm.cached(near));
        EXPECT_EQ(near_model->vdd, 1.0000001);

        // The corner model really is a different model, characterized on a
        // derated card: supply and temperature both differ.
        EXPECT_EQ(nom->vdd, s.tech.vdd);
        EXPECT_EQ(nom->temp_c, 25.0);
        EXPECT_EQ(hot_model->vdd, 1.0);
        EXPECT_EQ(hot_model->temp_c, 100.0);
        nom_bytes = encode_model(*nom);
        hot_bytes = encode_model(*hot_model);
        EXPECT_NE(nom_bytes, hot_bytes);
        EXPECT_TRUE(fs::exists(warm.store_path(nominal)));
        EXPECT_TRUE(fs::exists(warm.store_path(corner)));
        EXPECT_TRUE(fs::exists(warm.store_path(near)));
        EXPECT_NE(warm.store_path(near), warm.store_path(corner));
    }

    // Cold restart from the pack store, no library attached: both corner
    // variants reload bit-exactly from their own files, without
    // characterization and without cross-corner cache hits.
    ModelRepository cold(nullptr, opt);
    EXPECT_EQ(encode_model(*cold.get(corner)), hot_bytes);
    EXPECT_TRUE(cold.cached(corner));
    EXPECT_FALSE(cold.cached(nominal));
    EXPECT_EQ(encode_model(*cold.get(nominal)), nom_bytes);
    EXPECT_EQ(cold.characterize_count(), 0u);
}

// --- timing service --------------------------------------------------------

ServeOptions test_serve_options() {
    ServeOptions opt;
    opt.slew_knots = {50e-12, 150e-12};
    // Normalized edge offsets: +-1.25 mean-slews around simultaneity.
    opt.skew_knots = {-1.25, 0.0, 1.25};
    opt.load_knots = {2e-15, 8e-15};
    opt.dt = 4e-12;
    opt.settle = 1.5e-9;
    return opt;
}

// Repository pre-seeded with the shared models; no disk, no characterizer.
std::unique_ptr<ModelRepository> seeded_repo() {
    const Shared& s = Shared::get();
    auto repo =
        std::make_unique<ModelRepository>(nullptr, RepositoryOptions{});
    repo->put(ModelKey::arc("INV_X1", {"A"}), s.inv);
    repo->put(ModelKey::arc("NOR2", {"A", "B"}), s.nor);
    return repo;
}

TEST(TimingService, LutPathMatchesTransientAtSurfaceKnots) {
    auto repo = seeded_repo();
    TimingService service(*repo, test_serve_options());

    TimingQuery q;
    q.cell = "NOR2";
    q.pins = {"A", "B"};
    q.inputs_rise = false;  // both fall -> output rises through the stack
    q.slews = {50e-12, 150e-12};
    // The skew axis holds normalized 50%-crossing offsets: delta = skew_b
    // + (slew_b - slew_a)/2 = 125 ps over a 100 ps mean slew, i.e. the
    // u = +1.25 surface knot.
    q.skews = {0.0, 75e-12};
    q.load_cap = 8e-15;

    const TimingResult lut = service.run_one(q);
    ASSERT_TRUE(lut.valid) << lut.error;
    EXPECT_EQ(lut.path, ResultPath::kLut);

    TimingQuery exact = q;
    exact.exact = true;
    const TimingResult ref = service.run_one(exact);
    ASSERT_TRUE(ref.valid) << ref.error;
    EXPECT_EQ(ref.path, ResultPath::kTransient);

    // At a surface knot the LUT holds the value measured from the identical
    // deterministic transient. The delay differs from the exact path only
    // by the rounding of the pin-0 -> latest-edge reference conversion
    // (sub-attosecond); the slew is bitwise identical.
    EXPECT_NEAR(lut.delay, ref.delay, 1e-22);
    EXPECT_EQ(lut.slew, ref.slew);
}

TEST(TimingService, LutPathInterpolatesOffKnotWithinTolerance) {
    auto repo = seeded_repo();
    TimingService service(*repo, test_serve_options());

    TimingQuery q;
    q.cell = "NOR2";
    q.pins = {"A", "B"};
    q.slews = {80e-12, 120e-12};  // off every surface knot
    q.skews = {0.0, 40e-12};
    q.load_cap = 5e-15;

    const TimingResult lut = service.run_one(q);
    TimingQuery exact = q;
    exact.exact = true;
    const TimingResult ref = service.run_one(exact);
    ASSERT_TRUE(lut.valid && ref.valid) << lut.error << ref.error;
    EXPECT_NEAR(lut.delay, ref.delay, 0.25 * std::abs(ref.delay) + 5e-12);
    EXPECT_NEAR(lut.slew, ref.slew, 0.25 * ref.slew + 5e-12);
}

TEST(TimingService, SkewIsAFirstClassQueryAxis) {
    auto repo = seeded_repo();
    TimingService service(*repo, test_serve_options());

    // Sweeping the B skew through the MIS valley must change the answer;
    // a characterization-time-only treatment would return a flat curve.
    std::vector<TimingQuery> batch;
    for (const double skew : {-100e-12, 0.0, 100e-12}) {
        TimingQuery q;
        q.cell = "NOR2";
        q.pins = {"A", "B"};
        q.slews = {80e-12, 80e-12};
        q.skews = {0.0, skew};
        q.load_cap = 4e-15;
        batch.push_back(q);
    }
    const std::vector<TimingResult> r = service.run_batch(batch);
    ASSERT_TRUE(r[0].valid && r[1].valid && r[2].valid);
    // Absolute-skew invariance: shifting both edges together is a no-op
    // (up to the ulp the skew subtraction itself introduces).
    TimingQuery shifted = batch[2];
    shifted.skews = {60e-12, 160e-12};
    const TimingResult rs = service.run_one(shifted);
    EXPECT_NEAR(rs.delay, r[2].delay, 1e-20);
    // The simultaneous point must differ from the widely skewed points.
    EXPECT_NE(r[1].delay, r[0].delay);
    EXPECT_NE(r[1].delay, r[2].delay);
}

TEST(TimingService, BatchIsDeterministicAcrossThreadCounts) {
    auto repo = seeded_repo();

    // A mixed batch: both cells, both paths, off-grid skews, one failing
    // query (unknown cell) that must not poison the rest.
    std::vector<TimingQuery> batch;
    for (int i = 0; i < 24; ++i) {
        TimingQuery q;
        if (i % 3 == 0) {
            q.cell = "INV_X1";
            q.pins = {"A"};
            q.slews = {(40 + 13.0 * (i % 7)) * 1e-12};
        } else {
            q.cell = "NOR2";
            q.pins = {"A", "B"};
            q.slews = {(50 + 10.0 * (i % 5)) * 1e-12,
                       (60 + 9.0 * (i % 6)) * 1e-12};
            q.skews = {0.0, (i % 5 - 2) * 35e-12};
        }
        q.inputs_rise = (i % 2) == 1;
        q.load_cap = (2 + (i % 4) * 2) * 1e-15;
        q.exact = (i % 8) == 5;
        batch.push_back(q);
    }
    TimingQuery bad;
    bad.cell = "NO_SUCH_CELL";
    bad.pins = {"A"};
    bad.slews = {50e-12};
    batch.push_back(bad);

    ServeOptions opt1 = test_serve_options();
    opt1.threads = 1;
    ServeOptions optN = test_serve_options();
    optN.threads = 4;
    TimingService serial(*repo, opt1);
    TimingService parallel(*repo, optN);

    const std::vector<TimingResult> a = serial.run_batch(batch);
    const std::vector<TimingResult> b = parallel.run_batch(batch);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].valid, b[i].valid) << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].delay),
                  std::bit_cast<std::uint64_t>(b[i].delay))
            << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].slew),
                  std::bit_cast<std::uint64_t>(b[i].slew))
            << i;
    }
    EXPECT_FALSE(a.back().valid);
    EXPECT_FALSE(a.back().error.empty());
    for (std::size_t i = 0; i + 1 < a.size(); ++i)
        EXPECT_TRUE(a[i].valid) << i << ": " << a[i].error;
    // One surface per (cell, pins, direction) arc in the batch.
    EXPECT_EQ(serial.surface_count(), parallel.surface_count());
}

TEST(TimingService, WaveformQueriesReturnTheOutputWave) {
    auto repo = seeded_repo();
    TimingService service(*repo, test_serve_options());

    TimingQuery q;
    q.cell = "INV_X1";
    q.pins = {"A"};
    q.inputs_rise = true;
    q.slews = {100e-12};
    q.load_cap = 4e-15;
    q.want_waveform = true;

    const TimingResult r = service.run_one(q);
    ASSERT_TRUE(r.valid) << r.error;
    EXPECT_EQ(r.path, ResultPath::kTransient);
    ASSERT_GT(r.waveform.size(), 10u);
    const double vdd = Shared::get().inv.vdd;
    EXPECT_NEAR(r.waveform.first_value(), vdd, 0.05 * vdd);
    EXPECT_LT(r.waveform.last_value(), 0.1 * vdd);
}

// Persisted surfaces are a derived cache of (options, model): a second
// service reloads them bit-for-bit, but a changed source model must force
// a rebuild -- a surface of a stale model is never served.
TEST(TimingService, PersistedSurfacesInvalidateWhenModelChanges) {
    const Shared& s = Shared::get();
    TempDir dir("surf_stale");
    ServeOptions opt = test_serve_options();
    opt.surface_dir = dir.str();

    TimingQuery q;
    q.cell = "INV_X1";
    q.pins = {"A"};
    q.slews = {80e-12};
    q.load_cap = 4e-15;

    auto repo = seeded_repo();
    double fresh_delay = 0.0;
    {
        TimingService first(*repo, opt);
        const TimingResult r = first.run_one(q);
        ASSERT_TRUE(r.valid) << r.error;
        fresh_delay = r.delay;
        EXPECT_EQ(first.surface_load_count(), 0u);  // cold build
    }
    {
        TimingService second(*repo, opt);
        const TimingResult r = second.run_one(q);
        ASSERT_TRUE(r.valid) << r.error;
        EXPECT_EQ(r.delay, fresh_delay);  // bit-exact reload
        EXPECT_EQ(second.surface_load_count(), 1u);
    }

    // Same key, different model content (as after a re-characterization
    // with other options): the persisted surface must be rebuilt.
    core::CsmModel tweaked = s.inv;
    const std::vector<std::size_t> origin(tweaked.i_out.rank(), 0);
    tweaked.i_out.set_grid_value(origin,
                                 tweaked.i_out.grid_value(origin) + 1e-6);
    auto repo2 =
        std::make_unique<ModelRepository>(nullptr, RepositoryOptions{});
    repo2->put(ModelKey::arc("INV_X1", {"A"}), tweaked);
    TimingService third(*repo2, opt);
    const TimingResult r = third.run_one(q);
    ASSERT_TRUE(r.valid) << r.error;
    EXPECT_EQ(third.surface_load_count(), 0u)
        << "stale surface served for a changed model";
}

// Every malformed query must come back as valid=false with a descriptive
// error -- never a crash, never silent garbage -- and must not poison the
// healthy queries sharing its batch.
TEST(TimingService, MalformedQueriesYieldDescriptiveErrors) {
    auto repo = seeded_repo();
    TimingService service(*repo, test_serve_options());

    const auto base = [] {
        TimingQuery q;
        q.cell = "INV_X1";
        q.pins = {"A"};
        q.slews = {80e-12};
        q.load_cap = 4e-15;
        return q;
    };

    struct Case {
        const char* name;
        std::function<void(TimingQuery&)> mutate;
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<Case> cases{
        {"empty cell", [](TimingQuery& q) { q.cell.clear(); }},
        {"no pins", [](TimingQuery& q) { q.pins.clear(); }},
        {"four pins",
         [](TimingQuery& q) {
             q.pins = {"A", "B", "C", "D"};
             q.slews.assign(4, 80e-12);
         }},
        {"duplicate pins",
         [](TimingQuery& q) {
             q.pins = {"A", "A"};
             q.slews = {80e-12, 80e-12};
         }},
        {"empty pin name", [](TimingQuery& q) { q.pins = {""}; }},
        {"missing slew", [](TimingQuery& q) { q.slews.clear(); }},
        {"extra slew",
         [](TimingQuery& q) { q.slews = {80e-12, 90e-12}; }},
        {"negative slew", [](TimingQuery& q) { q.slews = {-1e-12}; }},
        {"zero slew", [](TimingQuery& q) { q.slews = {0.0}; }},
        {"NaN slew", [&](TimingQuery& q) { q.slews = {nan}; }},
        {"infinite slew", [&](TimingQuery& q) { q.slews = {inf}; }},
        {"skew count mismatch",
         [](TimingQuery& q) { q.skews = {0.0, 10e-12}; }},
        {"NaN skew", [&](TimingQuery& q) { q.skews = {nan}; }},
        {"negative load", [](TimingQuery& q) { q.load_cap = -1e-15; }},
        {"NaN load", [&](TimingQuery& q) { q.load_cap = nan; }},
        {"negative wire resistance",
         [](TimingQuery& q) { q.r_wire = -100.0; }},
        {"negative far cap",
         [](TimingQuery& q) {
             q.r_wire = 100.0;
             q.c_far = -1e-15;
         }},
        {"pi caps without wire",
         [](TimingQuery& q) { q.c_far = 4e-15; }},
        {"corner vdd out of range",
         [](TimingQuery& q) { q.corner.vdd = 0.05; }},
        {"corner temperature out of range",
         [](TimingQuery& q) { q.corner.temp_c = 400.0; }},
        {"unknown cell", [](TimingQuery& q) { q.cell = "NO_SUCH_CELL"; }},
        {"unknown pin", [](TimingQuery& q) { q.pins = {"Z"}; }},
    };

    // One batch: every malformed case plus a healthy query at each end.
    std::vector<TimingQuery> batch;
    batch.push_back(base());
    for (const Case& c : cases) {
        TimingQuery q = base();
        c.mutate(q);
        batch.push_back(q);
    }
    batch.push_back(base());

    const std::vector<TimingResult> results = service.run_batch(batch);
    EXPECT_TRUE(results.front().valid) << results.front().error;
    EXPECT_TRUE(results.back().valid) << results.back().error;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const TimingResult& r = results[i + 1];
        EXPECT_FALSE(r.valid) << cases[i].name;
        EXPECT_FALSE(r.error.empty()) << cases[i].name;
        EXPECT_EQ(r.delay, 0.0) << cases[i].name << ": no garbage numbers";
    }
}

// A misconfigured service must refuse to construct instead of serving
// garbage later.
TEST(TimingService, RejectsMalformedServeOptions) {
    auto repo = seeded_repo();
    const auto expect_throws = [&](const char* name,
                                   const std::function<void(ServeOptions&)>&
                                       mutate) {
        ServeOptions opt = test_serve_options();
        mutate(opt);
        EXPECT_THROW(TimingService(*repo, opt), ModelError) << name;
    };
    expect_throws("empty slew knots",
                  [](ServeOptions& o) { o.slew_knots.clear(); });
    expect_throws("single-knot axis",
                  [](ServeOptions& o) { o.slew_knots = {80e-12}; });
    expect_throws("non-monotone slew knots", [](ServeOptions& o) {
        o.slew_knots = {80e-12, 50e-12};
    });
    expect_throws("duplicate load knots", [](ServeOptions& o) {
        o.load_knots = {4e-15, 4e-15};
    });
    expect_throws("negative slew knot", [](ServeOptions& o) {
        o.slew_knots = {-20e-12, 80e-12};
    });
    expect_throws("skew knots not bracketing 0", [](ServeOptions& o) {
        o.skew_knots = {0.5, 1.0, 1.5};
    });
    expect_throws("3-pin skew knots not bracketing 0", [](ServeOptions& o) {
        o.skew_knots_mis3 = {-2.0, -1.0, -0.5};
    });
    expect_throws("seconds-valued skew knots (pre-normalized schema)",
                  [](ServeOptions& o) {
                      o.skew_knots = {-100e-12, 0.0, 100e-12};
                  });
    expect_throws("NaN knot", [](ServeOptions& o) {
        o.load_knots = {2e-15, std::numeric_limits<double>::quiet_NaN()};
    });
    expect_throws("zero dt", [](ServeOptions& o) { o.dt = 0.0; });
    expect_throws("negative settle",
                  [](ServeOptions& o) { o.settle = -1e-9; });
}

}  // namespace
}  // namespace mcsm::serve
