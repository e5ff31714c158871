// The serving layer's one at-rest format: an mmap-able zero-parse pack of
// characterized models and serve-layer arc surfaces, plus the durable file
// plumbing every pack is published through.
//
// A pack bundles any number of entries into ONE file laid out for mmap(2):
//   * page-aligned sections, so section starts never share a page and the
//     kernel can fault exactly what a query touches;
//   * every numeric array stored as naturally-aligned little-endian
//     doubles, referenced by offset instead of being inlined behind
//     variable-length headers -- a mapped surface is served through
//     lut::TableView spans pointing STRAIGHT INTO THE MAPPING, no decode,
//     no allocation, no per-process copy of the knot/value data;
//   * one FNV-1a checksum over the body and one per entry payload, all
//     verified ONCE at map time (plus rigorous bounds/monotonicity/
//     finiteness validation of every entry), after which lookups trust the
//     mapping.
// N server processes mapping the same pack therefore share a single kernel
// page cache copy of every model.
//
// The same file format serves two roles:
//   * the per-file store: ModelRepository publishes <dir>/<key>.mcsmpack
//     and TimingService <surface_dir>/<arc stem>.mcsmpack, each a
//     single-entry pack;
//   * the served pack: pack_from_dirs() merges a store's single-entry packs
//     by copying their payloads verbatim, and PackHost maps the result.
//
// Layout (all offsets from file start, little-endian; doubles 8-aligned):
//   header   page 0: magic "MCSMMAP3", version u32 (kPackFormatVersion),
//            reserved u32, file_size u64, entry_count u64, dir_offset u64,
//            body_offset u64, payload_check u64 (FNV-1a over
//            [body_offset, file_size)), header_check u64 (FNV-1a over the
//            preceding header bytes); the rest of the page is padding
//   body     per-entry payloads, each page-aligned. Strings are
//            length-prefixed (u64) and zero-padded to 8 bytes; a table is
//            name, rank u64, per axis {name, knot_count u64, knots f64[]},
//            value_count u64, values f64[].
//            model payload   = kind u64, vdd f64, dv_margin f64, temp_c f64,
//                              cell name, pins, fixed pins (count u64 +
//                              strings each), fixed values (count u64 +
//                              f64[]), internals (count u64 + strings),
//                              then every table in the model's list
//                              order (core::table_roles, core/model.h)
//            surface payload = arc_id, dt f64, settle f64, model_check u64,
//                              then the delay and slew tables
//   dir      entry records {kind u32, name_len u32, name_off u64,
//            payload_off u64, payload_size u64, content_check u64}
//            followed by the name blob. content_check is FNV-1a over the
//            payload; for a model it equals model_checksum(). map() rejects
//            an entry whose content_check does not match its payload.
//
// Hot reload: PackHost re-stats the pack path and swaps in a fresh mapping
// (atomic shared_ptr swap under a mutex, generation bump); queries already
// holding the old MappedPack via shared_ptr keep serving off the retired
// mapping until the last reference drops, which munmaps it -- reload never
// invalidates an in-flight batch.
#ifndef MCSM_SERVE_MAPPED_STORE_H
#define MCSM_SERVE_MAPPED_STORE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "core/model.h"
#include "lut/ndtable.h"
#include "lut/table_view.h"

namespace mcsm::serve {

inline constexpr char kPackMagic[8] = {'M', 'C', 'S', 'M',
                                       'M', 'A', 'P', '3'};
inline constexpr std::uint32_t kPackFormatVersion = 4;
inline constexpr std::uint32_t kModelKind = 2;
inline constexpr std::uint32_t kSurfaceKind = 3;
inline constexpr const char* kPackExt = ".mcsmpack";

// The pack payload of a model entry (layout above): deterministic, so
// byte equality is bitwise identity over every field and table value.
// Throws ModelError when the model is structurally inconsistent.
std::string encode_model(const core::CsmModel& model);

// FNV-1a 64 over encode_model(model): the content identity derived caches
// (arc surfaces) reference, equal to a packed model's content_check.
std::uint64_t model_checksum(const core::CsmModel& model);

// A serve-layer arc surface as built in memory: the delay/slew tables the
// TimingService builds by running one CSM transient per knot, plus the
// evaluation parameters they were built under. arc_id and the parameters
// let a loader reject stale entries after an options change instead of
// serving wrong numbers.
struct ArcSurfaceData {
    std::string arc_id;   // TimingService arc identity (cell|pins|dir|corner)
    double dt = 0.0;      // transient step the knots were measured with [s]
    double settle = 0.0;  // post-edge simulation window [s]
    // model_checksum() of the CSM model the knot transients ran against;
    // loaders compare it so a surface derived from a stale model (e.g.
    // re-characterized with different options) is rebuilt, never served.
    std::uint64_t model_check = 0;
    lut::NdTable delay;
    lut::NdTable slew;
};

// A surface resolved inside a mapping: evaluation parameters plus
// TableViews whose spans point into the mapped bytes. Valid only while the
// owning MappedPack is alive (pin it with the shared_ptr you got it from).
struct MappedSurface {
    std::string_view arc_id;
    double dt = 0.0;
    double settle = 0.0;
    std::uint64_t model_check = 0;
    lut::TableView delay;
    lut::TableView slew;
};

// A model entry as validated at map time; every view borrows the mapping.
struct MappedModel {
    core::ModelKind kind = core::ModelKind::kMcsm;
    std::string_view cell_name;
    double vdd = 0.0;
    double dv_margin = 0.0;
    double temp_c = 0.0;
    std::vector<std::string_view> pins;
    std::vector<std::string_view> fixed_pins;
    std::span<const double> fixed_values;
    std::vector<std::string_view> internals;
    std::vector<lut::TableView> tables;  // list order (core::table_roles)
    std::uint64_t check = 0;             // content_check (model_checksum)
};

class MappedPack;

// Accumulates entries and writes them as one pack file, durably and
// atomically (save_bytes_atomically below).
class PackWriter {
public:
    // Entry names are lookup keys: ModelKey::to_string() for models,
    // TimingService arc ids for surfaces. Duplicate names throw.
    void add_model(const std::string& name, const core::CsmModel& model);
    void add_surface(const std::string& name, const ArcSurfaceData& surface);
    // Copies every entry of `pack` (kind, name and payload bytes) verbatim:
    // no decode, no re-encode.
    void add_pack(const MappedPack& pack);

    std::size_t entry_count() const { return entries_.size(); }

    void write(const std::string& path) const;

private:
    struct Entry {
        std::uint32_t kind = 0;
        std::string name;
        std::string payload;  // already in the mapped layout
    };
    std::vector<Entry> entries_;
    std::unordered_map<std::string, std::size_t> by_name_;

    void add(std::uint32_t kind, std::string name, std::string payload);
};

// Merges every *.mcsmpack under model_dir and surface_dir (non-recursive;
// in-flight "*.tmp.*" files skipped) into one writer, entries copied
// verbatim. Either directory may be empty (""), and passing the same
// directory twice scans it once. Corrupt packs and duplicate entry names
// throw -- a served pack is built from a verified store or not at all.
// Write the result outside the scanned directories.
PackWriter pack_from_dirs(const std::string& model_dir,
                          const std::string& surface_dir);

// One immutable read-only mapping of a pack file. Construction mmaps the
// file, verifies the checksums and validates every entry (bounds, axis
// monotonicity, finite values, model header ranges and table shapes);
// after that, lookups trust the mapping. Thread-safe for concurrent
// readers.
class MappedPack {
public:
    // Identity of the mapped file, used by PackHost to detect changes.
    struct FileId {
        std::uint64_t dev = 0;
        std::uint64_t ino = 0;
        std::uint64_t size = 0;
        std::int64_t mtime_ns = 0;
        bool operator==(const FileId&) const = default;
    };

    static std::shared_ptr<const MappedPack> map(const std::string& path);
    ~MappedPack();

    MappedPack(const MappedPack&) = delete;
    MappedPack& operator=(const MappedPack&) = delete;

    const std::string& path() const { return path_; }
    const FileId& id() const { return id_; }
    std::size_t model_count() const { return models_.size(); }
    std::size_t surface_count() const { return surfaces_.size(); }

    // nullptr when absent. The views borrow the mapping: keep the
    // shared_ptr alive while using the result.
    const MappedSurface* find_surface(const std::string& name) const;

    // Content identity (model_checksum()) of a packed model; 0 when absent.
    std::uint64_t model_check(const std::string& name) const;

    // Copies a packed model's validated spans into an owned CsmModel (the
    // exact path needs real tables); throws ModelError when absent.
    core::CsmModel materialize_model(const std::string& name) const;

    std::vector<std::string> model_names() const;
    std::vector<std::string> surface_names() const;

private:
    friend class PackWriter;

    MappedPack() = default;

    // Raw directory entry, in file order, for verbatim merging.
    struct RawEntry {
        std::uint32_t kind = 0;
        std::string_view name;
        std::string_view payload;
    };

    std::string path_;
    FileId id_;
    const unsigned char* base_ = nullptr;
    std::size_t size_ = 0;
    std::vector<RawEntry> entries_;
    std::unordered_map<std::string, MappedSurface> surfaces_;
    std::unordered_map<std::string, MappedModel> models_;
};

// Shared, hot-reloadable handle on a pack path. current() hands out the
// active mapping; refresh() re-stats the file and atomically swaps in a
// new mapping when the file changed (rename-published by PackWriter, so a
// change is always a whole new inode). Old mappings retire via shared_ptr
// refcount once their last in-flight reader drops them.
class PackHost {
public:
    // Maps eagerly; throws ModelError when the pack is missing/corrupt.
    explicit PackHost(std::string path);

    const std::string& path() const { return path_; }

    std::shared_ptr<const MappedPack> current() const;

    // Returns true when a new mapping was swapped in. A vanished or
    // corrupt replacement file leaves the current mapping serving (and
    // returns false): a botched deploy must not take the server down.
    bool refresh();

    // Bumps on every successful swap; serves as the cache-epoch component
    // of surface keys in TimingService.
    std::uint64_t generation() const {
        return generation_.load(std::memory_order_acquire);
    }

private:
    const std::string path_;
    mutable Mutex mutex_;
    std::shared_ptr<const MappedPack> pack_ MCSM_GUARDED_BY(mutex_);
    std::atomic<std::uint64_t> generation_{1};
};

// --- durable file plumbing ---------------------------------------------
//
// Every pack is published through write-temp + fsync + rename +
// fsync(parent dir): once a write returns, the new file survives a crash
// or power loss, and a reader can never observe a truncated payload under
// the final name (the incomplete bytes only ever live under a "*.tmp.*"
// name). Because publication is a rename, a process that still maps the
// replaced file keeps reading its old, intact pages.

// Writes `bytes` to `path` durably and atomically: unique same-directory
// temp file, full write, fsync, rename over `path`, fsync of the parent
// directory. Throws ModelError on any failure (the temp is cleaned up).
void save_bytes_atomically(const std::string& path, const std::string& bytes);

// Durably renames the fully-written, fsync'd `tmp` over `path` and fsyncs
// the parent directory of `path`. When the rename fails with EXDEV (tmp on
// a different filesystem), falls back to copying into a fresh temp next to
// `path` first, so cross-filesystem temp directories still publish
// atomically. Throws ModelError on failure; `tmp` is removed either way.
void durable_replace_file(const std::string& tmp, const std::string& path);

// Removes "*.tmp.*" droppings left in `dir` by writers that died between
// write and rename. Only files older than `min_age_s` are removed, so a
// concurrently-running writer's in-flight temp is never yanked away.
// Returns the number of files removed; missing/unreadable directories
// count as empty. ModelRepository runs this on construction.
std::size_t clean_orphan_temps(const std::string& dir, long min_age_s);

}  // namespace mcsm::serve

#endif  // MCSM_SERVE_MAPPED_STORE_H
