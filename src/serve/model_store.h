// Shared pieces of the serving layer's at-rest store: the surface record
// the pack writer takes as input, and the durable file plumbing every
// store writer publishes through. The on-disk format itself -- the mmap
// pack, one file per store entry or many bundled -- lives in
// serve/mapped_store. The text model_io/table_io format stays as a
// human-readable export (characterize_library); the serve path never reads
// it.
#ifndef MCSM_SERVE_MODEL_STORE_H
#define MCSM_SERVE_MODEL_STORE_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "lut/ndtable.h"

namespace mcsm::serve {

// Extension of the text model export (core/model_io).
inline constexpr const char* kTextModelExt = ".csm";

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

// --- durable file plumbing ---------------------------------------------
//
// Every store writer publishes through write-temp + fsync + rename +
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

#endif  // MCSM_SERVE_MODEL_STORE_H
