// Directory-backed model repository: the serving layer's cache of
// characterized CSM models.
//
// Lookup order for a key: in-memory cache -> served pack (RepositoryOptions
// ::pack) -> the store's single-entry pack <dir>/<key>.mcsmpack ->
// on-demand characterization (when a cell library is attached), whose
// result is written back to the store. Every model production (pack or
// store load, characterize-on-miss, put()) passes analysis::audit_model
// first, the serve layer's pre-flight admission gate: a model with audit
// errors throws ModelError carrying the lint report. Loads are lazy and
// single-flight: concurrent misses on the same key block on one
// load/characterization instead of duplicating it, and a failed load or
// audit is never cached (the next get retries, e.g. after the corrupt file
// was replaced). Write-back is
// best effort: a store that cannot be written costs the next process a
// re-characterization, never this process its model (failures count in
// the serve.store.write_failures obs counter).
//
// Keys carry an optional Vdd/temperature corner. Corner models are
// first-class store citizens: they characterize on miss against a derated
// technology card (tech::apply_environment), cache under a corner-suffixed
// key, and persist like any nominal model -- two corners of the same cell
// never share a cache entry or a store file.
#ifndef MCSM_SERVE_REPOSITORY_H
#define MCSM_SERVE_REPOSITORY_H

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cells/library.h"
#include "common/annotations.h"
#include "common/single_flight.h"
#include "core/characterizer.h"
#include "core/model.h"
#include "serve/mapped_store.h"
#include "tech/tech130.h"

namespace mcsm::serve {

// Operating-point (environmental) corner of a query or model key.
// vdd <= 0 means "library nominal supply"; temp_c defaults to the nominal
// 25 degC. The default-constructed Corner is the nominal corner.
struct Corner {
    double vdd = 0.0;     // supply override [V]; <= 0 keeps nominal
    double temp_c = 25.0; // junction temperature [degC]

    bool nominal() const { return vdd <= 0.0 && temp_c == 25.0; }
    // Filename-safe key suffix, "" for the nominal corner (so nominal
    // store files keep their pre-corner names): "1.08V85C". Both numbers
    // print in shortest round-trip form, so distinct corners never share a
    // tag ("1.0800001V85C").
    std::string tag() const;
};

// Identifies one characterized model: cell, model family, the ordered
// switching pins, and the Vdd/temperature corner.
struct ModelKey {
    std::string cell;
    core::ModelKind kind = core::ModelKind::kMcsm;
    std::vector<std::string> pins;
    Corner corner;

    // "NOR2.MCSM.A-B" (nominal) / "NOR2.MCSM.A-B@1.08V85C": also the store
    // file stem.
    std::string to_string() const;

    // Conventional key for a cell's timing arc: one pin -> SIS, several ->
    // MCSM (internal stack nodes modeled).
    static ModelKey arc(std::string cell, std::vector<std::string> pins,
                        Corner corner = {});
};

struct RepositoryOptions {
    // Store directory of single-entry packs, written back on every
    // characterization and put(); empty runs the repository purely in
    // memory.
    std::string dir;
    // Optional mmap'd model pack (serve/mapped_store). When set, lookups
    // consult the pack's current mapping before the store directory or
    // characterizing. A pack hit copies the model's validated tables once
    // per process (the in-memory cache holds the result); the mapping
    // itself is shared page cache across every process hosting the pack.
    std::shared_ptr<PackHost> pack;
    // Options for the characterize-on-miss fallback (1- and 2-pin arcs).
    core::CharOptions char_options;
    // Characterization options for arcs with >= 3 switching pins. A 3-pin
    // MCSM model of a 3-stack cell is 6-D (3 pins + 2 internals + out), so
    // the default grid would cost knots^6 DC solves and the paper-faithful
    // transient cap extraction becomes intractable; the defaults here trade
    // grid resolution for a feasible build (~50k DC points) and use the
    // model-linearized capacitance path.
    core::CharOptions char_options_mis3 = [] {
        core::CharOptions o;
        o.grid_points = 5;
        o.transient_caps = false;
        o.cin_points = 9;
        return o;
    }();
};

class ModelRepository {
public:
    // `lib` may be null: the repository then only serves models already in
    // memory or on disk and throws ModelError on a full miss.
    ModelRepository(const cells::CellLibrary* lib, RepositoryOptions options);

    ModelRepository(const ModelRepository&) = delete;
    ModelRepository& operator=(const ModelRepository&) = delete;

    // Returns the cached model, loading or characterizing it first if
    // needed. Thread-safe; throws ModelError when the model cannot be
    // produced. The returned pointer is immutable and stays valid for the
    // caller's lifetime regardless of later cache activity.
    std::shared_ptr<const core::CsmModel> get(const ModelKey& key);

    // Inserts (or replaces) a model under `key`, writing it back to the
    // store directory when configured (best effort, like characterize-on-
    // miss).
    void put(const ModelKey& key, core::CsmModel model);

    // The model for `key` when it is resident in memory (not merely on
    // disk), else null. Never loads, characterizes, waits or counts.
    std::shared_ptr<const core::CsmModel> find(const ModelKey& key) const;
    // True when `key` is resident in memory.
    bool cached(const ModelKey& key) const;
    std::size_t cached_count() const;

    // Number of characterize-on-miss fallbacks taken (single-flight: one
    // per key however many threads raced on it).
    std::size_t characterize_count() const { return characterize_count_; }

    const RepositoryOptions& options() const { return options_; }
    // Store path of a key's single-entry pack ("" without a store dir).
    std::string store_path(const ModelKey& key) const;

private:
    using ModelPtr = std::shared_ptr<const core::CsmModel>;

    ModelPtr load_or_characterize(const ModelKey& key);
    // Publishes `model` as <dir>/<key>.mcsmpack when a store dir is set.
    // Never throws: a failed write is counted, and the model stays served.
    void persist(const ModelKey& key, const core::CsmModel& model);
    // Library evaluated at `corner` (the attached nominal library for the
    // nominal corner; built once per distinct corner otherwise). Requires
    // an attached library; throws ModelError without one.
    const cells::CellLibrary& library_for(const Corner& corner);

    const cells::CellLibrary* lib_;
    RepositoryOptions options_;

    // Corner-derated technology cards + cell libraries, built lazily and
    // owned for the repository lifetime (characterized models reference
    // nothing in them afterwards, but concurrent characterizations do).
    struct CornerLibrary {
        tech::Technology tech;
        cells::CellLibrary lib;
        explicit CornerLibrary(tech::Technology t)
            : tech(std::move(t)), lib(tech) {}
    };
    Mutex corner_mutex_;
    std::map<std::string, std::unique_ptr<CornerLibrary>> corner_libs_
        MCSM_GUARDED_BY(corner_mutex_);

    SingleFlightCache<core::CsmModel> cache_;
    std::atomic<std::size_t> characterize_count_{0};
};

}  // namespace mcsm::serve

#endif  // MCSM_SERVE_REPOSITORY_H
