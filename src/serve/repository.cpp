#include "serve/repository.h"

#include <charconv>
#include <filesystem>
#include <utility>

#include "analysis/model_audit.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mcsm::serve {

namespace fs = std::filesystem;

std::string Corner::tag() const {
    if (nominal()) return {};
    // Shortest round-trip form: corners that differ in either number get
    // different tags, and the digits a spec carries print as written
    // ("1.08V85C").
    char buf[64];
    char* p = std::to_chars(buf, buf + sizeof buf, vdd > 0.0 ? vdd : 0.0).ptr;
    *p++ = 'V';
    p = std::to_chars(p, buf + sizeof buf, temp_c).ptr;
    *p++ = 'C';
    return std::string(buf, p);
}

std::string ModelKey::to_string() const {
    std::string s = cell;
    s += '.';
    s += core::to_string(kind);
    s += '.';
    for (std::size_t i = 0; i < pins.size(); ++i) {
        if (i) s += '-';
        s += pins[i];
    }
    const std::string tag = corner.tag();
    if (!tag.empty()) {
        s += '@';
        s += tag;
    }
    return s;
}

ModelKey ModelKey::arc(std::string cell, std::vector<std::string> pins,
                       Corner corner) {
    ModelKey key;
    key.cell = std::move(cell);
    key.kind = pins.size() == 1 ? core::ModelKind::kSis
                                : core::ModelKind::kMcsm;
    key.pins = std::move(pins);
    key.corner = corner;
    return key;
}

namespace {

// Orphaned "*.tmp.*" droppings (writer died between write and rename) are
// removed on repository construction, but only once they are old enough
// that no live writer can still own them: a characterization run filling
// the store can legitimately keep temps in flight for minutes.
constexpr long kOrphanMinAgeS = 3600;

}  // namespace

ModelRepository::ModelRepository(const cells::CellLibrary* lib,
                                 RepositoryOptions options)
    : lib_(lib), options_(std::move(options)) {
    if (!options_.dir.empty()) {
        const std::size_t removed =
            clean_orphan_temps(options_.dir, kOrphanMinAgeS);
        if (removed > 0)
            obs::counter("serve.store.orphans_cleaned")
                .add(static_cast<long long>(removed));
    }
}

std::string ModelRepository::store_path(const ModelKey& key) const {
    if (options_.dir.empty()) return {};
    return options_.dir + "/" + key.to_string() + kPackExt;
}

std::shared_ptr<const core::CsmModel> ModelRepository::get(
    const ModelKey& key) {
    static obs::Counter& hits = obs::counter("serve.model.hit");
    static obs::Counter& misses = obs::counter("serve.model.miss");
    static obs::Counter& waits = obs::counter("serve.model.wait");
    CacheOutcome outcome = CacheOutcome::kHit;
    ModelPtr result = cache_.get_or_produce(
        key.to_string(),
        [&] {
            ModelPtr model = load_or_characterize(key);
            // Pre-flight audit on every production (pack or store load, or
            // fresh characterization): a defective model is rejected here,
            // before anything is served from it, and the failure is never
            // cached (single-flight failure contract), so a repaired store
            // file is retried on the next get().
            analysis::audit_model(*model).require_clean(
                "ModelRepository[" + key.to_string() + "]");
            return model;
        },
        &outcome);
    switch (outcome) {
        case CacheOutcome::kHit: hits.add(); break;
        case CacheOutcome::kMiss: misses.add(); break;
        case CacheOutcome::kWait: waits.add(); break;
    }
    return result;
}

ModelRepository::ModelPtr ModelRepository::load_or_characterize(
    const ModelKey& key) {
    const std::string name = key.to_string();
    if (options_.pack) {
        // Served-pack hit: copy the validated tables into an owned model
        // (the exact path needs real tables); the in-memory cache then
        // serves every later get(). Absent keys fall through to the store.
        const std::shared_ptr<const MappedPack> pack =
            options_.pack->current();
        if (pack->model_check(name) != 0) {
            obs::counter("serve.model.pack_loads").add();
            return std::make_shared<const core::CsmModel>(
                pack->materialize_model(name));
        }
    }
    const std::string path = store_path(key);
    std::error_code ec;
    if (!path.empty() && fs::exists(path, ec)) {
        obs::counter("serve.model.store_loads").add();
        return std::make_shared<const core::CsmModel>(
            MappedPack::map(path)->materialize_model(name));
    }

    require(lib_ != nullptr, "ModelRepository: model " + name +
                                 " not in store and no cell library "
                                 "attached for characterization");
    ++characterize_count_;
    obs::counter("serve.model.characterize").add();
    const obs::Span span("serve.characterize", name);
    const obs::ScopedLatency latency(
        obs::histogram("serve.characterize_ns"));
    const cells::CellLibrary& lib = library_for(key.corner);
    const core::Characterizer chr(lib);
    const core::CharOptions& copt = key.pins.size() >= 3
                                        ? options_.char_options_mis3
                                        : options_.char_options;
    auto model = std::make_shared<const core::CsmModel>(
        chr.characterize(key.cell, key.kind, key.pins, copt));
    persist(key, *model);
    return model;
}

void ModelRepository::persist(const ModelKey& key,
                              const core::CsmModel& model) {
    if (options_.dir.empty()) return;
    // The store is a cache of characterizations: losing a write costs a
    // later process one re-characterization, so it must not cost this one
    // the model it just built.
    try {
        fs::create_directories(options_.dir);
        PackWriter writer;
        writer.add_model(key.to_string(), model);
        writer.write(store_path(key));
    } catch (const std::exception&) {
        obs::counter("serve.store.write_failures").add();
    }
}

const cells::CellLibrary& ModelRepository::library_for(const Corner& corner) {
    require(lib_ != nullptr,
            "ModelRepository: no cell library attached for characterization");
    if (corner.nominal()) return *lib_;
    const std::string tag = corner.tag();
    MutexLock lock(corner_mutex_);
    auto it = corner_libs_.find(tag);
    if (it == corner_libs_.end()) {
        it = corner_libs_
                 .emplace(tag, std::make_unique<CornerLibrary>(
                                   tech::apply_environment(
                                       lib_->tech(), corner.vdd,
                                       corner.temp_c)))
                 .first;
    }
    return it->second->lib;
}

void ModelRepository::put(const ModelKey& key, core::CsmModel model) {
    model.check_consistent();
    analysis::audit_model(model).require_clean(
        "ModelRepository::put[" + key.to_string() + "]");
    auto ptr = std::make_shared<const core::CsmModel>(std::move(model));
    cache_.put(key.to_string(), ptr);
    persist(key, *ptr);
}

std::shared_ptr<const core::CsmModel> ModelRepository::find(
    const ModelKey& key) const {
    return cache_.find(key.to_string());
}

bool ModelRepository::cached(const ModelKey& key) const {
    return cache_.ready(key.to_string());
}

std::size_t ModelRepository::cached_count() const {
    return cache_.ready_count();
}

}  // namespace mcsm::serve
