// Single-flight cache: a string-keyed map of immutable values where
// concurrent misses on one key block on a single production instead of
// duplicating it. Used by the serve layer for model loads (expensive
// characterization) and arc-surface builds (hundreds of transients).
//
// Failure contract: a failed production is never cached. The producer
// evicts its own in-flight entry before publishing the exception, so
// threads already waiting see the failure while the next get starts a
// fresh attempt (e.g. after a corrupt store file was replaced). A put()
// that raced the failing producer is preserved: eviction only removes the
// producer's own entry, never a value installed concurrently.
#ifndef MCSM_COMMON_SINGLE_FLIGHT_H
#define MCSM_COMMON_SINGLE_FLIGHT_H

#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/annotations.h"

namespace mcsm {

// How a get_or_produce() call was served; callers use it to bump their
// cache hit/miss/single-flight-wait observability counters.
enum class CacheOutcome {
    kHit,   // value was already produced
    kMiss,  // this thread ran produce()
    kWait,  // another thread's in-flight production was awaited
};

template <typename Value>
class SingleFlightCache {
public:
    using Ptr = std::shared_ptr<const Value>;

    // Returns the value for `id`, invoking produce() on this thread when
    // the key is absent. Throws whatever produce() throws (also rethrown
    // to concurrent waiters of this attempt). `outcome`, when non-null, is
    // set before any blocking wait or production starts.
    Ptr get_or_produce(const std::string& id,
                       const std::function<Ptr()>& produce,
                       CacheOutcome* outcome = nullptr) {
        std::promise<Ptr> promise;
        std::shared_ptr<Entry> entry;
        std::shared_future<Ptr> existing;
        {
            MutexLock lock(mutex_);
            const auto it = entries_.find(id);
            if (it != entries_.end()) {
                existing = it->second->future;
                if (outcome != nullptr)
                    *outcome = is_ready(existing) ? CacheOutcome::kHit
                                                  : CacheOutcome::kWait;
            } else {
                entry = std::make_shared<Entry>(
                    Entry{promise.get_future().share()});
                entries_.emplace(id, entry);
                if (outcome != nullptr) *outcome = CacheOutcome::kMiss;
            }
        }
        // get() outside the lock: the future may still be in flight and
        // its producer needs the mutex to publish/evict.
        if (existing.valid()) return existing.get();
        try {
            Ptr value = produce();
            promise.set_value(value);
            return value;
        } catch (...) {
            {
                MutexLock lock(mutex_);
                const auto it = entries_.find(id);
                // Only evict our own attempt; a concurrent put() may have
                // installed a valid value under this key meanwhile.
                if (it != entries_.end() && it->second == entry)
                    entries_.erase(it);
            }
            promise.set_exception(std::current_exception());
            throw;
        }
    }

    // Inserts (or replaces) a ready value.
    void put(const std::string& id, Ptr value) {
        std::promise<Ptr> ready;
        ready.set_value(std::move(value));
        MutexLock lock(mutex_);
        entries_[id] =
            std::make_shared<Entry>(Entry{ready.get_future().share()});
    }

    // Removes every COMPLETED entry whose key satisfies `pred`; in-flight
    // productions are left untouched (their producers still need the entry
    // to publish or evict). Returns the number of entries removed. The
    // serve layer uses this to drop surfaces of a retired pack generation
    // after a hot reload, so the old mapping's refcount can reach zero.
    std::size_t erase_ready_if(
        const std::function<bool(const std::string&)>& pred) {
        MutexLock lock(mutex_);
        std::size_t n = 0;
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (is_ready(it->second->future) && pred(it->first)) {
                it = entries_.erase(it);
                ++n;
            } else {
                ++it;
            }
        }
        return n;
    }

    // The value of a completed, successful production of `id`; null for
    // absent, still-in-flight or failed keys. Never produces, never waits
    // on a production.
    Ptr find(const std::string& id) const {
        std::shared_future<Ptr> future;
        {
            MutexLock lock(mutex_);
            const auto it = entries_.find(id);
            if (it == entries_.end() || !is_ready(it->second->future))
                return nullptr;
            future = it->second->future;
        }
        try {
            return future.get();
        } catch (...) {
            return nullptr;  // a failed attempt its producer is evicting
        }
    }

    // True when find(id) would return a value.
    bool ready(const std::string& id) const { return find(id) != nullptr; }

    std::size_t ready_count() const {
        MutexLock lock(mutex_);
        std::size_t n = 0;
        for (const auto& [id, entry] : entries_)
            if (is_ready(entry->future)) ++n;
        return n;
    }

private:
    struct Entry {
        std::shared_future<Ptr> future;
    };

    static bool is_ready(const std::shared_future<Ptr>& future) {
        return future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
    }

    mutable Mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<Entry>> entries_
        MCSM_GUARDED_BY(mutex_);
};

}  // namespace mcsm

#endif  // MCSM_COMMON_SINGLE_FLIGHT_H
