// Minimal thread pool for fanning independent solves (characterization grid
// sweeps, scenario enumeration, STA level evaluation) out over cores.
//
// Concurrency model: callers split work into items that touch disjoint data
// (disjoint table slots, per-slot circuits/workspaces); the pool provides
// scheduling and completion only. parallel_for is the one fan-out: its
// slot form hands every call a slot index so callers can keep per-slot
// state (a testbench fixture, a stage cache) without locks. The caller
// works slot 0 itself, so a fan-out finishes even while every worker is
// busy with another caller's long-lived jobs. Nested parallel_for calls
// from inside a worker, or from the caller's own slot, run inline, so
// composed layers (parallel library jobs each running a parallel
// characterizer) degrade gracefully instead of deadlocking or
// oversubscribing.
//
// Environment: MCSM_THREADS=<n> overrides hardware_threads() in either
// direction (0/unset: all cores).
#ifndef MCSM_COMMON_PARALLEL_H
#define MCSM_COMMON_PARALLEL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.h"

namespace mcsm {

class ThreadPool {
public:
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    // Enqueues a job; jobs must not throw past their own boundary (use
    // parallel_for for exception propagation).
    void submit(std::function<void()> job) MCSM_EXCLUDES(mutex_);

    // True when the calling thread is one of this (or any) pool's workers.
    static bool on_worker_thread();

private:
    void worker_loop() MCSM_EXCLUDES(mutex_);

    std::vector<std::thread> workers_;
    Mutex mutex_;
    std::deque<std::function<void()>> queue_ MCSM_GUARDED_BY(mutex_);
    // condition_variable_any: waits take std::unique_lock<Mutex> directly.
    std::condition_variable_any work_cv_;
    bool stopping_ MCSM_GUARDED_BY(mutex_) = false;
};

// Worker-thread count: std::thread::hardware_concurrency(), overridden by
// the MCSM_THREADS environment variable when set. Always >= 1.
std::size_t hardware_threads();

// Resolves a user-facing thread-count knob: 0 means hardware_threads().
std::size_t resolve_threads(std::size_t requested);

// Slots a parallel_for with this thread-count knob can use: 1 inside a
// pool worker or a parallel_for caller's own slot (the nested fan-out runs
// inline), resolve_threads(threads) otherwise. Callers that keep per-slot
// state size it with this.
std::size_t parallel_slots(std::size_t threads = 0);

// Runs fn(i, slot) for every i in [0, n) over min(parallel_slots(threads),
// n) slots: the caller runs slot 0 and the shared pool one job per other
// slot. Work is claimed dynamically (atomic counter) so uneven items
// balance. Each slot runs all its claims on one thread, so per-slot state
// is never touched by two threads at once; a slot's first call comes after
// its first claim, so state built on first use costs nothing for a job
// that finds the work drained. Returns once every item has finished, not
// once every job has started: a job still queued behind other work then
// finds nothing to claim. Runs inline under slot 0 when one slot is all
// the call can use. The first exception thrown by fn is rethrown on the
// caller. The pool.* obs figures count pool jobs only, not the caller's
// slot.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t threads = 0);

// parallel_for without the slot: fn(i) for every i in [0, n).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace mcsm

#endif  // MCSM_COMMON_PARALLEL_H
