#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

#include "obs/metrics.h"

namespace mcsm {

namespace {

thread_local bool t_on_worker = false;
// True while a parallel_for caller runs its own slot: nested fan-outs from
// there run inline, as they do on a worker.
thread_local bool t_in_caller_slot = false;

// Shared lazily-created pool. Sized once from hardware_threads(); living for
// the process keeps thread spawn cost out of every sweep.
ThreadPool& shared_pool() {
    static ThreadPool pool(hardware_threads());
    return pool;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads < 1) threads = 1;
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> job) {
    static obs::Gauge& queue_depth = obs::gauge("pool.queue_depth");
    {
        MutexLock lock(mutex_);
        queue_.push_back(std::move(job));
    }
    queue_depth.add(1);
    work_cv_.notify_one();
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

// Condition-variable wait: the lock travels through std::unique_lock, which
// the thread-safety analysis cannot follow, so the guarded-member accesses
// in the predicate are exempted here (and only here).
void ThreadPool::worker_loop() MCSM_NO_THREAD_SAFETY_ANALYSIS {
    t_on_worker = true;
    // pool.busy_ns / pool.tasks together give per-worker utilization
    // (busy_ns / workers / wall time); pool.task_ns is the task-size
    // distribution the micro-batching work wants to watch.
    static obs::Gauge& queue_depth = obs::gauge("pool.queue_depth");
    static obs::Counter& tasks = obs::counter("pool.tasks");
    static obs::Counter& busy_ns = obs::counter("pool.busy_ns");
    static obs::Histogram& task_ns = obs::histogram("pool.task_ns");
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<Mutex> lock(mutex_);
            work_cv_.wait(lock,
                          [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        queue_depth.add(-1);
        const std::uint64_t t0 = obs::now_ns();
        job();
        const auto elapsed = static_cast<long long>(obs::now_ns() - t0);
        tasks.add();
        busy_ns.add(elapsed);
        task_ns.observe(static_cast<double>(elapsed));
    }
}

std::size_t hardware_threads() {
    std::size_t n = std::thread::hardware_concurrency();
    if (n < 1) n = 1;
    if (const char* env = std::getenv("MCSM_THREADS")) {
        // Overrides in either direction: throttling shared machines, or
        // exercising the pool on single-core CI runners.
        const long want = std::strtol(env, nullptr, 10);
        if (want > 0) n = std::min<std::size_t>(static_cast<std::size_t>(want), 256);
    }
    return n;
}

std::size_t resolve_threads(std::size_t requested) {
    return requested == 0 ? hardware_threads() : requested;
}

std::size_t parallel_slots(std::size_t threads) {
    return ThreadPool::on_worker_thread() || t_in_caller_slot
               ? 1
               : resolve_threads(threads);
}

namespace {

// State of one fan-out, shared with its pool jobs. A job can start after
// the caller returned (it queued behind other work and the caller drained
// the items itself), so the jobs hold this block, not the caller's stack,
// and touch `fn` only for items they claimed -- which the caller waits for.
struct FanOut {
    std::size_t n = 0;
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t finished = 0;  // items claimed and run (or skipped)
    std::exception_ptr first_error;

    // Claims and runs items under `slot` until none are left, then counts
    // them as finished. After a failure, claimed items are skipped.
    void work(std::size_t slot) {
        std::size_t ran = 0;
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) break;
            ++ran;
            if (failed.load(std::memory_order_relaxed)) continue;
            try {
                (*fn)(i, slot);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!failed.exchange(true))
                    first_error = std::current_exception();
            }
        }
        if (ran == 0) return;
        std::lock_guard<std::mutex> lock(mutex);
        finished += ran;
        if (finished == n) done_cv.notify_all();
    }
};

}  // namespace

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t threads) {
    if (n == 0) return;
    const std::size_t k = std::min(parallel_slots(threads), n);
    if (k == 1) {
        for (std::size_t i = 0; i < n; ++i) fn(i, 0);
        return;
    }
    // Per-call completion: the caller waits for ITS items only, so
    // concurrent top-level fan-outs on the shared pool don't serialize on
    // each other's batches, and it works slot 0 itself, so a fan-out
    // whose jobs queue behind another caller's long-lived ones still
    // finishes.
    const auto state = std::make_shared<FanOut>();
    state->n = n;
    state->fn = &fn;
    ThreadPool& pool = shared_pool();
    for (std::size_t slot = 1; slot < k; ++slot)
        pool.submit([state, slot] { state->work(slot); });
    t_in_caller_slot = true;
    state->work(0);
    t_in_caller_slot = false;
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done_cv.wait(lock, [&] { return state->finished == n; });
    if (state->first_error) std::rethrow_exception(state->first_error);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
    parallel_for(
        n, [&](std::size_t i, std::size_t) { fn(i); }, threads);
}

}  // namespace mcsm
