// unicert/core/executor.h
//
// Work-stealing thread-pool executor — the repo's first concurrency
// layer, shared by ParallelPipeline, the fuzzing campaign and the
// scenario engine.
// Each worker owns a deque: the owner pushes and pops at the back
// (LIFO, cache-warm), idle workers steal from the front of a victim's
// deque (FIFO, oldest work first). External threads submit round-robin
// and may drain queued work themselves via try_run_one()/wait_idle(),
// so a blocked producer still makes progress on a saturated pool.
//
// The executor provides NO ordering guarantees — tasks run in whatever
// order stealing produces. Determinism is the caller's job: tag work
// with sequence numbers and merge results in tag order (the
// deterministic-merge invariant ParallelPipeline is built on).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace unicert::core {

class Executor {
public:
    // threads == 0 picks default_concurrency(). At least one worker
    // thread always exists, so waiting callers can never deadlock.
    explicit Executor(size_t threads = 0);

    // Drains every submitted task, then joins the workers.
    ~Executor();

    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    size_t worker_count() const noexcept { return workers_.size(); }

    // Enqueue one task. Tasks must not throw (a throwing task
    // terminates); recoverable failures belong in the task's own
    // result channel. Tasks may submit further tasks.
    void submit(std::function<void()> task);

    // Run one queued task on the calling thread, if any is ready.
    // Returns false when every queue was empty.
    bool try_run_one();

    // Block until every submitted task (including tasks submitted by
    // tasks) has finished. The calling thread participates by draining
    // queued work instead of idling.
    void wait_idle();

    // Tasks submitted and not yet finished.
    size_t inflight() const noexcept { return inflight_.load(std::memory_order_acquire); }

    // std::thread::hardware_concurrency with a floor of 1.
    static size_t default_concurrency() noexcept;

private:
    struct Worker {
        std::mutex mu;
        std::deque<std::function<void()>> queue;
    };

    void worker_loop(size_t id);
    // Pop from own back (id < worker_count) or steal from a victim's
    // front. `id == npos` means an external thread: steal only.
    bool take_task(size_t id, std::function<void()>& out);
    void run_task(std::function<void()>& task);

    static constexpr size_t npos = static_cast<size_t>(-1);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    // Wake protocol: queued_ counts tasks enqueued but not yet taken;
    // submit bumps it and signals wake_cv_ under wake_mu_ so a worker
    // checking the predicate cannot miss the wakeup.
    std::mutex wake_mu_;
    std::condition_variable wake_cv_;
    std::atomic<size_t> queued_{0};

    // Idle protocol: inflight_ counts tasks submitted but not finished;
    // the last finisher signals idle_cv_.
    std::mutex idle_mu_;
    std::condition_variable idle_cv_;
    std::atomic<size_t> inflight_{0};

    std::atomic<size_t> rr_{0};  // round-robin submit cursor
    std::atomic<bool> stop_{false};
};

}  // namespace unicert::core
