/**
 * @file
 * Host-side parallel execution layer: a persistent thread pool with a
 * sharded parallel-for and a deterministic, order-preserving tree
 * reduction.
 *
 * The bit-level RIME chip model uses this to run every column-search
 * step across all active scan units concurrently -- the same
 * parallelism the hardware's mats exhibit (paper section IV-B,
 * Figure 11).  Determinism is a hard requirement: a simulation run
 * with RIME_THREADS=1 must be bit-identical to one with
 * RIME_THREADS=N, so reductions always combine per-shard partials in
 * shard-index order on the calling thread, never in completion order.
 *
 * Sizing: the global pool is created on first use with
 * `configuredThreads()` workers (the RIME_THREADS environment
 * variable when set, otherwise the hardware concurrency) and can be
 * grown later with `ensureThreads()` by components configured for a
 * higher explicit thread count.
 */

#ifndef RIME_COMMON_PARALLEL_HH
#define RIME_COMMON_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rime
{

/** A persistent pool of worker threads executing indexed task sets. */
class ThreadPool
{
  public:
    /**
     * @param threads total execution width including the caller; 0
     *                means `configuredThreads()`.  threads-1 workers
     *                are spawned (the calling thread participates).
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Execution width (workers + the participating caller). */
    unsigned
    threads() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /** Grow the pool so at least `threads` tasks run concurrently. */
    void ensureThreads(unsigned threads);

    /**
     * Execute fn(0) .. fn(tasks-1), each exactly once, distributed
     * over the workers and the calling thread; returns when all have
     * finished.  Not reentrant: fn must not call back into the pool.
     * Reentry panics immediately (in every configuration, including
     * single-threaded pools where it would happen to work) instead of
     * deadlocking the worker set.
     *
     * Distinct external threads may call run() concurrently (several
     * shard controllers sharing the global pool): calls serialize on
     * an internal mutex, so the pool is a shared simulator-speed
     * resource rather than a correctness hazard.
     */
    void run(unsigned tasks, const std::function<void(unsigned)> &fn);

    /**
     * Partition [0, n) into `shards` contiguous shards and execute
     * fn(begin, end, shard) for each.  Shard boundaries depend only
     * on (n, shards), so a fixed shard count yields a fixed
     * decomposition regardless of pool size.
     */
    void forShards(std::size_t n, unsigned shards,
                   const std::function<void(std::size_t, std::size_t,
                                            unsigned)> &fn);

    /**
     * Task sets handed to the workers so far; run() calls that ran
     * inline (one task, or no workers) do not count.
     */
    std::uint64_t
    dispatches() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return generation_;
    }

    /** RIME_THREADS env when set (>0), else hardware concurrency. */
    static unsigned configuredThreads();

    /** The process-wide pool, created on first use. */
    static ThreadPool &global();

  private:
    void spawnWorkers(unsigned count);
    void workerLoop();

    std::vector<std::thread> workers_;
    mutable std::mutex mutex_;
    std::condition_variable wakeCv_;
    std::condition_variable doneCv_;
    std::uint64_t generation_ = 0;
    const std::function<void(unsigned)> *job_ = nullptr;
    unsigned tasks_ = 0;
    unsigned workersDone_ = 0;
    std::atomic<unsigned> nextTask_{0};
    /** Serializes concurrent run() calls from distinct threads. */
    std::mutex runMutex_;
    /** Thread currently inside run() (reentrancy diagnostics). */
    std::atomic<std::thread::id> runOwner_{};
    bool stop_ = false;
};

/**
 * Deterministic parallel reduction: compute fn(begin, end, shard) for
 * each shard of [0, n) and fold the shard results left-to-right in
 * shard-index order with `combine` -- the software analogue of the
 * chip's order-preserving reduction tree.
 */
template <typename T, typename ShardFn, typename CombineFn>
T
parallelReduce(ThreadPool &pool, std::size_t n, unsigned shards,
               T identity, ShardFn &&fn, CombineFn &&combine)
{
    if (n == 0)
        return identity;
    if (shards > n)
        shards = static_cast<unsigned>(n);
    if (shards <= 1)
        return combine(identity, fn(std::size_t(0), n, 0u));
    std::vector<T> partial(shards, identity);
    pool.forShards(n, shards,
                   [&](std::size_t begin, std::size_t end, unsigned s) {
                       partial[s] = fn(begin, end, s);
                   });
    T acc = identity;
    for (unsigned s = 0; s < shards; ++s)
        acc = combine(acc, partial[s]);
    return acc;
}

} // namespace rime

#endif // RIME_COMMON_PARALLEL_HH
