#ifndef C2M_CORE_THREADPOOL_HPP
#define C2M_CORE_THREADPOOL_HPP

/**
 * @file
 * Fixed-size thread pool with one FIFO queue (lane) per worker.
 *
 * Tasks posted to one lane run one at a time, in post order, on that
 * lane's worker; the pool never moves a queued task to another
 * worker. The pool has one client, ShardedEngine::runShards, which
 * posts one claim loop per lane: the loops pop whole shards off a
 * shared index, so which worker runs a shard depends on scheduling,
 * but each shard's task runs start to finish on one worker under the
 * shard's single-writer guard, and results depend only on the order
 * each shard's tasks are called in. currentLane() lets a claim loop
 * tell whether it runs a shard on its home lane or steals it.
 *
 * Locks are taken only at enqueue/dequeue; the tasks themselves (the
 * hot path, whole per-shard batches) run without any shared mutable
 * state.
 */

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace c2m {
namespace core {

class ThreadPool
{
  public:
    /** @param num_threads worker count (>= 1). */
    explicit ThreadPool(unsigned num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count. */
    unsigned size() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** currentLane() value on threads that are not workers of this pool. */
    static constexpr unsigned kNoLane = ~0u;

    /**
     * Lane index of the calling thread if it is one of this pool's
     * workers, kNoLane otherwise. Lets a claim-loop task tell whether
     * it is executing a shard on its home lane or stealing it.
     */
    unsigned currentLane() const;

    /** Enqueue @p fn on lane @p lane % size(); one lane runs FIFO. */
    void post(unsigned lane, std::function<void()> fn);

    /**
     * Block until every task posted so far has finished. Rethrows the
     * first exception any task raised since the previous drain().
     * Panics when called from one of this pool's own workers: the
     * worker would wait for itself and deadlock.
     */
    void drain();

  private:
    struct Lane
    {
        std::mutex m;
        std::condition_variable cv;
        std::deque<std::function<void()>> q;
    };

    void workerLoop(unsigned index, Lane &lane);

    std::vector<std::unique_ptr<Lane>> lanes_;
    std::vector<std::thread> workers_;
    std::atomic<bool> stop_{false};

    std::mutex doneMutex_;
    std::condition_variable doneCv_;
    size_t pending_ = 0;           ///< guarded by doneMutex_
    std::exception_ptr firstError_; ///< guarded by doneMutex_
};

} // namespace core
} // namespace c2m

#endif // C2M_CORE_THREADPOOL_HPP
