#include "core/threadpool.hpp"

#include "common/logging.hpp"

namespace c2m {
namespace core {

namespace {

/** Pool/lane identity of the calling thread (workers only). */
thread_local const ThreadPool *tlPool = nullptr;
thread_local unsigned tlLane = ThreadPool::kNoLane;

} // namespace

ThreadPool::ThreadPool(unsigned num_threads)
{
    C2M_ASSERT(num_threads >= 1,
               "thread pool needs at least one worker");
    lanes_.reserve(num_threads);
    workers_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        lanes_.push_back(std::make_unique<Lane>());
    for (unsigned i = 0; i < num_threads; ++i)
        workers_.emplace_back(
            [this, i] { workerLoop(i, *lanes_[i]); });
}

ThreadPool::~ThreadPool()
{
    stop_ = true;
    for (auto &lane : lanes_) {
        std::lock_guard<std::mutex> lk(lane->m);
        lane->cv.notify_all();
    }
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::post(unsigned lane, std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lk(doneMutex_);
        ++pending_;
    }
    Lane &l = *lanes_[lane % lanes_.size()];
    std::lock_guard<std::mutex> lk(l.m);
    l.q.push_back(std::move(fn));
    l.cv.notify_one();
}

unsigned
ThreadPool::currentLane() const
{
    return tlPool == this ? tlLane : kNoLane;
}

void
ThreadPool::drain()
{
    C2M_ASSERT(tlPool != this,
               "drain() from worker lane ", tlLane,
               " would wait for itself");
    std::unique_lock<std::mutex> lk(doneMutex_);
    doneCv_.wait(lk, [this] { return pending_ == 0; });
    if (firstError_) {
        std::exception_ptr e = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(e);
    }
}

void
ThreadPool::workerLoop(unsigned index, Lane &lane)
{
    tlPool = this;
    tlLane = index;
    for (;;) {
        std::function<void()> fn;
        {
            std::unique_lock<std::mutex> lk(lane.m);
            lane.cv.wait(
                lk, [&] { return stop_ || !lane.q.empty(); });
            if (lane.q.empty())
                return; // stopped and no work left
            fn = std::move(lane.q.front());
            lane.q.pop_front();
        }
        std::exception_ptr error;
        try {
            fn();
        } catch (...) {
            error = std::current_exception();
        }
        std::lock_guard<std::mutex> lk(doneMutex_);
        if (error && !firstError_)
            firstError_ = error;
        C2M_ASSERT(pending_ > 0, "task finished with none pending");
        if (--pending_ == 0)
            doneCv_.notify_all();
    }
}

} // namespace core
} // namespace c2m
