/**
 * @file
 * A bounded multi-producer single-consumer FIFO.
 *
 * The serving layer's per-shard submission queue: any number of
 * client threads push, exactly one controller thread pops.  The data
 * path never blocks a producer -- tryPushBatch() takes what fits and
 * returns at once, and the service turns the rest into an explicit
 * backpressure rejection.  pushBlocking() exists for rare control
 * messages (session open/close) whose loss would wedge the scheduler;
 * it may wait for the consumer to drain but is never used on the
 * request data path.
 *
 * FIFO order is total across producers: the consumer observes items
 * in the order their pushes committed, which is what lets a session's
 * open message reliably precede every one of its requests.
 */

#ifndef RIME_COMMON_BOUNDED_QUEUE_HH
#define RIME_COMMON_BOUNDED_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace rime
{

/** A bounded MPSC FIFO with non-blocking producers by default. */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {}

    BoundedQueue(const BoundedQueue &) = delete;
    BoundedQueue &operator=(const BoundedQueue &) = delete;

    std::size_t capacity() const { return capacity_; }

    /** Items currently queued (a racy snapshot for stats). */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    /**
     * Append as many items of `batch` (in order, from the front) as
     * the remaining capacity takes, under one lock and with one
     * consumer wakeup -- the data path's only hand-off (a single
     * request is a one-element batch).  Accepted items are moved
     * from; the rejected suffix is left untouched for the caller to
     * shed.
     * @return how many items were enqueued (0 on a full/closed queue)
     */
    template <typename Container>
    std::size_t
    tryPushBatch(Container &batch)
    {
        std::size_t accepted = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_)
                return 0;
            while (accepted < batch.size() &&
                   items_.size() < capacity_) {
                items_.push_back(std::move(batch[accepted]));
                ++accepted;
            }
        }
        if (accepted > 0)
            consumerCv_.notify_one();
        return accepted;
    }

    /**
     * Append an item, waiting for space if the queue is full.  Only
     * for control messages that must not be droppable; returns false
     * only when the queue is closed.
     */
    bool
    pushBlocking(T &&item)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            producerCv_.wait(lock, [&] {
                return closed_ || items_.size() < capacity_;
            });
            if (closed_)
                return false;
            items_.push_back(std::move(item));
        }
        consumerCv_.notify_one();
        return true;
    }

    /**
     * Wait for an item (or closure).
     * @return the next item, or nullopt once the queue is closed and
     *         drained
     */
    std::optional<T>
    pop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        consumerCv_.wait(lock, [&] { return closed_ || !items_.empty(); });
        return takeFront();
    }

    /** The next item if one is queued, without waiting. */
    std::optional<T>
    tryPop()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return takeFront();
    }

    /**
     * Refuse all further pushes and wake every waiter.  Items already
     * queued remain poppable (the consumer drains the tail).
     */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        consumerCv_.notify_all();
        producerCv_.notify_all();
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

  private:
    /** Pop under the caller's lock; notifies a blocked producer. */
    std::optional<T>
    takeFront()
    {
        if (items_.empty())
            return std::nullopt;
        std::optional<T> item(std::move(items_.front()));
        items_.pop_front();
        producerCv_.notify_one();
        return item;
    }

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable consumerCv_;
    std::condition_variable producerCv_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace rime

#endif // RIME_COMMON_BOUNDED_QUEUE_HH
