/**
 * @file circular_queue.hh
 * Fixed-capacity FIFO ring buffer with random access from the head.
 * Used for the FTQ and the PIQ, which are hardware structures with a
 * hard capacity, and for the TraceWindow, which moves into a larger
 * queue when one fills.
 */

#ifndef FDIP_COMMON_CIRCULAR_QUEUE_HH
#define FDIP_COMMON_CIRCULAR_QUEUE_HH

#include <cstddef>
#include <vector>

#include "common/logging.hh"

namespace fdip
{

template <typename T>
class CircularQueue
{
  public:
    explicit CircularQueue(std::size_t capacity)
        : buf(capacity), cap(capacity)
    {
        panic_if(capacity == 0, "CircularQueue capacity must be nonzero");
    }

    bool empty() const { return count == 0; }
    bool full() const { return count == cap; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return cap; }
    std::size_t freeSlots() const { return cap - count; }

    /** Append to the tail; the queue must not be full. */
    void
    push(T value)
    {
        panic_if(full(), "push to full CircularQueue");
        buf[wrap(head + count)] = std::move(value);
        ++count;
    }

    /** Remove the head element; the queue must not be empty. */
    void
    pop()
    {
        panic_if(empty(), "pop from empty CircularQueue");
        head = wrap(head + 1);
        --count;
    }

    /** Remove the @p n oldest elements; at most size() of them. */
    void
    pop(std::size_t n)
    {
        panic_if(n > count, "pop of %zu from CircularQueue of %zu", n,
                 count);
        head = wrap(head + n);
        count -= n;
    }

    /** Head element (oldest). */
    T &
    front()
    {
        panic_if(empty(), "front of empty CircularQueue");
        return buf[head];
    }

    const T &
    front() const
    {
        panic_if(empty(), "front of empty CircularQueue");
        return buf[head];
    }

    /** Tail element (youngest). */
    T &
    back()
    {
        panic_if(empty(), "back of empty CircularQueue");
        return buf[wrap(head + count - 1)];
    }

    /** Random access: at(0) is the head. */
    T &
    at(std::size_t i)
    {
        panic_if(i >= count, "CircularQueue::at(%zu) size %zu", i, count);
        return buf[wrap(head + i)];
    }

    const T &
    at(std::size_t i) const
    {
        panic_if(i >= count, "CircularQueue::at(%zu) size %zu", i, count);
        return buf[wrap(head + i)];
    }

    /** Drop every element at index >= @p from (squash younger entries). */
    void
    truncate(std::size_t from)
    {
        panic_if(from > count, "CircularQueue::truncate past end");
        count = from;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    /**
     * Physical slot of logical position @p pos. Every caller passes
     * head (< cap) plus an offset of at most cap, so pos < 2 * cap and
     * one compare-and-subtract replaces a modulo.
     */
    std::size_t
    wrap(std::size_t pos) const
    {
        return pos < cap ? pos : pos - cap;
    }

    std::vector<T> buf;
    std::size_t cap;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace fdip

#endif // FDIP_COMMON_CIRCULAR_QUEUE_HH
