/**
 * @file
 * C++20 coroutine task type for simulated processes.
 *
 * Protocol code in Molecule (FIFO reads, executor command loops, shim
 * synchronization round-trips) is written as coroutines that co_await
 * awaitables provided by the kernel (Simulation::delay, SimEvent,
 * Semaphore, Mailbox). A Task<T> is lazily started:
 *
 *  - `co_await someTask(...)` starts the child inline (same simulated
 *    instant, via symmetric transfer) and resumes the parent when the
 *    child finishes, yielding its value;
 *  - `Simulation::spawn(std::move(task))` detaches a root task whose
 *    frame self-destroys on completion.
 *
 * Exceptions propagate through co_await; an exception escaping a
 * detached task is a simulator bug and panics.
 *
 * @warning GCC 12 miscompiles non-trivially-copyable *temporaries*
 * inside co_await full-expressions (frame slots for such temporaries
 * can be clobbered across suspension points, leading to double-frees
 * and dangling strings). Library rules, enforced across this codebase:
 *  1. Coroutines take non-trivial parameters by const reference and
 *     copy them to a named local before the first suspension.
 *  2. Call sites never build a non-trivial temporary inside a
 *     co_await expression — materialize a named local first:
 *       Msg m{...};  co_await fifo->write(m);       // OK
 *       co_await fifo->write(Msg{...});             // MISCOMPILES
 *  3. Trivially-copyable arguments (ids, ints, SimTime) are safe in
 *     any form.
 *  4. At -O2 the same compiler also drops continuations when co_await
 *     appears inside a larger expression (an if/while condition, ?:,
 *     a cast, a compound assignment). co_await may appear ONLY as a
 *     full expression-statement, the RHS of a simple assignment or
 *     initialization, or directly after co_return:
 *       auto v = co_await f();  if (v) ...   // OK
 *       co_return co_await f();              // OK
 *       if (co_await f()) ...                // MISCOMPILES at -O2
 *
 * `co_await task` yields an rvalue reference to the value held in the
 * child's promise, not a prvalue: the awaiting frame then holds no
 * non-trivial temporary for the same compiler to clobber (a
 * `c ? co_await a : co_await b` initializer stays sound). The value
 * lives until the end of the full-expression, so copy or move it out
 * (`auto v = co_await f();`) and never bind a reference to it.
 *
 * Frames are recycled, not freed: a frame created while a Simulation
 * runs (inside run(), runUntil(), step() or spawn()) comes from that
 * simulation's FramePool and goes back to it when destroyed, so the
 * steady-state invoke path allocates no frames. Frames created outside
 * any run come from the heap. Lifetime rules (DESIGN.md §4d):
 *  - a frame created during a run must not be destroyed after its
 *    Simulation (the pool that owns its block is gone);
 *  - frames still suspended when their Simulation dies leak, as they
 *    always did; the pool frees only the blocks it has cached.
 */

#ifndef MOLECULE_SIM_TASK_HH
#define MOLECULE_SIM_TASK_HH

#include <array>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "sim/logging.hh"

namespace molecule::sim {

template <typename T>
class Task;

/**
 * Size-class free lists for coroutine frames, owned by one Simulation.
 *
 * Every task frame carries a 16-byte header naming the pool its block
 * came from (null: the heap), so a frame always returns to where it
 * was allocated, whichever pool is active when it dies. Blocks are
 * rounded up to 16-byte classes; frames past kMaxPooledBytes always
 * use the heap. Not thread-safe: a pool serves the one thread that
 * runs its Simulation (SweepRunner lanes each own one). Under
 * AddressSanitizer cached blocks are poisoned, so touching a destroyed
 * frame is still reported.
 */
class FramePool
{
  public:
    /** Size-class step and header size (keeps frames 16-aligned). */
    static constexpr std::size_t kGranule = 16;
    /** Largest pooled block, header included. */
    static constexpr std::size_t kMaxPooledBytes = 4096;

    FramePool() = default;
    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;

    ~FramePool()
    {
        for (std::size_t c = 0; c < free_.size(); ++c) {
            while (FreeBlock *b = free_[c]) {
                unpoison(b, classBytes(c));
                free_[c] = b->next;
                ::operator delete(b, classBytes(c));
            }
        }
    }

    /** Makes @p pool the active one for a scope; restores the previous
     * on exit, so nested runs of different simulations compose. */
    class Scope
    {
      public:
        explicit Scope(FramePool &pool) : prev_(tActive)
        {
            tActive = &pool;
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        ~Scope() { tActive = prev_; }

      private:
        FramePool *prev_;
    };

    /** Blocks this pool took from the heap (diagnostics, tests). */
    std::size_t blocksAllocated() const { return allocated_; }

    /** Blocks parked for reuse right now (diagnostics, tests). */
    std::size_t blocksCached() const { return cached_; }

    /** Frame allocation: from the active pool, else from the heap. */
    static void *
    allocateFrame(std::size_t frameBytes)
    {
        const std::size_t bytes = frameBytes + kGranule;
        FramePool *pool = bytes <= kMaxPooledBytes ? tActive : nullptr;
        void *block = pool != nullptr ? pool->take(classOf(bytes))
                                      : ::operator new(bytes);
        ::new (block) Header{pool};
        return static_cast<std::byte *>(block) + kGranule;
    }

    /** Frame release: back to the pool named in the header. */
    static void
    freeFrame(void *frame, std::size_t frameBytes) noexcept
    {
        void *block = static_cast<std::byte *>(frame) - kGranule;
        const std::size_t bytes = frameBytes + kGranule;
        if (FramePool *owner = static_cast<Header *>(block)->owner)
            owner->give(block, classOf(bytes));
        else
            ::operator delete(block, bytes);
    }

  private:
    struct alignas(kGranule) Header
    {
        FramePool *owner;
    };
    static_assert(sizeof(Header) == kGranule);

    struct FreeBlock
    {
        FreeBlock *next;
    };

    static constexpr std::size_t
    classOf(std::size_t bytes)
    {
        return (bytes - 1) / kGranule;
    }

    static constexpr std::size_t
    classBytes(std::size_t c)
    {
        return (c + 1) * kGranule;
    }

    /** Cached blocks are off limits to everyone but the pool. */
    static void
    poison(void *block, std::size_t bytes)
    {
#if defined(__SANITIZE_ADDRESS__)
        ASAN_POISON_MEMORY_REGION(block, bytes);
#else
        (void)block;
        (void)bytes;
#endif
    }

    static void
    unpoison(void *block, std::size_t bytes)
    {
#if defined(__SANITIZE_ADDRESS__)
        ASAN_UNPOISON_MEMORY_REGION(block, bytes);
#else
        (void)block;
        (void)bytes;
#endif
    }

    void *
    take(std::size_t c)
    {
        FreeBlock *b = free_[c];
        if (b == nullptr) {
            ++allocated_;
            return ::operator new(classBytes(c));
        }
        unpoison(b, classBytes(c));
        free_[c] = b->next;
        --cached_;
        return b;
    }

    void
    give(void *block, std::size_t c) noexcept
    {
        auto *b = ::new (block) FreeBlock{free_[c]};
        free_[c] = b;
        ++cached_;
        poison(b, classBytes(c));
    }

    /** The pool of the simulation running on this thread. A plain
     * pointer, constant-initialized: no per-thread constructor. */
    static inline constinit thread_local FramePool *tActive = nullptr;

    std::array<FreeBlock *, kMaxPooledBytes / kGranule> free_{};
    std::size_t allocated_ = 0;
    std::size_t cached_ = 0;
};

namespace detail {

/** State shared by all task promises, independent of the result type. */
struct PromiseBase
{
    /** Coroutine to resume when this task completes (the awaiter). */
    std::coroutine_handle<> continuation{};
    /** Detached tasks self-destroy at final suspend. */
    bool detached = false;
    std::exception_ptr exception{};

    /** Frames come from the running simulation's FramePool. */
    static void *
    operator new(std::size_t bytes)
    {
        return FramePool::allocateFrame(bytes);
    }

    static void
    operator delete(void *frame, std::size_t bytes) noexcept
    {
        FramePool::freeFrame(frame, bytes);
    }

    std::suspend_always
    initial_suspend() noexcept
    {
        return {};
    }

    struct FinalAwaiter
    {
        bool detached;

        /**
         * Detached tasks do not suspend at the final point: control
         * flows off the end of the coroutine and the implementation
         * destroys the frame itself. This avoids the manual
         * destroy-inside-await_suspend idiom.
         */
        bool await_ready() const noexcept { return detached; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) noexcept
        {
            std::coroutine_handle<> cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    FinalAwaiter
    final_suspend() noexcept
    {
        if (detached && exception) {
            // No awaiter exists to receive the exception.
            panic("exception escaped a detached simulation task");
        }
        return {detached};
    }

    void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase
{
    std::optional<T> value;

    Task<T> get_return_object();

    void
    return_value(T v)
    {
        value.emplace(std::move(v));
    }
};

template <>
struct Promise<void> : PromiseBase
{
    Task<void> get_return_object();

    void return_void() {}
};

} // namespace detail

/**
 * A lazily-started coroutine producing a T in simulated time.
 *
 * Move-only. Destroying an unstarted or completed (non-detached) Task
 * destroys the coroutine frame.
 */
template <typename T = void>
class [[nodiscard]] Task
{
  public:
    using promise_type = detail::Promise<T>;
    using handle_type = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(handle_type h) : handle_(h) {}

    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    bool valid() const { return handle_ != nullptr; }

    bool done() const { return handle_ && handle_.done(); }

    /**
     * Release ownership, mark detached and start execution.
     * Used by Simulation::spawn; the frame self-destroys on completion.
     */
    void
    detachAndStart()
    {
        MOLECULE_ASSERT(handle_, "detaching an empty task");
        handle_type h = std::exchange(handle_, nullptr);
        h.promise().detached = true;
        h.resume();
    }

    /** Awaiter: start the child inline, resume parent on completion. */
    auto
    operator co_await() &&
    {
        struct Awaiter
        {
            handle_type handle;

            bool await_ready() const noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> cont) noexcept
            {
                handle.promise().continuation = cont;
                return handle; // symmetric transfer: run child now
            }

            std::add_rvalue_reference_t<T>
            await_resume()
            {
                auto &p = handle.promise();
                if (p.exception)
                    std::rethrow_exception(p.exception);
                if constexpr (!std::is_void_v<T>) {
                    MOLECULE_ASSERT(p.value.has_value(),
                                    "task finished without a value");
                    return std::move(*p.value);
                }
            }
        };
        MOLECULE_ASSERT(handle_, "awaiting an empty task");
        return Awaiter{handle_};
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    handle_type handle_{};
};

namespace detail {

template <typename T>
Task<T>
Promise<T>::get_return_object()
{
    return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void>
Promise<void>::get_return_object()
{
    return Task<void>(
        std::coroutine_handle<Promise<void>>::from_promise(*this));
}

} // namespace detail

} // namespace molecule::sim

#endif // MOLECULE_SIM_TASK_HH
