// Coroutine processes on top of the event kernel.
//
// This provides the role SystemC's SC_THREAD plays in the paper's
// co-simulation: sequential model code that suspends on simulated time
// (`co_await delay(sim, t)`) or on conditions (`co_await trigger.wait()`),
// scheduled by the same deterministic event queue as everything else.
//
// Usage:
//   Task<void> producer(Simulator& sim, ...) {
//     co_await delay(sim, Time::ms(10));
//     ...
//   }
//   spawn(producer(sim, ...));   // detached: runs to completion
//
// Tasks are lazy: nothing runs until the task is spawned, started or
// co_awaited. A co_awaited child propagates its exception to the awaiting
// parent; an exception escaping a spawned or started process propagates out
// of Simulator::run().
//
// spawn or start: spawn(task) detaches a process whose frame frees itself
// when it finishes; use it only for processes sure to finish within the run.
// task.start() keeps the frame in the Task, so destroying the Task destroys
// the process, finished or still suspended — a SystemC process lives as
// long as its module. A component holds each loop as a Task<void> member
// declared LAST, so it is destroyed before anything its locals touch.
// Destroying a suspended process runs its locals' destructors without
// resuming it: do it only once the simulator will dispatch nothing more
// (DESIGN.md §8 "Process lifetime").
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/sim/simulator.hpp"
#include "src/util/assert.hpp"

namespace tb::sim {

template <typename T = void>
class [[nodiscard]] Task;

namespace detail {

/// Thread-local freelist recycling coroutine frames. Model code allocates a
/// frame per co_awaited child — one per bus cycle on the hot paths — and
/// glibc malloc/free dominates the frame-level bus model's per-cycle cost
/// (DESIGN.md §13). Frames cluster into a handful of sizes, so a
/// size-classed freelist turns the pair into two pointer swaps. Lists are
/// per-thread (the threaded runtime runs a simulator per thread); a frame
/// freed on a foreign thread just migrates lists, which stays safe because
/// each list is only ever touched by its owning thread.
///
/// Under AddressSanitizer every frame goes straight to ::operator new and
/// delete instead: a recycled block would hide a resume-after-destroy from
/// ASan and make LeakSanitizer blame whichever frame first allocated it.
class FrameArena {
 public:
  static void* allocate(std::size_t n) {
    if constexpr (kSanitized) return ::operator new(n);
    const std::size_t cls = (n + kGranularity - 1) / kGranularity;
    if (cls == 0 || cls > kClasses) return ::operator new(n);
    List& list = tls().lists[cls - 1];
    if (list.head != nullptr) {
      Block* block = list.head;
      list.head = block->next;
      --list.count;
      return block;
    }
    return ::operator new(cls * kGranularity);
  }

  static void release(void* p, std::size_t n) noexcept {
    const std::size_t cls = (n + kGranularity - 1) / kGranularity;
    List* list = !kSanitized && cls >= 1 && cls <= kClasses
                     ? &tls().lists[cls - 1]
                     : nullptr;
    if (list == nullptr || list->count >= kMaxPerClass) {
      ::operator delete(p);
      return;
    }
    Block* block = static_cast<Block*>(p);
    block->next = list->head;
    list->head = block;
    ++list->count;
  }

  /// Takes a detached frame whose exception is escaping Simulator::run():
  /// no owner is left to free it, and only its promise and parameters
  /// remain. It is destroyed on the next escape on this thread, or at
  /// thread exit.
  static void park_escaped(std::coroutine_handle<> frame) noexcept {
    std::coroutine_handle<> previous = std::exchange(tls().escaped, frame);
    if (previous) previous.destroy();
  }

 private:
  struct Block {
    Block* next;
  };
  struct List {
    Block* head = nullptr;
    std::size_t count = 0;
  };
  struct Tls {
    List lists[16];
    std::coroutine_handle<> escaped;
    ~Tls() {  // drain so thread exit leaks nothing
      if (escaped) std::exchange(escaped, nullptr).destroy();
      for (List& list : lists) {
        while (list.head != nullptr) {
          Block* block = list.head;
          list.head = block->next;
          ::operator delete(block);
        }
      }
    }
  };

#if defined(__SANITIZE_ADDRESS__)
  static constexpr bool kSanitized = true;
#elif defined(__has_feature)
  static constexpr bool kSanitized = __has_feature(address_sanitizer);
#else
  static constexpr bool kSanitized = false;
#endif
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kClasses = 16;
  static constexpr std::size_t kMaxPerClass = 256;

  static Tls& tls() {
    static thread_local Tls t;
    return t;
  }
};

struct PromiseBase {
  // Route every coroutine-frame allocation through the arena. The compiler
  // resolves these in the promise's scope, so all Task<T> frames qualify.
  void* operator new(std::size_t n) { return FrameArena::allocate(n); }
  void operator delete(void* p, std::size_t n) noexcept {
    FrameArena::release(p, n);
  }

  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  bool detached = false;  ///< spawned: the frame frees itself at the end
  bool root = false;      ///< spawned or started: no parent awaits it

  struct FinalAwaiter {
    bool detached;
    std::coroutine_handle<> continuation;
    // Detached frames self-destruct by completing the final suspend.
    bool await_ready() const noexcept { return detached; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<>) const noexcept {
      return continuation ? continuation : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {detached, continuation}; }
};

template <typename T>
struct ReturnSlot {
  std::optional<T> value;
  void return_value(T v) { value = std::move(v); }
};

template <>
struct ReturnSlot<void> {
  void return_void() noexcept {}
};

template <typename T>
struct Promise : PromiseBase, ReturnSlot<T> {
  Task<T> get_return_object() {
    return Task<T>(std::coroutine_handle<Promise>::from_promise(*this));
  }
  void unhandled_exception() {
    if (detached) {
      FrameArena::park_escaped(std::coroutine_handle<Promise>::from_promise(*this));
    }
    if (root) throw;  // surfaces through Simulator::run()
    exception = std::current_exception();
  }
};

}  // namespace detail

/// Lazily started coroutine returning T. Move-only; owns the frame unless
/// detached via spawn().
template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ~Task() { destroy(); }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return !handle_ || handle_.done(); }

  /// Awaiting a task starts it (symmetric transfer) and resumes the awaiter
  /// on completion, rethrowing any exception from the child.
  auto operator co_await() && {
    struct Awaiter {
      handle_type h;
      bool await_ready() const { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() {
        if (h && h.promise().exception) std::rethrow_exception(h.promise().exception);
        if constexpr (!std::is_void_v<T>) {
          TB_ASSERT(h.promise().value.has_value());
          return std::move(*h.promise().value);
        }
      }
    };
    return Awaiter{handle_};
  }

  /// Runs the task as an owned process: synchronously to its first
  /// suspension, then under simulator control, exactly as spawn() would —
  /// but the frame stays with this Task, which destroys it (finished or
  /// still suspended) when it is itself destroyed or reassigned.
  void start()
    requires std::is_void_v<T>
  {
    TB_REQUIRE_MSG(handle_ != nullptr, "cannot start an empty task");
    TB_REQUIRE_MSG(!handle_.promise().root, "task already started");
    handle_.promise().root = true;
    handle_.resume();
  }

 private:
  friend void spawn(Task<void> task);
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  handle_type handle_ = nullptr;
};

/// Starts a detached process: runs synchronously until its first suspension,
/// then continues under simulator control. The frame frees itself when the
/// coroutine finishes.
///
/// LIFETIME: the coroutine frame stores references to its *parameters*, but
/// a lambda coroutine's captures live in the closure object, which the frame
/// only points to. `spawn(lambda())` would therefore dangle once the
/// temporary closure dies — use the callable overload below, which copies
/// the closure into a wrapper frame that owns it for the process lifetime.
inline void spawn(Task<void> task) {
  TB_REQUIRE_MSG(task.valid(), "cannot spawn an empty task");
  const Task<void>::handle_type handle = std::exchange(task.handle_, nullptr);
  handle.promise().detached = handle.promise().root = true;
  handle.resume();  // run to the first suspension point (or completion)
}

namespace detail {
/// Wrapper frame that keeps the closure alive for the whole process.
template <typename Fn>
Task<void> run_owned_callable(Fn fn) {
  co_await fn();
}
}  // namespace detail

/// Spawns `fn()` as a detached process, keeping a copy of the callable (and
/// thus a lambda's captures) alive until the process completes. Prefer this
/// for lambda coroutines: `spawn([&]() -> Task<void> { ... });`
template <typename Fn>
  requires(!std::same_as<std::remove_cvref_t<Fn>, Task<void>> &&
           std::same_as<std::invoke_result_t<std::remove_cvref_t<Fn>&>,
                        Task<void>>)
void spawn(Fn&& fn) {
  spawn(detail::run_owned_callable<std::remove_cvref_t<Fn>>(
      std::forward<Fn>(fn)));
}

/// Awaitable that resumes the coroutine after `d` of simulated time.
struct DelayAwaiter {
  Simulator& sim;
  Time d;
  bool await_ready() const { return d <= Time::zero(); }
  void await_suspend(std::coroutine_handle<> h) {
    sim.schedule_in(d, [h] { h.resume(); });
  }
  void await_resume() const {}
};

inline DelayAwaiter delay(Simulator& sim, Time d) { return DelayAwaiter{sim, d}; }

/// delay() for a coroutine a kernel event resumed directly: when the resume
/// event at now() + d would be the next one dispatched, await_ready()
/// advances the clock in place (Simulator::try_advance) and the coroutine
/// runs on without a queue round trip; otherwise it suspends exactly as
/// delay() does. Only valid where nothing else is left to run in the
/// current event after the wait — the first wait after a coroutine starts
/// (or is resumed by anything but a kernel event) must be a plain delay().
struct AdvanceAwaiter : DelayAwaiter {
  bool await_ready() const {
    return d <= Time::zero() || sim.try_advance(sim.now() + d);
  }
};

inline AdvanceAwaiter advance(Simulator& sim, Time d) {
  return AdvanceAwaiter{{sim, d}};
}

}  // namespace tb::sim
