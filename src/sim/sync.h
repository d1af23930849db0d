// Synchronization primitives for simulation coroutines.
//
// All primitives are single-threaded (simulation is deterministic and
// serial); "blocking" means suspending the coroutine until another process
// signals through the engine's event queue. Wakeups always round-trip
// through the queue so that a Notify inside an event handler never resumes
// a waiter re-entrantly.
#ifndef MUFS_SRC_SIM_SYNC_H_
#define MUFS_SRC_SIM_SYNC_H_

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>

#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace mufs {

// Broadcast condition: Await() suspends until the next NotifyAll(). There
// is no predicate; callers loop on their own condition (mesa semantics).
class CondVar {
 public:
  explicit CondVar(Engine* engine) : engine_(engine) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  struct Awaiter {
    CondVar* cv;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { cv->waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  Awaiter Await() { return Awaiter{this}; }

  void NotifyAll();
  void NotifyOne();
  size_t WaiterCount() const { return waiters_.size(); }

 private:
  Engine* engine_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// One-shot completion event: waiters before Set() suspend; waiters after
// pass through. Used for I/O completion.
class OneShotEvent {
 public:
  explicit OneShotEvent(Engine* engine) : engine_(engine) {}
  OneShotEvent(const OneShotEvent&) = delete;
  OneShotEvent& operator=(const OneShotEvent&) = delete;

  void Set();

  struct Awaiter {
    OneShotEvent* ev;
    bool await_ready() const noexcept { return ev->set_; }
    void await_suspend(std::coroutine_handle<> h) { ev->waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  Awaiter Wait() { return Awaiter{this}; }

 private:
  Engine* engine_;
  bool set_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

// FIFO mutex. Lock() suspends if held; Unlock() hands off to the oldest
// waiter (still via the event queue). FIFO handoff gives round-robin
// behaviour for resources like the CPU model.
class Mutex {
 public:
  explicit Mutex(Engine* engine) : engine_(engine) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  bool Held() const { return held_; }
  bool TryLock() {
    if (held_) {
      return false;
    }
    held_ = true;
    return true;
  }

  struct Awaiter {
    Mutex* m;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      if (!m->held_) {
        m->held_ = true;
        return false;  // Acquired without suspending.
      }
      m->waiters_.push_back(h);
      return true;
    }
    void await_resume() const noexcept {}
  };
  Awaiter Lock() { return Awaiter{this}; }
  void Unlock();

 private:
  Engine* engine_;
  bool held_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Counting semaphore with FIFO wakeup.
class Semaphore {
 public:
  Semaphore(Engine* engine, int64_t initial) : engine_(engine), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  int64_t Count() const { return count_; }

  struct Awaiter {
    Semaphore* s;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      if (s->count_ > 0) {
        --s->count_;
        return false;
      }
      s->waiters_.push_back(h);
      return true;
    }
    void await_resume() const noexcept {}
  };
  Awaiter Acquire() { return Awaiter{this}; }
  void Release();

 private:
  Engine* engine_;
  int64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// RAII lock guard for coroutine code:
//   LockGuard g = co_await LockGuard::Acquire(mutex);
class LockGuard {
 public:
  LockGuard() = default;
  explicit LockGuard(Mutex* m) : mutex_(m) {}
  LockGuard(LockGuard&& o) noexcept : mutex_(o.mutex_) { o.mutex_ = nullptr; }
  LockGuard& operator=(LockGuard&& o) noexcept {
    Release();
    mutex_ = o.mutex_;
    o.mutex_ = nullptr;
    return *this;
  }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;
  ~LockGuard() { Release(); }

  static Task<LockGuard> Acquire(Mutex* m);
  void Release() {
    if (mutex_ != nullptr) {
      mutex_->Unlock();
      mutex_ = nullptr;
    }
  }

 private:
  Mutex* mutex_ = nullptr;
};

}  // namespace mufs

#endif  // MUFS_SRC_SIM_SYNC_H_
