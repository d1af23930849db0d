// Discrete-event simulation engine.
//
// Single-threaded, deterministic. Events are (time, sequence) ordered;
// ties break in scheduling order so repeated runs are bit-identical.
// Coroutine processes are spawned with Spawn() and communicate through
// the primitives in sync.h; they advance time only via Sleep()/awaits.
#ifndef MUFS_SRC_SIM_ENGINE_H_
#define MUFS_SRC_SIM_ENGINE_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/sim/task.h"
#include "src/sim/time.h"

namespace mufs {

class Engine;

struct ProcessState {
  std::string name;
  bool done = false;
  Task<void> root;  // Keeps the whole coroutine chain alive.
  std::vector<std::coroutine_handle<>> joiners;
  Engine* engine = nullptr;
};

// Handle to a spawned process; lets the parent await completion.
class ProcessRef {
 public:
  ProcessRef() = default;

  bool Done() const { return !state_ || state_->done; }
  const std::string& Name() const { return state_->name; }

  // Awaitable: suspends until the process finishes. Ready immediately if
  // it already has.
  struct Awaiter {
    std::shared_ptr<ProcessState> state;
    bool await_ready() const noexcept;
    void await_suspend(std::coroutine_handle<> h) noexcept;
    void await_resume() const noexcept {}
  };
  Awaiter operator co_await() const noexcept { return Awaiter{state_}; }

 private:
  friend class Engine;
  explicit ProcessRef(std::shared_ptr<ProcessState> s) : state_(std::move(s)) {}
  std::shared_ptr<ProcessState> state_;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  SimTime Now() const { return now_; }

  // Schedules a callback to run at Now() + delay.
  void Schedule(SimDuration delay, std::function<void()> fn);

  // Awaitable: suspend the current coroutine for `delay`.
  auto Sleep(SimDuration delay) {
    struct Awaiter {
      Engine* engine;
      SimDuration delay;
      bool await_ready() const noexcept { return delay <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        engine->Schedule(delay, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, delay};
  }

  // Starts a coroutine as an independent process. The engine owns it until
  // completion (or engine destruction).
  ProcessRef Spawn(Task<void> task, std::string name = "proc");

  // Runs until the event queue empties or Now() would exceed `until`
  // (default: run to completion). Returns the final simulated time.
  SimTime Run(SimTime until = INT64_MAX);

  // Runs until `pred()` is true, checking after each event. Used by the
  // crash harness to stop the world mid-flight.
  SimTime RunUntil(const std::function<bool()>& pred);

  bool Idle() const { return queue_.empty(); }
  uint64_t EventsProcessed() const { return events_processed_; }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  bool PopAndRun();
  void ReapFinished();

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<std::shared_ptr<ProcessState>> processes_;
};

}  // namespace mufs

#endif  // MUFS_SRC_SIM_ENGINE_H_
