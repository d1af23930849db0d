#include "src/sim/engine.h"

#include <cassert>
#include <utility>

namespace mufs {

bool ProcessRef::Awaiter::await_ready() const noexcept { return !state || state->done; }

void ProcessRef::Awaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  state->joiners.push_back(h);
}

Engine::~Engine() {
  // Destroy still-running processes before the queue: their frames may hold
  // awaiters referencing scheduled events, and destroying a suspended
  // coroutine chain is safe while pending events are simply dropped.
  processes_.clear();
}

void Engine::Schedule(SimDuration delay, std::function<void()> fn) {
  assert(delay >= 0);
  queue_.push(Event{now_ + delay, next_seq_++, std::move(fn)});
}

namespace {

// Takes a raw ProcessState pointer: the state owns this frame (via root),
// so a shared_ptr here would form a reference cycle. The state is kept
// alive by the engine's process list until the frame reaches final
// suspend, and destroying the state destroys this (suspended) frame.
Task<void> RootWrapper(Task<void> task, ProcessState* state) {
  co_await std::move(task);
  state->done = true;
  // Resume joiners through the event queue so completion ordering stays
  // deterministic and we never resume into a half-destroyed frame.
  for (auto h : state->joiners) {
    state->engine->Schedule(0, [h] { h.resume(); });
  }
  state->joiners.clear();
}

}  // namespace

ProcessRef Engine::Spawn(Task<void> task, std::string name) {
  auto state = std::make_shared<ProcessState>();
  state->name = std::move(name);
  state->engine = this;
  state->root = RootWrapper(std::move(task), state.get());
  processes_.push_back(state);
  Schedule(0, [state] {
    if (!state->done && state->root.Valid() && !state->root.Done()) {
      state->root.StartDetached();
    }
  });
  return ProcessRef(state);
}

bool Engine::PopAndRun() {
  if (queue_.empty()) {
    return false;
  }
  Event ev = queue_.top();
  queue_.pop();
  assert(ev.time >= now_);
  now_ = ev.time;
  ++events_processed_;
  ev.fn();
  return true;
}

void Engine::ReapFinished() {
  std::erase_if(processes_, [](const std::shared_ptr<ProcessState>& p) { return p->done; });
}

SimTime Engine::Run(SimTime until) {
  while (!queue_.empty() && queue_.top().time <= until) {
    PopAndRun();
  }
  ReapFinished();
  if (queue_.empty()) {
    return now_;
  }
  now_ = until;
  return now_;
}

SimTime Engine::RunUntil(const std::function<bool()>& pred) {
  while (!pred() && PopAndRun()) {
  }
  ReapFinished();
  return now_;
}

}  // namespace mufs
