#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "obs/obs.hpp"

namespace rfmix::runtime {

namespace {

// Worker identity for the nested-submission fast path.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local int tl_worker_id = -1;

// Innermost ScopedPool override; guarded by being set only from the thread
// that owns the ScopedPool and read before any work is fanned out.
std::atomic<ThreadPool*> g_override{nullptr};

}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int workers = std::max(threads, 1) - 1;
  queues_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) workers_.emplace_back([this, i] { worker_main(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(sleep_mu_);
    stop_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> job) {
  if (queues_.empty()) {  // serial fallback: no workers to hand off to
    RFMIX_OBS_COUNT("runtime.pool.tasks_inline");
    job();
    return;
  }
  std::size_t target;
  if (tl_pool == this && tl_worker_id >= 0) {
    target = static_cast<std::size_t>(tl_worker_id);
  } else {
    target = next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lk(queues_[target]->mu);
    queues_[target]->jobs.push_back(std::move(job));
  }
  {
    // Publish under sleep_mu_ so a worker between its predicate check and
    // the wait cannot miss the notification.
    std::lock_guard<std::mutex> lk(sleep_mu_);
    pending_.fetch_add(1, std::memory_order_relaxed);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::try_run_one(int id) {
  std::function<void()> job;
  {
    WorkerQueue& own = *queues_[static_cast<std::size_t>(id)];
    std::lock_guard<std::mutex> lk(own.mu);
    if (!own.jobs.empty()) {
      job = std::move(own.jobs.back());
      own.jobs.pop_back();
    }
  }
  if (!job) {
    const std::size_t n = queues_.size();
    for (std::size_t off = 1; off < n && !job; ++off) {
      WorkerQueue& victim = *queues_[(static_cast<std::size_t>(id) + off) % n];
      std::lock_guard<std::mutex> lk(victim.mu);
      if (!victim.jobs.empty()) {
        job = std::move(victim.jobs.front());
        victim.jobs.pop_front();
      }
    }
    if (job) RFMIX_OBS_COUNT("runtime.pool.tasks_stolen");
  }
  if (!job) return false;
  pending_.fetch_sub(1, std::memory_order_relaxed);
  RFMIX_OBS_COUNT("runtime.pool.tasks_executed");
  job();
  return true;
}

void ThreadPool::worker_main(int id) {
  tl_pool = this;
  tl_worker_id = id;
  while (!stop_.load(std::memory_order_acquire)) {
    if (try_run_one(id)) continue;
    std::unique_lock<std::mutex> lk(sleep_mu_);
    sleep_cv_.wait(lk, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_relaxed) > 0;
    });
  }
  // Drain whatever was queued before shutdown so no job is dropped.
  while (try_run_one(id)) {
  }
}

bool ThreadPool::on_worker_thread() const { return tl_pool == this; }

bool ThreadPool::help_one() {
  if (queues_.empty()) return false;
  // A worker starts from its own deque (LIFO); an outside thread scans from
  // queue 0 and effectively steals.
  const int id = (tl_pool == this && tl_worker_id >= 0) ? tl_worker_id : 0;
  return try_run_one(id);
}

void ThreadPool::assist_until(const std::function<bool()>& done) {
  using namespace std::chrono_literals;
  if (queues_.empty()) {
    // Serial fallback: jobs ran inline at submit, so `done` is normally
    // already true; yield-wait covers conditions completed off-pool.
    while (!done()) std::this_thread::sleep_for(50us);
    return;
  }
  const int id = (tl_pool == this && tl_worker_id >= 0) ? tl_worker_id : 0;
  while (!done()) {
    if (try_run_one(id)) continue;
    std::unique_lock<std::mutex> lk(sleep_mu_);
    if (done()) return;
    // Park on the same signal the workers use; a submit wakes us to help,
    // and the bounded wait re-checks `done` for completions signalled
    // through other channels (futures, completion queues).
    sleep_cv_.wait_for(lk, 200us, [this] {
      return pending_.load(std::memory_order_relaxed) > 0 ||
             stop_.load(std::memory_order_acquire);
    });
  }
}

int ThreadPool::configured_threads() {
  if (const char* env = std::getenv("RFMIX_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0') return static_cast<int>(std::clamp<long>(v, 1, 512));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(configured_threads());
  return pool;
}

ThreadPool& ThreadPool::current() {
  if (ThreadPool* p = g_override.load(std::memory_order_acquire)) return *p;
  return global();
}

ScopedPool::ScopedPool(int threads)
    : pool_(threads), saved_(g_override.load(std::memory_order_acquire)) {
  g_override.store(&pool_, std::memory_order_release);
}

ScopedPool::~ScopedPool() { g_override.store(saved_, std::memory_order_release); }

}  // namespace rfmix::runtime
