#include "support/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>

namespace bgp::support {

struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> remaining{0};
  std::mutex mutex;  // guards error and the completion wait
  std::condition_variable done;
  std::exception_ptr error;
};

struct ThreadPool::Task {
  Batch* batch = nullptr;
  // Half-open index range [begin, end).  Chunking indices into ranges keeps
  // the per-scenario deque/lock traffic proportional to the chunk count,
  // not the scenario count, while still leaving ~8 chunks per worker for
  // the stealing to balance uneven scenario costs.
  std::size_t begin = 0;
  std::size_t end = 0;
};

struct ThreadPool::Worker {
  std::mutex mutex;
  std::deque<Task> deque;
};

namespace {
constexpr std::size_t kExternal = static_cast<std::size_t>(-1);
}  // namespace

void ThreadPool::executeTask(const Task& t) {
  try {
    for (std::size_t i = t.begin; i < t.end; ++i) (*t.batch->fn)(i);
  } catch (...) {
    std::lock_guard<std::mutex> lk(t.batch->mutex);
    if (!t.batch->error) t.batch->error = std::current_exception();
  }
  // The decrement must happen under the batch mutex: the caller in
  // parallelFor destroys the stack-allocated Batch as soon as it observes
  // remaining == 0, and it re-acquires this mutex first — so holding the
  // lock across the decrement and the notify guarantees the Batch (and its
  // condvar) outlives both.
  std::lock_guard<std::mutex> lk(t.batch->mutex);
  if (t.batch->remaining.fetch_sub(1) == 1) t.batch->done.notify_all();
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = defaultThreads();
  // Never spawn more workers than the hardware can actually run: the
  // scenarios are CPU-bound, so oversubscribed workers only time-slice
  // against each other and the sweep comes out *slower* than serial.
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned cap = hw > 0 ? hw : 1;
  if (threads > cap) threads = cap;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool() {
  {
    // Under the wait mutex: a worker between its predicate check and its
    // wait would otherwise miss the notify and never exit (lost wakeup).
    std::lock_guard<std::mutex> lk(wakeMutex_);
    stop_.store(true);
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

unsigned ThreadPool::defaultThreads() {
  if (const char* env = std::getenv("BGP_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(defaultThreads());
  return pool;
}

bool ThreadPool::runOneTask(std::size_t self) {
  const std::size_t n = workers_.size();
  if (n == 0) return false;
  Task task;
  bool got = false;
  // Own deque first, newest task first (cache-warm LIFO)...
  if (self < n) {
    Worker& w = *workers_[self];
    std::lock_guard<std::mutex> lk(w.mutex);
    if (!w.deque.empty()) {
      task = w.deque.back();
      w.deque.pop_back();
      got = true;
    }
  }
  // ...then steal the oldest task from the first non-empty victim.
  if (!got) {
    const std::size_t start = self < n ? self + 1 : 0;
    for (std::size_t i = 0; i < n && !got; ++i) {
      Worker& w = *workers_[(start + i) % n];
      std::lock_guard<std::mutex> lk(w.mutex);
      if (!w.deque.empty()) {
        task = w.deque.front();
        w.deque.pop_front();
        got = true;
      }
    }
  }
  if (!got) return false;
  {
    std::lock_guard<std::mutex> lk(wakeMutex_);
    --pendingTasks_;
  }
  executeTask(task);
  return true;
}

void ThreadPool::workerLoop(std::size_t self) {
  for (;;) {
    if (runOneTask(self)) continue;
    std::unique_lock<std::mutex> lk(wakeMutex_);
    wake_.wait(lk, [&] { return stop_.load() || pendingTasks_ > 0; });
    if (stop_.load() && pendingTasks_ <= 0) return;
  }
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // A pool with a single worker gains nothing from handing scenarios to
  // the one thread (the caller would only block); run inline.
  if (workers_.size() <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Cost-aware chunking: ~8 chunks per worker keeps scheduling overhead
  // negligible for large sweeps while leaving the work-stealing enough
  // slack to rebalance when some scenarios run much longer than others.
  const std::size_t nw = workers_.size();
  const std::size_t chunk = std::max<std::size_t>(1, n / (8 * nw));
  const std::size_t nTasks = (n + chunk - 1) / chunk;
  Batch batch;
  batch.fn = &fn;
  batch.remaining.store(nTasks);
  {
    std::lock_guard<std::mutex> wlk(wakeMutex_);
    for (std::size_t t = 0; t < nTasks; ++t) {
      const std::size_t begin = t * chunk;
      const std::size_t end = std::min(n, begin + chunk);
      Worker& w = *workers_[t % nw];
      std::lock_guard<std::mutex> lk(w.mutex);
      w.deque.push_back(Task{&batch, begin, end});
    }
    pendingTasks_ += static_cast<std::int64_t>(nTasks);
  }
  wake_.notify_all();
  // The caller participates: run scenario tasks (its own batch's or a
  // stealable task from any other) until this batch drains.
  while (batch.remaining.load() != 0) {
    if (runOneTask(kExternal)) continue;
    std::unique_lock<std::mutex> lk(batch.mutex);
    batch.done.wait(lk, [&] { return batch.remaining.load() == 0; });
  }
  // remaining may have been observed as 0 via the lock-free load above while
  // the finishing worker still holds batch.mutex (it decrements under the
  // lock).  Taking the mutex once here blocks until that worker is fully out
  // of the notify + unlock, making it safe to destroy the Batch.
  { std::lock_guard<std::mutex> lk(batch.mutex); }
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace bgp::support
