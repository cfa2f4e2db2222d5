#include "common/parallel.hpp"

#include <cstdlib>
#include <memory>

#include "common/error.hpp"

namespace dh {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  DH_REQUIRE(threads <= 256, "thread count out of range");
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("DH_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return static_cast<std::size_t>(v > 256 ? 256 : v);
    }
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

void ThreadPool::run_indices(Job& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    try {
      (*job.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mu);
      if (!job.error) job.error = std::current_exception();
      // Cancel remaining work: drain the claim counter. (Completion is
      // tracked by in-flight workers, not executed indices, so this
      // cannot strand the caller.)
      job.next.store(job.n, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || job_ != nullptr; });
      if (stop_) return;
      job = job_;
      ++active_workers_;
    }
    run_indices(*job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_workers_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Job job;
  job.fn = &fn;
  job.n = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DH_REQUIRE(job_ == nullptr,
               "ThreadPool does not support nested/concurrent parallel_for "
               "on the same pool");
    job_ = &job;
  }
  work_cv_.notify_all();
  run_indices(job);  // the caller participates
  {
    // The caller's run_indices only returns once the claim counter is
    // drained, so no *new* work remains; wait until every worker that
    // entered the job has left it, so none still holds a reference to
    // the stack-allocated job (or is mid-task).
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;  // stop waking workers for this job
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

namespace {

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

std::mutex& global_pool_mu() {
  static std::mutex mu;
  return mu;
}

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(global_pool_mu());
  auto& slot = global_pool_slot();
  if (!slot) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void set_global_thread_count(std::size_t threads) {
  std::lock_guard<std::mutex> lock(global_pool_mu());
  global_pool_slot() = std::make_unique<ThreadPool>(threads);
}

std::size_t global_thread_count() { return global_pool().thread_count(); }

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  global_pool().parallel_for(n, fn);
}

}  // namespace dh
