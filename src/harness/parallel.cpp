#include "harness/parallel.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace p2panon::harness {

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (threads <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  threads = std::min(threads, count);

  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= count) return;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
          return;
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  if (error) std::rethrow_exception(error);
}

std::size_t worker_threads(std::int64_t requested) {
  if (requested > 0) return static_cast<std::size_t>(requested);
  // Simulation fan-outs are the only workload while a bench runs, so use
  // every core; the driving thread only joins.
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace p2panon::harness
