#ifndef LLL_CORE_THREAD_POOL_H_
#define LLL_CORE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lll {

// A small fixed-size worker pool behind QueryServer::Submit. Tasks are plain
// std::function<void()>; error reporting is the caller's business (tasks
// record their own Status).
class ThreadPool {
 public:
  // Creates `num_threads` workers. 0 is allowed: Submit then runs each task
  // on the caller's thread before returning.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues one task. Fire-and-forget; the destructor drains the queue.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace lll

#endif  // LLL_CORE_THREAD_POOL_H_
