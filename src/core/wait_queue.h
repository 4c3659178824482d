// The dispatcher's wait queue (paper section 3.2): one FIFO shared by every
// client instance.
//
// The queue holds *runs*. A run is one submit's decoded task vector, moved
// in whole, plus a head index and what its tasks share: the instance, the
// enqueue time, the attempt count and the executors blamed for killing
// them. A submit therefore costs one push however many tasks it carries,
// which keeps the critical section every exchange shares short. Requeues
// (retry, replay timeout, executor removal) push one-task runs at the
// front or the back, and a restored image's tasks go in as one-task runs
// in order. A pop advances the head run's index, and a used-up run is
// dropped.
//
// Not thread-safe: the dispatcher guards it with queue_mu_.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/ids.h"
#include "common/task.h"

namespace falkon::core {

class WaitQueue {
 public:
  /// What every task of a run shares.
  struct Meta {
    InstanceId instance;
    double enqueue_s{0.0};
    int attempts{0};
    /// Distinct executors that died while holding the task (quarantine).
    std::vector<std::uint64_t> killers;
  };

  /// One task out of the queue, with its run's metadata.
  struct Task {
    TaskSpec spec;
    Meta meta;
  };

  /// Append `specs` as one run at the tail; an empty vector adds nothing.
  void push_back(std::vector<TaskSpec> specs, Meta meta);

  /// Put one task at the head (`front`) or the tail as its own run.
  void requeue(Task task, bool front);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// The head task and its run's metadata. Require !empty().
  [[nodiscard]] const TaskSpec& front() const;
  [[nodiscard]] const Meta& front_meta() const;

  /// Append pointers to the first min(n, size()) specs, in queue order, to
  /// `out`; the window may span runs. Valid until the next mutation.
  void window(std::size_t n, std::vector<const TaskSpec*>& out) const;

  /// Remove and return the task at queue index `k` (k < size()). The tasks
  /// ahead of it in its run move back one slot, so the rest keep their FIFO
  /// order and the head stays the head: O(k), never a swap.
  Task take(std::size_t k = 0);

  /// Drop every run of `instance`; returns how many tasks went with them.
  std::size_t drop_instance(InstanceId instance);

 private:
  struct Run {
    std::vector<TaskSpec> specs;
    std::size_t head{0};
    Meta meta;
    [[nodiscard]] std::size_t remaining() const { return specs.size() - head; }
  };

  std::deque<Run> runs_;
  std::size_t size_{0};
};

}  // namespace falkon::core
