#include "core/wait_queue.h"

#include <algorithm>
#include <cassert>

namespace falkon::core {

void WaitQueue::push_back(std::vector<TaskSpec> specs, Meta meta) {
  if (specs.empty()) return;
  size_ += specs.size();
  runs_.push_back(Run{std::move(specs), 0, std::move(meta)});
}

void WaitQueue::requeue(Task task, bool front) {
  Run run;
  run.specs.push_back(std::move(task.spec));
  run.meta = std::move(task.meta);
  ++size_;
  if (front) {
    runs_.push_front(std::move(run));
  } else {
    runs_.push_back(std::move(run));
  }
}

const TaskSpec& WaitQueue::front() const {
  assert(!empty());
  const Run& run = runs_.front();
  return run.specs[run.head];
}

const WaitQueue::Meta& WaitQueue::front_meta() const {
  assert(!empty());
  return runs_.front().meta;
}

void WaitQueue::window(std::size_t n, std::vector<const TaskSpec*>& out) const {
  for (auto it = runs_.begin(); n > 0 && it != runs_.end(); ++it) {
    const std::size_t count = std::min(n, it->remaining());
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(&it->specs[it->head + i]);
    }
    n -= count;
  }
}

WaitQueue::Task WaitQueue::take(std::size_t k) {
  assert(k < size_);
  auto it = runs_.begin();
  while (k >= it->remaining()) {
    k -= it->remaining();
    ++it;
  }
  Run& run = *it;
  const auto head = run.specs.begin() + static_cast<std::ptrdiff_t>(run.head);
  const auto slot = head + static_cast<std::ptrdiff_t>(k);
  Task task{std::move(*slot), {}};
  // Close the gap from the front: the k tasks ahead of the pick move back
  // one slot and the head index follows them.
  std::move_backward(head, slot, slot + 1);
  ++run.head;
  --size_;
  if (run.remaining() == 0) {
    task.meta = std::move(run.meta);
    runs_.erase(it);
  } else {
    task.meta = run.meta;
  }
  return task;
}

std::size_t WaitQueue::drop_instance(InstanceId instance) {
  std::size_t dropped = 0;
  std::erase_if(runs_, [&](const Run& run) {
    if (run.meta.instance != instance) return false;
    dropped += run.remaining();
    return true;
  });
  size_ -= dropped;
  return dropped;
}

}  // namespace falkon::core
