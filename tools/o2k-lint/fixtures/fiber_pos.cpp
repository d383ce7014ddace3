// o2k-fiber-blocking positive fixture: every construct below must fire.
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace fixture {

struct Pe {
  template <class Pred>
  void park_until(Pred&&) {}
  void hand_off(int) {}
};

std::mutex mu;
std::condition_variable cv;               // finding: a condvar wait blocks the worker
thread_local int per_worker_scratch = 0;  // finding: fibers migrate workers

void blocking_waits() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // finding
  usleep(100);                                                // finding
}

void park_with_lock_held(Pe& pe) {
  std::unique_lock<std::mutex> lk(mu);
  pe.park_until([] { return true; });  // finding: lk is held across the park
  pe.hand_off(1);                      // finding: a hand-off may switch out too
}

void park_after_unlock(Pe& pe) {
  std::unique_lock<std::mutex> lk2(mu);
  lk2.unlock();
  pe.park_until([] { return true; });  // quiet half lives in fiber_neg.cpp
}

}  // namespace fixture
