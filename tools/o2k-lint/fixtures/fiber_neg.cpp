// o2k-fiber-blocking negative fixture: nothing here may fire.
#include <mutex>

namespace fixture {

struct Pe {
  template <class Pred>
  void park_until(Pred&&) {}
  void hand_off(int) {}
};

std::mutex mu;

// Guard released before the park: fine.
void park_after_unlock(Pe& pe) {
  std::unique_lock<std::mutex> lk(mu);
  lk.unlock();
  pe.park_until([] { return true; });
}

// Guard scope closed before the park and the hand-off: fine.
void park_after_scope(Pe& pe) {
  {
    std::lock_guard<std::mutex> lk(mu);
  }
  pe.park_until([] { return true; });
  pe.hand_off(1);
}

// Lock taken *inside* the wait predicate (the engine's own idiom): fine —
// the guard is scoped to one predicate evaluation, not held across the park.
void park_with_predicate_lock(Pe& pe, bool& flag) {
  pe.park_until([&] {
    std::scoped_lock lk(mu);
    return flag;
  });
}

// Words in comments/strings must not fire: sleep_for, thread_local, select().
const char* kDoc = "do not sleep_for or select() on fiber paths";

}  // namespace fixture
