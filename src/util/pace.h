// Deadline pacing: the one rule by which both threaded transports (the
// testbed's paced channel and the TCP sender) hold a transfer to its link
// time.
//
// A paced transfer may not finish before its start plus the link time of
// the bytes it moved, and it sleeps toward that deadline, never for each
// step's own link time. A sleep costs the host's timer slack and wakeup
// (tens of microseconds) however short it was asked to be, so sleeping per
// step pays that floor on every step and, once a step's link time is below
// it, the floor sets the transfer time instead of the link. Sleeping to a
// deadline pays it at most once per step that is ahead of schedule, and a
// step that finds the deadline passed makes no syscall (steady_clock reads
// the vDSO): an unpaced link never sleeps.
#pragma once

#include <algorithm>
#include <chrono>
#include <thread>

namespace rpr::util {

class Pacer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Starts the transfer's clock now, owing no link time yet.
  Pacer() : deadline_(Clock::now()) {}

  /// Owes `seconds` more link time: the transfer may not finish before its
  /// start plus all the link time owed so far.
  void owe(double seconds) {
    deadline_ += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  }

  /// True once the deadline has passed, with no sleep call; otherwise
  /// sleeps toward it for at most `max_step` and returns false. A caller
  /// that polls before every step therefore polls once more after the
  /// last sleep, before it calls the transfer done.
  bool step(Clock::duration max_step) const {
    const Clock::time_point now = Clock::now();
    if (now >= deadline_) return true;
    std::this_thread::sleep_until(std::min(deadline_, now + max_step));
    return false;
  }

  /// Sleeps until the deadline; no syscall once it has passed.
  void wait() const {
    if (Clock::now() < deadline_) std::this_thread::sleep_until(deadline_);
  }

 private:
  Clock::time_point deadline_;
};

}  // namespace rpr::util
