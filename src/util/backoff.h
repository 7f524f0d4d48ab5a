// Retry-backoff policy: exponential growth with deterministic, seeded
// jitter.
//
// Its user is the federated coordinator's cell probe policy
// (cluster/federated_scheduler), which runs the full exponential + jitter +
// cap form so flapping cells earn growing quarantine windows. Jitter draws
// come from an explicitly seeded util::Rng stream, so two runs with the
// same seed replay the same delay sequence — the repo's chaos-determinism
// contract. Header-only.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/rng.h"

namespace flowtime::util {

struct BackoffConfig {
  /// First delay (unit is the caller's: slots here, could be seconds).
  double base = 1.0;
  /// Growth factor per attempt; 1.0 = constant.
  double multiplier = 2.0;
  /// Upper bound on the un-jittered delay; <= 0 disables the cap.
  double cap = 0.0;
  /// Jitter fraction in [0, 1): each delay is scaled by a factor drawn
  /// uniformly from [1 - jitter, 1 + jitter). 0 disables jitter (and the
  /// jitter stream is never consulted, so draws stay aligned).
  double jitter = 0.0;
  /// Seed for the jitter stream; only consulted when jitter > 0.
  std::uint64_t seed = 0;
};

/// Deterministic exponential-backoff sequence. next() returns the delay for
/// the current attempt and advances; reset() restarts from `base` without
/// rewinding the jitter stream (the stream position is part of the run's
/// deterministic state, not of one retry episode).
class Backoff {
 public:
  explicit Backoff(BackoffConfig config = {})
      : config_(config), jitter_rng_(config.seed) {}

  /// Delay for attempt `attempts()` (0-based), then advances the attempt
  /// counter. Always > 0 for base > 0.
  double next() {
    double delay = config_.base;
    for (int i = 0; i < attempts_; ++i) {
      delay *= config_.multiplier;
      if (config_.cap > 0.0 && delay >= config_.cap) {
        delay = config_.cap;
        break;
      }
    }
    if (config_.cap > 0.0) delay = std::min(delay, config_.cap);
    ++attempts_;
    if (config_.jitter > 0.0) {
      delay *= jitter_rng_.uniform_real(1.0 - config_.jitter,
                                        1.0 + config_.jitter);
    }
    return delay;
  }

  /// Restart the sequence at `base` (e.g. after a stable healthy period).
  /// Deliberately keeps the jitter stream position — see class comment.
  void reset() { attempts_ = 0; }

  int attempts() const { return attempts_; }
  const BackoffConfig& config() const { return config_; }

 private:
  BackoffConfig config_;
  util::Rng jitter_rng_;
  int attempts_ = 0;
};

}  // namespace flowtime::util
