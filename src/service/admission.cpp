#include "service/admission.hpp"

#include <algorithm>
#include <cmath>

namespace dcs::service {

namespace {

std::uint32_t clamp_hint(double ms, const AdmissionConfig& config) {
  const double lo = static_cast<double>(config.min_retry_after_ms);
  const double hi = static_cast<double>(config.max_retry_after_ms);
  return static_cast<std::uint32_t>(std::clamp(std::ceil(ms), lo, hi));
}

}  // namespace

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config) {
  if (config_.site_rate_per_sec > 0.0)
    config_.site_burst = std::max(config_.site_burst, 1.0);
  config_.max_retry_after_ms =
      std::max(config_.max_retry_after_ms, config_.min_retry_after_ms);
}

AdmissionDecision AdmissionController::try_admit(std::uint64_t site_id,
                                                std::uint64_t bytes,
                                                Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Global byte budget first: when the collector as a whole is saturated,
  // no site-local token should let a delta through. We cannot predict when
  // in-flight merges drain, so the hint is the configured ceiling.
  if (config_.max_inflight_bytes != 0 &&
      inflight_bytes_ + bytes > config_.max_inflight_bytes) {
    return {false, config_.max_retry_after_ms};
  }
  if (config_.site_rate_per_sec > 0.0) {
    auto [it, inserted] = buckets_.try_emplace(site_id);
    Bucket& bucket = it->second;
    if (inserted) {
      bucket.tokens = config_.site_burst;
      bucket.last = now;
    } else {
      const double elapsed =
          std::chrono::duration<double>(now - bucket.last).count();
      if (elapsed > 0.0) {
        bucket.tokens = std::min(
            config_.site_burst,
            bucket.tokens + elapsed * config_.site_rate_per_sec);
        bucket.last = now;
      }
    }
    if (bucket.tokens < 1.0) {
      // Time until the bucket refills to one whole token.
      const double wait_ms =
          (1.0 - bucket.tokens) / config_.site_rate_per_sec * 1000.0;
      return {false, clamp_hint(wait_ms, config_)};
    }
    bucket.tokens -= 1.0;
  }
  inflight_bytes_ += bytes;
  return {true, 0};
}

void AdmissionController::release(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  inflight_bytes_ = bytes > inflight_bytes_ ? 0 : inflight_bytes_ - bytes;
}

std::uint64_t AdmissionController::inflight_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_bytes_;
}

void AdmissionController::forget_idle_sites(Clock::time_point cutoff) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    it = it->second.last < cutoff ? buckets_.erase(it) : std::next(it);
  }
}

}  // namespace dcs::service
