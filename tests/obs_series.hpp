// Test helpers: read one labelled series out of an obs snapshot. A missing
// series fails the calling test and reads as a sentinel no real value takes.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace dcs::test {

template <typename Sample>
const Sample* find_series(const std::vector<Sample>& samples,
                          std::string_view name, const obs::Labels& labels) {
  for (const Sample& sample : samples)
    if (sample.id.name == name && sample.id.labels == labels) return &sample;
  ADD_FAILURE() << "no series " << name << " for label "
                << (labels.empty() ? "" : labels[0].second);
  return nullptr;
}

inline std::uint64_t counter_value(const obs::Snapshot& snapshot,
                                   std::string_view name,
                                   const obs::Labels& labels) {
  const auto* sample = find_series(snapshot.counters, name, labels);
  return sample ? sample->value : UINT64_MAX;
}

inline std::int64_t gauge_value(const obs::Snapshot& snapshot,
                                std::string_view name,
                                const obs::Labels& labels) {
  const auto* sample = find_series(snapshot.gauges, name, labels);
  return sample ? sample->value : INT64_MIN;
}

inline std::uint64_t histogram_count(const obs::Snapshot& snapshot,
                                     std::string_view name,
                                     const obs::Labels& labels) {
  const auto* sample = find_series(snapshot.histograms, name, labels);
  return sample ? sample->hist.count : UINT64_MAX;
}

/// Number of series of family `name` across every label set.
template <typename Sample>
std::size_t series_count(const std::vector<Sample>& samples,
                         std::string_view name) {
  std::size_t count = 0;
  for (const Sample& sample : samples) count += sample.id.name == name;
  return count;
}

}  // namespace dcs::test
