#include "src/training/profiler.h"

#include <algorithm>
#include <cassert>

#include "src/common/stats.h"

namespace gemini {

ProfileResult ProfileIdleSpans(const IterationTimeline& nominal, const ProfilerConfig& config,
                               Rng& rng) {
  assert(config.iterations >= 1);
  const size_t num_spans = nominal.idle_spans.size();
  std::vector<RunningStat> span_stats(num_spans);
  RunningStat iteration_stat;

  for (int iter = 0; iter < config.iterations; ++iter) {
    TimeNs iteration_time = 0;
    for (size_t s = 0; s < num_spans; ++s) {
      const double factor = std::max(0.0, rng.Normal(1.0, kProfiledSpanJitterStddev));
      const double observed =
          static_cast<double>(nominal.idle_spans[s].length) * factor;
      span_stats[s].Add(observed);
      iteration_time += static_cast<TimeNs>(observed);
    }
    iteration_stat.Add(static_cast<double>(nominal.iteration_time - nominal.TotalIdle()) +
                       static_cast<double>(iteration_time));
  }

  ProfileResult result;
  result.iterations_profiled = config.iterations;
  result.spans.reserve(num_spans);
  for (size_t s = 0; s < num_spans; ++s) {
    IdleSpan span = nominal.idle_spans[s];
    span.length = static_cast<TimeNs>(span_stats[s].mean());
    result.spans.push_back(span);
    result.max_normalized_stddev =
        std::max(result.max_normalized_stddev, span_stats[s].normalized_stddev());
  }
  result.mean_iteration_time = static_cast<TimeNs>(iteration_stat.mean());
  return result;
}

}  // namespace gemini
