// Online profiling of network idle timespans (paper Section 5.4).
//
// GEMINI trains its first ~20 iterations without checkpointing, timestamps
// every communication operation, and averages the observed idle spans. The
// paper reports the timeline is stable across iterations (normalized stddev
// below 10%), which justifies scheduling checkpoint chunks into the profiled
// spans with a safety coefficient gamma.
#ifndef SRC_TRAINING_PROFILER_H_
#define SRC_TRAINING_PROFILER_H_

#include <vector>

#include "src/common/rng.h"
#include "src/training/timeline.h"

namespace gemini {

struct ProfileResult {
  // Mean idle spans across profiled iterations (start = nominal position).
  std::vector<IdleSpan> spans;
  // Largest normalized standard deviation observed across spans.
  double max_normalized_stddev = 0.0;
  TimeNs mean_iteration_time = 0;
  int iterations_profiled = 0;
};

// Multiplicative per-span jitter the "real" runs exhibit; the paper measured
// under 10% normalized stddev.
inline constexpr double kProfiledSpanJitterStddev = 0.05;

struct ProfilerConfig {
  int iterations = 20;
};

// Observes `config.iterations` perturbed instances of the nominal timeline
// and returns averaged spans. Deterministic given `rng`.
ProfileResult ProfileIdleSpans(const IterationTimeline& nominal, const ProfilerConfig& config,
                               Rng& rng);

}  // namespace gemini

#endif  // SRC_TRAINING_PROFILER_H_
