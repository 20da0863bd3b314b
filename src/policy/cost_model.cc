#include "src/policy/cost_model.h"

#include <algorithm>
#include <cstdint>

namespace gemini {

TimeNs AlignUpToIterations(TimeNs interval, TimeNs iteration_time) {
  const int64_t iterations =
      std::max<int64_t>(1, (interval + iteration_time - 1) / iteration_time);
  return iterations * iteration_time;
}

TimeNs BudgetedInterval(TimeNs stall_per_checkpoint, double overhead_budget,
                        TimeNs min_interval, TimeNs iteration_time) {
  const TimeNs budget_interval =
      static_cast<TimeNs>(static_cast<double>(stall_per_checkpoint) / overhead_budget);
  return AlignUpToIterations(std::max(budget_interval, min_interval), iteration_time);
}

}  // namespace gemini
