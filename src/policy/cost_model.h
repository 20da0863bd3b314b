// Shared checkpoint-cost arithmetic.
//
// The baseline system models (src/baselines/system_model.cc) and the protection
// policies schedule checkpoints by the same rules — iteration-aligned,
// budget-capped frequency. One copy here keeps baseline numbers and policy
// numbers from drifting apart (they used to be re-derived independently on
// each side).
#ifndef SRC_POLICY_COST_MODEL_H_
#define SRC_POLICY_COST_MODEL_H_

#include "src/common/units.h"

namespace gemini {

// Rounds `interval` up to a whole number of iterations (at least one):
// checkpoints start on iteration boundaries.
TimeNs AlignUpToIterations(TimeNs interval, TimeNs iteration_time);

// CheckFreq-style budgeted frequency: the shortest interval that keeps
// `stall_per_checkpoint / interval <= overhead_budget`, but never shorter
// than `min_interval` (the store must drain one checkpoint before the next),
// aligned up to iteration boundaries.
TimeNs BudgetedInterval(TimeNs stall_per_checkpoint, double overhead_budget,
                        TimeNs min_interval, TimeNs iteration_time);

}  // namespace gemini

#endif  // SRC_POLICY_COST_MODEL_H_
