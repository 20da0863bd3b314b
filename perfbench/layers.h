// The traced leg: replays one workload's calls into each layer through that
// layer's public functions, with the workload's config, seed and payload, and
// wraps every call in a span. Span names are the per-layer metric stems that
// perfbench/run.py aggregates (see perfbench/README.md for the full map):
//
//   ceiling.memcpy / ceiling.crc        host ceilings over num_machines shards
//   sim.batch                           Simulator::ScheduleAfter + Step
//   kvstore.sim_minute                  KvStoreCluster::RunUntil, one sim minute
//   system.sim_minute                   idle created system, one sim minute
//   training.step                       ShardedTrainer::Step
//   storage.capture / commit / verify   MakeCheckpoint / WriteComplete /
//                                       LatestVerified
//   storage.delta_build / delta_append  BuildDeltaCheckpoint / WriteDelta
//   storage.materialize                 chain read (CpuCheckpointStore::Latest)
//   storage.serialize / deserialize     serializer round trip
//   storage.persistent_save             PersistentStore::Save to durability
//   replicator.reprotect                ReprotectReplicas to completion
//   placement.build                     BuildMixedPlacement
//   training.profile                    BuildZero3Timeline + ProfileIdleSpans
//   schedule.frequency                  ChooseCheckpointFrequency
//   obs.audit                           InterferenceAuditor::AuditIteration
//
// Each layer's loop sits under a "replay.<layer>" parent span, all under one
// "replay" root.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/common/status.h"

namespace perfbench {

// Calls per timed layer: enough that p90 has at least ten samples beyond it.
inline constexpr int kSamplesPerLayer = 120;

// Simulated facts the replay computes along the way (deterministic).
struct LayerFacts {
  int ckpt_interval_iters = 0;
  double transmission_s = 0.0;
};

gemini::StatusOr<LayerFacts> ReplayLayers(const WorkloadSpec& spec, SpanRecorder& recorder);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
