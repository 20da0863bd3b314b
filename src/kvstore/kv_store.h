// Replicated key-value store with Raft-style leader election and log
// replication, plus etcd-style leases and watches.
//
// This is the substrate standing in for etcd (Section 3.2 of the paper): the
// GEMINI worker agents publish heartbeat-leased health keys here, the root
// agent scans them, and root-machine failover uses the store's election
// primitive.
//
// Consensus scope: full Raft leader election (terms, randomized timeouts,
// vote safety via last-log checks) and log replication with commit on
// majority. Log divergence repair uses the match-index walk-back. Reads are
// served by the leader from applied state.
//
// Log compaction: the health keepalives and checkpoint bookkeeping of a long
// run propose entries without end, so every KvNode folds its applied prefix
// into a snapshot every kSnapshotEvery entries. The snapshot is the applied
// state machine itself (keys, leases, next lease id) plus the index and term
// of its last entry; only the log suffix after it is kept. A follower whose
// next index falls inside a leader's snapshot (a replaced member rejoining
// with an empty log, or one that fell far behind) gets one InstallSnapshot
// message instead of the log: the leader's applied state, the log suffix
// after it and the commit index. It ends in the state a full-log catch-up
// would have produced.
#ifndef SRC_KVSTORE_KV_STORE_H_
#define SRC_KVSTORE_KV_STORE_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/fabric.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/kvstore/kv_types.h"
#include "src/sim/simulator.h"

namespace gemini {

class Counter;
class MetricsRegistry;
class RunTracer;

struct KvStoreConfig {
  TimeNs heartbeat_interval = Millis(100);
  // Election timeouts are drawn uniformly from [min, max] per node.
  TimeNs election_timeout_min = Millis(500);
  TimeNs election_timeout_max = Millis(1000);
};

class KvNode;

// The cluster of KV nodes. Owns all nodes, the watch registry, and routing.
class KvStoreCluster {
 public:
  // One node per entry of `server_ranks`, communicating over `fabric`
  // control messages. `alive` gates message processing so that machine
  // failures silently stop a node (matching a crashed etcd member).
  KvStoreCluster(Simulator& sim, Fabric& fabric, std::vector<int> server_ranks,
                 std::function<bool(int rank)> alive, KvStoreConfig config, uint64_t seed);
  ~KvStoreCluster();

  KvStoreCluster(const KvStoreCluster&) = delete;
  KvStoreCluster& operator=(const KvStoreCluster&) = delete;

  // Starts all nodes' timers (election timers armed immediately).
  void Start();

  // Optional observability sinks ("kv.*" metrics; election trace events).
  // Set before Start() so the first election is captured. Counter handles
  // are resolved here, once, per the hot-path metric convention
  // (src/obs/metrics.h) — every committed op passes the proposal counter.
  void set_observability(MetricsRegistry* metrics, RunTracer* tracer);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<int>& server_ranks() const { return server_ranks_; }

  // Rank of the current leader, or nullopt if no node currently leads.
  std::optional<int> LeaderRank() const;

  // ---- Client API -------------------------------------------------------
  // Calls are routed to the current leader; they fail with kUnavailable when
  // no leader exists (callers retry, as etcd clients do). Completion
  // callbacks fire after replication commits the op (majority ack).

  using ProposeCallback = std::function<void(Status)>;
  void Put(const std::string& key, const std::string& value, LeaseId lease,
           ProposeCallback done);
  // Batched put: all entries ride one log entry / one consensus round and
  // apply atomically in order (each still emits its own watch event). The
  // checkpoint hot path uses this to publish per-checkpoint bookkeeping as
  // one flush instead of one proposal per key.
  void PutBatch(std::vector<KvPutEntry> entries, LeaseId lease, ProposeCallback done);
  // Election primitive: the put applies only when the key is absent; callers
  // Get() afterwards to learn the winner.
  void PutIfAbsent(const std::string& key, const std::string& value, LeaseId lease,
                   ProposeCallback done);
  void Delete(const std::string& key, ProposeCallback done);

  using LeaseCallback = std::function<void(StatusOr<LeaseId>)>;
  void LeaseGrant(TimeNs ttl, LeaseCallback done);
  void LeaseKeepAlive(LeaseId lease, ProposeCallback done);
  void LeaseRevoke(LeaseId lease, ProposeCallback done);

  // Linearizable-enough read from the leader's applied state.
  StatusOr<KvEntry> Get(const std::string& key) const;
  // All applied entries whose key starts with `prefix`.
  std::map<std::string, KvEntry> List(const std::string& prefix) const;

  // Registers a watch on a key prefix. Events are emitted when ops commit.
  // Delivery is at-least-once across leader changes. Returns a watch id.
  uint64_t Watch(const std::string& prefix, WatchCallback callback);
  void CancelWatch(uint64_t watch_id);

  // ---- Introspection (tests) --------------------------------------------
  const KvNode& node(int index) const { return *nodes_.at(static_cast<size_t>(index)); }
  KvNode& node(int index) { return *nodes_.at(static_cast<size_t>(index)); }

 private:
  friend class KvNode;

  KvNode* Leader() const;
  void EmitWatchEvents(const std::vector<WatchEvent>& events);

  Simulator& sim_;
  Fabric& fabric_;
  std::vector<int> server_ranks_;
  std::function<bool(int)> alive_;
  KvStoreConfig config_;
  MetricsRegistry* metrics_ = nullptr;
  RunTracer* tracer_ = nullptr;
  // Hot-path metric handles (resolved once in set_observability), shared by
  // every node of the cluster.
  Counter* elections_started_counter_ = nullptr;
  Counter* elections_won_counter_ = nullptr;
  Counter* proposals_counter_ = nullptr;
  std::vector<std::unique_ptr<KvNode>> nodes_;
  uint64_t next_watch_id_ = 1;
  struct WatchReg {
    std::string prefix;
    WatchCallback callback;
  };
  std::map<uint64_t, WatchReg> watches_;
};

// One Raft participant. Public for tests; application code uses the cluster.
class KvNode {
 public:
  enum class Role { kFollower, kCandidate, kLeader };

  KvNode(KvStoreCluster& cluster, int index, int rank, uint64_t seed);

  void Start();

  // Applied entries folded into a snapshot at a time (see the file comment).
  static constexpr uint64_t kSnapshotEvery = 4096;

  // Rejoins the cluster with empty state after its machine was replaced; the
  // node catches up from the leader via the AppendEntries walk-back, which
  // ends in an InstallSnapshot once the leader has compacted. (Real etcd
  // would use a membership change; wiping state is the simulation-scale
  // equivalent.)
  void ResetAndRestart();

  Role role() const { return role_; }
  uint64_t term() const { return term_; }
  int rank() const { return rank_; }
  bool alive() const;
  uint64_t commit_index() const { return commit_index_; }
  uint64_t last_applied() const { return last_applied_; }
  // Index of the last log entry, including entries folded into the snapshot.
  uint64_t log_length() const { return LastLogIndex(); }
  // Index of the last entry folded into the snapshot (0 before the first).
  uint64_t snapshot_index() const { return snapshot_index_; }
  const std::map<std::string, KvEntry>& applied_state() const { return state_; }

  // Leader-side entry point used by the cluster client API.
  void Propose(KvOp op, std::function<void(Status)> done);

  // Applied-state lookups (valid on any node; the cluster queries the
  // leader's).
  std::optional<KvEntry> GetApplied(const std::string& key) const;
  std::map<std::string, KvEntry> ListApplied(const std::string& prefix) const;

 private:
  friend class KvStoreCluster;

  struct LogEntry {
    uint64_t term = 0;
    KvOp op;
  };

  struct LeaseState {
    TimeNs deadline = 0;
    TimeNs ttl = 0;
    std::vector<std::string> keys;
  };

  // The applied state machine after entry `index` (of term `term`).
  struct Snapshot {
    uint64_t index = 0;
    uint64_t term = 0;
    std::map<std::string, KvEntry> state;
    std::map<LeaseId, LeaseState> leases;
    LeaseId next_lease_id = 1;
  };

  // -- Message handlers (invoked via fabric control messages). --
  void OnRequestVote(uint64_t term, int candidate, uint64_t last_log_index,
                     uint64_t last_log_term);
  void OnRequestVoteReply(uint64_t term, bool granted);
  // AppendEntries, or InstallSnapshot when `snapshot` is set: the leader no
  // longer holds entries prev_index+1..snapshot->index, so it ships its
  // applied state for them and `entries` start after snapshot->index.
  void OnAppendEntries(uint64_t term, int leader, uint64_t prev_index, uint64_t prev_term,
                       std::shared_ptr<const Snapshot> snapshot, std::vector<LogEntry> entries,
                       uint64_t leader_commit);
  void OnAppendEntriesReply(int from, uint64_t term, bool success, uint64_t match_index);

  // -- Timers --
  void ResetElectionTimer();
  void OnElectionTimeout();
  void OnHeartbeatTick();

  void BecomeFollower(uint64_t term);
  void BecomeLeader();
  void StartElection();
  void ReplicateTo(int peer_index);
  // Replaces the applied state with `snapshot` unless this node has already
  // applied that far; keeps the log suffix only if it extends the snapshot.
  void InstallSnapshot(const Snapshot& snapshot);
  // Merges `entries` (indices after `prev`, which matches the leader) into
  // the log, truncating at the first conflicting term; returns the index of
  // the last merged entry.
  uint64_t AppendAfter(uint64_t prev, std::vector<LogEntry> entries);
  void AdvanceCommit();
  // Applies committed entries, then folds the applied prefix into the
  // snapshot once it reaches kSnapshotEvery entries.
  void ApplyCommitted();
  // Applies one op to the state machine; returns watch events it produced.
  std::vector<WatchEvent> ApplyOp(const KvOp& op, uint64_t index);
  // Applies one put (shared by kPut and each kPutBatch entry), appending the
  // watch event it produced.
  void ApplyPut(const std::string& key, const std::string& value, LeaseId lease,
                bool if_absent, uint64_t index, std::vector<WatchEvent>& events);
  // Leader-only: proposes revocations for expired leases.
  void ExpireLeases();

  void Send(int peer_index, std::function<void()> handler);

  uint64_t LastLogIndex() const { return snapshot_index_ + log_.size(); }
  uint64_t LastLogTerm() const { return log_.empty() ? snapshot_term_ : log_.back().term; }
  // Entry/term at `index`, for snapshot_index_ < index <= LastLogIndex()
  // (TermAt also accepts snapshot_index_ itself).
  const LogEntry& Entry(uint64_t index) const { return log_[index - snapshot_index_ - 1]; }
  uint64_t TermAt(uint64_t index) const {
    return index == snapshot_index_ ? snapshot_term_ : Entry(index).term;
  }
  // True when this log holds the entry (`index`, `term`). Entries folded into
  // the snapshot are committed, so they match whatever a leader holds there.
  bool HasEntry(uint64_t index, uint64_t term) const {
    return index < snapshot_index_ || (index <= LastLogIndex() && TermAt(index) == term);
  }

  KvStoreCluster& cluster_;
  int index_;
  int rank_;
  Rng rng_;

  Role role_ = Role::kFollower;
  uint64_t term_ = 0;
  std::optional<int> voted_for_;
  int votes_received_ = 0;
  std::optional<int> leader_index_;

  // Log is 1-indexed externally: entries up to snapshot_index_ are folded
  // into the applied state; log_[i - snapshot_index_ - 1] holds index i.
  std::vector<LogEntry> log_;
  uint64_t snapshot_index_ = 0;
  uint64_t snapshot_term_ = 0;
  uint64_t commit_index_ = 0;
  uint64_t last_applied_ = 0;

  // Leader state.
  std::vector<uint64_t> next_index_;
  std::vector<uint64_t> match_index_;
  // Completion callbacks for proposals awaiting commit, by log index.
  std::map<uint64_t, std::function<void(Status)>> pending_proposals_;

  // Applied state machine.
  std::map<std::string, KvEntry> state_;
  std::map<LeaseId, LeaseState> leases_;
  LeaseId next_lease_id_ = 1;

  EventId election_timer_{};
  EventId heartbeat_timer_{};
};

}  // namespace gemini

#endif  // SRC_KVSTORE_KV_STORE_H_
