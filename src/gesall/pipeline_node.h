// Streaming dataflow node graph: the intra-round data path rebuilt as
// cooperating pipeline nodes connected by capacity-bounded queues
// (util/bounded_queue.h), so read batches flow align -> clean -> emit
// without a whole round's records ever being materialized at once.
//
// Execution model. Every node is a *pump*: a non-blocking function the
// graph calls repeatedly, never concurrently with itself. A pump that
// cannot make progress returns kBlocked together with a parker that
// registers a one-shot wake-up on the queue it is waiting for
// (BoundedQueue::OnItem / OnSpace); the node then holds no executor
// task at all until the edge fires. Because pumps never block a worker
// thread and NodeGraph::Run waits with a HELPING TaskGroup wait, the
// whole graph is live on a single-worker executor — the serial
// reference pipeline runs the same nodes the distributed engine does.
//
// Backpressure is the queue capacity: a fast producer parks on OnSpace
// until the consumer drains (stall time lands in BoundedQueueStats and
// is surfaced as round counters). Barriers remain only where semantics
// require them — the qname shuffle (FixMate), the round-3 key groups
// and the round-4 sort — which stay ordinary MR shuffles downstream of
// the streaming sink.
//
// The concrete chain built here fuses pipeline rounds 1+2:
//
//   FastqSource -> AlignNode -> [CleanNode] -> sink
//        |  ReadBatch   |  RecordBatch  |  RecordBatch
//      bounded queues with OnItem/OnSpace parking between each
//
// Batches are sliced at exactly PairedAlignerOptions::batch_size pairs,
// the boundary AlignPairs itself uses, so per-batch insert statistics
// and tie-break RNG seeds — and therefore every output record — are
// bit-identical to the monolithic AlignPairs call of the barriered
// round 1 (aligner.h, "Batch statistics").

#ifndef GESALL_GESALL_PIPELINE_NODE_H_
#define GESALL_GESALL_PIPELINE_NODE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "align/aligner.h"
#include "formats/fastq.h"
#include "formats/sam.h"
#include "util/bounded_queue.h"
#include "util/cancel.h"
#include "util/executor.h"
#include "util/status.h"

namespace gesall {

/// \brief One batch of interleaved reads flowing source -> align.
/// Exactly 2 * batch_size reads per batch except the final partial one.
struct ReadBatch {
  std::vector<FastqRecord> reads;
  int64_t index = 0;  // 0-based batch sequence number
};

/// \brief One batch of aligned (and possibly cleaned) SAM records.
struct RecordBatch {
  std::vector<SamRecord> records;
  int64_t index = 0;
};

/// \brief Verdict of one pump invocation.
struct PumpResult {
  enum class Kind { kProgress, kBlocked, kDone };
  Kind kind = Kind::kProgress;
  /// Non-OK aborts the whole graph (first error wins).
  Status status = Status::OK();
  /// Set when kBlocked: registers a one-shot wake-up callback on the
  /// edge the pump is waiting for. Must fire the callback exactly once
  /// (inline is fine — BoundedQueue::OnItem/OnSpace already do this
  /// when the condition, or shutdown, is already true).
  std::function<void(std::function<void()>)> park;

  static PumpResult Progress() { return {Kind::kProgress, Status::OK(), {}}; }
  static PumpResult Done() { return {Kind::kDone, Status::OK(), {}}; }
  static PumpResult Error(Status s) {
    return {Kind::kDone, std::move(s), {}};
  }
  template <typename Q>
  static PumpResult BlockedOnItem(Q* q) {
    return {Kind::kBlocked, Status::OK(),
            [q](std::function<void()> fn) { q->OnItem(std::move(fn)); }};
  }
  template <typename Q>
  static PumpResult BlockedOnSpace(Q* q) {
    return {Kind::kBlocked, Status::OK(),
            [q](std::function<void()> fn) { q->OnSpace(std::move(fn)); }};
  }
};

/// \brief Per-node execution telemetry.
struct NodeStats {
  std::string name;
  int64_t pumps = 0;  // pump invocations
  int64_t parks = 0;  // times the node parked on an edge
};

/// \brief A set of pump nodes executed to completion on an Executor.
///
/// Single-shot: add nodes, register the abort hook, Run() once. Run()
/// returns after every node reached a terminal state — no callback or
/// task referencing the graph is outstanding afterwards, so the graph
/// and its queues can be destroyed immediately.
class NodeGraph {
 public:
  /// `cancel` (optional) is polled between pumps; flipping it aborts
  /// the graph. Wire the same token into every queue so parked pumps
  /// wake immediately.
  NodeGraph(Executor* executor, std::shared_ptr<CancelToken> cancel = nullptr);

  /// Adds a node. `pump` is invoked repeatedly (never concurrently with
  /// itself); it must not block. Nodes must obey the shutdown contract:
  /// once their queues report cancelled, return kDone promptly.
  void AddNode(std::string name, std::function<PumpResult()> pump);

  /// Registers the abort hook: CloseAbort every queue of the graph.
  /// Invoked once when a node errors, the cancel token flips, or the
  /// graph stalls — it must unblock every parked pump.
  void OnAbort(std::function<void()> abort);

  /// Runs every node to completion; helping-waits, so callable from
  /// inside an executor task (e.g. a streamed map attempt) even on a
  /// single-worker executor. Returns the first node error, or
  /// Status::Cancelled when the token flipped first.
  Status Run();

  /// Telemetry, valid after Run() returns.
  std::vector<NodeStats> node_stats() const;

 private:
  enum NodeState : int { kIdle = 0, kRunning = 1, kRunningNotified = 2 };
  struct Node {
    std::string name;
    std::function<PumpResult()> pump;
    std::atomic<int> state{kRunning};  // scheduled at Run() start
    int64_t pumps = 0;  // written only by the (serialized) run loop
    int64_t parks = 0;
  };

  void Schedule(Node* node);
  void RunLoop(Node* node);
  void Finish(Node* node);  // marks the node terminal
  void Abort();             // first call runs abort_, later calls no-op
  void SetError(Status s);  // first error wins

  Executor* executor_;
  std::shared_ptr<CancelToken> cancel_;
  std::unique_ptr<TaskGroup> group_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::function<void()> abort_;
  std::atomic<bool> aborting_{false};
  std::atomic<size_t> terminal_{0};
  mutable std::mutex mu_;
  Status error_;               // guarded by mu_
  bool stall_errored_ = false;  // error_ is a stall diagnosis; guarded by mu_
};

/// \brief Per-edge queue telemetry of one RunAlignCleanStream call,
/// keyed for the round counter table.
struct StreamEdgeStats {
  std::string name;  // "reads", "aligned", "cleaned"
  BoundedQueueStats queue;
};

/// \brief Everything a streamed align(+clean) run reports back.
struct AlignCleanStreamStats {
  SwKernelStats kernel;        // extension-kernel telemetry
  int64_t clean_clipped = 0;   // CleanSam clipped_overhangs
  int64_t clean_dropped = 0;   // CleanSam dropped_invalid
  int64_t batches = 0;         // ReadBatches that flowed source -> align
  int64_t reads = 0;           // reads across those batches
  std::vector<StreamEdgeStats> edges;
  std::vector<NodeStats> nodes;
};

/// \brief Options for RunAlignCleanStream.
struct AlignCleanStreamOptions {
  Executor* executor = nullptr;  // null selects Executor::Shared()
  std::shared_ptr<CancelToken> cancel;
  /// Append the AddGroupsAndClean node after alignment (the round-2
  /// map-side transform). Off for the serial reference chain, which
  /// times AddReplaceReadGroups and CleanSam as separate steps.
  bool clean = true;
  /// Required when clean is set: the pipeline header CleanSam clips
  /// against, and the read group to stamp.
  const SamHeader* header = nullptr;
  ReadGroup read_group;
  /// Edge capacity in batches. The streaming path's memory high-water
  /// mark is O(capacity * batch bytes) per edge, not O(partition).
  size_t queue_capacity = 2;
};

/// \brief Runs the fused streaming chain over one partition's reads:
/// FastqSource -> AlignNode -> [CleanNode] -> `sink`, with bounded
/// queues between the nodes. `interleaved` is consumed (records are
/// moved into batches). `sink` is called once per RecordBatch, in batch
/// order, from executor workers but never concurrently; a non-OK sink
/// status aborts the graph and is returned. `stats` may be null, in
/// which case the run's telemetry is discarded. Output records are
/// bit-identical to AlignPairs over the whole vector (and, with clean
/// set, to the barriered round-2 map transform applied to them).
Status RunAlignCleanStream(
    const GenomeIndex& index, const PairedAlignerOptions& options,
    std::vector<FastqRecord> interleaved, const AlignCleanStreamOptions& opts,
    const std::function<Status(RecordBatch*)>& sink,
    AlignCleanStreamStats* stats);

}  // namespace gesall

#endif  // GESALL_GESALL_PIPELINE_NODE_H_
