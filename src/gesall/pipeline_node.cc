#include "gesall/pipeline_node.h"

#include <algorithm>
#include <optional>

#include "analysis/steps.h"

namespace gesall {

namespace {

// Pumps per task before yielding the worker: large enough to amortize
// scheduling, small enough that a saturated node keeps sharing its
// worker with the rest of the graph (and with unrelated executor work).
constexpr int kYieldEvery = 4;

}  // namespace

NodeGraph::NodeGraph(Executor* executor, std::shared_ptr<CancelToken> cancel)
    : executor_(executor != nullptr ? executor : Executor::Shared()),
      cancel_(std::move(cancel)),
      group_(std::make_unique<TaskGroup>(executor_)) {}

void NodeGraph::AddNode(std::string name, std::function<PumpResult()> pump) {
  auto node = std::make_unique<Node>();
  node->name = std::move(name);
  node->pump = std::move(pump);
  nodes_.push_back(std::move(node));
}

void NodeGraph::OnAbort(std::function<void()> abort) {
  abort_ = std::move(abort);
}

void NodeGraph::SetError(Status s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (error_.ok()) error_ = std::move(s);
}

void NodeGraph::Abort() {
  if (aborting_.exchange(true)) return;
  // CloseAbort on every queue fires any parked callback, which
  // reschedules the parked node; its next pump (or the aborting_ check
  // in RunLoop) finishes it.
  if (abort_) abort_();
}

void NodeGraph::Finish(Node* node) {
  (void)node;
  terminal_.fetch_add(1);
}

void NodeGraph::Schedule(Node* node) {
  int s = node->state.load();
  while (true) {
    if (s == kIdle) {
      if (node->state.compare_exchange_weak(s, kRunning)) {
        group_->Submit([this, node] { RunLoop(node); });
        return;
      }
    } else if (s == kRunning) {
      if (node->state.compare_exchange_weak(s, kRunningNotified)) return;
    } else {
      return;  // a notification is already pending
    }
  }
}

void NodeGraph::RunLoop(Node* node) {
  while (true) {
    // Consume any notification that raced in while we were parking or
    // yielding: we are about to pump, which observes the new state.
    node->state.store(kRunning);
    if (aborting_.load() ||
        (cancel_ != nullptr && cancel_->cancelled())) {
      Finish(node);
      return;
    }
    PumpResult r = PumpResult::Progress();
    int spins = 0;
    while (true) {
      ++node->pumps;
      r = node->pump();
      if (r.kind != PumpResult::Kind::kProgress) break;
      if (aborting_.load()) {
        Finish(node);
        return;
      }
      if (++spins >= kYieldEvery) {
        // Yield the worker; the fresh task resumes pumping. State stays
        // kRunning so wake-ups in the gap collapse into the resubmit.
        group_->Submit([this, node] { RunLoop(node); });
        return;
      }
    }
    if (r.kind == PumpResult::Kind::kDone) {
      if (!r.status.ok()) {
        SetError(std::move(r.status));
        Abort();
      }
      Finish(node);
      return;
    }
    // Blocked: register the one-shot wake-up, then try to go idle. The
    // parker may fire inline (item/space already there, or the edge shut
    // down) — that flips the state to kRunningNotified and the CAS below
    // fails, so we loop and pump again instead of parking a stale node.
    ++node->parks;
    r.park([this, node] { Schedule(node); });
    int expected = kRunning;
    if (node->state.compare_exchange_strong(expected, kIdle)) return;
  }
}

Status NodeGraph::Run() {
  const size_t n = nodes_.size();
  for (auto& node : nodes_) {
    Node* raw = node.get();
    raw->state.store(kRunning);
    group_->Submit([this, raw] { RunLoop(raw); });
  }
  size_t last_terminal = static_cast<size_t>(-1);
  while (true) {
    group_->Wait();  // helping: pumps run inline if workers are busy
    const size_t done = terminal_.load();
    if (done == n) break;
    if (!aborting_.load()) {
      if (cancel_ != nullptr && cancel_->cancelled()) {
        SetError(cancel_->status());
      } else {
        // Quiescent with live nodes and no wake-up in flight: every
        // parked pump waits on an edge nothing will ever fire. Record
        // that this error is a stall diagnosis, not a node failure: if
        // the cancel token turns out to have flipped concurrently (it
        // wakes parked nodes through the queue callbacks, so the graph
        // was never truly stuck), the final status below reports the
        // cancellation instead of a misleading Internal error.
        std::lock_guard<std::mutex> lock(mu_);
        if (error_.ok()) {
          error_ = Status::Internal(
              "pipeline node graph stalled with parked nodes");
          stall_errored_ = true;
        }
      }
      Abort();
      last_terminal = static_cast<size_t>(-1);
      continue;
    }
    // Aborting: the abort hook reschedules every parked node, so each
    // quiescent iteration must retire at least one. No progress twice in
    // a row means a node ignored the shutdown contract — fail rather
    // than spin.
    if (done == last_terminal) {
      SetError(Status::Internal(
          "pipeline node ignored abort; graph wedged"));
      break;
    }
    last_terminal = done;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Nodes that observed the flipped token finish without recording a
  // status of their own; the run still must report the cancellation.
  // A stall diagnosis is likewise overridden: a token that flipped in
  // the window between the quiescence check and the stall SetError
  // means the run was cancelled, not wedged.
  if ((error_.ok() || stall_errored_) && cancel_ != nullptr &&
      cancel_->cancelled()) {
    return cancel_->status();
  }
  return error_;
}

std::vector<NodeStats> NodeGraph::node_stats() const {
  std::vector<NodeStats> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    out.push_back({node->name, node->pumps, node->parks});
  }
  return out;
}

// ---------------------------------------------------------------------

Status RunAlignCleanStream(
    const GenomeIndex& index, const PairedAlignerOptions& options,
    std::vector<FastqRecord> interleaved, const AlignCleanStreamOptions& opts,
    const std::function<Status(RecordBatch*)>& sink,
    AlignCleanStreamStats* stats) {
  if (opts.clean && opts.header == nullptr) {
    return Status::InvalidArgument(
        "RunAlignCleanStream: clean requires a header");
  }
  AlignCleanStreamStats discarded;  // sinkhole when the caller passes null
  if (stats == nullptr) stats = &discarded;
  Executor* executor =
      opts.executor != nullptr ? opts.executor : Executor::Shared();
  NodeGraph graph(executor, opts.cancel);

  // Edges. Everything below lives on this stack frame: Run() returns
  // only after every node is terminal and no callback is outstanding,
  // so capturing locals by reference is safe.
  BoundedQueue<ReadBatch> q_reads(opts.queue_capacity, opts.cancel);
  BoundedQueue<RecordBatch> q_aligned(opts.queue_capacity, opts.cancel);
  BoundedQueue<RecordBatch> q_cleaned(opts.queue_capacity, opts.cancel);
  BoundedQueue<RecordBatch>* sink_in = opts.clean ? &q_cleaned : &q_aligned;
  graph.OnAbort([&] {
    q_reads.CloseAbort();
    q_aligned.CloseAbort();
    q_cleaned.CloseAbort();
  });

  // --- FastqSource: slices the interleaved reads into batches at the
  // exact boundaries AlignPairs uses internally (2 * batch_size reads),
  // so per-batch insert statistics and RNG seeds are unchanged.
  const size_t batch_reads =
      2 * static_cast<size_t>(std::max(1, options.batch_size));
  size_t src_next = 0;
  int64_t src_batch = 0;
  std::optional<ReadBatch> src_pending;
  graph.AddNode("source", [&]() -> PumpResult {
    if (q_reads.cancelled()) return PumpResult::Done();
    if (!src_pending.has_value()) {
      if (src_next >= interleaved.size()) {
        q_reads.Close();
        return PumpResult::Done();
      }
      ReadBatch b;
      b.index = src_batch++;
      const size_t end =
          std::min(interleaved.size(), src_next + batch_reads);
      b.reads.reserve(end - src_next);
      for (; src_next < end; ++src_next) {
        b.reads.push_back(std::move(interleaved[src_next]));
      }
      src_pending = std::move(b);
    }
    if (q_reads.TryPush(std::move(*src_pending))) {
      src_pending.reset();
      return PumpResult::Progress();
    }
    if (q_reads.cancelled() || q_reads.closed()) return PumpResult::Done();
    return PumpResult::BlockedOnSpace(&q_reads);
  });

  // --- AlignNode: one AlignPairs call per batch. The scratch pools DP
  // matrices, candidate lists and the vertical-SIMD lane buffers across
  // batches, so steady-state batches allocate almost nothing.
  PairedEndAligner aligner(index, options);
  PairedAlignScratch scratch;
  std::optional<RecordBatch> align_pending;
  graph.AddNode("align", [&]() -> PumpResult {
    if (align_pending.has_value()) {
      if (q_aligned.TryPush(std::move(*align_pending))) {
        align_pending.reset();
        return PumpResult::Progress();
      }
      if (q_aligned.cancelled()) return PumpResult::Done();
      return PumpResult::BlockedOnSpace(&q_aligned);
    }
    // TryPopState decides empty-vs-drained under the queue mutex: a
    // bare TryPop + closed() pair would race with the source pushing
    // its final batch and closing in the gap, dropping the tail.
    ReadBatch in;
    switch (q_reads.TryPopState(&in)) {
      case QueuePopState::kCancelled:
        return PumpResult::Done();
      case QueuePopState::kDrained:
        q_aligned.Close();
        return PumpResult::Done();
      case QueuePopState::kEmpty:
        return PumpResult::BlockedOnItem(&q_reads);
      case QueuePopState::kItem:
        break;
    }
    RecordBatch out;
    out.index = in.index;
    aligner.AlignPairs(in.reads, &scratch, &out.records);
    stats->batches += 1;
    stats->reads += static_cast<int64_t>(in.reads.size());
    align_pending = std::move(out);
    return PumpResult::Progress();
  });

  // --- CleanNode (round-2 map transform): AddGroupsAndClean, the
  // barriered CleaningMapper's transform, applied batch-wise. Both are
  // per-record rewrites, so the outputs are identical either way.
  std::optional<RecordBatch> clean_pending;
  if (opts.clean) {
    graph.AddNode("clean", [&]() -> PumpResult {
      if (clean_pending.has_value()) {
        if (q_cleaned.TryPush(std::move(*clean_pending))) {
          clean_pending.reset();
          return PumpResult::Progress();
        }
        if (q_cleaned.cancelled()) return PumpResult::Done();
        return PumpResult::BlockedOnSpace(&q_cleaned);
      }
      RecordBatch in;
      switch (q_aligned.TryPopState(&in)) {
        case QueuePopState::kCancelled:
          return PumpResult::Done();
        case QueuePopState::kDrained:
          q_cleaned.Close();
          return PumpResult::Done();
        case QueuePopState::kEmpty:
          return PumpResult::BlockedOnItem(&q_aligned);
        case QueuePopState::kItem:
          break;
      }
      Result<CleanSamStats> cs =
          AddGroupsAndClean(*opts.header, opts.read_group, &in.records);
      if (!cs.ok()) return PumpResult::Error(cs.status());
      stats->clean_clipped += cs.ValueOrDie().clipped_overhangs;
      stats->clean_dropped += cs.ValueOrDie().dropped_invalid;
      clean_pending = std::move(in);
      return PumpResult::Progress();
    });
  }

  // --- Sink: hands batches to the caller in order (single consumer on
  // a FIFO edge). Typically the shuffle emit — the one true barrier
  // left in rounds 1+2 is the qname shuffle behind this call.
  graph.AddNode("sink", [&]() -> PumpResult {
    RecordBatch in;
    switch (sink_in->TryPopState(&in)) {
      case QueuePopState::kCancelled:
      case QueuePopState::kDrained:
        return PumpResult::Done();
      case QueuePopState::kEmpty:
        return PumpResult::BlockedOnItem(sink_in);
      case QueuePopState::kItem:
        break;
    }
    Status s = sink(&in);
    if (!s.ok()) return PumpResult::Error(std::move(s));
    return PumpResult::Progress();
  });

  Status run = graph.Run();
  stats->kernel += scratch.read.stats;
  stats->edges.push_back({"reads", q_reads.stats()});
  stats->edges.push_back({"aligned", q_aligned.stats()});
  if (opts.clean) stats->edges.push_back({"cleaned", q_cleaned.stats()});
  stats->nodes = graph.node_stats();
  return run;
}

}  // namespace gesall
