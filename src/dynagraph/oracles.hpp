#pragma once

#include <algorithm>

#include "dynagraph/meet_time_index.hpp"

namespace doda::dynagraph {

/// Abstract meetTime knowledge (paper §2.1): u.meetTime(t) is the time of
/// u's next interaction with the sink after t (identity for the sink).
///
/// The paper's concluding remarks ask which knowledge has real impact
/// (remark #1) and whether fixed memory suffices (remark #2). The adapters
/// below degrade the exact oracle along those two axes so the question can
/// be answered empirically (bench_knowledge_ablation):
///  * WindowedMeetTimeOracle — the node only learns meetings at most
///    `window` interactions ahead (bounded foresight);
///  * QuantizedMeetTimeOracle — the node only learns meetTime rounded up
///    to a bucket (log2(horizon/bucket) bits of storage suffice).
class MeetTimeOracle {
 public:
  virtual ~MeetTimeOracle() = default;

  /// The (possibly degraded) meetTime; kNever means "unknown / never",
  /// which algorithms must treat as "later than any horizon".
  virtual Time meetTime(NodeId u, Time t) = 0;

  /// WG_tau's decision facts for {a, b} at t (paper §4): whether
  /// meetTime(a, t) <= meetTime(b, t), and whether the later of the two
  /// exceeds `horizon`. Answered here with those two meetTime calls; an
  /// oracle that can settle it reading less overrides it.
  virtual MeetOrder meetOrder(NodeId a, NodeId b, Time t, Time horizon) {
    const Time ma = meetTime(a, t);
    const Time mb = meetTime(b, t);
    return {ma <= mb, std::max(ma, mb) > horizon};
  }
};

/// The exact oracle: a thin adapter over MeetTimeIndex.
class ExactMeetTimeOracle final : public MeetTimeOracle {
 public:
  explicit ExactMeetTimeOracle(MeetTimeIndex& index) : index_(&index) {}

  Time meetTime(NodeId u, Time t) override { return index_->meetTime(u, t); }

  MeetOrder meetOrder(NodeId a, NodeId b, Time t, Time horizon) override {
    return index_->meetOrder(a, b, t, horizon);
  }

 private:
  MeetTimeIndex* index_;
};

/// Bounded foresight: the true meetTime if it falls within `window`
/// interactions of the query time, kNever otherwise. window = 0 destroys
/// the knowledge entirely; window = infinity recovers the exact oracle.
class WindowedMeetTimeOracle final : public MeetTimeOracle {
 public:
  WindowedMeetTimeOracle(MeetTimeIndex& index, Time window)
      : index_(&index), window_(window) {}

  Time meetTime(NodeId u, Time t) override {
    const Time exact = index_->meetTime(u, t);
    if (exact == kNever) return kNever;
    // Guard t + window against overflow near kNever.
    if (window_ != kNever && exact > t && exact - t > window_) return kNever;
    return exact;
  }

  Time window() const noexcept { return window_; }

 private:
  MeetTimeIndex* index_;
  Time window_;
};

/// Fixed-memory knowledge: meetTime rounded UP to a multiple of `bucket`.
/// A node storing its next meeting at this granularity needs only
/// O(log(horizon / bucket)) bits. Rounding up keeps the oracle
/// conservative: a node never believes a meeting is earlier than it is.
class QuantizedMeetTimeOracle final : public MeetTimeOracle {
 public:
  QuantizedMeetTimeOracle(MeetTimeIndex& index, Time bucket)
      : index_(&index), bucket_(std::max<Time>(1, bucket)) {}

  Time meetTime(NodeId u, Time t) override {
    const Time exact = index_->meetTime(u, t);
    if (exact == kNever) return kNever;
    const Time rounded = (exact + bucket_ - 1) / bucket_ * bucket_;
    return rounded < exact ? kNever : rounded;  // overflow guard
  }

  Time bucket() const noexcept { return bucket_; }

 private:
  MeetTimeIndex* index_;
  Time bucket_;
};

}  // namespace doda::dynagraph
