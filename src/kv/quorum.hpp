// Quorum-system algebra: the QuorumStrategy abstraction and every
// intersection/strictness/transition rule of the store, in one place.
//
// The paper (and the seed reproduction) models a quorum configuration as a
// uniform (r, w) majority grid: any r replicas form a read quorum, any w a
// write quorum, with r + w > n guaranteeing intersection by counting.
// "Read-Write Quorum Systems Made Practical" (Whittaker et al.) shows the
// optimal system is usually *not* such a grid, so this header generalizes
// the configuration to a QuorumStrategy: explicit sets of read and write
// quorums (placement-relative replica slots) with selection probabilities,
// satisfying pairwise read/write intersection. The uniform grid survives as
// the kMajority kind — the compact encoding every pre-redesign call site and
// serialized trace maps onto via QuorumConfig — and every size-based
// protocol rule (transition quorums, read-repair history, epoch-change
// quorum sizing) generalizes through the *grid footprint* of a strategy:
// the (r, w) pair such that ANY r replicas intersect every write quorum and
// ANY w replicas intersect every read quorum, by counting.
//
// Used by the Reconfiguration Manager (validation, NEWQ payloads), the
// SMR ConfigStateMachine (deterministic re-validation), the proxy (quorum
// drawing), and the consistency checker (intersection audit). Do not
// re-implement intersection logic elsewhere.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "kv/types.hpp"  // qopt-arch: export
#include "util/rng.hpp"

namespace qopt::kv {

/// Strict-quorum invariant of a uniform (r, w) grid over `replication`
/// replicas: intersection by counting requires r + w > n.
constexpr bool is_strict(const QuorumConfig& q, int replication) noexcept {
  return q.read_q >= 1 && q.write_q >= 1 && q.read_q <= replication &&
         q.write_q <= replication && q.read_q + q.write_q > replication;
}

/// Component-wise max; the transition quorum of Section 5.1 is
/// transition(old, new): it intersects the read and write quorums of both
/// configurations.
constexpr QuorumConfig transition(const QuorumConfig& a,
                                  const QuorumConfig& b) noexcept {
  return QuorumConfig{a.read_q > b.read_q ? a.read_q : b.read_q,
                      a.write_q > b.write_q ? a.write_q : b.write_q};
}

/// One candidate quorum of an explicit strategy: a sorted set of
/// placement-relative replica slots (indices into the object's replica
/// list, 0..n-1 — slot-based so one strategy serves every object) plus an
/// unnormalized selection weight.
struct WeightedQuorum {
  std::vector<std::uint32_t> members;
  double weight = 1.0;

  friend bool operator==(const WeightedQuorum&,
                         const WeightedQuorum&) = default;
};

/// A read-write quorum system plus a selection distribution over its
/// quorums. Two encodings (the wire-format version tag of PROTOCOL.md):
///
///   kMajority — the classic uniform (r, w) grid, carried compactly in
///     `grid`. Semantically identical to the pre-redesign QuorumConfig; the
///     implicit converting constructor keeps every existing call site and
///     serialized trace valid, and the proxy's majority path is
///     byte-identical to the pre-redesign behaviour (no RNG draw).
///   kExplicit — explicit weighted read/write quorum sets over `n` replica
///     slots, validated for pairwise read/write intersection. The proxy
///     draws a quorum from the selection distribution with its seeded RNG.
struct QuorumStrategy {
  enum class Kind : std::uint8_t { kMajority = 0, kExplicit = 1 };
  /// Bumped when the NEWQ/NEWEP encoding changes shape; consumers reject
  /// payloads from the future (see docs/PROTOCOL.md).
  static constexpr std::uint8_t kWireVersion = 2;

  Kind kind = Kind::kMajority;
  QuorumConfig grid{1, 1};             // kMajority
  int n = 0;                           // kExplicit: replication degree
  std::vector<WeightedQuorum> reads;   // kExplicit
  std::vector<WeightedQuorum> writes;  // kExplicit

  QuorumStrategy() = default;
  /// Implicit by design: the majority-grid compatibility path. Every
  /// QuorumConfig is the majority strategy of the same (r, w).
  QuorumStrategy(QuorumConfig q) : grid(q) {}  // NOLINT(runtime/explicit)

  /// Named factory for the uniform grid (the blessed construction path —
  /// qopt_lint validates its arguments like a literal). `n` is checked when
  /// > 0 but not stored: majority strategies compare equal regardless of
  /// the replication degree they were validated against.
  static QuorumStrategy majority(int r, int w, int n = 0);
  /// Explicit weighted quorum system over `n` replica slots. Members are
  /// sorted and weights must be positive; `valid()` checks intersection.
  static QuorumStrategy explicit_sets(int n, std::vector<WeightedQuorum> reads,
                                      std::vector<WeightedQuorum> writes);

  bool is_majority() const noexcept { return kind == Kind::kMajority; }

  /// Smallest read / write quorum cardinality of the strategy.
  int min_read_size() const noexcept;
  int min_write_size() const noexcept;

  /// Grid footprint: ANY read_footprint() replicas intersect every write
  /// quorum of the strategy (and symmetrically), by counting. For a
  /// majority strategy this is exactly the grid, so every size-based
  /// protocol rule (transition quorums, read-repair history, epoch-change
  /// sizing) reduces to the pre-redesign behaviour on majority strategies.
  int read_footprint() const noexcept;
  int write_footprint() const noexcept;
  QuorumConfig footprint() const noexcept {
    return QuorumConfig{read_footprint(), write_footprint()};
  }

  /// Draws a quorum from the selection distribution (kExplicit only; the
  /// proxy's majority path never touches the RNG — replay compatibility).
  const WeightedQuorum& sample_read(Rng& rng) const;
  const WeightedQuorum& sample_write(Rng& rng) const;

  /// Full validity check against a replication degree: strictness for
  /// majority grids; for explicit systems, pairwise read/write intersection,
  /// well-formed members and weights, and counting compositionality
  /// (min_read_size() + min_write_size() <= n + 1) so that two
  /// footprint-completed operations are themselves guaranteed to intersect
  /// — the proxy's counting completion path depends on it.
  bool valid(int replication) const;

  /// Compact human-readable form, e.g. "majority(r=3,w=3)" or
  /// "explicit(n=5,reads=3,writes=6)".
  std::string describe() const;

  friend bool operator==(const QuorumStrategy&,
                         const QuorumStrategy&) = default;
};

/// True when every member set of `a` intersects every member set of `b`
/// (the pairwise rule an explicit strategy must satisfy).
bool quorums_intersect(const std::vector<WeightedQuorum>& a,
                       const std::vector<WeightedQuorum>& b);

/// True when the two sorted slot sets share at least one element.
bool sets_intersect(std::span<const std::uint32_t> a,
                    std::span<const std::uint32_t> b);

/// Transition strategy of a reconfiguration old -> next: the component-wise
/// max of the two grid footprints, expressed as a majority strategy. Any
/// quorum of the transition intersects every read and write quorum of both
/// strategies (cross-product intersection by counting); for two majority
/// strategies this is exactly the paper's component-wise max rule.
QuorumStrategy transition(const QuorumStrategy& a, const QuorumStrategy& b);

/// A reconfiguration payload: either a new store-wide default strategy
/// (the "tail"/global configuration) or a batch of per-object overrides
/// (the fine-grain top-k optimization of Section 5.4). Majority-grid
/// changes are exactly the pre-redesign payloads.
struct QuorumChange {
  bool is_global = true;
  QuorumStrategy global;  // valid when is_global
  std::vector<std::pair<ObjectId, QuorumStrategy>> overrides;  // otherwise

  friend bool operator==(const QuorumChange&, const QuorumChange&) = default;
};

/// Validation shared by the Reconfiguration Manager and the replicated
/// ConfigStateMachine (every replica must agree on rejections).
bool validate_change(const QuorumChange& change, int replication);

/// Complete quorum state as known by the Reconfiguration Manager. Carried on
/// NEWQ and NEWEP messages (and echoed in storage NACKs) so that a proxy
/// that missed an arbitrary number of reconfigurations while falsely
/// suspected can resynchronize in one step — including the read-quorum
/// history needed by the Algorithm-4 repair path (see DESIGN.md, deviation
/// notes).
struct FullConfig {
  std::uint64_t epno = 0;
  std::uint64_t cfno = 0;
  QuorumStrategy default_q{QuorumConfig{1, 1}};
  std::vector<std::pair<ObjectId, QuorumStrategy>> overrides;
  /// For each installed configuration number, the maximum read-quorum
  /// *footprint* in force at that configuration (across the default and all
  /// overrides); monotone prefix used by the read-repair rule. Sorted by
  /// cfno ascending.
  std::vector<std::pair<std::uint64_t, int>> read_q_history;
  /// Set while a change drains: default_q/overrides hold the committed
  /// configuration, `pending` is the change being installed at `cfno`, and
  /// a proxy runs the transition of the two (kv::transition, per object)
  /// until the matching CONFIRM commits `pending`.
  bool transitional = false;
  QuorumChange pending;

  /// The configuration a proxy runs while `change` drains at `at` (the NEWQ
  /// and phase-1 NEWEP payload): this committed state, transitional with
  /// `change` pending, plus the change's read-quorum history entry. A global
  /// change records the largest read footprint after it; a per-object change
  /// the larger of before and after.
  FullConfig with_pending(const QuorumChange& change, std::uint64_t at) const;

  /// Strategy installed for `oid`: its override, else the default.
  const QuorumStrategy& strategy_for(ObjectId oid) const;
  /// Largest read footprint across the default and the overrides.
  int max_read_footprint() const noexcept;
  /// Largest read or write footprint across the default and the overrides:
  /// a storage quorum of this size meets every quorum in force.
  int max_footprint() const noexcept;
  /// Folds `change` in change order: a global change replaces the default;
  /// a per-object change replaces each named override in place or appends
  /// it (a later entry for the same object wins).
  void apply(const QuorumChange& change);
  /// Records `max_read_q` for configuration `at`; an existing entry keeps
  /// the larger.
  void record_read_q(std::uint64_t at, int max_read_q);
  /// Largest read footprint recorded for any configuration >= `from`;
  /// never less than 1.
  int max_read_q_since(std::uint64_t from) const noexcept;

  friend bool operator==(const FullConfig&, const FullConfig&) = default;
};

}  // namespace qopt::kv
