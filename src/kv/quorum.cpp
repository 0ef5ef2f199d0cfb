#include "kv/quorum.hpp"

#include "util/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace qopt::kv {
namespace {

int min_size(const std::vector<WeightedQuorum>& set) noexcept {
  std::size_t best = 0;
  bool first = true;
  for (const auto& q : set) {
    if (first || q.members.size() < best) best = q.members.size();
    first = false;
  }
  return static_cast<int>(best);
}

bool well_formed(const std::vector<WeightedQuorum>& set, int n) {
  if (set.empty()) return false;
  double total = 0.0;
  for (const auto& q : set) {
    if (q.members.empty()) return false;
    if (!(q.weight > 0.0) || !std::isfinite(q.weight)) return false;
    for (std::size_t i = 0; i < q.members.size(); ++i) {
      if (q.members[i] >= static_cast<std::uint32_t>(n)) return false;
      if (i > 0 && q.members[i] <= q.members[i - 1]) return false;  // sorted
    }
    total += q.weight;
  }
  return total > 0.0;
}

const WeightedQuorum& sample(const std::vector<WeightedQuorum>& set,
                             Rng& rng) {
  assert(!set.empty());
  if (set.empty()) {
    // Unreachable for any installed strategy (valid() rejects empty sides);
    // a well-defined fallback beats undefined behaviour in release builds.
    static const WeightedQuorum kEmpty{};
    return kEmpty;
  }
  double total = 0.0;
  for (const auto& q : set) total += q.weight;
  double point = rng.next_double() * total;
  for (const auto& q : set) {
    point -= q.weight;
    if (point < 0.0) return q;
  }
  return set.back();  // numeric slack: point landed exactly on `total`
}

}  // namespace

QuorumStrategy QuorumStrategy::majority(int r, int w,
                                        [[maybe_unused]] int n) {
  assert(r >= 1 && w >= 1);
  assert(n == 0 || is_strict(QuorumConfig{r, w}, n));
  return QuorumStrategy(QuorumConfig{r, w});
}

QuorumStrategy QuorumStrategy::explicit_sets(int n,
                                             std::vector<WeightedQuorum> reads,
                                             std::vector<WeightedQuorum> writes) {
  QuorumStrategy s;
  s.kind = Kind::kExplicit;
  s.n = n;
  for (auto& q : reads) std::sort(q.members.begin(), q.members.end());
  for (auto& q : writes) std::sort(q.members.begin(), q.members.end());
  s.reads = std::move(reads);
  s.writes = std::move(writes);
  // A side with no quorums (or n < 1) is malformed — valid() rejects it for
  // every replication degree; keep the default grid rather than mirroring a
  // footprint derived from an empty side.
  if (n >= 1 && !s.reads.empty() && !s.writes.empty()) {
    // The grid field is unused for explicit strategies; mirror the footprint
    // so accidental reads of `grid` stay sane rather than the {1,1} default.
    s.grid = QuorumConfig{s.read_footprint(), s.write_footprint()};
  }
  return s;
}

int QuorumStrategy::min_read_size() const noexcept {
  return is_majority() ? grid.read_q : min_size(reads);
}

int QuorumStrategy::min_write_size() const noexcept {
  return is_majority() ? grid.write_q : min_size(writes);
}

int QuorumStrategy::read_footprint() const noexcept {
  if (is_majority()) return grid.read_q;
  // Malformed (empty side): be conservative — demand every replica. valid()
  // rejects such a strategy before it can ever be installed.
  if (writes.empty()) return n < 1 ? 1 : n;
  // Any (n - wmin + 1) replicas intersect every write quorum: a write quorum
  // has >= wmin members, and two subsets of [n] with sizes a, b intersect
  // whenever a + b > n.
  int fp = n - min_write_size() + 1;
  return fp < 1 ? 1 : (fp > n ? n : fp);
}

int QuorumStrategy::write_footprint() const noexcept {
  if (is_majority()) return grid.write_q;
  if (reads.empty()) return n < 1 ? 1 : n;
  int fp = n - min_read_size() + 1;
  return fp < 1 ? 1 : (fp > n ? n : fp);
}

const WeightedQuorum& QuorumStrategy::sample_read(Rng& rng) const {
  assert(!is_majority());
  return sample(reads, rng);
}

const WeightedQuorum& QuorumStrategy::sample_write(Rng& rng) const {
  assert(!is_majority());
  return sample(writes, rng);
}

bool QuorumStrategy::valid(int replication) const {
  if (is_majority()) {
    return (n == 0 || n == replication) && is_strict(grid, replication);
  }
  if (n != replication || replication < 1) return false;
  if (!well_formed(reads, n) || !well_formed(writes, n)) return false;
  // Counting compositionality: the proxy may complete a write with any
  // write_footprint() = n - rmin + 1 distinct replies and a read with any
  // read_footprint() = n - wmin + 1, without either set containing a full
  // quorum. Those two completion sets intersect by counting only when
  // (n - rmin + 1) + (n - wmin + 1) > n, i.e. rmin + wmin <= n + 1. Without
  // this, e.g. reads = writes = {[0..n)} at n = 3 passes pairwise
  // intersection yet lets a 1-reply write miss a 1-reply read entirely.
  // Majority grids satisfy it trivially (any r/w-set IS a quorum).
  if (min_read_size() + min_write_size() > n + 1) return false;
  return quorums_intersect(reads, writes);
}

std::string QuorumStrategy::describe() const {
  char buf[64];
  if (is_majority()) {
    std::snprintf(buf, sizeof(buf), "majority(r=%d,w=%d)", grid.read_q,
                  grid.write_q);
  } else {
    std::snprintf(buf, sizeof(buf), "explicit(n=%d,reads=%zu,writes=%zu)", n,
                  reads.size(), writes.size());
  }
  return buf;
}

bool sets_intersect(const std::vector<std::uint32_t>& a,
                    const std::vector<std::uint32_t>& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

bool quorums_intersect(const std::vector<WeightedQuorum>& a,
                       const std::vector<WeightedQuorum>& b) {
  for (const auto& qa : a) {
    for (const auto& qb : b) {
      if (!sets_intersect(qa.members, qb.members)) return false;
    }
  }
  return true;
}

QuorumStrategy transition(const QuorumStrategy& a, const QuorumStrategy& b) {
  return QuorumStrategy(transition(a.footprint(), b.footprint()));
}

bool validate_change(const QuorumChange& change, int replication) {
  if (change.is_global) return change.global.valid(replication);
  if (change.overrides.empty()) return false;
  for (const auto& [oid, strategy] : change.overrides) {
    (void)oid;
    if (!strategy.valid(replication)) return false;
  }
  return true;
}

}  // namespace qopt::kv
