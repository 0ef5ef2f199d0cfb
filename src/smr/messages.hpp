// Wire protocol for the state-machine-replication substrate (src/smr).
//
// The SMR group runs on its own Network<smr::Message> instance: the control
// plane's replication traffic is independent of the data-plane protocol.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "kv/quorum.hpp"

namespace qopt::smr {

/// Log-entry kinds for the replicated Reconfiguration Manager. Plain
/// quorum-change replication (kRequest, the zero default) predates the
/// other kinds, so legacy commands decode unchanged.
enum class RmLogKind : std::uint8_t {
  kRequest = 0,  // enqueue a validated reconfiguration request
  kEpoch = 1,    // advance the canonical epoch counter by one
  kCommit = 2,   // fold the queue head into the canonical configuration
};

/// A replicated command. Q-OPT's control plane replicates quorum
/// reconfiguration decisions; `id` provides exactly-once application across
/// leader re-proposals. `seq` identifies the request (so completion
/// callbacks survive RM leader failover) and `cfno` fences kCommit entries
/// against stale-leader duplicates.
struct Command {
  std::uint64_t id = 0;
  kv::QuorumChange change;
  RmLogKind kind = RmLogKind::kRequest;
  std::uint64_t seq = 0;
  std::uint64_t cfno = 0;
};

/// Phase-1a: a candidate leader claims `ballot` for all slots >= low_slot.
struct Prepare {
  std::uint64_t ballot = 0;
  std::uint64_t low_slot = 0;
};

/// Phase-1b: acceptor's promise, carrying every accepted-but-possibly-
/// unchosen entry at or above the prepare's low slot.
struct Promise {
  std::uint64_t ballot = 0;
  struct AcceptedEntry {
    std::uint64_t slot = 0;
    std::uint64_t ballot = 0;
    Command command;
  };
  std::vector<AcceptedEntry> accepted;
};

/// Phase-2a: proposal for one slot.
struct Accept {
  std::uint64_t ballot = 0;
  std::uint64_t slot = 0;
  Command command;
};

/// Phase-2b: acceptance.
struct Accepted {
  std::uint64_t ballot = 0;
  std::uint64_t slot = 0;
};

/// Learn/commit notification (sent once a slot is chosen).
struct Learn {
  std::uint64_t slot = 0;
  Command command;
};

/// Follower-to-leader command forwarding.
struct Forward {
  Command command;
};

/// Phase-1 rejection: the acceptor already promised `promised` > ballot.
/// Without it a candidate whose durable term lags the group (a replica that
/// crashed before ever leading) would wait forever on a majority of
/// promises that can never arrive.
struct PrepareNack {
  std::uint64_t ballot = 0;    // the rejected prepare's ballot
  std::uint64_t promised = 0;  // what the acceptor is holding out for
};

using Message = std::variant<Prepare, Promise, Accept, Accepted, Learn,
                             Forward, PrepareNack>;

}  // namespace qopt::smr
