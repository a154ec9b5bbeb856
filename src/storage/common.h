// Core identifier types shared across the storage engine.

#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "src/sim/sim_clock.h"

namespace invfs {

// Object identifier: names relations, types, functions, and files. OIDs are
// allocated from a single database-wide counter, exactly as in POSTGRES,
// which is what lets Inversion derive a file's chunk-table name ("inv23114")
// from the file identifier in the naming table.
using Oid = uint32_t;
inline constexpr Oid kInvalidOid = 0;

// Transaction identifier.
using TxnId = uint32_t;
inline constexpr TxnId kInvalidTxn = 0;
// Bootstrap transaction: rows written while creating a database are stamped
// with this xid, which is always considered committed at time zero.
inline constexpr TxnId kBootstrapTxn = 1;

// Commit timestamp, in simulated microseconds (see SimClock).
using Timestamp = SimMicros;
inline constexpr Timestamp kTimestampNow = ~0ULL;  // "as of now" sentinel

// Tuple identifier: physical address of a tuple version within a relation.
struct Tid {
  uint32_t block = 0;
  uint16_t slot = 0;

  auto operator<=>(const Tid&) const = default;
  std::string ToString() const {
    std::string out = "(";
    out += std::to_string(block);
    out += ',';
    out += std::to_string(slot);
    out += ')';
    return out;
  }
};

// File-API vocabulary shared by the Inversion sessions, the RPC layer, and
// the NFS baseline client.
enum class OpenMode { kRead, kWrite };  // kWrite implies read
enum class Whence { kSet, kCur, kEnd };

struct TidHash {
  size_t operator()(const Tid& t) const {
    return std::hash<uint64_t>()((static_cast<uint64_t>(t.block) << 16) | t.slot);
  }
};

}  // namespace invfs
