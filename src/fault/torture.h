// Torture driver: one workload, one schedule loop and one oracle for every
// fault domain.
//
// The paper claims recovery needs no fsck, because a transaction nobody was
// told had committed is invisible by construction; the RPC path promises
// at-most-once execution across a lossy wire. Both are one contract — the
// ack is the promise — so one driver enumerates the proof obligations of
// three fault domains:
//
//   points  halt the process image at the Nth hit of a named crash point
//           (src/fault/crash_points.h);
//   writes  halt it before the Nth device write;
//   wire    inject one wire fault (request drop, response drop, duplicate
//           delivery, truncated reply, connection reset) at the Nth RPC
//           exchange under a retrying RemoteFileClient.
//
//   1. Plan: a seeded sequence of steps, each one autocommit op or an
//      explicit transaction of 1-3 ops (create, append, overwrite, rename,
//      unlink, vacuum). The crash domains run it through an InvSession, the
//      wire domain through a RemoteFileClient over a FaultyTransport; one
//      executor templated over the client serves both. The wire client has
//      no vacuum call, so the wire domain skips vacuum ops.
//   2. Recording pass: run the plan unfaulted and count every event a fault
//      can land on — crash-point hits, device writes and wire exchanges.
//   3. Schedules: one SpreadOccurrences turns each (domain, selector) count
//      into occurrence positions.
//   4. For each schedule: replay the plan in a fresh world with that fault
//      armed. A call's effect enters the acked-state mirror only when the
//      call is acked. A halted image is taken as it froze and reopened
//      (Database::Open *is* recovery); a wire fault leaves the live image.
//      The verdict: invfs_check reports only residue, no transaction is
//      active and no relation locked, and the namespace and bytes read back
//      through a fresh session equal the acked state — or, in the crash
//      domains, the state where the interrupted call or commit landed. Read
//      as of the time before each vacuum op, acked or interrupted, they
//      equal the acked state of that time: vacuum loses no version.
//
// All randomness flows from TortureOptions::seed, so a failing schedule
// replays exactly by name.

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace invfs {

enum class TortureDomain : uint8_t { kPoints, kWrites, kWire };
inline constexpr size_t kNumTortureDomains = 3;
const char* TortureDomainName(TortureDomain domain);

struct TortureOptions {
  uint64_t seed = 0xC0FFEE;
  // Plan steps per replay: each one autocommit op or an explicit transaction.
  int steps = 24;
  // Most files alive at once in the plan's namespace.
  int max_files = 8;
  // Buffer-pool frames: small enough that evictions (and therefore the
  // buffer.eviction crash point) actually fire.
  size_t buffers = 48;
  // Bit i set = run TortureDomain(i).
  uint32_t domains = (1u << kNumTortureDomains) - 1;
  // At most about this many occurrences per crash point and per wire fault
  // kind, spread across the recorded count.
  uint64_t occurrences = 4;
  // The same budget for the single selector of the device-write domain.
  uint64_t write_schedules = 48;
  // Interleave open-loop multi-tenant load (src/load/loadgen.h, the builtin
  // mix under /load) between plan steps, in the recording pass and every
  // replay alike. The oracle judges only the plan's namespace; invfs_check
  // covers the whole image, load tables included.
  bool under_load = false;
};

struct TortureReport {
  struct DomainStats {
    uint64_t schedules = 0;    // schedules enumerated and run
    uint64_t fired = 0;        // schedules whose fault actually fired
    uint64_t not_reached = 0;  // armed position never reached
    uint64_t in_flight = 0;    // halted with a state change in flight
    uint64_t in_vacuum = 0;    // halted inside a vacuum op
  };
  std::array<DomainStats, kNumTortureDomains> domains{};
  // Events of the recording passes: "point:<name>", "device.write" and
  // "wire.exchange", each with its count.
  std::map<std::string, uint64_t> recorded;
  std::vector<std::string> schedules;  // names, in run order
  uint64_t failed_ops = 0;  // ops that surfaced an error, all schedules
  uint64_t retries = 0;     // RPC client retries, all schedules
  uint64_t load_ops = 0;    // loadgen arrivals per recording pass
  uint64_t vacuums = 0;     // vacuum ops per in-process recording pass
  std::vector<std::string> failures;  // empty == the sweep passed

  bool ok() const { return failures.empty(); }
  std::string Summary() const;
};

// Run the sweep. Non-OK on environmental errors: a recording pass that
// fails, or a selected domain that enumerates no schedule. Verification
// failures land in TortureReport::failures.
Result<TortureReport> RunTorture(const TortureOptions& options);

// Path -> full contents of every file in the plan's namespace.
using FileState = std::map<std::string, std::string>;

// The oracle over a read-back state: "" when `actual` is a legal outcome of
// a replay that acked `acked` and was interrupted with `landed` in flight,
// else what is wrong. Only the crash domains accept `landed`: a wire fault
// never interrupts a call, it only fails it.
std::string JudgeState(TortureDomain domain, const FileState& acked,
                       const FileState& landed, const FileState& actual);

}  // namespace invfs
