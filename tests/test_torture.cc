// Fast smoke over the torture driver: small but real sweeps of every fault
// domain (crash points and device-write halts with recovery, wire faults
// under a retrying client; checker, quiescence and the acked-state oracle,
// as-of reads around every vacuum included) must pass under ctest, and the
// oracle must reject every wrong read-back.
// The full-size sweeps run in scripts/check.sh.

#include <gtest/gtest.h>

#include "src/fault/torture.h"

namespace invfs {
namespace {

constexpr uint32_t Bit(TortureDomain d) {
  return 1u << static_cast<unsigned>(d);
}

TEST(Torture, SmallSweepPassesAndActuallyCrashes) {
  TortureOptions crash;
  crash.seed = 7;
  crash.steps = 8;
  crash.max_files = 4;
  crash.buffers = 24;
  crash.occurrences = 1;
  crash.write_schedules = 6;
  crash.domains = Bit(TortureDomain::kPoints) | Bit(TortureDomain::kWrites);

  TortureOptions wire;
  wire.seed = 0x7E57;
  wire.steps = 14;
  wire.max_files = 4;
  wire.occurrences = 3;
  wire.domains = Bit(TortureDomain::kWire);

  for (const TortureOptions& options : {crash, wire}) {
    SCOPED_TRACE(options.seed);
    auto report = RunTorture(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    for (const std::string& f : report->failures) {
      ADD_FAILURE() << f;
    }
    EXPECT_TRUE(report->ok()) << report->Summary();
    for (size_t i = 0; i < kNumTortureDomains; ++i) {
      if ((options.domains >> i & 1u) != 0) {
        EXPECT_GT(report->domains[i].fired, 0u)
            << TortureDomainName(static_cast<TortureDomain>(i))
            << ": a sweep that never fires proves nothing";
        EXPECT_EQ(report->domains[i].not_reached, 0u);
      }
    }
  }
}

// A plan long enough to vacuum, halted before every one of its device writes
// in turn: some halts land inside a vacuum, before or after its commit, and
// each image must recover with every version, as of before each vacuum too.
TEST(Torture, HaltBeforeEveryWriteOfAPlanThatVacuums) {
  TortureOptions options;
  options.seed = 7;
  options.max_files = 4;
  options.buffers = 24;
  options.write_schedules = ~uint64_t{0};  // every write
  options.domains = Bit(TortureDomain::kWrites);
  auto report = RunTorture(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const std::string& f : report->failures) {
    ADD_FAILURE() << f;
  }
  const TortureReport::DomainStats& writes =
      report->domains[static_cast<size_t>(TortureDomain::kWrites)];
  EXPECT_EQ(writes.schedules, report->recorded["device.write"]);
  EXPECT_GT(report->vacuums, 0u) << "the plan must vacuum";
  EXPECT_GT(writes.in_vacuum, 0u) << "no halt landed inside a vacuum";
}

TEST(Torture, DeterministicAcrossRuns) {
  TortureOptions options;
  options.seed = 11;
  options.steps = 6;
  options.max_files = 3;
  options.occurrences = 1;
  options.write_schedules = 4;
  options.domains = Bit(TortureDomain::kWrites) | Bit(TortureDomain::kWire);
  auto a = RunTorture(options);
  auto b = RunTorture(options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_GT(a->domains[static_cast<size_t>(TortureDomain::kWire)].schedules,
            0u);
  EXPECT_EQ(a->schedules, b->schedules);
  for (size_t i = 0; i < kNumTortureDomains; ++i) {
    EXPECT_EQ(a->domains[i].fired, b->domains[i].fired);
  }
  EXPECT_EQ(a->recorded, b->recorded);
  EXPECT_EQ(a->failures, b->failures);
}

TEST(Torture, OracleRejectsEveryWrongReadBack) {
  const FileState acked = {{"/t/f0", "alpha"}, {"/t/f1", "beta"}};
  // The in-flight transaction creates f2 and rewrites f0.
  FileState landed = acked;
  landed["/t/f2"] = "gamma";
  landed["/t/f0"] = "ALPHA";

  FileState missing = acked;
  missing.erase("/t/f1");
  FileState extra = acked;
  extra["/t/f9"] = "never acked";
  FileState flipped = acked;
  flipped["/t/f1"][2] = 'T';
  FileState half = acked;
  half["/t/f2"] = "gamma";  // the create landed, the rewrite did not

  for (const TortureDomain domain :
       {TortureDomain::kPoints, TortureDomain::kWrites, TortureDomain::kWire}) {
    SCOPED_TRACE(TortureDomainName(domain));
    EXPECT_EQ(JudgeState(domain, acked, landed, acked), "");
    EXPECT_NE(JudgeState(domain, acked, landed, missing), "");
    EXPECT_NE(JudgeState(domain, acked, landed, extra), "");
    EXPECT_NE(JudgeState(domain, acked, landed, flipped), "");
    EXPECT_NE(JudgeState(domain, acked, landed, half), "");
  }
  // A halt may land the interrupted commit in full; a wire fault interrupts
  // nothing, so there the landed side is an extra, never-acked state.
  EXPECT_EQ(JudgeState(TortureDomain::kPoints, acked, landed, landed), "");
  EXPECT_EQ(JudgeState(TortureDomain::kWrites, acked, landed, landed), "");
  EXPECT_NE(JudgeState(TortureDomain::kWire, acked, landed, landed), "");
}

}  // namespace
}  // namespace invfs
