// invfs_check: offline structural verifier (fsck for Inversion images).
//
// Usage: invfs_check [--tolerate-quarantined] [--tolerate-residue]
//                    <disk-dir> [nvram-dir] [jukebox-dir]
//
// Each argument is a FileBlockStore directory (one rel<oid>.blk file per
// relation) as written by examples that persist a StorageEnv. The image must
// be quiescent — run against a copy if the database is live.
//
// --tolerate-quarantined: tolerate violations that are detectable physical
// page damage (bad checksum/magic, unreadable) or fallout confined to those
// pages — i.e. corruption caught and contained by the page-level defenses.
// Used by fault-injection tests that corrupt pages on purpose.
//
// --tolerate-residue: tolerate provably-dead crash residue (uncataloged
// physical relations, index entries past the persisted end of their heap) —
// what a mid-transaction crash legitimately leaves for the vacuum cleaner.
// Use when checking an image recovered from a crash.
//
// Exit 0 when every violation is tolerated by an enabled class (trivially so
// when clean), 1 when violations remain, 2 on usage (an unknown option, or
// no or too many directories) or I/O error.

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/check/checker.h"

int main(int argc, char** argv) {
  bool tolerate_quarantined = false;
  bool tolerate_residue = false;
  bool unknown_option = false;
  while (argc > 1 && std::strncmp(argv[1], "--", 2) == 0 && !unknown_option) {
    if (std::strcmp(argv[1], "--tolerate-quarantined") == 0) {
      tolerate_quarantined = true;
    } else if (std::strcmp(argv[1], "--tolerate-residue") == 0) {
      tolerate_residue = true;
    } else {
      unknown_option = true;
    }
    --argc;
    ++argv;
  }
  if (unknown_option || argc < 2 || argc > 4) {
    std::fprintf(stderr,
                 "usage: invfs_check [--tolerate-quarantined] "
                 "[--tolerate-residue] <disk-dir> [nvram-dir] [jukebox-dir]\n");
    return 2;
  }
  std::unique_ptr<invfs::FileBlockStore> stores[3];  // disk, nvram, jukebox
  for (int i = 1; i < argc; ++i) {
    auto store = invfs::FileBlockStore::Open(argv[i]);
    if (!store.ok()) {
      std::fprintf(stderr, "invfs_check: cannot open %s: %s\n", argv[i],
                   store.status().message().c_str());
      return 2;
    }
    stores[i - 1] = std::move(*store);
  }

  invfs::Checker checker(stores[0].get(), stores[1].get(), stores[2].get());
  auto report = checker.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "invfs_check: %s\n", report.status().message().c_str());
    return 2;
  }
  std::fputs(report->ToString().c_str(), stdout);
  if (report->ok()) {
    return 0;
  }
  const bool all_tolerated = std::all_of(
      report->violations.begin(), report->violations.end(), [&](const invfs::Violation& v) {
        return (tolerate_quarantined && v.quarantined) || (tolerate_residue && v.residue);
      });
  if (all_tolerated) {
    std::fputs("invfs_check: all violations tolerated\n", stdout);
    return 0;
  }
  return 1;
}
