// invfs_torture: the crash-point, device-write and wire-fault torture sweep.
//
// Runs the deterministic sweep of src/fault/torture.h: a recording pass
// counts every event of the seeded plan, then each schedule replays the plan
// with one fault armed and checks the image against the commit-ack oracle.
//
//   --seed N             the one seed the plan and every fault derive from
//   --txns N             plan steps (each one autocommit op or an explicit
//                        transaction of 1-3 ops)
//   --files N            most files alive at once
//   --buffers N          buffer-pool frames
//   --domains LIST       comma-separated subset of points,writes,wire
//                        (default: all three)
//   --occurrences N      schedules per crash point and per wire fault kind
//   --write-schedules N  schedules of the device-write domain
//   --quick              small sweep: --txns 10 --occurrences 2
//                        --write-schedules 12
//   --under-load         interleave the builtin multi-tenant load mix (under
//                        /load) between plan steps in every pass
//
// Every number must be a whole decimal number; --txns, --files and --buffers
// must be positive. Exit status: 0 sweep passed, 1 verification failures,
// 2 bad arguments or harness error (a selected domain that enumerates no
// schedule is one).

#include <charconv>
#include <cstdio>
#include <string_view>

#include "src/fault/torture.h"

namespace {

constexpr char kUsage[] =
    "usage: invfs_torture [--seed N] [--txns N] [--files N] [--buffers N] "
    "[--domains points,writes,wire] [--occurrences N] [--write-schedules N] "
    "[--quick] [--under-load]\n";

// All of `text` as a number: "12x", "", "abc" and, for unsigned types, "-1"
// are refused.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

// A comma-separated list of domain names.
bool ParseDomains(std::string_view text, uint32_t* out) {
  *out = 0;
  for (size_t end = 0; end != std::string_view::npos;) {
    end = text.find(',');
    const std::string_view name = text.substr(0, end);
    size_t i = 0;
    while (i < invfs::kNumTortureDomains &&
           name != TortureDomainName(static_cast<invfs::TortureDomain>(i))) {
      ++i;
    }
    if (i == invfs::kNumTortureDomains) {
      return false;
    }
    *out |= 1u << i;
    text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  invfs::TortureOptions opt;
  for (int i = 1; i < argc; ++i) {
    const int first = i;
    const std::string_view a = argv[i];
    const auto value = [&]() -> std::string_view {
      return i + 1 < argc ? argv[++i] : "";
    };
    bool ok = true;
    if (a == "--seed") {
      ok = ParseNumber(value(), &opt.seed);
    } else if (a == "--txns") {
      ok = ParseNumber(value(), &opt.steps) && opt.steps > 0;
    } else if (a == "--files") {
      ok = ParseNumber(value(), &opt.max_files) && opt.max_files > 0;
    } else if (a == "--buffers") {
      ok = ParseNumber(value(), &opt.buffers) && opt.buffers > 0;
    } else if (a == "--domains") {
      ok = ParseDomains(value(), &opt.domains);
    } else if (a == "--occurrences") {
      ok = ParseNumber(value(), &opt.occurrences);
    } else if (a == "--write-schedules") {
      ok = ParseNumber(value(), &opt.write_schedules);
    } else if (a == "--quick") {
      opt.steps = 10;
      opt.occurrences = 2;
      opt.write_schedules = 12;
    } else if (a == "--under-load") {
      opt.under_load = true;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "invfs_torture: bad argument:");
      for (int k = first; k <= i; ++k) {
        std::fprintf(stderr, " %s", argv[k]);
      }
      std::fprintf(stderr, "\n%s", kUsage);
      return 2;
    }
  }

  auto report = invfs::RunTorture(opt);
  if (!report.ok()) {
    std::fprintf(stderr, "invfs_torture: %s\n",
                 report.status().message().c_str());
    return 2;
  }
  for (const auto& [event, count] : report->recorded) {
    std::printf("recorded: %s x %llu\n", event.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("%s\n", report->Summary().c_str());
  return report->ok() ? 0 : 1;
}
