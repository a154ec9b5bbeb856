// invfs_bench: every benchmark of the reproduction behind one driver.
//
//   invfs_bench [section...] [--json PATH]
//
// Sections run in table order whatever order they are named in; no section
// names means all of them. Each prints its tables to stdout. With --json,
// the results go to PATH as one object with a key per section; without it
// nothing is written anywhere. Exit 0 every section ran and passed its
// gates, 1 a section failed, 2 bad arguments.
//
// table3, ston93, ablation and history are simulated seconds from the
// calibrated 1993 cost model: deterministic, and checked byte for byte against
// bench/golden_sim.json by ctest. mt, recovery, overhead, fleet and netfault
// measure wall-clock time on the host as well.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_common.h"

namespace invfs {

std::string Json::Dump(int indent) const {
  if (kind_ == Kind::kScalar) {
    // Re-indent a multi-line raw value so it nests under its key.
    std::string out;
    for (char c : text_) {
      out += c;
      if (c == '\n') {
        out.append(static_cast<size_t>(indent), ' ');
      }
    }
    return out;
  }
  const bool object = kind_ == Kind::kObject;
  if (members_.empty()) {
    return object ? "{}" : "[]";
  }
  const std::string pad(static_cast<size_t>(indent) + 2, ' ');
  std::string out = object ? "{\n" : "[\n";
  for (size_t i = 0; i < members_.size(); ++i) {
    out += pad;
    if (object) {
      out += Json::String(members_[i].first).text_;
      out += ": ";
    }
    out += members_[i].second.Dump(indent + 2);
    out += i + 1 < members_.size() ? ",\n" : "\n";
  }
  out.append(static_cast<size_t>(indent), ' ');
  out += object ? '}' : ']';
  return out;
}

namespace {

struct Section {
  const char* name;
  Status (*run)(Json* out);
};

constexpr Section kSections[] = {
    {"table3", RunTable3},     {"ston93", RunSton93},
    {"ablation", RunAblation}, {"history", RunHistory},
    {"mt", RunMt},             {"recovery", RunRecovery},
    {"overhead", RunOverhead}, {"fleet", RunFleet},
    {"netfault", RunNetFault},
};
constexpr size_t kNumSections = std::size(kSections);

int Usage() {
  std::fprintf(stderr, "usage: invfs_bench [section...] [--json PATH]\n  sections:");
  for (const Section& s : kSections) {
    std::fprintf(stderr, " %s", s.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  bool selected[kNumSections] = {};
  bool any = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (json_path != nullptr || i + 1 >= argc) {
        return Usage();
      }
      json_path = argv[++i];
      continue;
    }
    size_t k = 0;
    while (k < kNumSections && std::strcmp(argv[i], kSections[k].name) != 0) {
      ++k;
    }
    if (k == kNumSections) {
      return Usage();
    }
    selected[k] = true;
    any = true;
  }

  Json root = Json::Object();
  for (size_t k = 0; k < kNumSections; ++k) {
    if (any && !selected[k]) {
      continue;
    }
    Json section = Json::Object();
    if (Status s = kSections[k].run(&section); !s.ok()) {
      std::fprintf(stderr, "invfs_bench %s: %s\n", kSections[k].name,
                   s.ToString().c_str());
      return 1;
    }
    std::printf("\n");
    std::fflush(stdout);
    root.Add(kSections[k].name, std::move(section));
  }

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "invfs_bench: cannot open %s\n", json_path);
      return 1;
    }
    const std::string text = root.Dump() + "\n";
    const bool written = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "invfs_bench: cannot write %s\n", json_path);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace invfs

int main(int argc, char** argv) { return invfs::Main(argc, argv); }
