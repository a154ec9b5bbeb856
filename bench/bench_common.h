// Shared pieces of invfs_bench: the three paper worlds, the JSON value every
// section fills, and the section entry points.

#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/harness/paper_benchmark.h"
#include "src/harness/worlds.h"
#include "src/obs/metrics.h"

namespace invfs {

struct AllResults {
  PaperBenchResult inv_cs;   // Inversion client/server
  PaperBenchResult nfs;      // ULTRIX NFS + PRESTOserve
  PaperBenchResult inv_sp;   // Inversion single process
};

// The paper's nine-test suite in a fresh world, so every run starts cold:
// Inversion through the client/server path (`remote`) or in one process, or
// NFS, which runs without transactions because NFS has none.
inline Result<PaperBenchResult> RunInversion(bool remote, WorldOptions options = {}) {
  INV_ASSIGN_OR_RETURN(auto world, InversionWorld::Create(std::move(options)));
  return RunPaperBenchmark(remote ? world->remote_api() : world->local_api(),
                           world->clock());
}
inline Result<PaperBenchResult> RunNfs(WorldOptions options = {}) {
  INV_ASSIGN_OR_RETURN(auto world, NfsWorld::Create(std::move(options)));
  PaperBenchParams params;
  params.use_transactions = false;
  return RunPaperBenchmark(world->api(), world->clock(), params);
}

// The suite in all three configurations.
inline Result<AllResults> RunAllConfigs() {
  AllResults out;
  INV_ASSIGN_OR_RETURN(out.inv_cs, RunInversion(/*remote=*/true));
  INV_ASSIGN_OR_RETURN(out.nfs, RunNfs());
  INV_ASSIGN_OR_RETURN(out.inv_sp, RunInversion(/*remote=*/false));
  return out;
}

// A JSON value a section fills and invfs_bench writes once. Scalars are
// rendered when made, so each section picks its numbers' precision: the
// simulated-time sections print seconds to the microsecond ("%.6f"), which
// makes their output byte-comparable across builds.
class Json {
 public:
  static Json Object() { return Json(Kind::kObject, ""); }
  static Json Array() { return Json(Kind::kArray, ""); }
  static Json Null() { return Json(Kind::kScalar, "null"); }
  static Json Number(double v, const char* fmt) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return Json(Kind::kScalar, buf);
  }
  static Json Int(uint64_t v) { return Json(Kind::kScalar, std::to_string(v)); }
  // Quotes `s`; the bench's strings are plain ASCII prose, so only quote and
  // backslash need escaping.
  static Json String(std::string_view s) {
    std::string text = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        text += '\\';
      }
      text += c;
    }
    text += '"';
    return Json(Kind::kScalar, std::move(text));
  }
  // Already-rendered JSON, such as a loadgen report or a registry dump.
  static Json Raw(std::string json) {
    while (!json.empty() && (json.back() == '\n' || json.back() == ' ')) {
      json.pop_back();
    }
    return Json(Kind::kScalar, std::move(json));
  }

  // Object member / array element; returns *this for chaining.
  Json& Add(std::string key, Json value) {
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  Json& Push(Json value) { return Add("", std::move(value)); }

  std::string Dump(int indent = 0) const;

 private:
  enum class Kind { kScalar, kObject, kArray };
  Json(Kind kind, std::string text) : kind_(kind), text_(std::move(text)) {}

  Kind kind_;
  std::string text_;
  std::vector<std::pair<std::string, Json>> members_;
};

// A number read from the metrics registry. An INVFS_NO_METRICS build compiles
// the counters out and they read 0, so there the value is unknown, not zero:
// JSON null and the text marker below.
inline Json MetricJson(double v, const char* fmt) {
  return kMetricsEnabled ? Json::Number(v, fmt) : Json::Null();
}
inline std::string MetricText(double v, const char* fmt) {
  if (!kMetricsEnabled) {
    return "n/a (INVFS_NO_METRICS)";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

// The sections. Each prints its human-readable tables to stdout and fills
// `out` with the same numbers; an error status (a failed run or a gate the
// section enforces) makes invfs_bench exit 1.
Status RunTable3(Json* out);
Status RunSton93(Json* out);
Status RunAblation(Json* out);
Status RunHistory(Json* out);
Status RunMt(Json* out);
Status RunRecovery(Json* out);
Status RunOverhead(Json* out);
Status RunFleet(Json* out);
Status RunNetFault(Json* out);

}  // namespace invfs
