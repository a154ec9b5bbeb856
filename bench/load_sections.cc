// fleet: the open-loop load observatory. One fixed scenario (the builtin
// four-tenant mix, fixed seed) at 100, 1000 and 5000 clients against a fresh
// database each. The point of the sweep is the saturation story a
// closed-loop benchmark cannot tell: the simulated server serializes at ~10
// ops/s, so once a fleet offers more than that, achieved throughput stays
// flat, intended-start latencies grow to the backlog length, and verdicts
// flip to VIOLATED. The summary names the first saturated fleet (end lag
// beyond kSaturatedLagUs); with the builtin mix that is already the
// 100-client one.
//
// netfault: the builtin mix (1x, 22 clients) entirely over the marshalled RPC
// path at frame loss rates 0%, 0.1% and 1% (split evenly between request and
// response legs). Per rate: goodput (acked ops per sim second), retries per
// op, the duplicate-request-cache hit rate, and the hard invariant that zero
// op errors leaked through the retry + DRC machinery. The summary prices the
// at-most-once header itself against the unfaulted run: that framing must
// stay under kFramingBudgetPct of simulated time — the protocol's insurance
// premium is paid in retry behaviour, not in steady-state throughput.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/catalog/database.h"
#include "src/load/loadgen.h"

namespace invfs {
namespace {

constexpr uint64_t kSaturatedLagUs = 500'000;
// Request-frame bytes added by the at-most-once substrate: client id (8) +
// seq (8) + epoch (4).
constexpr uint64_t kAtMostOnceHeaderBytes = 8 + 8 + 4;
constexpr double kFramingBudgetPct = 5.0;

struct LoadRun {
  size_t clients = 0;
  double wall_ms = 0.0;
  LoadGenReport report;
};

// Runs one LoadGen to completion against a fresh Berkeley-sized database.
Result<LoadRun> RunLoad(const LoadGenOptions& opts) {
  StorageEnv env;
  DatabaseOptions dbo;
  dbo.buffers = kBerkeleyBuffers;
  dbo.span_ring_capacity = 1 << 17;
  INV_ASSIGN_OR_RETURN(auto db, Database::Open(&env, dbo));
  InversionFs fs(db.get());
  INV_RETURN_IF_ERROR(fs.Mount());
  const auto t0 = std::chrono::steady_clock::now();
  LoadGen gen(&fs, opts);
  INV_RETURN_IF_ERROR(gen.Run());
  LoadRun r;
  r.clients = gen.total_clients();
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  r.report = gen.Report();
  return r;
}

}  // namespace

Status RunFleet(Json* out) {
  std::printf("== fleet: open-loop four-tenant mix, seed 42 ==\n\n");
  std::printf("%8s %10s %10s %12s %10s %10s\n", "clients", "ops", "sim s", "intended s",
              "end lag s", "wall ms");
  // Shorter horizons at larger fleets keep total arrivals comparable; the
  // offered *rate* (what saturation depends on) still scales with the fleet.
  const std::pair<size_t, double> fleets[] = {{100, 2.0}, {1000, 1.0}, {5000, 1.0}};
  Json runs = Json::Array();
  size_t saturation_clients = 0;
  for (const auto& [clients, seconds] : fleets) {
    LoadGenOptions opts;
    opts.seed = 42;
    opts.seconds = seconds;
    ScaleProfiles(&opts.profiles, clients);
    INV_ASSIGN_OR_RETURN(const LoadRun r, RunLoad(opts));
    std::printf("%8zu %10llu %10.2f %12.2f %10.2f %10.0f\n", r.clients,
                static_cast<unsigned long long>(r.report.ops), r.report.sim_seconds,
                r.report.intended_seconds, static_cast<double>(r.report.end_lag_us) / 1e6,
                r.wall_ms);
    if (saturation_clients == 0 && r.report.end_lag_us > kSaturatedLagUs) {
      saturation_clients = r.clients;
    }
    runs.Push(Json::Object()
                  .Add("clients", Json::Int(r.clients))
                  .Add("wall_ms", Json::Number(r.wall_ms, "%.3f"))
                  .Add("report", Json::Raw(r.report.DumpJson())));
  }
  std::printf("\nfirst saturated fleet (end lag > %.1f s): %zu clients\n",
              kSaturatedLagUs / 1e6, saturation_clients);
  out->Add("bench", Json::String("load_observatory"))
      .Add("scenario", Json::String("builtin mail/analytics/audit/archive mix, seed 42,"
                                    " coordinated-omission-correct sim latencies"))
      .Add("fleets", std::move(runs))
      .Add("saturation", Json::Object()
                             .Add("first_saturated_fleet_clients",
                                  Json::Int(saturation_clients))
                             .Add("end_lag_threshold_us", Json::Int(kSaturatedLagUs)));
  return Status::Ok();
}

Status RunNetFault(Json* out) {
  std::printf("== netfault: rpc fleet under frame loss, 22 clients, seed 42 ==\n\n");
  std::printf("%7s %8s %7s %10s %10s %8s %10s %22s %9s\n", "drop", "ops", "errors",
              "goodput/s", "exchanges", "retries", "drc hits", "drc hit rate", "wall ms");
  Json sweep = Json::Array();
  LoadGenReport base;
  for (double drop : {0.0, 0.001, 0.01}) {
    LoadGenOptions opts;
    opts.seed = 42;
    opts.seconds = 5.0;
    opts.transport = LoadTransport::kRpc;
    opts.net_faults.drop_request = drop / 2;
    opts.net_faults.drop_response = drop / 2;
    INV_ASSIGN_OR_RETURN(const LoadRun p, RunLoad(opts));
    const LoadGenReport& r = p.report;
    const double goodput = r.sim_seconds > 0 ? r.ops / r.sim_seconds : 0;
    const double retries_per_op = r.ops > 0 ? static_cast<double>(r.rpc_retries) / r.ops : 0;
    // rpc_drc_hits is read from the server's rpc.server.drc_hits counter.
    const double drc_hit_rate =
        r.rpc_retries > 0 ? static_cast<double>(r.rpc_drc_hits) / r.rpc_retries : 0;
    std::printf("%6.1f%% %8llu %7llu %10.2f %10llu %8llu %10s %22s %9.0f\n", drop * 100,
                static_cast<unsigned long long>(r.ops),
                static_cast<unsigned long long>(r.errors), goodput,
                static_cast<unsigned long long>(r.rpc_exchanges),
                static_cast<unsigned long long>(r.rpc_retries),
                MetricText(static_cast<double>(r.rpc_drc_hits), "%.0f").c_str(),
                MetricText(drc_hit_rate, "%.4f").c_str(), p.wall_ms);
    if (r.errors != 0) {
      return Status::Internal(std::to_string(r.errors) +
                              " op errors leaked through retry + DRC at drop " +
                              std::to_string(drop));
    }
    if (drop == 0.0) {
      base = r;
    }
    sweep.Push(Json::Object()
                   .Add("drop_rate", Json::Number(drop, "%.4f"))
                   .Add("wall_ms", Json::Number(p.wall_ms, "%.3f"))
                   .Add("goodput_ops_per_sec", Json::Number(goodput, "%.3f"))
                   .Add("retries_per_op", Json::Number(retries_per_op, "%.4f"))
                   .Add("drc_hit_rate", MetricJson(drc_hit_rate, "%.4f"))
                   .Add("report", Json::Raw(r.DumpJson())));
  }

  // Price the header against the unfaulted run: every request frame pays
  // kAtMostOnceHeaderBytes at the NetModel per-KB rate.
  const NetParams net{};
  const double header_us =
      static_cast<double>(base.rpc_exchanges) *
      (static_cast<double>(kAtMostOnceHeaderBytes * net.per_kilobyte_us) / 1024.0);
  const double total_us = base.sim_seconds * 1e6;
  const double framing_pct = total_us > 0 ? header_us / total_us * 100 : 0.0;
  std::printf("\nframing: %llu frames x %llu header bytes = %.0fus of %.0fus sim"
              " (%.3f%%, budget %.1f%%)\n",
              static_cast<unsigned long long>(base.rpc_exchanges),
              static_cast<unsigned long long>(kAtMostOnceHeaderBytes), header_us, total_us,
              framing_pct, kFramingBudgetPct);
  if (framing_pct > kFramingBudgetPct) {
    return Status::Internal("at-most-once framing overhead over budget");
  }
  out->Add("bench", Json::String("network_fault_domain"))
      .Add("scenario", Json::String("builtin four-tenant mix (22 clients, seed 42) over"
                                    " the rpc transport; frame loss split"
                                    " request/response; retry + duplicate-request"
                                    " cache must absorb every fault"))
      .Add("sweep", std::move(sweep))
      .Add("framing", Json::Object()
                          .Add("header_bytes_per_request",
                               Json::Int(kAtMostOnceHeaderBytes))
                          .Add("overhead_pct", Json::Number(framing_pct, "%.4f"))
                          .Add("budget_pct", Json::Number(kFramingBudgetPct, "%.1f")));
  return Status::Ok();
}

}  // namespace invfs
