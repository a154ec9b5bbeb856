#!/usr/bin/env bash
# Tier-2 correctness gate for the Inversion reproduction.
#
# Runs the full ctest suite under ASan+UBSan and under TSan (both with the
# 2PL/latch discipline instrumentation enabled), then clang-tidy over src/.
# Any sanitizer report, test failure, discipline violation, or clang-tidy
# diagnostic fails the gate.
#
# Usage:
#   scripts/check.sh            # everything
#   scripts/check.sh asan       # just the ASan+UBSan leg
#   scripts/check.sh tsan       # just the TSan leg
#   scripts/check.sh tidy       # just clang-tidy
#   scripts/check.sh tsa        # invfs_lint + clang thread safety analysis
#   scripts/check.sh metrics    # just the metrics-overhead smoke gate
#   scripts/check.sh torture    # just the torture sweeps of every fault domain (ASan)
#   scripts/check.sh load       # just the open-loop loadgen SLO smoke
#   scripts/check.sh net        # the network-fault sweep + faulted rpc load
#   scripts/check.sh werror     # every target built with -Werror (RelWithDebInfo and Release)
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$(pwd)
JOBS=${JOBS:-$(nproc)}
LEG=${1:-all}

run_sanitized() {
  local name=$1 preset=$2
  local dir="$ROOT/build-$name"
  echo "==> [$name] configure (INVFS_SANITIZE=$preset, INVFS_DEBUG_INVARIANTS=ON)"
  cmake -B "$dir" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DINVFS_SANITIZE="$preset" \
        -DINVFS_DEBUG_INVARIANTS=ON >/dev/null
  echo "==> [$name] build"
  cmake --build "$dir" -j "$JOBS" -- --no-print-directory
  echo "==> [$name] ctest"
  # halt_on_error makes any sanitizer report a test failure; TSan's
  # second_deadlock_stack improves lock-order reports.
  env ASAN_OPTIONS=halt_on_error=1:detect_leaks=1 \
      UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
  echo "==> [$name] clean"
}

run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "==> [tidy] clang-tidy not installed; skipping (install clang-tidy to run this leg)"
    return 0
  fi
  local dir="$ROOT/build-tidy"
  echo "==> [tidy] configure (compile database)"
  cmake -B "$dir" -S "$ROOT" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  echo "==> [tidy] clang-tidy over src/ (any diagnostic fails)"
  # WarningsAsErrors: '*' in .clang-tidy turns every diagnostic into an error,
  # so a non-zero exit here is the gate failing.
  find src -name '*.cc' -print0 |
    xargs -0 -n 4 -P "$JOBS" clang-tidy -p "$dir" --quiet
  echo "==> [tidy] clean"
}

run_tsa() {
  # Static concurrency gate, two parts:
  #   1. invfs_lint — the project's own invariant checker (naked std sync
  #      primitives, device I/O under a shard mutex, condition waits holding
  #      extra locks, crash-point catalog/placement). Pure C++, runs on any
  #      toolchain, no excuses.
  #   2. clang -Werror=thread-safety over the whole tree, plus the negative
  #      compile-fail cases in tests/compile_fail. The analysis only exists
  #      in clang, so this half is skipped (loudly) when clang++ is missing;
  #      part 1 and the GCC build still run everywhere.
  local dir="$ROOT/build-tsa"
  echo "==> [tsa] build + run invfs_lint over src/"
  cmake -B "$dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$dir" -j "$JOBS" --target invfs_lint -- --no-print-directory
  "$dir/src/lint/invfs_lint" "$ROOT/src"
  echo "==> [tsa] invfs_lint self-tests (fixtures must trip their rules)"
  ctest --test-dir "$dir" -R '^lint_' --output-on-failure
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "==> [tsa] clang++ not installed; skipping thread safety analysis" \
         "(install clang to run the annotated build and compile-fail cases)"
    return 0
  fi
  local cdir="$ROOT/build-tsa-clang"
  echo "==> [tsa] clang build with -Werror=thread-safety"
  cmake -B "$cdir" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build "$cdir" -j "$JOBS" -- --no-print-directory
  echo "==> [tsa] compile-fail cases (annotation violations must not build)"
  ctest --test-dir "$cdir" -R '^compile_fail_' --output-on-failure
  echo "==> [tsa] clean"
}

run_metrics_overhead() {
  # Smoke gate on observability cost, vs a build with the instrumentation
  # compiled out (-DINVFS_NO_METRICS=ON), two benchmarks with two budgets:
  #
  #   BM_BufferHit (INVFS_METRICS_BUDGET, default 5%): the hottest
  #   instrumented loop in the engine. Its budget is tight because the hit
  #   path carries only striped counters — never a span; a span leaking into
  #   it trips this gate immediately.
  #
  #   BM_FileWriteRead (INVFS_SPAN_BUDGET, default 100%): the span-heaviest
  #   request path (p_write/p_read entry spans + latency histograms). Its
  #   bare fast path is ~250ns of buffered-chunk memcpy, while one span
  #   costs ~65ns (two TSC reads, TLS context and ten relaxed ring stores;
  #   BM_ScopedSpan, printed below), so a 5% budget is structurally
  #   impossible for *any* per-request timing; the budget instead catches
  #   regressions — instrumentation sneaking into a per-page or per-byte
  #   loop blows far past it.
  #
  # Median of several repetitions keeps machine noise from tripping either.
  #
  # The INVFS_NO_METRICS tree builds every target, not just bench_micro, so
  # the compiled-out flavour of the whole engine, its tools and its tests
  # keeps compiling. Its ctest is not run: suites that assert counter values
  # fail by design when the counters are compiled out. What runs there is
  # invfs_bench's mt section, whose registry-derived fields must come out
  # null, never a 0 that reads like a measurement.
  local budget=${INVFS_METRICS_BUDGET:-5}
  local span_budget=${INVFS_SPAN_BUDGET:-100}
  local reps=${INVFS_METRICS_REPS:-7}
  local on_dir="$ROOT/build-metrics-on" off_dir="$ROOT/build-metrics-off"
  echo "==> [metrics] configure+build bench_micro (instrumented) and every target (INVFS_NO_METRICS)"
  cmake -B "$on_dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
        -DINVFS_NO_METRICS=OFF >/dev/null
  cmake -B "$off_dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
        -DINVFS_NO_METRICS=ON >/dev/null
  cmake --build "$on_dir" -j "$JOBS" --target bench_micro -- --no-print-directory
  cmake --build "$off_dir" -j "$JOBS" -- --no-print-directory

  median_fields() {
    # $1 = build dir, $2 = benchmark name, then CSV column names (cpu_time,
    # or a counter such as allocs). Prints those columns of the *_median
    # aggregate row, space-separated, from one run.
    local dir=$1 bench=$2
    shift 2
    "$dir/bench/bench_micro" --benchmark_filter="^$bench\$" \
        --benchmark_repetitions="$reps" --benchmark_report_aggregates_only=true \
        --benchmark_format=csv 2>/dev/null |
      awk -F, -v row="\"${bench}_median\"" -v want="$*" '
        NR == 1 {
          for (i = 1; i <= NF; i++) { gsub(/"/, "", $i); col[$i] = i }
          n = split(want, names, " ")
        }
        $1 == row {
          out = ""
          for (j = 1; j <= n; j++) out = out (j > 1 ? " " : "") $(col[names[j]])
          print out
        }'
  }
  median_cpu_time() { median_fields "$1" "$2" cpu_time; }

  gate_benchmark() {
    # Alternate the two binaries over several passes and keep each one's best
    # median: machine noise (e.g. the build that just saturated every core)
    # inflates both, and the minimum is the stable estimate of the true cost.
    local bench=$1 budget=$2
    echo "==> [metrics] run $bench (3 alternating passes, $reps repetitions each)"
    local on_ns="" off_ns="" pass v
    for pass in 1 2 3; do
      v=$(median_cpu_time "$on_dir" "$bench")
      on_ns=$(awk -v a="$on_ns" -v b="$v" 'BEGIN { print (a == "" || b+0 < a+0) ? b : a }')
      v=$(median_cpu_time "$off_dir" "$bench")
      off_ns=$(awk -v a="$off_ns" -v b="$v" 'BEGIN { print (a == "" || b+0 < a+0) ? b : a }')
    done
    if [[ -z "$on_ns" || -z "$off_ns" ]]; then
      echo "==> [metrics] FAILED: could not parse $bench output" >&2
      exit 1
    fi
    echo "==> [metrics] $bench median cpu_time: instrumented=${on_ns}ns bare=${off_ns}ns"
    awk -v on="$on_ns" -v off="$off_ns" -v budget="$budget" -v bench="$bench" 'BEGIN {
      pct = (on / off - 1) * 100
      printf "==> [metrics] %s overhead: %.2f%% (budget %s%%)\n", bench, pct, budget
      exit (pct > budget) ? 1 : 0
    }' || { echo "==> [metrics] FAILED: $bench instrumentation overhead over budget" >&2; exit 1; }
  }

  gate_benchmark BM_BufferHit "$budget"
  gate_benchmark BM_FileWriteRead "$span_budget"

  # Printed, not gated: the warm chunk read (current and as-of) with its heap
  # allocations per read, and one span begin/end. A copy or an allocation
  # that creeps back into the read path shows in the first before perfbench
  # notices; the second is the unit cost every span adds.
  local bench fields
  for bench in BM_ChunkRead/0 BM_ChunkRead/1; do
    fields=$(median_fields "$on_dir" "$bench" cpu_time allocs)
    echo "==> [metrics] $bench median (instrumented, not gated):" \
         "cpu_time ${fields% *}ns, allocations per read ${fields#* }"
  done
  echo "==> [metrics] BM_ScopedSpan median cpu_time (instrumented, not gated):" \
       "$(median_cpu_time "$on_dir" BM_ScopedSpan)ns"
  # Printed, not gated: one warm Int4 leaf searched and edited as a
  # variable-width node (/0, walked) and as a fixed-width array (/4, bisected).
  for bench in BM_BtreeLeafLookup/0 BM_BtreeLeafLookup/4 \
               BM_BtreeLeafInsertRemove/0 BM_BtreeLeafInsertRemove/4; do
    echo "==> [metrics] $bench median cpu_time (instrumented, not gated):" \
         "$(median_cpu_time "$on_dir" "$bench")ns"
  done

  echo "==> [metrics] invfs_bench mt (INVFS_NO_METRICS): registry-derived fields must be null"
  local mt_json="$off_dir/invfs_bench_mt.json"
  "$off_dir/bench/invfs_bench" mt --json "$mt_json" >/dev/null
  python3 - "$mt_json" <<'PY' || { echo "==> [metrics] FAILED: a compiled-out counter was reported as a number" >&2; exit 1; }
import json, sys
mt = json.load(open(sys.argv[1]))["mt"]
fields = [("group_commit[%d].%s" % (r["threads"], k), r[k]) for r in mt["group_commit"]
          for k in ("persist_requests", "persist_batches", "device_page_writes",
                    "writes_per_transition")]
fields += [("metrics." + k, v) for k, v in mt["metrics"].items()]
numeric = [name for name, v in fields if v is not None]
print("==> [metrics] %d registry-derived fields, %d numeric %s" % (len(fields), len(numeric), numeric))
sys.exit(1 if numeric else 0)
PY
}

run_torture() {
  # Torture sweeps under ASan with the debug invariants on: fixed seeds
  # enumerate ~250 schedules over the three fault domains. Each crash
  # schedule (a named crash point or the Nth device write) snapshots the
  # halted image and recovers it; each wire schedule injects one drop,
  # duplicate, truncation or reset under the retrying RPC client. Every one
  # then runs the structural checker, the no-orphaned-transactions-or-locks
  # check and the acked/unacked oracle. Deterministic: a failure reproduces
  # with the printed schedule name.
  local dir="$ROOT/build-asan"
  echo "==> [torture] configure+build invfs_torture (INVFS_SANITIZE=address)"
  cmake -B "$dir" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DINVFS_SANITIZE=address \
        -DINVFS_DEBUG_INVARIANTS=ON >/dev/null
  cmake --build "$dir" -j "$JOBS" --target invfs_torture -- --no-print-directory
  echo "==> [torture] crash sweep (seed 1337, ~170 schedules, vacuum ops included)"
  env ASAN_OPTIONS=halt_on_error=1:detect_leaks=1 \
      "$dir/src/fault/invfs_torture" --domains points,writes \
        --seed 1337 --txns 60 --files 16 --buffers 20 \
        --occurrences 8 --write-schedules 120
  echo "==> [torture] create-heavy sweep (seed 1338, reaches btree.split)"
  env ASAN_OPTIONS=halt_on_error=1:detect_leaks=1 \
      "$dir/src/fault/invfs_torture" --domains points \
        --seed 1338 --txns 300 --files 400 --occurrences 2
  echo "==> [torture] wire sweep (seed 4242, every wire fault kind)"
  env ASAN_OPTIONS=halt_on_error=1:detect_leaks=1 \
      "$dir/src/fault/invfs_torture" --domains wire --seed 4242 --occurrences 12
  echo "==> [torture] clean"
}

run_load() {
  # Open-loop load observatory smoke: the builtin four-tenant mix at its 1x
  # size, fixed seed, ~5 sim seconds. --check makes invfs_loadgen exit
  # non-zero if any per-tenant load objective reports VIOLATED or the span
  # ring dropped records — so a latency regression in the engine, a broken
  # tenant behavior, or an undersized default ring all fail this gate. The
  # baseline mix offers ~0.35 utilization, far from saturation: a VIOLATED
  # verdict here is a real regression, not load-test noise.
  local dir="$ROOT/build-load"
  echo "==> [load] configure+build invfs_loadgen (Release)"
  cmake -B "$dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$dir" -j "$JOBS" --target invfs_loadgen -- --no-print-directory
  echo "==> [load] builtin mix, seed 42, 5 sim seconds, --check"
  "$dir/src/load/invfs_loadgen" --seconds 5 --seed 42 --check
}

run_net() {
  # Unreliable-network gate, two halves:
  #
  #   1. invfs_torture --domains wire — the at-most-once sweep: every wire
  #      fault kind (request/response drop, duplicate delivery, response
  #      truncation, connection reset) crossed with occurrence positions over
  #      the recorded exchanges of the torture plan. Each schedule must leave
  #      acked ops applied exactly once, failed ops invisible, and no
  #      orphaned locks or transactions. Deterministic: a failure replays by
  #      its printed name.
  #
  #   2. invfs_loadgen --transport rpc --net-drop 0.01 --check — the builtin
  #      four-tenant fleet on the priced wire with 1% frame loss. --check
  #      fails on any op error (a wire fault leaking through retry + DRC),
  #      any SLO violation, or span-ring drops. The p99 overrides account for
  #      the RPC protocol cost plus retry timeouts — the builtin targets are
  #      calibrated for the in-process path.
  local dir="$ROOT/build-load"
  echo "==> [net] configure+build invfs_torture + invfs_loadgen (Release)"
  cmake -B "$dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$dir" -j "$JOBS" --target invfs_torture invfs_loadgen \
        -- --no-print-directory
  echo "==> [net] at-most-once sweep (seed 4242)"
  "$dir/src/fault/invfs_torture" --domains wire --seed 4242 --occurrences 12
  echo "==> [net] rpc fleet with 1% drop, seed 42, 5 sim seconds, --check"
  "$dir/src/load/invfs_loadgen" --transport rpc --net-drop 0.01 \
      --seconds 5 --seed 42 --check \
      --profile mail:p99=4000000 --profile analytics:p99=5000000 \
      --profile audit:p99=3000000 --profile archive:p99=6000000
}

run_werror() {
  # Warning gate: every target (engine, tools, tests, benches) built with
  # -Werror on top of the project's warning set. Both optimized configurations
  # are built, as some GCC warnings (-Wfree-nonheap-object among them) only
  # fire after inlining, and the -O2 (RelWithDebInfo) and -O3 (Release)
  # inliners expose different ones (-Wrestrict in string concatenation only
  # at -O3), so a warning-free tree stays that way.
  local type dir
  for type in RelWithDebInfo Release; do
    dir="$ROOT/build-werror"
    [[ $type == Release ]] && dir="$ROOT/build-werror-release"
    echo "==> [werror] configure ($type, -Werror)"
    cmake -B "$dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=$type \
          -DCMAKE_CXX_FLAGS=-Werror >/dev/null
    echo "==> [werror] build every target ($type)"
    cmake --build "$dir" -j "$JOBS" -- --no-print-directory
  done
  echo "==> [werror] clean"
}

case "$LEG" in
  asan) run_sanitized asan address ;;
  tsan) run_sanitized tsan thread ;;
  tidy) run_tidy ;;
  tsa) run_tsa ;;
  metrics) run_metrics_overhead ;;
  torture) run_torture ;;
  load) run_load ;;
  net) run_net ;;
  werror) run_werror ;;
  all)
    run_sanitized asan address
    run_sanitized tsan thread
    run_tidy
    run_tsa
    run_metrics_overhead
    run_torture
    run_load
    run_net
    run_werror
    ;;
  *)
    echo "unknown leg '$LEG' (want asan, tsan, tidy, tsa, metrics, torture, load, net, werror, or all)" >&2
    exit 2
    ;;
esac

echo "==> check.sh: all requested legs passed"
