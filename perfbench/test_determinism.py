#!/usr/bin/env python3
"""Determinism tests for the benchmark program.

Run from the repository root (builds invfs_perfbench first, like run.py):

    python3 perfbench/test_determinism.py

Checks that
  * two runs of a single-threaded workload with one seed give identical
    sim_s, space_amp and count-type per-layer metrics, and a second seed
    gives different inputs;
  * paper_table3's per-test simulated seconds equal bench_table3's
    client/server column: all nine tests at the paper's seed, and the
    seed-independent create test at any seed.
Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

PAPER_SEED = 19930425
# bench_table3's "Inversion client/server measured" column, in seconds.
TABLE3_CLIENT_SERVER = {
    "create_25mb": 149.84,
    "read_single_byte": 0.06,
    "write_single_byte": 0.17,
    "read_1mb_single": 3.06,
    "read_1mb_seq_pages": 4.38,
    "read_1mb_rand_pages": 5.47,
    "write_1mb_single": 6.36,
    "write_1mb_seq_pages": 9.69,
    "write_1mb_rand_pages": 8.80,
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def drive(binary, workload, seed, trace):
    """Runs one short pass set; returns (meta, result) dictionaries."""
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
    result = json.loads(lines[-1])
    check(out.returncode == 0 and result["correct"] and result["failed"] == 0,
          "%s seed %d trace %d ran clean" % (workload, seed, trace))
    return meta, result


def values(result, keep):
    return {k: v["value"] for k, v in result["metrics"].items() if keep(k)}


def main():
    binary = run.build()
    if binary is None:
        return 1

    for workload in ("hot_read", "small_txn"):
        first_meta, first = drive(binary, workload, 11, 0)
        _, again = drive(binary, workload, 11, 0)
        exact = lambda k: k in ("sim_s", "space_amp")  # noqa: E731
        check(values(first, exact) == values(again, exact),
              "%s: sim_s and space_amp repeat for one seed" % workload)
        _, traced = drive(binary, workload, 11, 1)
        _, traced_again = drive(binary, workload, 11, 1)
        counts = lambda k: not k.endswith("_us")  # noqa: E731
        check(values(traced, counts) == values(traced_again, counts),
              "%s: count-type per-layer metrics repeat for one seed" % workload)
        other_meta, _ = drive(binary, workload, 12, 0)
        check(first_meta["inputs_digest"] != other_meta["inputs_digest"],
              "%s: a second seed gives different inputs" % workload)

    paper_meta, _ = drive(binary, "paper_table3", PAPER_SEED, 0)
    for test, want in TABLE3_CLIENT_SERVER.items():
        got = paper_meta["table3_sim_s"][test]
        check(round(got, 2) == want,
              "paper_table3 %s: %.6f s matches bench_table3's %.2f s"
              % (test, got, want))
    other_meta, _ = drive(binary, "paper_table3", 5, 0)
    got = other_meta["table3_sim_s"]["create_25mb"]
    check(round(got, 2) == TABLE3_CLIENT_SERVER["create_25mb"],
          "paper_table3 create at another seed: %.6f s" % got)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
