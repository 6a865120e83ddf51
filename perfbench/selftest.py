#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of procon).

    python3 perfbench/selftest.py

Run from the root of a checkout; builds like run.py. Checks, in about a
minute:

  1. short mode: every workload, untraced and traced, with --seconds 2,
     prints a result line with exactly the contract keys, reports every
     end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json,
     finite and with its unit, passes its output checks, and its full
     record carries the workload's own named metrics (README.md) and the
     machine and build description;
  2. determinism: the design workload's deterministic metrics
     (accuracy_err_pct, sim.events, the dse.* counts) repeat exactly across
     two runs and across Workbench thread counts 1 and 2;
  3. the benchmark refuses to run, without printing a result, in a
     directory holding only BENCHMARK.json and perfbench/;
  4. compare.py's verdicts on made-up series: fewer than ten runs a side
     is unresolved however large the change, and ten clear wins improve.

Exits 0 when everything holds, 1 otherwise.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import compare  # noqa: E402  (verdict)
import run  # noqa: E402  (build_dir)

# The workload metrics each record's "detail" map must carry (README.md).
DETAIL = {
    "design": {"design_est_uc_per_s": "1/s", "design_sim_uc_per_s": "1/s",
               "design_topo_per_s": "1/s", "design_race_per_s": "1/s",
               "design_frontier_per_s": "1/s", "accuracy_err_pct": "%"},
    "admission": {"admit_probe_p50_us": "us", "admit_probe_p99_us": "us",
                  "admit_ops_per_s": "1/s"},
    "serve": {"serve_p50_us": "us", "serve_p99_us": "us", "serve_qps": "1/s"},
}
DETERMINISTIC = ["sim.events", "dse.full_evals", "dse.exhaustive_evals", "dse.eval_ratio",
                 "dse.estimator_pulls", "dse.sim_pulls"]

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")


def bench(workload, trace, seed=11, seconds=2, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def short_mode(spec):
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            tag = f"{w} trace={trace}"
            p = bench(w, trace)
            check(p.returncode == 0, f"{tag}: exit code {p.returncode}: {p.stderr[-400:]}")
            if p.returncode != 0:
                continue
            lines = p.stdout.strip().splitlines()
            result, record = json.loads(lines[-1]), json.loads(lines[-2])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0,
                  f"{tag}: output checks failed: {record.get('failures')}")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                  f"{tag}: attempted {result['attempted']}")
            want = layers if trace else e2e
            check(set(result["metrics"]) == set(want),
                  f"{tag}: metric names differ: {set(result['metrics']) ^ set(want)}")
            for name, v in result["metrics"].items():
                check(isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"]),
                      f"{tag}: {name} not finite")
                check(v.get("unit") == want.get(name), f"{tag}: {name} unit {v.get('unit')}")
            for name, unit in DETAIL[w].items():
                d = record["detail"].get(name)
                check(d is not None and d["unit"] == unit and math.isfinite(d["value"]),
                      f"{tag}: detail metric {name} missing or wrong")
            for key in ("hardware_threads", "cpu_model", "compiler", "build_type"):
                check(key in record["meta"], f"{tag}: meta.{key} missing")
            check(record["seed"] == 11 and record["settings"], f"{tag}: seed or settings missing")


def determinism():
    seen = []
    for threads in (1, 2, 2):
        p = bench("design", 1, seed=5, extra=("--design-threads", str(threads)))
        check(p.returncode == 0, f"design threads={threads}: exit {p.returncode}")
        if p.returncode != 0:
            return
        record = json.loads(p.stdout.strip().splitlines()[-2])
        values = {k: record["metrics"][k]["value"] for k in DETERMINISTIC}
        values["accuracy_err_pct"] = record["detail"]["accuracy_err_pct"]["value"]
        seen.append((threads, values))
    for threads, values in seen[1:]:
        check(values == seen[0][1],
              f"deterministic metrics moved (threads {seen[0][0]} vs {threads}): "
              f"{seen[0][1]} vs {values}")


def refuses_without_sources():
    scratch = tempfile.mkdtemp(prefix="bare-", dir=run.build_dir())
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "design",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=scratch, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=180)
        check(p.returncode != 0, "bare directory: run succeeded")
        check(p.stdout.strip() == "", "bare directory: printed a result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def compare_verdicts():
    def runs(values):
        return [(seed, v, "1/s") for seed, v in enumerate(values, start=1)]

    base = [100.0 + i for i in range(10)]
    faster = [2 * v for v in base]
    cases = [
        ("one run a side", runs(base[:1]), runs(faster[:1]), "unresolved"),
        ("nine runs a side", runs(base[:9]), runs(faster[:9]), "unresolved"),
        ("ten runs, all faster", runs(base), runs(faster), "improved"),
        ("ten runs, same", runs(base), runs(base), "unchanged"),
        ("ten runs, halved", runs(base), runs([v / 2 for v in base]), "worse"),
    ]
    for what, before, after, want in cases:
        got = compare.verdict(before, after, "higher", 0.1)
        check(got == want, f"compare verdict, {what}: {got}, want {want}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    compare_verdicts()
    short_mode(spec)
    determinism()
    refuses_without_sources()
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
