#!/usr/bin/env python3
"""Time-to-top-k benchmark of the TrajPattern library.

Run one workload (the last line of output is the result object):

    python3 perfbench/run.py --workload zebra_scan --seed 1 --seconds 20 --trace 0

Compare two result files written with --out (parent first):

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Check the benchmark itself on tiny inputs:

    python3 perfbench/run.py --selftest

The harness (perfbench/harness.cc) is built from the checkout's sources
into $CARGO_TARGET_DIR (default .bench_build) under perfbench/.  Each run
computes the reference answers in one process and measures in a second
one, so the measured process's peak memory is that of the workload alone.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures once, then brings the harness up to date."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "perfbench_harness", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "perfbench_harness"


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def harness_run(exe, args, timeout):
    """Runs the harness; returns its last stdout line parsed as JSON."""
    proc = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with {proc.returncode}: {args}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_workload(exe, workload, seed, seconds, trace, size="full",
                 corrupt=False, spans=None):
    work = build_dir() / "run"
    work.mkdir(parents=True, exist_ok=True)
    ref = work / f"reference-{workload}-{seed}-{size}.txt"
    common = [f"--workload={workload}", f"--seed={seed}", f"--size={size}",
              f"--reference={ref}"]
    try:
        harness_run(exe, ["--mode=reference"] + common, RUN_TIMEOUT_S)
        args = ["--mode=measure", f"--seconds={seconds}",
                f"--trace={1 if trace else 0}", f"--work_dir={work}"]
        if corrupt:
            args.append("--corrupt=1")
        if spans:
            args.append(f"--spans={spans}")
        return harness_run(exe, args + common, RUN_TIMEOUT_S)
    finally:
        ref.unlink(missing_ok=True)


def check_metrics(result, spec, trace):
    """Why `result` does not carry exactly the spec's metrics ("" if ok)."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in wanted}:
        missing = sorted({m["name"] for m in wanted} - set(got))
        extra = sorted(set(got) - {m["name"] for m in wanted})
        return f"metrics differ from the spec: missing {missing}, extra {extra}"
    for m in wanted:
        entry = got[m["name"]]
        if entry.get("unit") != m["unit"]:
            return f"{m['name']}: unit {entry.get('unit')!r}, spec {m['unit']!r}"
        if not isinstance(entry.get("value"), (int, float)):
            return f"{m['name']}: value is not a number"
    return ""


# ---------------------------------------------------------------- compare

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_results(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            for name, m in r["metrics"].items():
                key = (r["workload"], name)
                runs.setdefault(key, {"unit": m["unit"], "values": []})
                runs[key]["values"].append(m["value"])
    return runs


def compare(parent_path, change_path):
    """Prints each metric's median, quartiles and delta per workload, and
    flags end-to-end metrics that got worse by more than their bound."""
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load_results(parent_path), load_results(change_path)

    def summary(run):
        q1, med, q3 = quartiles(run["values"])
        return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(run['values'])}"

    flagged = 0
    print(f"{'workload':14} {'metric':32} {'unit':6} "
          f"{'parent median [q1, q3]':38} {'change median [q1, q3]':38} delta")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        p = quartiles(parent[key]["values"])[1]
        c = quartiles(change[key]["values"])[1]
        delta = f"{(c - p) / p:+.1%}" if p else "n/a"
        if name in bounds and p:
            worse = (c - p) / p
            if bounds[name]["better"] == "higher":
                worse = -worse
            if worse > bounds[name]["bound"]:
                delta += f"  WORSE than bound {bounds[name]['bound']:.0%}"
                flagged += 1
        print(f"{workload:14} {name:32} {parent[key]['unit']:6} "
              f"{summary(parent[key]):38} {summary(change[key]):38} {delta}")
    for key in sorted(set(parent) ^ set(change)):
        print(f"{key[0]:14} {key[1]:32} only in one file")
    return 1 if flagged else 0


# ---------------------------------------------------------------- self-test

def check_spans(path):
    """Why the traced spans do not nest ("" if they do)."""
    spans = [json.loads(line) for line in open(path) if line.strip()]
    if not spans:
        return "no spans written"
    child_time = {}
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            return f"span {s['id']} ends before it starts"
        if s["parent"] < 0:
            continue
        p = spans[s["parent"]]
        if p["answer"] != s["answer"]:
            return f"span {s['id']} and its parent belong to different answers"
        if not (p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"]):
            return f"span {s['id']} ({s['name']}) lies outside its parent"
        child_time[p["id"]] = (child_time.get(p["id"], 0)
                               + s["end_ns"] - s["start_ns"])
    names = {s["name"] for s in spans}
    for s in spans:
        if s["end_ns"] - s["start_ns"] - child_time.get(s["id"], 0) < 0:
            return f"span {s['id']} ({s['name']}) has negative self time"
    if "miner.mine" not in names or "answer" not in names:
        return f"expected spans missing, got {sorted(names)}"
    return ""


def selftest(exe):
    spec = load_spec()
    failures = []
    spans = build_dir() / "run" / "selftest-spans.jsonl"
    for w in (w["name"] for w in spec["workloads"]):
        plain = run_workload(exe, w, 1, 0.2, False, size="tiny")
        traced = run_workload(exe, w, 1, 0.2, True, size="tiny", spans=spans)
        corrupted = run_workload(exe, w, 1, 0.2, False, size="tiny",
                                 corrupt=True)
        problems = [check_metrics(plain, spec, False),
                    check_metrics(traced, spec, True),
                    check_spans(spans)]
        if not (plain["correct"] and plain["failed"] == 0):
            problems.append("the tiny run reported failed answers")
        if corrupted["correct"] or corrupted["failed"] < 1:
            problems.append("a corrupted answer was not counted as failed")
        spans.unlink(missing_ok=True)
        problems = [p for p in problems if p]
        log(f"selftest {w}: {'ok' if not problems else '; '.join(problems)}")
        failures += problems
    return 1 if failures else 0


# ---------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append the result, tagged, to this file")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    if a.compare:
        return compare(*a.compare)
    spec = load_spec()
    exe = build()
    if a.selftest:
        return selftest(exe)
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {a.workload!r}")
        return 2
    spans = None
    if a.trace:
        spans = build_dir() / "run" / f"spans-{a.workload}-{a.seed}.jsonl"
    result = run_workload(exe, a.workload, a.seed, a.seconds, a.trace == 1,
                          spans=spans)
    why = check_metrics(result, spec, a.trace == 1)
    if why:
        log(why)
        return 1
    if a.out:
        with open(a.out, "a") as f:
            f.write(json.dumps({"workload": a.workload, "seed": a.seed,
                                "trace": a.trace, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
