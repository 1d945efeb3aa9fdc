#!/usr/bin/env python3
"""Paired benchmark runs of two commits, written as one BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent <rev> --change <rev> --out BENCH_<pr>.json \\
        [--claim laplace:wall_s] [--first-seed N]

Each side is extracted with `git archive` into a fresh directory, so only
committed files are measured, and `perfbench/run.py` runs from there for
BENCHMARK.json's `run_seconds`.  For every workload and seed the two sides
run back to back, the parent first on odd seeds and the change first on
even ones, so a drift in the load of the machine falls on both sides
alike.  Each workload gets PAIRS[workload] pairs, and the claimed one at
least CLAIM_PAIRS, the pairs a gain is judged on; they run on seeds N,
N+1, ... from --first-seed N (default FIRST_SEED, the seeds of the
earlier BENCH files).  One traced run per side at seed N follows on each
workload in TRACED.  A change measured while it was written can have its
claim run on seeds it was not tuned on.

The summary gives, per workload and end-to-end metric of BENCHMARK.json,
each side's quartiles, the change/parent ratio of medians and the number
of pairs the change won or tied.  The file is rewritten after every run,
so an interrupted run keeps what it measured.  SIGTERM exits through
SystemExit, so the checkouts' temporary directory is removed then too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAIRS = {"laplace": 10, "direct": 5, "scalar": 5, "catalog-jobs2": 5}
CLAIM_PAIRS = 10
TRACED = ("laplace", "scalar")
FIRST_SEED = 21


def _quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def summarize(runs, spec):
    """Per workload: the paired seeds, failures, correctness, and for each
    end-to-end metric both sides' quartiles, the ratio of medians and the
    pairs the change won (by the metric's `better`) or tied."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        side = {"parent": {}, "change": {}}
        for r in runs:
            if r["workload"] == workload:
                side[r["side"]][r["seed"]] = r["result"]
        seeds = sorted(set(side["parent"]) & set(side["change"]))
        metrics = {}
        for name, sense in better.items() if seeds else ():
            pv = [side["parent"][s]["metrics"][name]["value"] for s in seeds]
            cv = [side["change"][s]["metrics"][name]["value"] for s in seeds]
            p, c = _quartiles(pv), _quartiles(cv)
            metrics[name] = {
                "parent": p,
                "change": c,
                "ratio_of_medians": c["median"] / p["median"] if p["median"] else None,
                "change_wins": sum((b < a) if sense == "lower" else (b > a)
                                   for a, b in zip(pv, cv)),
                "ties": sum(a == b for a, b in zip(pv, cv)),
            }
        out[workload] = {
            "pairs": len(seeds),
            "seeds": seeds,
            "failed": {k: sum(side[k][s]["failed"] for s in seeds) for k in side},
            "all_correct": all(side[k][s]["correct"] for k in side for s in seeds),
            "metrics": metrics,
        }
    return out


def _checkout(rev, dest):
    """The committed files of `rev` under `dest`."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def _run(tree, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _machine():
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info = {"cpus": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}
    for mod in ("numpy", "scipy", "mpmath"):
        try:
            info[mod] = __import__(mod).__version__
        except ImportError:
            info[mod] = None
    info["note"] = "shared host; other tenants' load is not controlled"
    return info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision or tree of the change")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", help="workload:metric the change claims a gain on")
    parser.add_argument("--first-seed", type=int, default=FIRST_SEED,
                        help=f"seed of the first pair and the traced runs (default {FIRST_SEED})")
    args = parser.parse_args(argv)
    if args.first_seed < 0:
        parser.error(f"--first-seed must be a nonnegative integer; got {args.first_seed}")
    first = args.first_seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    claimed = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        workloads = [w["name"] for w in spec["workloads"]]
        metrics = [m["name"] for m in spec["end_to_end"]]
        if workload not in workloads or metric not in metrics:
            parser.error(f"--claim must be <workload>:<metric> with a workload of "
                         f"{', '.join(workloads)} and an end-to-end metric of "
                         f"{', '.join(metrics)}; got {args.claim!r}")
        claimed = {"workload": workload, "metric": metric}
    doc = {
        "what": ("perfbench/run.py end-to-end runs (--trace 0) of the parent and the change, "
                 "each side run from a clean git archive of its committed files, alternating "
                 "which side runs first (odd seeds parent first); plus one traced run "
                 f"(--trace 1) per side on {' and '.join(TRACED)}"),
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds} --trace 0",
        "machine": _machine(),
        "parent": args.parent,
        "change": args.change,
        "claimed": claimed,
        "first_seed": first,
        "summary": {},
        "runs": [],
        "traced_runs": [],
    }

    def record(key, workload, seed, name, result):
        doc[key].append({"workload": workload, "seed": seed, "side": name, "result": result})
        doc["summary"] = summarize(doc["runs"], spec)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        wall = result["metrics"].get("wall_s")
        print(f"{key} {workload} seed {seed} {name}" + (f": wall_s {wall['value']:.3f}" if wall else ""),
              flush=True)

    old_handler = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
            trees = {}
            for name in ("parent", "change"):
                trees[name] = Path(tmp) / name
                _checkout(getattr(args, name), trees[name])
            for workload, pairs in PAIRS.items():
                if claimed and claimed["workload"] == workload:
                    pairs = max(pairs, CLAIM_PAIRS)
                for seed in range(first, first + pairs):
                    order = ("parent", "change") if seed % 2 else ("change", "parent")
                    for name in order:
                        result = _run(trees[name], workload, seed, seconds, 0)
                        record("runs", workload, seed, name, result)
            for workload in TRACED:
                for name in ("parent", "change"):
                    result = _run(trees[name], workload, first, seconds, 1)
                    record("traced_runs", workload, first, name, result)
    finally:
        signal.signal(signal.SIGTERM, old_handler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
