"""lapcyl benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload laplace --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's `src/`.  `--trace 0` measures the end-to-end metrics of
BENCHMARK.json with tracing off; `--trace 1` gives its per-layer metrics
from a traced pass, a plain pass for comparison, and fixed-input probes.
Human-readable lines come first; the last line of stdout is the JSON
result.  README.md in this directory says what each workload and metric
is for.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("laplace", "direct", "scalar", "catalog-jobs2")


def use_checkout_source():
    """Put the checkout's src/ first on sys.path; False when it is absent."""
    if not (ROOT / "src" / "lapcyl" / "__init__.py").is_file():
        return False
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return True


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(args, spec, run):
    """Print the summary lines and, last, the JSON result."""
    tally = run.tally
    run.values["accuracy_digits"] = tally.digits()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": run.values[m["name"]], "unit": m["unit"]}
               for m in declared}

    print(f"lapcyl benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in run.lines:
        print("  " + line)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']!r:>24} {m['unit']}")
    frac = tally.failed / tally.attempted if tally.attempted else math.nan
    print(f"  {'fail_frac':48s} {frac!r:>24} ({tally.failed} of {tally.attempted} operations)")
    if tally.rel_errors:
        print(f"  {'worst_rel_error':48s} {max(tally.rel_errors)!r:>24} "
              f"(over {len(tally.rel_errors)} positive points or calls)")
    if math.isfinite(tally.control_gap):
        print(f"  {'control_gap_dec':48s} {tally.control_gap!r:>24} dec")
    for note in tally.notes:
        print("  " + note)
    correct = tally.wrong == 0 and run.consistent
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    if not use_checkout_source():
        print(f"error: no lapcyl source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import runner

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = runner.run_workload(ROOT, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, spec, run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
