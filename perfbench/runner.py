"""Workload runners: run one workload plain (end-to-end metrics) or traced
(per-layer metrics) and hand back what the run measured.

End-to-end times are scaled to the reference host speed (see
workloads.HostSpeed); the summary lines also print the raw figures.
Per-layer times are raw.
"""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import probes
import spans
import workloads as W

CLI_METRICS = ("cli.compute_s", "cli.outside_s", "cli.speedup_vs_serial", "cli.report_bytes")


@dataclass
class Run:
    """A workload's tally, metric values, notes, and whether the repeated
    outputs agreed (traced == plain, reports byte-identical)."""

    tally: W.Tally = field(default_factory=W.Tally)
    values: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)
    consistent: bool = True
    host: W.HostSpeed = field(default_factory=W.HostSpeed)


def run_passes(run, seconds, one_pass, min_passes=1):
    """Repeat one_pass(), each with fresh host samples, while the next one
    still fits in `seconds`."""
    results = []
    start = perf_counter()
    while True:
        run.host = W.HostSpeed()
        t0 = perf_counter()
        results.append(one_pass())
        last = perf_counter() - t0
        if len(results) >= min_passes and perf_counter() - start + last > seconds:
            return results


def _end_to_end(run, setup, walls, raw_walls, times, what):
    """Store the end-to-end times: the median of the passes' host-normalized
    walls and percentiles of the host-normalized per-operation `times`.
    `setup` is (normalized, raw) seconds from measure_setup."""
    run.values.update({
        "setup_s": setup[0],
        "wall_s": statistics.median(walls),
        "call_us_p50": statistics.median(times),
        "call_us_p99": W.percentile(times, 99),
    })
    run.lines.append(f"call_us over {len(times)} {what}")
    run.lines.append(f"{len(walls)} passes; raw wall_s median {statistics.median(raw_walls):.4f} "
                     f"(host factor {statistics.median(walls) / statistics.median(raw_walls):.4f}), "
                     f"raw setup_s {setup[1]:.4f}")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced_layers(run, tracer, plain_wall, traced_wall, trace_path):
    """Per-layer numbers of a traced run; the walls are host-normalized."""
    run.values.update(spans.layer_metrics(tracer, W.QUAD_CASES))
    run.values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    run.values.update(dict.fromkeys(CLI_METRICS, 0))
    run.values.update(probes.probe_metrics())
    tracer.dump(trace_path)
    run.lines.append(f"{len(tracer.spans)} spans written to {trace_path.name}")


def _plain_then_traced(run, one_pass, trace_path):
    """One plain pass, then one traced pass, each with its own host
    samples.  Returns both passes' results."""
    run.host = W.HostSpeed()
    plain = one_pass()
    run.host = W.HostSpeed()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        traced = one_pass()
    _traced_layers(run, tracer, plain[0], traced[0], trace_path)
    return plain, traced


def catalog_workload(kinds, root, args, trace_path):
    grids = W.catalog_grids(kinds)
    calls = W.verify_calls(grids, args.seed)
    run = Run()

    def one_pass():
        wall, results, raw = W.catalog_pass(calls, run.host)
        W.score_pass(run.tally, results, grids)
        return wall, results, raw

    if not args.trace:
        setup = W.measure_setup(root)
        passes = run_passes(run, args.seconds, one_pass)
        _end_to_end(run, setup, [p[0] for p in passes], [p[2] for p in passes],
                    W.point_times_us([p[1] for p in passes], grids),
                    "points (median case time per pass / case points)")
        run.values["peak_rss_mb"] = _peak_rss_mb()
        run.lines.append(f"{len(passes)} passes of {sum(map(len, grids.values()))} points "
                         f"in {len(calls)} verify calls")
        return run

    plain, traced = _plain_then_traced(run, one_pass, trace_path)
    run.consistent = all(W.record_bits(a[1]) == W.record_bits(b[1])
                         for a, b in zip(plain[1], traced[1]))
    return run


def scalar_workload(root, args, trace_path):
    calls, refs = W.scalar_reference(W.scalar_inputs(args.seed))
    grids = W.catalog_grids(("reduction",))
    verify_calls = W.verify_calls(grids, args.seed)
    run = Run()

    def one_pass():
        red_wall, results, red_raw = W.catalog_pass(verify_calls, run.host)
        values, times, raw = W.scalar_pass(calls, run.host)
        W.score_pass(run.tally, results, grids)
        W.score_scalar(run.tally, calls, values, refs)
        return red_wall + sum(times) * 1e-6, results, values, times, red_raw + raw

    if not args.trace:
        setup = W.measure_setup(root)
        passes = run_passes(run, args.seconds, one_pass)
        # each call's latency is its median over the passes
        times = [statistics.median(p[3][i] for p in passes) for i in range(len(calls))]
        _end_to_end(run, setup, [p[0] for p in passes], [p[4] for p in passes],
                    times, "scalar calls (median time over the passes)")
        run.values["peak_rss_mb"] = _peak_rss_mb()
        run.lines.append(f"{len(passes)} passes of {len(calls)} calls "
                         f"and {sum(map(len, grids.values()))} reduction points")
        return run

    plain, traced = _plain_then_traced(run, one_pass, trace_path)
    run.consistent = (W.value_bits(plain[2]) == W.value_bits(traced[2])
                      and all(W.record_bits(a[1]) == W.record_bits(b[1])
                              for a, b in zip(plain[1], traced[1])))
    return run


def jobs2_workload(root, args, work):
    grids = W.catalog_grids(("laplace_pair", "reduction"))
    grid_path = work / "grid.txt"
    W.write_grid_file(grid_path, grids, W.permuted(list(grids), args.seed))
    points = sum(map(len, grids.values()))
    run = Run()
    names = (f"report{i}" for i in range(1000))

    def one_run(jobs=2):
        res = W.cli_verify(root, work, next(names), jobs, grid_path, run.host)
        W.score_cli_report(run.tally, res, grids)
        return res

    if not args.trace:
        setup = W.measure_setup(root)
        # the host samples of a CLI run scale it as a whole
        scaled = run_passes(run, args.seconds, lambda: (one_run(), run.host.scale()),
                            min_passes=2)
        runs = [r for r, _ in scaled]
        # the pool reports no per-point time: each point gets the median
        # compute time over the points, so p50 equals p99 here
        compute = statistics.median((r.compute or r.wall) * sc for r, sc in scaled)
        _end_to_end(run, setup, [r.wall * sc for r, sc in scaled], [r.wall for r in runs],
                    [compute * 1e6 / points] * points,
                    "points (median run compute time / points)")
        run.values["peak_rss_mb"] = max(r.peak_mb for r in runs)
        all_runs = runs
    else:
        runs = [one_run(), one_run()]
        serial = one_run(jobs=1)
        compute = statistics.median(r.compute or math.nan for r in runs)
        # spans are not collected inside pool workers: the in-process
        # layers read 0 and the cli numbers come from the sidecar and wall
        run.values.update(spans.layer_metrics(spans.Tracer(), W.QUAD_CASES))
        run.values.update({
            "cli.compute_s": compute,
            "cli.outside_s": statistics.median(r.wall - (r.compute or math.nan) for r in runs),
            "cli.speedup_vs_serial": (serial.compute or math.nan) / compute,
            "cli.report_bytes": len(runs[0].report or b""),
            "trace.overhead_frac": 0.0,
        })
        run.values.update(probes.probe_metrics())
        run.lines.append(f"--jobs 1 run: compute {serial.compute} s")
        all_runs = runs + [serial]
    reports = {r.report for r in all_runs}
    run.consistent = len(reports) == 1 and all(r.exit_code == 0 for r in all_runs)
    run.lines.append(f"{len(all_runs)} CLI runs of {points} points, reports "
                     f"{'byte-identical' if len(reports) == 1 else 'DIFFER'}, "
                     f"exit codes {[r.exit_code for r in all_runs]}")
    return run


def run_workload(root, args, work):
    trace_path = work.parent / f"trace-{args.workload}-seed{args.seed}.json"
    if args.workload == "laplace":
        return catalog_workload(("laplace_pair",), root, args, trace_path)
    if args.workload == "direct":
        return catalog_workload(("direct_integral",), root, args, trace_path)
    if args.workload == "scalar":
        return scalar_workload(root, args, trace_path)
    return jobs2_workload(root, args, work)
