"""The four benchmark workloads and their correctness accounting.

Every workload is a closed loop driven by one process: the next call is
issued when the previous one returns.  Only `catalog-jobs2` runs more than
one process, the CLI's own two-worker pool.

An *operation* is one grid point (catalog workloads) or one special-function
call (`scalar`).  It fails when it raises, returns a non-finite value, is a
positive-case point that does not pass, belongs to a negative control whose
case verdict is `pass`, or is a scalar call that disagrees with mpmath by
more than REL_BOUND.  Failures that are wrong answers (everything except a
raised exception) also make the run incorrect.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns, sleep, thread_time

import numpy as np

import lapcyl.catalog as catalog
import lapcyl.special as special

# ------------------------------------------------------------ host speed

# The reference box is shared and its throughput drifts by about 10% over
# minutes, which no amount of averaging inside one run removes.  Every run
# therefore interleaves a fixed slice of the program's kind of work (a
# 15-wide numpy series loop) with its operations and scales the times it
# reports to a host on which one slice takes REF_SLICE_S.  Over 2.5 minutes
# of `direct` passes this cut the pass-to-pass spread from 9.4% to 1.6%.
REF_SLICE_S = 1e-3
_REF_Z = np.linspace(0.05, 0.95, 15).astype(complex)


class HostSpeed:
    """CPU time of reference slices, one per `interval` seconds of measured
    work, so the mean weighs the host speed over the timed stretch.  CPU
    time, not wall time, so a slice taken while pool workers hold both
    cores does not count its wait for a core."""

    def __init__(self, interval=0.02):
        self.interval = interval
        self.times = []
        self._owed = 0.0

    def sample(self):
        t0 = thread_time()
        term = np.ones_like(_REF_Z)
        total = np.ones_like(_REF_Z)
        for k in range(60):
            term = term * ((0.3 + k) * (0.7 + k) / ((1.6 + k) * (k + 1.0))) * _REF_Z
            total = total + term
            np.all(np.abs(term) <= 1e-16 * np.abs(total))
        self.times.append(thread_time() - t0)

    def track(self, seconds):
        """Take the samples owed for `seconds` of measured work."""
        self._owed += seconds
        while self._owed >= self.interval:
            self._owed -= self.interval
            self.sample()

    def scale(self):
        """Factor from this run's seconds to reference-host seconds."""
        if not self.times:
            self.sample()
        return REF_SLICE_S / statistics.fmean(self.times)

    def local_scales(self, marks, width=10):
        """One factor per operation, from the `width` slices nearest to the
        slice count `mark` recorded when the operation ended.  The host's
        speed swings within seconds, faster than a pass lasts."""
        if not self.times:
            self.sample()
        out = []
        for mark in marks:
            lo = max(0, min(mark - width // 2, len(self.times) - width))
            out.append(REF_SLICE_S / statistics.fmean(self.times[lo:lo + width]))
        return out


# ------------------------------------------------------------ catalog inputs

# Every case integrated by quadrature, in catalog order.  Fixed here so the
# per-case metric names stay the same when the catalog changes.
QUAD_CASES = (
    "ILT-PCF-BLOCK", "ILT-PCF-BLOCK2", "ILT-KUM-BLOCK", "ILT-KUM-BLOCK-32",
    "ILT-KUM-BLOCK-12", "T31-DIFF-HALF", "T31-KUMMER", "T32-DIFF",
    "C321-ERF-MIX", "C321-REP", "T33-SUM-HALF", "T33-KUMMER", "T34-NEG-HALF",
    "C341-SINGLE", "T35-POS-HALF", "T36-POS", "C361-ERFC2", "C361-REP",
    "C361-ERFC-SINGLE", "C361-ONE-MINUS", "C361-NG69", "T41-CORRECTED",
    "NEG-T41", "T42-CORRECTED", "NEG-T42", "S51-INT", "S52-INT",
)

# The Laplace pairs run a fixed sixth of each case's (orders, x, y) groups
# with every p of a kept group, so several passes fit the run length while the
# case mix and the points that share an integrand across p stay as in the
# default grids.  The choice never depends on --seed.
SAMPLE_SEED = 0
SAMPLE_DIVISOR = 6


def case_ids(kind):
    return [cid for cid, k, _, _ in catalog.list_cases() if k == kind]


def laplace_sample(case):
    keys = list(dict.fromkeys((pt.orders, pt.x, pt.y) for pt in case.default_grid))
    rng = np.random.default_rng(SAMPLE_SEED)
    keep = {keys[i] for i in rng.permutation(len(keys))[: -(-len(keys) // SAMPLE_DIVISOR)]}
    return tuple(pt for pt in case.default_grid if (pt.orders, pt.x, pt.y) in keep)


def catalog_grids(kinds):
    """Points of every case of the given kinds: the Laplace sample for
    laplace_pair cases, the default grid for the others."""
    grids = {}
    for kind in kinds:
        for cid in case_ids(kind):
            case = catalog.get_case(cid)
            grids[cid] = laplace_sample(case) if kind == "laplace_pair" else case.default_grid
    return grids


def permuted(ids, seed):
    order = np.random.default_rng(seed).permutation(len(ids))
    return [ids[i] for i in order]


# ------------------------------------------------------------ accounting

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    rel_errors: list = field(default_factory=list)  # positive points / scalar calls
    control_gap: float = math.inf   # min log10(max_rel / tol) over controls
    notes: list = field(default_factory=list)

    def fail(self, n, reason, wrong):
        self.failed += n
        if wrong:
            self.wrong += n
        if len(self.notes) < 20:
            self.notes.append(f"{n} failed: {reason}")

    def digits(self, q=99):
        """Correct digits at the q-th percentile relative error.  The worst
        single error of random draws swings by decades between seeds, so
        the 99th percentile is the steady figure; an error below half an
        ulp of 1 reads as full precision."""
        if not self.rel_errors:
            return math.nan
        return -math.log10(max(percentile(self.rel_errors, q), 2.0 ** -53))


def _finite(z):
    return cmath.isfinite(complex(z))


def score_pass(tally, results, grids):
    """Account one catalog pass, case by case.  `results` holds (case id,
    report or the exception verify raised, seconds) per verify call."""
    by_case = {}
    for cid, rep, _ in results:
        by_case.setdefault(cid, []).append(rep)
    for cid, reps in by_case.items():
        _score_case(tally, cid, len(grids[cid]), reps)


def _score_case(tally, cid, expected, reps):
    tally.attempted += expected
    errors = [r for r in reps if isinstance(r, Exception)]
    reports = [r for r in reps if not isinstance(r, Exception)]
    records = [rec for rep in reports for rec in rep.records]
    missing = expected - len(records)
    if missing:
        # points of a call that raised are failed, not wrong
        why = f"{type(errors[0]).__name__}: {errors[0]}" if errors else "no record"
        tally.fail(missing, f"{cid}: {missing} of {expected} points ({why})",
                   wrong=not errors)
    control = catalog.get_case(cid).negative_control
    if control and records:
        if all(rep.verdict == "pass" for rep in reports):
            tally.fail(len(records), f"negative control {cid} passed", wrong=True)
        else:
            worst = max(rep.max_rel_error for rep in reports)
            tally.control_gap = min(tally.control_gap,
                                    math.log10(max(worst, 1e-300) / reports[0].tol))
    bad = 0
    for rep in reports:
        for rec in rep.records:
            if not (_finite(rec.lhs) and _finite(rec.rhs) and math.isfinite(rec.rel_error)):
                bad += 1
            elif not control:
                tally.rel_errors.append(rec.rel_error)
                if not (rec.rel_error <= rep.tol and rec.converged):
                    bad += 1
    if bad:
        tally.fail(bad, f"{cid}: {bad} points non-finite or not passing", wrong=True)


def record_bits(rep):
    """Bit patterns of every lhs/rhs of a report, for traced-vs-plain checks."""
    if isinstance(rep, Exception):
        return repr(rep)
    return tuple((z.real.hex(), z.imag.hex()) for rec in rep.records
                 for z in (complex(rec.lhs), complex(rec.rhs)))


def verify_calls(grids, seed):
    """One verify call per (orders, x, y) group of each case, with every p
    of the group, in an order drawn from the seed.  Calls of different
    cases interleave, so each case's time is spread over the whole pass
    instead of sitting in one stretch of a shared, noisy host."""
    calls = []
    for cid, pts in grids.items():
        groups = {}
        for pt in pts:
            groups.setdefault((pt.orders, pt.x, pt.y), []).append(pt)
        calls.extend((cid, tuple(g)) for g in groups.values())
    return permuted(calls, seed)


def catalog_pass(calls, host):
    """Run the verify calls once, tracking host speed between calls.
    Returns the summed host-normalized call time, (case id, report or
    exception, host-normalized seconds) per call, and the raw sum."""
    out = []
    marks = []
    for cid, grid in calls:
        t0 = perf_counter()
        try:
            rep = catalog.verify(cid, grid=grid)
        except Exception as exc:  # a bad case is counted, never ends the run
            rep = exc
        out.append((cid, rep, perf_counter() - t0))
        host.track(out[-1][2])
        marks.append(len(host.times))
    raw = sum(r[2] for r in out)
    out = [(cid, rep, secs * sc) for (cid, rep, secs), sc in zip(out, host.local_scales(marks))]
    return sum(r[2] for r in out), out, raw


def point_times_us(passes, grids):
    """Per-point latency from the results of each pass: each point gets
    its case's median time per pass divided by the case's points."""
    per_case = {}
    for results in passes:
        total = {}
        for cid, _, secs in results:
            total[cid] = total.get(cid, 0.0) + secs
        for cid, secs in total.items():
            per_case.setdefault(cid, []).append(secs)
    times = []
    for cid, secs in per_case.items():
        n = len(grids[cid])
        times.extend([statistics.median(secs) * 1e6 / n] * n)
    return times


# ------------------------------------------------------------ scalar inputs

# Largest relative disagreement with mpmath that a scalar call may show.
REL_BOUND = 1e-10

# The draws keep clear of four known defects, so that no call of any seed
# fails (a benchmark times working calls; the defects are ROADMAP item 4):
# - gauss_2f1 loses digits when c-a-b (connection region) or b-a (after the
#   Pfaff step) is near but not exactly an integer: 5e-11 at a distance of
#   1.6e-3, 2e-8 at 3e-5.  Draws keep INT_GAP from every integer.  Its
#   logarithmic branch (c-a-b an integer) also loses digits when c nears a
#   nonpositive integer, a pole: 9e-11 at a distance of 1.7e-4.  Draws keep
#   c there INT_GAP from every integer.
# - pcf_d on the series route loses digits when nu >= 2 is near but not
#   exactly an integer: 3e-11 at a distance of 1e-6, 6e-8 at 1e-9.  Draws
#   keep INT_GAP between nu and every integer.
# - pcf_d on the integral route (real z >= 3) raises NonConvergence once
#   the order whose t**-nu integral it takes is within ~0.007 below 1,
#   i.e. frac(nu) above ~0.993 for nu >= 0.  Draws keep frac(nu) below
#   1 - PCF_EDGE there.
INT_GAP = 0.02
PCF_EDGE = 0.02

# Functions whose calls must be well-conditioned in their last argument
# (see scalar_reference), the largest condition number kept, and the
# relative step that estimates it.
CONDITIONED = frozenset({"pcf_d", "gauss_2f1_cm", "gauss_2f1", "kummer_phi", "hyp_2f2"})
KAPPA_MAX = 1e3
KAPPA_STEP = 1e-8


def _off_int(v):
    return abs(v - round(v)) >= INT_GAP


def _pcf_ok(nu, z):
    return nu < 0.0 or nu % 1.0 < 1.0 - PCF_EDGE


def _kept(draw, ok):
    """draw(rng, n) redrawn until n tuples satisfy ok(*tuple)."""
    def kept(rng, n):
        out = []
        while len(out) < n:
            out.extend(t for t in draw(rng, n) if ok(*t))
        return out[:n]
    return kept


def _u(rng, lo, hi, n):
    """n uniform draws on [lo, hi), one in each of n equal slices, in seeded
    order (Latin hypercube across the variables of a category).  Every seed
    then covers each domain evenly, which keeps the latency tail, made of
    the 100 integral-route pcf_d calls, steady from seed to seed."""
    return (lo + (hi - lo) * (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n).tolist()


def _f21_log(rng, n):
    a, b, w = _u(rng, -3, 3, n), _u(rng, -3, 3, n), _u(rng, 1e-6, 0.5, n)
    m = rng.integers(-2, 3, n).tolist()
    return list(zip(a, b, [ai + bi + mi for ai, bi, mi in zip(a, b, m)], w))


def _f21_at_one(rng, n):
    a, b = _u(rng, -2, 2, n), _u(rng, -2, 2, n)
    gap = _u(rng, 0.2, 3, n)
    return [(ai, bi, ai + bi + g, 0.0) for ai, bi, g in zip(a, b, gap)]


def _f21_w(lo, hi):
    def draw(rng, n):
        return list(zip(_u(rng, -3, 3, n), _u(rng, -3, 3, n), _u(rng, 0.2, 4, n),
                        _u(rng, lo, hi, n)))
    return draw


def _f21_generic(a, b, c, _):
    return _off_int(c - a - b) and _off_int(b - a)


def _appell(rng, n):
    a = _u(rng, 0.1, 2, n)
    c = [ai + g for ai, g in zip(a, _u(rng, 0.2, 3, n))]
    return list(zip(a, _u(rng, -2, 2, n), _u(rng, -2, 2, n), c,
                    _u(rng, -3, 0.9, n), _u(rng, -3, 0.9, n)))


def _complex(rng, n):
    return [(complex(x, y),) for x, y in zip(_u(rng, -10, 10, n), _u(rng, -10, 10, n))]


# (label, lapcyl.special function, calls per pass, draw(rng, n) -> arg tuples).
# Every domain lies inside the function's supported range: pcf_d |z| <= 40,
# real gauss_2f1 z <= 1, appell_f1 Re c > Re a > 0 with arguments below 1.
SCALAR_MIX = (
    ("pcf_d.series", "pcf_d", 400,
     _kept(lambda r, n: list(zip(_u(r, -3, 3, n), _u(r, -40, 3, n))),
           lambda nu, z: _off_int(nu))),
    # real z >= 3 takes the integral route, with the upward recurrence on
    # top of it for nu >= 1; fixed counts per route keep the latency tail
    # made of the same kinds of call on every seed
    ("pcf_d.integral", "pcf_d", 50,
     _kept(lambda r, n: list(zip(_u(r, -3, 1, n), _u(r, 3, 40, n))), _pcf_ok)),
    ("pcf_d.recurrence", "pcf_d", 50,
     _kept(lambda r, n: list(zip(_u(r, 1, 3, n), _u(r, 3, 40, n))), _pcf_ok)),
    ("gauss_2f1_cm.w0", "gauss_2f1_cm", 100, _f21_at_one),
    ("gauss_2f1_cm.connect", "gauss_2f1_cm", 200, _kept(_f21_w(1e-6, 0.5), _f21_generic)),
    ("gauss_2f1_cm.log", "gauss_2f1_cm", 200,
     _kept(_f21_log, lambda a, b, c, w: c > 0.5 or _off_int(c))),
    ("gauss_2f1_cm.series", "gauss_2f1_cm", 200, _f21_w(0.5, 1.5)),
    ("gauss_2f1_cm.pfaff", "gauss_2f1_cm", 200, _kept(_f21_w(1.5, 30), _f21_generic)),
    ("gauss_2f1", "gauss_2f1", 200, _kept(_f21_w(-20, 1), _f21_generic)),
    ("kummer_phi", "kummer_phi", 300,
     lambda r, n: list(zip(_u(r, -5, 5, n), _u(r, 0.2, 5, n), _u(r, 0, 40, n)))),
    ("hyp_2f2", "hyp_2f2", 300,
     lambda r, n: list(zip(_u(r, -3, 3, n), _u(r, -3, 3, n), _u(r, 0.2, 4, n),
                           _u(r, 0.2, 4, n), _u(r, 0, 60, n)))),
    ("appell_f1", "appell_f1", 20, _appell),
    ("gamma.real", "gamma", 150, lambda r, n: [(x,) for x in _u(r, -10, 10, n)]),
    ("gamma.complex", "gamma", 150, _complex),
    ("reciprocal_gamma", "reciprocal_gamma", 150,
     lambda r, n: [(x,) for x in _u(r, -10, 10, n)]),
    ("erf", "erf", 100, lambda r, n: [(x,) for x in _u(r, -6, 6, n)]),
    ("erfc", "erfc", 100, lambda r, n: [(x,) for x in _u(r, -6, 26, n)]),
)


def scalar_inputs(seed, scale=1.0):
    """Seeded calls as (label, function name, args), interleaved in a
    seeded order.  `scale` shrinks every category (tests only)."""
    rng = np.random.default_rng(seed)
    calls = []
    for label, fn, count, draw in SCALAR_MIX:
        n = max(1, round(count * scale))
        calls.extend((label, fn, tuple(args)) for args in draw(rng, n))
    return [calls[i] for i in rng.permutation(len(calls))]


def _appellf1_ref(*args):
    """mpmath's F1, with a longer series for an argument near -1, where its
    default term limit runs out (a few draws in a hundred seeds)."""
    import mpmath as mp

    try:
        return mp.appellf1(*args)
    except mp.libmp.NoConvergence:
        return mp.appellf1(*args, maxterms=10**6)


def scalar_reference(calls):
    """The well-conditioned calls and their mpmath values at 30 digits,
    computed outside timing.

    A call of a function in CONDITIONED is dropped when its relative
    condition number in the last argument, |x f'(x) / f(x)|, exceeds
    KAPPA_MAX.  Such a call sits near a zero of the function, where even a
    backward-stable float64 evaluation is off by about KAPPA_MAX * 1e-16
    relative, so it cannot be held to REL_BOUND.  Fewer than one call in
    a thousand is dropped."""
    import mpmath as mp

    refs = {
        "pcf_d": mp.pcfd,
        "gauss_2f1_cm": lambda a, b, c, w: mp.hyp2f1(a, b, c, 1 - mp.mpf(w)),
        "gauss_2f1": mp.hyp2f1,
        "kummer_phi": mp.hyp1f1,
        "hyp_2f2": mp.hyp2f2,
        "appell_f1": _appellf1_ref,
        "gamma": mp.gamma,
        "reciprocal_gamma": mp.rgamma,
        "erf": mp.erf,
        "erfc": mp.erfc,
    }
    kept, values = [], []
    with mp.workdps(30):
        for call in calls:
            _, fn, args = call
            ref = refs[fn](*args)
            if fn in CONDITIONED and args[-1] != 0:
                # one-sided difference towards 0 stays inside every domain
                *head, x = args
                x = mp.mpf(x)
                shifted = refs[fn](*head, x * (1 - KAPPA_STEP))
                if ref == 0 or abs((ref - shifted) / (KAPPA_STEP * ref)) > KAPPA_MAX:
                    continue
            kept.append(call)
            values.append(complex(ref))
    return kept, values


def scalar_pass(calls, host):
    """Call each function once, tracking host speed between calls.
    Returns (values, host-normalized µs per call, raw seconds); a raised
    exception stands in for its value."""
    fns = {fn: getattr(special, fn) for fn in {c[1] for c in calls}}
    values = []
    times = []
    marks = []
    for _, fn, args in calls:
        f = fns[fn]
        t0 = perf_counter_ns()
        try:
            v = f(*args)
        except Exception as exc:  # counted as a failed call
            v = exc
        elapsed = perf_counter_ns() - t0
        times.append(elapsed * 1e-3)
        values.append(v)
        host.track(elapsed * 1e-9)
        marks.append(len(host.times))
    raw = sum(times) * 1e-6
    return values, [t * sc for t, sc in zip(times, host.local_scales(marks))], raw


def score_scalar(tally, calls, values, refs):
    tally.attempted += len(calls)
    for (label, _, args), v, ref in zip(calls, values, refs):
        if isinstance(v, Exception):
            tally.fail(1, f"{label}{args} raised {type(v).__name__}: {v}", wrong=False)
            continue
        if not _finite(v):
            tally.fail(1, f"{label}{args} returned {v}", wrong=True)
            continue
        rel = abs(complex(v) - ref) / max(abs(ref), 1e-300)
        tally.rel_errors.append(rel)
        if not rel <= REL_BOUND:
            tally.fail(1, f"{label}{args} rel error {rel:.2e} vs mpmath", wrong=True)


def value_bits(values):
    return tuple(repr(v) if isinstance(v, Exception)
                 else (complex(v).real.hex(), complex(v).imag.hex()) for v in values)


# ------------------------------------------------------------ processes

def source_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


# Set-up time is host-normalized against the same kind of work: a fresh
# interpreter that imports numpy alone, run right after each lapcyl import.
# The numpy slice of HostSpeed tracks import time poorly (its scale moved
# by 35% across runs whose raw import times agreed within 15%).
REF_IMPORT_S = 0.2


def measure_setup(root, repeats=7):
    """Wall time of a fresh interpreter importing lapcyl, the catalog
    (which builds the registry) and the CLI, as the median over `repeats`
    of its ratio to a bare `import numpy` interpreter run next to it, times
    REF_IMPORT_S.  Returns (that, the raw median)."""
    cmd = [sys.executable, "-c", "import lapcyl, lapcyl.catalog, lapcyl.cli"]
    ref = [sys.executable, "-c", "import numpy"]
    env = source_env(root)

    def timed(argv):
        t0 = perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=60)
        return perf_counter() - t0

    timed(cmd)  # bytecode cache
    timed(ref)
    pairs = [(timed(cmd), timed(ref)) for _ in range(repeats)]
    return (statistics.median(t / r for t, r in pairs) * REF_IMPORT_S,
            statistics.median(t for t, _ in pairs))


def _children_of(pids):
    """Descendants of `pids` found by scanning /proc."""
    parent = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        parent[int(entry)] = int(stat[stat.rindex(b")") + 2:].split()[1])
    tree = set(pids)
    grew = True
    while grew:
        grew = False
        for pid, ppid in parent.items():
            if ppid in tree and pid not in tree:
                tree.add(pid)
                grew = True
    return tree


def _hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class TreePeak:
    """Samples the peak RSS (VmHWM) of a process and its descendants, and
    the host speed, every `interval` seconds; `peak_mb` sums each
    process's highest reading."""

    def __init__(self, pid, host, interval=0.1):
        self.pid = pid
        self.host = host
        self.interval = interval
        self.hwm = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while True:
            for pid in _children_of([self.pid]):
                kb = _hwm_kb(pid)
                if kb is not None:
                    self.hwm[pid] = max(self.hwm.get(pid, 0), kb)
            self.host.sample()
            if self._stop.wait(self.interval):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)

    def peak_mb(self):
        return sum(self.hwm.values()) / 1024.0


@dataclass
class CliRun:
    wall: float
    compute: float | None
    exit_code: int
    report: bytes | None
    peak_mb: float


def cli_verify(root, workdir, name, jobs, grid_path, host, timeout=170):
    """`lapcyl verify --all --jobs N --format json --out <file>` as a
    subprocess, with the grid sample passed through --grid."""
    out = workdir / f"{name}.json"
    cmd = [sys.executable, "-m", "lapcyl.cli", "verify", "--all", "--jobs", str(jobs),
           "--format", "json", "--out", str(out), "--grid", str(grid_path)]
    with open(workdir / f"{name}.stderr", "wb") as err:
        t0 = perf_counter()
        # its own session, so a hung run can be stopped with its workers
        proc = subprocess.Popen(cmd, env=source_env(root), stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        with TreePeak(proc.pid, host) as peak:
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                _kill_session(proc)
                code = proc.returncode
        wall = perf_counter() - t0
    report = out.read_bytes() if out.exists() else None
    compute = None
    sidecar = Path(str(out) + ".timing.json")
    if sidecar.exists():
        compute = json.loads(sidecar.read_text())["total_ms"] / 1e3
    return CliRun(wall, compute, code, report, peak.peak_mb())


def _kill_session(proc, grace=10.0):
    """SIGKILL every process of proc's session and wait until all are gone."""
    tree = _children_of([proc.pid])
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    deadline = perf_counter() + grace
    while perf_counter() < deadline and any(os.path.exists(f"/proc/{pid}") for pid in tree):
        sleep(0.05)


def write_grid_file(path, grids, ids):
    """Rows `id mu nu x y p` for the given cases, in the given order."""
    with open(path, "w", encoding="utf-8") as fh:
        for cid in ids:
            for pt in grids[cid]:
                fh.write(f"{cid} {pt.mu!r} {pt.nu!r} {pt.x!r} {pt.y!r} {pt.p!r}\n")


def score_cli_report(tally, run, grids):
    """Account one CLI report against the expected points of every case."""
    if run.report is None:
        # the CLI died before writing: its points failed without an answer
        expected = sum(len(pts) for pts in grids.values())
        tally.attempted += expected
        tally.fail(expected, f"CLI exit {run.exit_code} without a report", wrong=False)
        return
    rows = json.loads(run.report)
    by_case = {}
    for row in rows:
        by_case.setdefault(row["id"], []).append(row)
    for cid, pts in grids.items():
        got = by_case.get(cid, [])
        case = catalog.get_case(cid)
        tally.attempted += len(pts)
        if len(got) != len(pts):
            tally.fail(abs(len(pts) - len(got)), f"{cid}: {len(got)} rows for "
                       f"{len(pts)} points", wrong=True)
        bad = 0
        max_rel = 0.0
        for row in got:
            rel = row["rel_error"]
            vals = row["lhs"] + row["rhs"]
            if not (all(math.isfinite(v) for v in vals) and math.isfinite(rel)):
                bad += 1
                continue
            max_rel = max(max_rel, rel)
            if not case.negative_control:
                tally.rel_errors.append(rel)
                if row["verdict"] != "pass":
                    bad += 1
        if case.negative_control:
            if got and all(row["verdict"] == "pass" for row in got):
                tally.fail(len(got), f"negative control {cid} passed", wrong=True)
            else:
                tally.control_gap = min(tally.control_gap,
                                        math.log10(max(max_rel, 1e-300) / case.tol))
        if bad:
            tally.fail(bad, f"{cid}: {bad} rows non-finite or not passing", wrong=True)


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))
