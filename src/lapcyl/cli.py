"""Command line front end: list the catalog, verify cases, evaluate
special functions at a point.

Exit codes: 0 when every selected positive case passes and every
selected control fails as designed, 1 when verification disagrees with
that expectation, 2 for configuration errors (unknown ids, bad flags,
malformed grid files, an --out path that cannot be written, `eval`
arguments outside a function's domain or range) and for grid points a
case cannot evaluate.  Every point's validity predicate is checked, and
the --out files are opened, before any task runs; a closed form that
a special function cannot evaluate, an original that cannot be built
or an integral that raises stops the run when its case runs, with the
error `verify` raises: every point's closed forms come before any
integral.  Reports are deterministic byte for byte across runs and
across --jobs: a task is one whole case, one `verify` call in one
process, and reports keep registry order.  Wall-clock timings go to a
sidecar file, never into the report.  The sidecar holds the total wall
time and, under any --jobs, each case's compute time: the seconds its
`verify` call took.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import fnmatch
import io
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from ._exceptions import InvalidParams, LapcylError
from .catalog import check_points, get_case, list_cases, point_passes, verify
from .catalog.model import KINDS, ParamPoint
from .special import (
    appell_f1,
    erf,
    erfc,
    gamma,
    gauss_2f1,
    hyp_2f2,
    kummer_phi,
    pcf_d,
    reciprocal_gamma,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


def _select_cases(args):
    """Resolve --case patterns against the registry, keeping registry order."""
    ids = [row[0] for row in list_cases()]
    if args.all:
        return ids
    for pat in args.case:
        if not any(fnmatch.fnmatchcase(cid, pat) for cid in ids):
            raise ConfigError(f"no case matches {pat!r}")
    return [cid for cid in ids if any(fnmatch.fnmatchcase(cid, pat) for pat in args.case)]


def _load_grid(path):
    """Parse a grid override file: whitespace rows `id mu nu x y p`.

    Blank lines and # comments are skipped.  All rows for an id replace
    that case's default grid; cases not mentioned keep their defaults.
    """
    table: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read grid file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 6:
            raise ConfigError(
                f"{path}:{lineno}: expected `id mu nu x y p`, got {len(tokens)} fields")
        cid = tokens[0]
        try:
            get_case(cid)
        except InvalidParams as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        try:
            mu, nu, x, y, p = (float(tok) for tok in tokens[1:])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: non-numeric parameter") from None
        if not all(map(math.isfinite, (mu, nu, x, y, p))):
            raise ConfigError(f"{path}:{lineno}: non-finite parameter")
        table.setdefault(cid, []).append(
            ParamPoint(orders=(mu, nu), x=x, y=y, p=p))
    return {cid: tuple(pts) for cid, pts in table.items()}


def _eval_task(task):
    """One case's report and the seconds its `verify` call took.
    Module-level, and given the case id rather than the case, because
    pool workers resolve cases from their own registry; integrand
    closures do not pickle."""
    cid, pts, tol = task
    start = time.perf_counter()
    report = verify(cid, grid=pts, tol=tol)
    return report, time.perf_counter() - start


def _checked_points(args):
    """The selected cases' points, each one through its case's gate."""
    case_ids = _select_cases(args)
    grids = _load_grid(args.grid) if args.grid else {}
    points = {cid: grids.get(cid, get_case(cid).default_grid) for cid in case_ids}
    for cid, pts in points.items():
        check_points(cid, pts)
    return points


def _run_verify(args, points):
    """Returns (reports in registry order, compute seconds per case id,
    total wall seconds)."""
    start = time.perf_counter()
    tasks = [(cid, pts, args.tol) for cid, pts in points.items()]
    if args.jobs > 1:
        # fork starts every worker at the first submit: no more than tasks
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            results = list(pool.map(_eval_task, tasks))
    else:
        results = list(map(_eval_task, tasks))
    seconds = {rep.id: secs for rep, secs in results}
    return [rep for rep, _ in results], seconds, time.perf_counter() - start


def _point_rows(reports):
    for rep in reports:
        for rec in rep.records:
            yield rep, rec, "pass" if point_passes(rec, rep.tol) else "fail"


def _render_json(reports):
    rows = []
    for rep, rec, verdict in _point_rows(reports):
        rows.append({
            "id": rep.id,
            "kind": rep.kind,
            "params": {"mu": rec.params.mu, "nu": rec.params.nu,
                       "x": rec.params.x, "y": rec.params.y, "p": rec.params.p},
            "lhs": [rec.lhs.real, rec.lhs.imag],
            "rhs": [rec.rhs.real, rec.rhs.imag],
            "rel_error": rec.rel_error,
            "verdict": verdict,
            "evaluations": rec.evaluations,
        })
    return json.dumps(rows, indent=2) + "\n"


def _render_csv(reports):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "kind", "mu", "nu", "x", "y", "p",
                     "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                     "rel_error", "verdict", "evaluations"])
    for rep, rec, verdict in _point_rows(reports):
        writer.writerow([rep.id, rep.kind,
                         rec.params.mu, rec.params.nu, rec.params.x,
                         rec.params.y, rec.params.p,
                         rec.lhs.real, rec.lhs.imag,
                         rec.rhs.real, rec.rhs.imag,
                         rec.rel_error, verdict, rec.evaluations])
    return buf.getvalue()


def _render_text(reports):
    lines = []
    for rep in reports:
        shown = "n/a" if rep.verdict == "skipped" else f"{rep.max_rel_error:.3e}"
        lines.append(f"{rep.id:18s} {rep.kind:15s} {rep.verdict:7s} "
                     f"max_rel {shown:>9s}  tol {rep.tol:.1e}  points {len(rep.records)}")
    npass = sum(1 for r in reports if r.verdict == "pass")
    nfail = sum(1 for r in reports if r.verdict == "fail")
    controls = [r for r in reports if get_case(r.id).negative_control]
    behaving = sum(1 for r in controls if r.verdict == "fail")
    lines.append(f"summary: cases={len(reports)} pass={npass} fail={nfail} "
                 f"controls_failing_as_designed={behaving}/{len(controls)}")
    return "\n".join(lines) + "\n"


_RENDER = {"json": _render_json, "csv": _render_csv, "text": _render_text}


def _exit_status(reports):
    for rep in reports:
        expected = "fail" if get_case(rep.id).negative_control else "pass"
        if rep.verdict != expected:
            return EXIT_VERIFY
    return EXIT_OK


def _open_out(stack, path, **kw):
    try:
        return stack.enter_context(open(path, "w", encoding="utf-8", **kw))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def cmd_verify(args):
    points = _checked_points(args)
    with contextlib.ExitStack() as stack:
        out, sidecar = sys.stdout, None
        if args.out:
            out = _open_out(stack, args.out, newline="")
            sidecar = _open_out(stack, args.out + ".timing.json")
        reports, seconds, wall = _run_verify(args, points)
        out.write(_RENDER[args.format](reports))
        if sidecar:
            timing = {
                "jobs": args.jobs,
                "total_ms": wall * 1e3,
                "cases": {cid: secs * 1e3 for cid, secs in seconds.items()},
            }
            json.dump(timing, sidecar, indent=2)
            sidecar.write("\n")
    return _exit_status(reports)


def cmd_list(args):
    rows = list_cases()
    if args.kind:
        rows = [row for row in rows if row[1] == args.kind]
    for cid, kind, label, tol in rows:
        sys.stdout.write(f"{cid:18s} {kind:15s} tol {tol:.1e}  {label}\n")
    return EXIT_OK


# function name -> (argument names in order, callable)
_EVAL_FNS = {
    "D": (("nu", "z"), pcf_d),
    "erf": (("x",), erf),
    "erfc": (("x",), erfc),
    "gamma": (("z",), gamma),
    "rgamma": (("z",), reciprocal_gamma),
    "phi": (("a", "b", "z"), kummer_phi),
    "2f1": (("a", "b", "c", "z"), gauss_2f1),
    "2f2": (("a1", "a2", "b1", "b2", "z"), hyp_2f2),
    "f1": (("a", "b1", "b2", "c", "z1", "z2"), appell_f1),
}


def _format_value(value):
    value = complex(value)
    if value.imag == 0.0:
        real = value.real
        if abs(real) <= 1e15 and real == int(real):
            return str(int(real))
        return repr(real)
    return repr(value)


def cmd_eval(args):
    names, fn = _EVAL_FNS[args.fn]
    try:
        result = fn(*(getattr(args, name) for name in names))
    except (LapcylError, ArithmeticError) as exc:
        raise ConfigError(f"eval {args.fn}: {type(exc).__name__}: {exc}") from None
    sys.stdout.write(_format_value(result) + "\n")
    return EXIT_OK


def _positive(kind):
    """argparse type: a number of the given kind above zero."""
    def positive(text):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    return positive


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lapcyl",
        description="Certify the identity catalog or evaluate one special function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print the catalog")
    p_list.add_argument("--kind", choices=KINDS)
    p_list.set_defaults(func=cmd_list)

    p_verify = sub.add_parser("verify", help="run the verification harness")
    select = p_verify.add_mutually_exclusive_group(required=True)
    select.add_argument("--case", action="append", metavar="GLOB",
                        help="case id or glob; repeatable")
    select.add_argument("--all", action="store_true", help="select every case")
    p_verify.add_argument("--tol", type=_positive(float), default=None,
                          help="override the per-case tolerance")
    p_verify.add_argument("--grid", metavar="PATH", default=None,
                          help="grid override file with rows `id mu nu x y p`")
    p_verify.add_argument("--format", choices=tuple(_RENDER), default="json")
    p_verify.add_argument("--out", metavar="PATH", default=None,
                          help="write the report here plus timings to PATH.timing.json")
    p_verify.add_argument("--jobs", type=_positive(int), default=1,
                          help="worker processes for grid evaluation")
    p_verify.set_defaults(func=cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate one function at a point")
    p_fns = p_eval.add_subparsers(dest="fn", metavar="FN", required=True,
                                  help="one of " + ", ".join(sorted(_EVAL_FNS)))
    for name in sorted(_EVAL_FNS):
        p_fn = p_fns.add_parser(name)
        for flag in _EVAL_FNS[name][0]:
            p_fn.add_argument("--" + flag, type=float, required=True)
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidParams) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
