"""Outside-in span tracer for the traced benchmark run.

Spans are recorded only by wrappers that this file installs around the
public functions of `lapcyl.special`, `lapcyl.quad` and `lapcyl.catalog`,
and around every integrand handed to the quadrature.  Nothing inside the
program is changed; `instrument` swaps module attributes and puts the
originals back when it exits.

A span is [name, start, end, parent id, count].  `count` holds the array
width for special-function calls, the node count for integrand calls, the
evaluation count for quadrature calls and the point count for `verify`.
Spans stay in memory until `Tracer.dump` writes them at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# special-function name -> position of the argument whose size is the
# number of elements evaluated; scalar-only functions are absent (width 1)
_ARRAY_ARG = {"gauss_2f1_cm": 3, "gauss_2f1": 3, "hyp_2f2": 4,
              "kummer_phi": 2, "phi_scaled": 2}

# functions with their own rows in the per-function breakdown
BREAKDOWN = ("gauss_2f1_cm", "gauss_2f1", "hyp_2f2", "kummer_phi", "pcf_d", "appell_f1")

QUAD_FNS = ("integrate_finite", "integrate_semi_infinite")


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self.case_of = {}      # span id of a verify call -> case id
        self._stack = []

    def open(self, name, count=0):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, count]
        self.spans.append(span)
        self._stack.append(sid)
        span[1] = perf_counter()
        return sid

    def close(self, sid):
        self.spans[sid][2] = perf_counter()
        self._stack.pop()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "count"],
                       "cases": {str(k): v for k, v in self.case_of.items()},
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    out = list(own)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            out[span[3]] -= own[i]
    return out


# ---------------------------------------------------------------- wrappers

def _wrap_special(tracer, name, fn):
    name_s = "special." + name
    idx = _ARRAY_ARG.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        width = np.size(args[idx]) if idx is not None and len(args) > idx else 1
        sid = tracer.open(name_s, width)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(sid)
    return traced


def _wrap_integrand(tracer, layer, f):
    name = layer + ".integrand"

    @functools.wraps(f)
    def traced(t, *rest):
        sid = tracer.open(name, np.size(t))
        try:
            return f(t, *rest)
        finally:
            tracer.close(sid)
    return traced


def _wrap_quad(tracer, name, fn, integrand_layer, nonconvergence):
    name_q = "quad." + name

    @functools.wraps(fn)
    def traced(f, spec, **kwargs):
        sid = tracer.open(name_q)
        try:
            res = fn(_wrap_integrand(tracer, integrand_layer, f), spec, **kwargs)
        except nonconvergence as exc:
            tracer.spans[sid][4] = exc.result.evaluations if exc.result else 0
            tracer.spans[sid][0] = name_q + ".nonconverged"
            raise
        finally:
            tracer.close(sid)
        tracer.spans[sid][4] = res.evaluations
        return res
    return traced


def _wrap_verify(tracer, fn):
    @functools.wraps(fn)
    def traced(case_id, *args, **kwargs):
        sid = tracer.open("catalog.verify")
        tracer.case_of[sid] = case_id
        try:
            rep = fn(case_id, *args, **kwargs)
        finally:
            tracer.close(sid)
        tracer.spans[sid][4] = len(rep.records)
        return rep
    return traced


def _lapcyl_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lapcyl" or name.startswith("lapcyl."))]


def _outside(module_name, layer):
    # a layer's own submodules call each other directly; only the other
    # layers and the layer's public face are boundaries
    return not module_name.startswith(layer + ".")


@contextmanager
def instrument(tracer):
    """Wrap every public lapcyl.special / lapcyl.quad function and
    lapcyl.catalog.verify in each module that imported it, outside the
    function's own layer.  Restores the originals on exit."""
    import lapcyl.catalog
    import lapcyl.quad
    import lapcyl.special
    from lapcyl._exceptions import NonConvergence

    special = {}
    for name in lapcyl.special.__all__:
        fn = getattr(lapcyl.special, name)
        if callable(fn) and not isinstance(fn, type):
            special[id(fn)] = _wrap_special(tracer, name, fn)
    quad_orig = {id(getattr(lapcyl.quad, n)): n for n in QUAD_FNS}
    verify = lapcyl.catalog.verify
    wrapped_verify = _wrap_verify(tracer, verify)

    patched = []
    try:
        for module in _lapcyl_modules():
            mname = module.__name__
            for attr, value in list(vars(module).items()):
                key = id(value)
                if key in special and _outside(mname, "lapcyl.special"):
                    new = special[key]
                elif key in quad_orig and _outside(mname, "lapcyl.quad"):
                    # integrands from the engine are the catalog's; the
                    # others come from pcf_d's integral route and appell_f1
                    layer = "catalog" if mname.startswith("lapcyl.catalog") else "special"
                    new = _wrap_quad(tracer, quad_orig[key], value, layer, NonConvergence)
                elif value is verify and _outside(mname, "lapcyl.catalog"):
                    new = wrapped_verify
                else:
                    continue
                patched.append((module, attr, value))
                setattr(module, attr, new)
        yield tracer
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)


# ---------------------------------------------------------------- metrics

def layer_metrics(tracer, case_ids):
    """Per-layer numbers from one traced pass.  `case_ids` fixes the
    per-case rows; cases that did not run read 0."""
    spans = tracer.spans
    selfs = self_times(spans)
    n = len(spans)
    names = [s[0] for s in spans]
    is_special = [nm.startswith("special.") for nm in names]

    # nearest enclosing verify span, for per-case attribution
    case_anc = [-1] * n
    for i, s in enumerate(spans):
        if names[i] == "catalog.verify":
            case_anc[i] = i
        elif s[3] >= 0:
            case_anc[i] = case_anc[s[3]]

    sp = {"calls": 0, "elems": 0, "self": 0.0}
    per_fn = {fn: {"calls": 0, "elems": 0, "self_s": 0.0} for fn in BREAKDOWN}
    quad = {"calls": 0, "integrand_calls": 0, "nodes": 0, "evals": 0,
            "self": 0.0, "nonconverged": 0}
    cat = {"points": 0, "self": 0.0, "image": 0.0, "integrand_self": 0.0}
    case_s = {cid: 0.0 for cid in case_ids}
    case_evals = {cid: 0 for cid in case_ids}

    for i, (name, start, end, parent, count) in enumerate(spans):
        if is_special[i]:
            sp["self"] += selfs[i]
            if name == "special.integrand":
                quad["integrand_calls"] += 1
                quad["nodes"] += count
                continue
            if parent < 0 or not is_special[parent]:
                sp["calls"] += 1
                sp["elems"] += count
            fn = name[len("special."):]
            if fn in per_fn:
                row = per_fn[fn]
                row["calls"] += 1
                row["elems"] += count
                row["self_s"] += selfs[i]
            if parent >= 0 and names[parent] == "catalog.verify":
                cat["image"] += end - start
        elif name.startswith("quad."):
            quad["calls"] += 1
            quad["evals"] += count
            quad["self"] += selfs[i]
            if name.endswith(".nonconverged"):
                quad["nonconverged"] += 1
            if case_anc[i] >= 0:
                cid = tracer.case_of[case_anc[i]]
                if cid in case_evals:
                    case_evals[cid] += count
        elif name == "catalog.integrand":
            quad["integrand_calls"] += 1
            quad["nodes"] += count
            cat["integrand_self"] += selfs[i]
        elif name == "catalog.verify":
            cat["points"] += count
            cat["self"] += selfs[i]
            cid = tracer.case_of[i]
            if cid in case_s:
                case_s[cid] += end - start

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "special.calls": sp["calls"],
        "special.elems": sp["elems"],
        "special.elems_per_call": ratio(sp["elems"], sp["calls"]),
        "special.self_s": sp["self"],
        "special.us_per_elem": ratio(sp["self"] * 1e6, sp["elems"]),
    }
    for fn, row in per_fn.items():
        for key, value in row.items():
            out[f"special.{fn}.{key}"] = value
    out.update({
        "quad.calls": quad["calls"],
        "quad.integrand_calls": quad["integrand_calls"],
        "quad.evals": quad["evals"],
        "quad.nodes_per_call": ratio(quad["nodes"], quad["integrand_calls"]),
        "quad.self_s": quad["self"],
        "quad.nonconverged": quad["nonconverged"],
        "catalog.points": cat["points"],
        "catalog.self_s": cat["self"],
        "catalog.image_s": cat["image"],
        "catalog.integrand_self_s": cat["integrand_self"],
        "catalog.overhead_us_per_point": ratio(cat["self"] * 1e6, cat["points"]),
    })
    for cid in case_ids:
        out[f"catalog.case_s.{cid}"] = case_s[cid]
        out[f"catalog.case_evals.{cid}"] = case_evals[cid]
    return out
