"""The public names of the package, and the README's API sketch.

Pinned so that adding or removing a public name is a deliberate change
to this list, not a side effect; the sketch runs, so that it names no
name the package no longer has.
"""

import contextlib
import importlib
import io
import pathlib
import re

import pytest

SURFACE = {
    "lapcyl": [
        "LapcylError", "DomainError", "PoleError", "ParameterPole",
        "NonConvergence", "InvalidParams",
        "gamma", "reciprocal_gamma", "digamma", "erf", "erfc", "kummer_phi",
        "hyp_2f2", "gauss_2f1", "gauss_2f1_cm", "pcf_d",
        "appell_f1",
        "QuadratureSpec", "QuadratureResult", "integrate_finite",
        "integrate_semi_infinite",
        "__version__",
    ],
    "lapcyl.special": [
        "gamma", "reciprocal_gamma", "digamma", "is_nonpositive_integer",
        "erf", "erfc", "kummer_phi", "phi_scaled", "hyp_2f2",
        "gauss_2f1", "gauss_2f1_cm", "Gauss2F1Plan", "pcf_d", "appell_f1",
    ],
    "lapcyl.quad": [
        "QuadratureSpec", "QuadratureResult", "integrate_finite",
        "integrate_semi_infinite",
    ],
    "lapcyl.catalog": [
        "IdentityCase", "ParamPoint", "Piece", "PointRecord",
        "VerificationReport",
        "check_points", "get_case", "list_cases", "point_passes", "verify",
    ],
}


@pytest.mark.parametrize("module", sorted(SURFACE))
def test_public_names_are_pinned_and_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__ == SURFACE[module]
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_readme_api_sketch_runs():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    sketches = re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"),
                          re.DOTALL | re.MULTILINE)
    assert len(sketches) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(sketches[0], "README.md", "exec"), {})
    assert out.getvalue().startswith("pass ")
