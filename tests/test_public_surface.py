"""The public names of the package.

Pinned so that adding or removing a public name is a deliberate change
to this list, not a side effect.
"""

import importlib

import pytest

SURFACE = {
    "lapcyl": [
        "LapcylError", "DomainError", "PoleError", "ParameterPole",
        "NonConvergence", "InvalidParams",
        "gamma", "reciprocal_gamma", "digamma", "erf", "erfc", "kummer_phi",
        "hyp_2f2", "gauss_2f1", "gauss_2f1_cm", "gauss_2f1_at_one", "pcf_d",
        "appell_f1",
        "QuadratureSpec", "QuadratureResult", "integrate_finite",
        "integrate_semi_infinite",
        "__version__",
    ],
    "lapcyl.quad": [
        "QuadratureSpec", "QuadratureResult", "integrate_finite",
        "integrate_semi_infinite",
    ],
    "lapcyl.catalog": [
        "IdentityCase", "ParamPoint", "Piece", "PointRecord",
        "VerificationReport",
        "build_report", "check_points", "evaluate_point", "get_case",
        "list_cases", "point_groups", "point_passes", "verify",
    ],
}


@pytest.mark.parametrize("module", sorted(SURFACE))
def test_public_names_are_pinned_and_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__ == SURFACE[module]
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
