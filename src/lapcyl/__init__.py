"""lapcyl: special functions and a verification harness for Laplace
transforms of parabolic cylinder and Kummer function products.

Layout:
    lapcyl.special    gamma/erf/hypergeometric/parabolic-cylinder kernels
    lapcyl.quad       adaptive Gauss-Kronrod with endpoint substitutions
    lapcyl.catalog    the identity catalog and numeric verification engine
    lapcyl.cli        command line front end (list / verify / eval)
"""

from ._exceptions import (
    LapcylError,
    DomainError,
    PoleError,
    ParameterPole,
    NonConvergence,
    InvalidParams,
)
from .special import (
    gamma,
    reciprocal_gamma,
    digamma,
    erf,
    erfc,
    kummer_phi,
    hyp_2f2,
    gauss_2f1,
    gauss_2f1_cm,
    gauss_2f1_at_one,
    pcf_d,
    appell_f1,
)
from .quad import (
    QuadratureSpec,
    QuadratureResult,
    integrate_finite,
    integrate_semi_infinite,
)

__version__ = "0.1.0"

__all__ = [
    "LapcylError",
    "DomainError",
    "PoleError",
    "ParameterPole",
    "NonConvergence",
    "InvalidParams",
    "gamma",
    "reciprocal_gamma",
    "digamma",
    "erf",
    "erfc",
    "kummer_phi",
    "hyp_2f2",
    "gauss_2f1",
    "gauss_2f1_cm",
    "gauss_2f1_at_one",
    "pcf_d",
    "appell_f1",
    "QuadratureSpec",
    "QuadratureResult",
    "integrate_finite",
    "integrate_semi_infinite",
    "__version__",
]
