"""Special functions: gamma family, error functions (math.erf and
math.erfc, real arguments), hypergeometric series, parabolic cylinder
function, Appell F1."""

from math import erf, erfc

from .gammafn import gamma, reciprocal_gamma, digamma, is_nonpositive_integer
from .hyper import kummer_phi, phi_scaled, hyp_2f2
from .gauss2f1 import Gauss2F1Plan, gauss_2f1, gauss_2f1_cm, gauss_2f1_at_one
from .pcf import pcf_d
from .appell import appell_f1

__all__ = [
    "gamma",
    "reciprocal_gamma",
    "digamma",
    "is_nonpositive_integer",
    "erf",
    "erfc",
    "kummer_phi",
    "phi_scaled",
    "hyp_2f2",
    "gauss_2f1",
    "gauss_2f1_cm",
    "gauss_2f1_at_one",
    "Gauss2F1Plan",
    "pcf_d",
    "appell_f1",
]
