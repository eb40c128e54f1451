"""Invariant densities of small-noise SDEs via the WKB ansatz.

The package estimates the quasi-potential V and the prefactor Z0 of

    dX = f(X) dt + sqrt(eps) * sigma dB,   sigma a constant (n, m) matrix,

from Monte Carlo histograms collected at several noise strengths,
statistically validates the WKB form of the invariant density, trains
neural approximations of V and Z0 with PDE-residual losses, and
evaluates the resulting density  u ~ Q(eps)^-1 Z0 exp(-V/eps).
"""

from .models import SdeSystem, make_benchmark

__all__ = ["SdeSystem", "make_benchmark"]

__version__ = "0.1.0"
