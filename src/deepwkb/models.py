"""SDE system abstraction and the registered benchmark systems.

A system is the drift f, its Jacobian grad f and the constant noise
factor sigma; everything else is derived from these.  The diffusion
matrix A = sigma sigma^T is one (n, n) array stored on the system, and
the drift divergence of the transport operator is read off the
Jacobian as its trace.  The drift evaluators take a batch of states of
shape (B, n), the only input shape they accept, and return (B, n)
drifts, (B, n, n) Jacobians and (B,) divergences.  They are pure
functions, safe to call concurrently.

A benchmark is a builder of its (drift, Jacobian) pair, registered in
``BENCHMARKS`` with its state and attractor dimensions and its default
parameters; ``make_benchmark`` checks them and adds sigma = I.

Integer powers of the state are written as products (``u * u * u``, not
``u**3``): numpy's float ``power`` costs about 90 ns per element, against
a few ns for a product, and its last bits depend on which SIMD loop the
CPU dispatches to, where IEEE products do not.  A drift fills one
``np.empty_like`` output rather than stacking its columns.
"""

from __future__ import annotations

import numbers
import zipfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["SdeSystem", "make_benchmark", "BENCHMARKS"]


def _as_batch(x, dim):
    """Return x as a float (B, dim) array; any other shape raises ValueError."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"state batch has shape {x.shape}, expected (B, {dim})")
    return x


def _philox(seed):
    """The package's one way from a seed to a random stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _load_npz(path, fmt):
    """The named arrays of the ``.npz`` file at ``path``, whose ``format``
    entry must read ``fmt``; any other file raises ValueError."""
    try:
        with np.load(path) as arrays:
            if arrays["format"] == fmt:
                return dict(arrays)
    except (ValueError, KeyError, zipfile.BadZipFile):
        pass
    raise ValueError(f"{path} is not a {fmt} file")


@dataclass
class SdeSystem:
    """A small-noise SDE dX = f(X) dt + sqrt(eps) sigma dB, sigma constant.

    attractor_dim is the dimension d of the attractor of the zero-noise
    flow (0 for an equilibrium, 1 for a limit cycle, ...).  It enters the
    normalization scaling eps^((n-d)/2) and must be supplied by the user.
    A system is f, grad f and sigma: the state and noise dimensions n and
    m are read off sigma's shape (n, m), ``a`` is the diffusion matrix
    sigma sigma^T, computed once, and the divergence is the trace of the
    Jacobian.
    """

    drift: Callable[[np.ndarray], np.ndarray]
    drift_jacobian: Callable[[np.ndarray], np.ndarray]
    attractor_dim: int
    sigma_constant: np.ndarray
    dim_state: int = field(init=False)
    dim_noise: int = field(init=False)
    a: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.attractor_dim < 0:
            raise ValueError("attractor_dim must be >= 0")
        if np.ndim(self.sigma_constant) != 2 or np.size(self.sigma_constant) == 0:
            raise ValueError("sigma_constant must be a non-empty constant (n, m) array")
        self.sigma_constant = np.asarray(self.sigma_constant, dtype=float)
        self.dim_state, self.dim_noise = self.sigma_constant.shape
        self.a = self.sigma_constant @ self.sigma_constant.T

    def drift_divergence(self, x):
        """div f on a (B, n) batch: the trace of the drift Jacobian, (B,)."""
        return np.trace(self.drift_jacobian(x), axis1=1, axis2=2)


# ---------------------------------------------------------------------------
# Registered benchmarks: builders of (drift, Jacobian) pairs, Jacobians coded
# analytically, no finite differences.  All use additive noise sigma = I (m = n).
# ---------------------------------------------------------------------------


def _ou(dim):
    def drift(x):
        xb = _as_batch(x, dim)
        return -xb

    def jac(x):
        xb = _as_batch(x, dim)
        return np.array(np.broadcast_to(-np.eye(dim), (xb.shape[0], dim, dim)))

    return drift, jac


def _vdp(mu):
    def drift(x):
        xb = _as_batch(x, 2)
        u, v = xb[:, 0], xb[:, 1]
        out = np.empty_like(xb)
        out[:, 0] = mu * (u - u * u * u / 3.0 - v)
        out[:, 1] = u / mu
        return out

    def jac(x):
        xb = _as_batch(x, 2)
        u = xb[:, 0]
        j = np.zeros((xb.shape[0], 2, 2))
        j[:, 0, 0] = mu * (1.0 - u * u)
        j[:, 0, 1] = -mu
        j[:, 1, 0] = 1.0 / mu
        return j

    return drift, jac


def _figure8(mu):
    def _parts(xb):
        """u^2, v, H and H_x; H_y = v and H_xx = u^2 - 1."""
        u, v = xb[:, 0], xb[:, 1]
        u2 = u * u
        h = v * v / 2.0 + u2 * u2 / 12.0 - u2 / 2.0
        hx = u2 * u / 3.0 - u
        return u2, v, h, hx

    def drift(x):
        xb = _as_batch(x, 2)
        u2, v, h, hx = _parts(xb)
        muh = mu * h
        out = np.empty_like(xb)
        out[:, 0] = v - muh * hx
        out[:, 1] = -hx - muh * v
        return out

    def jac(x):
        xb = _as_batch(x, 2)
        u2, v, h, hx = _parts(xb)
        hxx = u2 - 1.0
        j = np.zeros((xb.shape[0], 2, 2))
        j[:, 0, 0] = -mu * (hx * hx + h * hxx)
        j[:, 0, 1] = 1.0 - mu * v * hx        # H_xy = 0
        j[:, 1, 0] = -hxx - mu * hx * v
        j[:, 1, 1] = -mu * (v * v + h)        # H_yy = 1
        return j

    return drift, jac


def _coupled_vdp(mu, delta):
    def drift(x):
        xb = _as_batch(x, 4)
        x1, y1, x2, y2 = xb.T
        out = np.empty_like(xb)
        out[:, 0] = mu * (x1 - x1 * x1 * x1 / 3.0 - y1) + delta * (x1 - x2)
        out[:, 1] = x1 / mu
        out[:, 2] = mu * (x2 - x2 * x2 * x2 / 3.0 - y2) + delta * (x2 - x1)
        out[:, 3] = x2 / mu
        return out

    def jac(x):
        xb = _as_batch(x, 4)
        x1, x2 = xb[:, 0], xb[:, 2]
        j = np.zeros((xb.shape[0], 4, 4))
        j[:, 0, 0] = mu * (1.0 - x1 * x1) + delta
        j[:, 0, 1] = -mu
        j[:, 0, 2] = -delta
        j[:, 1, 0] = 1.0 / mu
        j[:, 2, 2] = mu * (1.0 - x2 * x2) + delta
        j[:, 2, 3] = -mu
        j[:, 2, 0] = -delta
        j[:, 3, 2] = 1.0 / mu
        return j

    return drift, jac


def _rossler(a, b, c):
    def drift(x):
        xb = _as_batch(x, 3)
        u, v, w = xb.T
        out = np.empty_like(xb)
        out[:, 0] = -v - w
        out[:, 1] = u + a * v
        out[:, 2] = b + w * (u - c)
        return out

    def jac(x):
        xb = _as_batch(x, 3)
        u, w = xb[:, 0], xb[:, 2]
        j = np.zeros((xb.shape[0], 3, 3))
        j[:, 0, 1] = -1.0
        j[:, 0, 2] = -1.0
        j[:, 1, 0] = 1.0
        j[:, 1, 1] = a
        j[:, 2, 0] = w
        j[:, 2, 2] = u - c
        return j

    return drift, jac


BENCHMARKS = {
    "ou1d": (lambda: _ou(1), 1, 0, {}),
    "ou2d": (lambda: _ou(2), 2, 0, {}),
    "vdp": (_vdp, 2, 1, {"mu": 1.0}),
    "figure8": (_figure8, 2, 1, {"mu": 0.5}),
    "coupled_vdp": (_coupled_vdp, 4, 2, {"mu": 1.0, "delta": 0.0}),
    "rossler": (_rossler, 3, 2, {"a": 0.2, "b": 0.2, "c": 5.7}),
}


def make_benchmark(name, **params) -> SdeSystem:
    """Build a registered benchmark system from its name and parameters.

    Unknown names and parameters, and values that are not finite numbers,
    raise ValueError; parameters left out take their defaults.
    """
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}")
    build, dim, attractor_dim, defaults = BENCHMARKS[name]
    for key, val in params.items():
        if key not in defaults:
            raise ValueError(f"{name} takes no parameters named {key!r}")
        if not (isinstance(val, numbers.Real) and np.isfinite(val)):
            raise ValueError(f"benchmark parameter {key} is not a number or not finite")
    drift, jac = build(**{key: float(params.get(key, val)) for key, val in defaults.items()})
    return SdeSystem(drift, jac, attractor_dim, sigma_constant=np.eye(dim))
