from dataclasses import dataclass

import numpy as np
import pytest

from deepwkb.models import make_benchmark


@dataclass
class AnalyticQp:
    """Oracle stand-in for TrainedQp backed by closed-form callables."""

    v_fn: object
    grad_fn: object
    hess_fn: object
    alpha: float = 1.0

    def v(self, x):
        return self.v_fn(x)

    def grad_v(self, x):
        return self.grad_fn(x)

    def hess_v(self, x):
        return self.hess_fn(x)


def curve_arrays(curve):
    """(points (S, n), values (S,)) of the samples on a characteristic."""
    return (np.asarray([st.x for st in curve.states]),
            np.asarray([st.v for st in curve.states]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def ou1d():
    return make_benchmark("ou1d")


@pytest.fixture
def figure8():
    return make_benchmark("figure8")


def figure8_hamiltonian(x):
    """H = y^2/2 + x^4/12 - x^2/2 for states of shape (..., 2)."""
    x = np.asarray(x, dtype=float)
    u, v = x[..., 0], x[..., 1]
    return v**2 / 2.0 + u**4 / 12.0 - u**2 / 2.0


def figure8_quasipotential(mu=0.5):
    """Closed-form oracle V = mu * H^2 with its gradient and Hessian."""
    def h_parts(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        u, v = x[:, 0], x[:, 1]
        h = v**2 / 2.0 + u**4 / 12.0 - u**2 / 2.0
        grad_h = np.stack([u**3 / 3.0 - u, v], axis=1)
        return u, v, h, grad_h

    def value(x):
        _, _, h, _ = h_parts(x)
        return mu * h**2

    def grad(x):
        _, _, h, gh = h_parts(x)
        return 2.0 * mu * h[:, None] * gh

    def hess(x):
        u, v, h, gh = h_parts(x)
        b = u.shape[0]
        hess_h = np.zeros((b, 2, 2))
        hess_h[:, 0, 0] = u**2 - 1.0
        hess_h[:, 1, 1] = 1.0
        outer = np.einsum("bi,bj->bij", gh, gh)
        return 2.0 * mu * (outer + h[:, None, None] * hess_h)

    return value, grad, hess
