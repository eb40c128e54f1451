import multiprocessing
import os
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import deepwkb
from deepwkb import net
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


def grad_input_at(params, x):
    """Input gradients of the network at a (B, n) batch, through one trace."""
    return net.grad_input(params, net.trace(params, x))


def fresh_interpreter(code):
    """Standard output of ``code`` run by a new Python that imports this
    deepwkb, for what an earlier import or call in the test process hides."""
    src = str(Path(deepwkb.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src)).stdout


def weight_penalty(params):
    """The L2 penalty 1/2 lambda |W|^2 over the weights, biases excluded,
    whose gradient ``net._add_weight_penalty`` adds."""
    return 0.5 * params.spec.l2_lambda * sum(np.sum(w**2) for w, _ in params.layers)


def curve_arrays(curve):
    """(points (S, n), values (S,)) of the samples on a characteristic."""
    return (np.asarray([st.x for st in curve.states]),
            np.asarray([st.v for st in curve.states]))


@pytest.fixture
def net_calls(monkeypatch):
    """The parameters of every ``net.trace``, ``net.grad_input`` and
    directional-kernel call made during the test, by kernel name."""
    calls = defaultdict(list)
    for name in ("trace", "grad_input", "grad_params_of_directional_input_grad"):
        def counting(params, *args, _real=getattr(net, name), _name=name, **kwargs):
            calls[_name].append(params)
            return _real(params, *args, **kwargs)

        monkeypatch.setattr(net, name, counting)
    return calls


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


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Every forked worker or child has been joined when a test ends."""
    yield
    assert multiprocessing.active_children() == []
