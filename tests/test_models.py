import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from deepwkb.models import SdeSystem, make_benchmark
from deepwkb.train_v import hj_residual

from conftest import figure8_quasipotential

ALL_NAMES = ["ou1d", "ou2d", "vdp", "figure8", "coupled_vdp", "rossler"]

# Training boxes used for randomized derivative checks.
BOXES = {
    "ou1d": ([-2], [2]),
    "ou2d": ([-2, -2], [2, 2]),
    "vdp": ([-3, -3], [3, 3]),
    "figure8": ([-3, -3], [3, 3]),
    "coupled_vdp": ([-3] * 4, [3] * 4),
    "rossler": ([-15, -15, -1.5], [15, 15, 15]),
}


def test_unknown_benchmark_rejected():
    with pytest.raises(ValueError, match="unknown benchmark"):
        make_benchmark("lorenz")


def test_nonfinite_parameter_rejected():
    with pytest.raises(ValueError, match="not finite"):
        make_benchmark("vdp", mu=np.inf)
    with pytest.raises(ValueError, match="not finite"):
        make_benchmark("figure8", mu=np.nan)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_unknown_parameter_rejected(name):
    with pytest.raises(ValueError, match=rf"\b{name}\b.*'bogus'"):
        make_benchmark(name, bogus=1.0)


def _zero_system(sigma):
    return SdeSystem(drift=np.zeros_like, drift_jacobian=lambda x: np.zeros(x.shape + x.shape[1:]),
                     attractor_dim=0, sigma_constant=sigma)


def test_dimensions_are_read_off_sigma():
    sys_ = _zero_system([[1.0], [0.5]])
    assert (sys_.dim_state, sys_.dim_noise) == (2, 1)
    assert np.array_equal(sys_.a, [[1.0, 0.5], [0.5, 0.25]])
    for sigma in (np.ones(2), np.zeros((0, 0)), None):
        with pytest.raises(ValueError, match="sigma_constant"):
            _zero_system(sigma)


def test_replaced_sigma_recomputes_the_derived_fields():
    sys_ = dataclasses.replace(make_benchmark("ou2d"), sigma_constant=np.array([[1.0], [2.0]]))
    assert (sys_.dim_state, sys_.dim_noise) == (2, 1)
    assert np.array_equal(sys_.a, [[1.0, 2.0], [2.0, 4.0]])


def test_rossler_drift_at_origin():
    sys_ = make_benchmark("rossler")
    assert np.allclose(sys_.drift(np.zeros((1, 3))), [[0.0, 0.0, 0.2]])


def test_ou1d_basics():
    sys_ = make_benchmark("ou1d")
    assert sys_.drift_jacobian(np.array([[3.0]])) == pytest.approx(np.array([[[-1.0]]]))
    x = np.array([[0.5]])
    assert sys_.drift(x) == pytest.approx(np.array([[-0.5]]))
    assert sys_.a == pytest.approx(np.array([[1.0]]))
    assert sys_.drift_jacobian(x) == pytest.approx(np.array([[[-1.0]]]))
    assert sys_.drift_divergence(x) == pytest.approx(np.array([-1.0]))


def test_figure8_drift_decomposition(rng):
    # f = (H_y, -H_x) - mu H grad H, so f . grad H = -mu H |grad H|^2.
    mu = 0.5
    sys_ = make_benchmark("figure8", mu=mu)
    x = rng.uniform(-2, 2, size=(200, 2))
    u, v = x[:, 0], x[:, 1]
    h = v**2 / 2 + u**4 / 12 - u**2 / 2
    grad_h = np.stack([u**3 / 3 - u, v], axis=1)
    f = sys_.drift(x)
    lhs = np.einsum("bi,bi->b", f, grad_h)
    rhs = -mu * h * np.einsum("bi,bi->b", grad_h, grad_h)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_coupled_vdp_block_jacobian():
    sys_ = make_benchmark("coupled_vdp")  # delta defaults to 0
    vdp = make_benchmark("vdp")
    x = np.array([[0.7, -0.2, -1.1, 0.4]])
    assert np.array_equal(sys_.drift(x), make_benchmark("coupled_vdp", delta=0.0).drift(x))
    jac = sys_.drift_jacobian(x)[0]
    assert np.allclose(jac[:2, :2], vdp.drift_jacobian(x[:, :2])[0])
    assert np.allclose(jac[2:, 2:], vdp.drift_jacobian(x[:, 2:])[0])
    assert np.allclose(jac[:2, 2:], 0.0) and np.allclose(jac[2:, :2], 0.0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_jacobian_matches_finite_differences(name, rng):
    sys_ = make_benchmark(name)
    lo, hi = (np.asarray(b, dtype=float) for b in BOXES[name])
    pts = rng.uniform(lo, hi, size=(100, sys_.dim_state))
    step = 1e-6
    jac = sys_.drift_jacobian(pts)
    for j in range(sys_.dim_state):
        e = np.zeros(sys_.dim_state)
        e[j] = step
        fd = (sys_.drift(pts + e) - sys_.drift(pts - e)) / (2 * step)
        scale = np.maximum(np.abs(jac[:, :, j]), 1.0)
        assert np.max(np.abs(fd - jac[:, :, j]) / scale) < 1e-6


@pytest.mark.parametrize("name", ALL_NAMES)
def test_divergences_and_diffusion(name, rng):
    sys_ = make_benchmark(name)
    lo, hi = (np.asarray(b, dtype=float) for b in BOXES[name])
    pts = rng.uniform(lo, hi, size=(50, sys_.dim_state))
    # additive noise: sigma = I exactly, A = sigma sigma^T
    assert np.array_equal(sys_.sigma_constant, np.eye(sys_.dim_state))
    assert np.array_equal(sys_.a, sys_.sigma_constant @ sys_.sigma_constant.T)
    # The divergence against a central-difference divergence of the drift.
    step = 1e-6
    fd = sum((sys_.drift(pts + e)[:, j] - sys_.drift(pts - e)[:, j]) / (2 * step)
             for j, e in enumerate(step * np.eye(sys_.dim_state)))
    div = sys_.drift_divergence(pts)
    assert np.max(np.abs(fd - div) / np.maximum(np.abs(div), 1.0)) < 1e-6


def test_ou1d_quasipotential_oracle(rng, ou1d):
    x = rng.uniform(-2, 2, size=(500, 1))
    assert np.max(np.abs(hj_residual(ou1d, 2.0 * x, x)[0])) < 1e-12


def test_figure8_quasipotential_oracle(rng, figure8):
    _, grad, _ = figure8_quasipotential(mu=0.5)
    x = rng.uniform(-2.5, 2.5, size=(500, 2))
    assert np.max(np.abs(hj_residual(figure8, grad(x), x)[0])) < 1e-12


def test_figure8_zero_level_set_tangency():
    # On {H = 0} the damping vanishes, so f is the pure Hamiltonian field.
    sys_ = make_benchmark("figure8", mu=0.5)
    xs = np.linspace(0.05, np.sqrt(6) - 1e-6, 40)
    ys = np.sqrt(np.maximum(xs**2 - xs**4 / 6, 0.0))
    pts = np.stack([xs, ys], axis=1)  # H = 0 on these points
    grad_h = np.stack([xs**3 / 3 - xs, ys], axis=1)
    f = sys_.drift(pts)
    assert np.max(np.abs(np.einsum("bi,bi->b", f, grad_h))) < 1e-12


def _figure8_exact(x, p):
    mu = p["mu"]
    u, v = x
    h, hx = v * v / 2 + u**4 / 12 - u * u / 2, u**3 / 3 - u
    h_abs, hx_abs = v * v / 2 + u**4 / 12 + u * u / 2, abs(u) ** 3 / 3 + abs(u)
    return ([v - mu * h * hx, -hx - mu * h * v],
            [abs(v) + abs(mu) * h_abs * hx_abs, hx_abs + abs(mu) * h_abs * abs(v)])


def _vdp_block_exact(x, y, mu):
    return ([mu * (x - x**3 / 3 - y), x / mu],
            [abs(mu) * (abs(x) + abs(x) ** 3 / 3 + abs(y)), abs(x / mu)])


def _vdp_exact(x, p):
    return _vdp_block_exact(*x, p["mu"])


def _coupled_vdp_exact(x, p):
    mu, delta = p["mu"], p["delta"]
    x1, y1, x2, y2 = x
    (f0, f1), (s0, s1) = _vdp_block_exact(x1, y1, mu)
    (f2, f3), (s2, s3) = _vdp_block_exact(x2, y2, mu)
    coupling = abs(delta) * (abs(x1) + abs(x2))
    return ([f0 + delta * (x1 - x2), f1, f2 + delta * (x2 - x1), f3],
            [s0 + coupling, s1, s2 + coupling, s3])


@pytest.mark.parametrize("name, params, exact", [
    ("figure8", {"mu": 0.5}, _figure8_exact),
    ("vdp", {"mu": 1.3}, _vdp_exact),
    ("coupled_vdp", {"mu": 1.3, "delta": 0.2}, _coupled_vdp_exact),
])
def test_polynomial_drift_is_accurate_to_a_few_ulp(name, params, exact, rng):
    # Each component is checked against its exact rational value, relative
    # to S, the same expression with every term taken in absolute value.
    sys_ = make_benchmark(name, **params)
    lo, hi = (np.asarray(b, dtype=float) for b in BOXES[name])
    pts = rng.uniform(lo, hi, size=(200, sys_.dim_state))
    f = sys_.drift(pts)
    exact_params = {k: Fraction(v) for k, v in params.items()}
    for row, x in zip(f, pts):
        f_exact, scale = exact([Fraction(c) for c in x], exact_params)
        for got, want, s in zip(row, f_exact, scale):
            assert abs(Fraction(got) - want) <= 4 * Fraction(1, 2**52) * s


@pytest.mark.parametrize("name", ALL_NAMES)
def test_state_evaluators_independent_of_batch_size(name, rng):
    sys_ = make_benchmark(name)
    lo, hi = (np.asarray(b, dtype=float) for b in BOXES[name])
    pts = rng.uniform(lo, hi, size=(257, sys_.dim_state))
    for evaluate in (sys_.drift, sys_.drift_jacobian, sys_.drift_divergence):
        whole = evaluate(pts)
        rows = np.concatenate([evaluate(pts[i:i + 1]) for i in range(len(pts))])
        chunks = np.concatenate([evaluate(pts[i:i + 7]) for i in range(0, len(pts), 7)])
        assert np.array_equal(rows, whole) and np.array_equal(chunks, whole)
