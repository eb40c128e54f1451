import numpy as np
import pytest

from deepwkb import net
from deepwkb import train_z as train_z_mod
from deepwkb.models import SdeSystem, make_benchmark
from deepwkb.net import MlpParams, MlpSpec
from deepwkb.regression import _empty_table
from deepwkb.train_v import QpTrainConfig, TrainedQp
from deepwkb.train_z import (ZTrainingSets, assemble_z_sets, train_z,
                             transport_coefficients, z_loss)

from conftest import AnalyticQp, figure8_quasipotential, weight_penalty


def ou_oracle():
    return AnalyticQp(
        v_fn=lambda x: np.atleast_2d(x)[:, 0] ** 2,
        grad_fn=lambda x: 2.0 * np.atleast_2d(x),
        hess_fn=lambda x: np.broadcast_to(2.0 * np.eye(1), (np.atleast_2d(x).shape[0], 1, 1)),
    )


def test_transport_coefficients_exact_ou(ou1d, rng):
    x = rng.uniform(-1.5, 1.5, size=(50, 1))
    b, c = transport_coefficients(ou1d, ou_oracle(), x)
    assert np.allclose(b, x, atol=1e-14)          # b = f + A grad V = -x + 2x
    assert np.max(np.abs(c)) < 1e-14              # c = -1 + 1 = 0
    b1, c1 = transport_coefficients(ou1d, ou_oracle(), np.array([[0.3]]))
    assert b1[0] == pytest.approx(np.array([0.3])) and c1[0] == pytest.approx(0.0)


def test_transport_coefficients_figure8_numeric_hessian(figure8, rng):
    value, grad, hess = figure8_quasipotential()
    analytic = AnalyticQp(v_fn=value, grad_fn=grad, hess_fn=hess)

    def fd_hess(x):
        x = np.atleast_2d(x)
        out = np.zeros((x.shape[0], 2, 2))
        step = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            out[:, :, j] = (grad(x + e) - grad(x - e)) / (2 * step)
        return out

    numeric = AnalyticQp(v_fn=value, grad_fn=grad, hess_fn=fd_hess)
    x = rng.uniform(-2, 2, size=(40, 2))
    _, c_analytic = transport_coefficients(figure8, analytic, x)
    _, c_numeric = transport_coefficients(figure8, numeric, x)
    assert np.max(np.abs(c_analytic - c_numeric)) < 1e-6


def test_transport_trace_term_isolation():
    # Divergence-free rotation with grad V = 0: c reduces to the trace term.
    rotation = SdeSystem(
        dim_state=2, dim_noise=2,
        drift=lambda x: np.stack([-np.atleast_2d(x)[:, 1], np.atleast_2d(x)[:, 0]], axis=1),
        drift_jacobian=lambda x: np.broadcast_to(np.array([[0.0, -1.0], [1.0, 0.0]]),
                                                 (np.atleast_2d(x).shape[0], 2, 2)),
        attractor_dim=0, sigma_constant=np.diag([1.0, 2.0]),
    )
    m = np.array([[0.7, 0.1], [0.1, 1.3]])
    flat_v = AnalyticQp(
        v_fn=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
        grad_fn=lambda x: np.zeros_like(np.atleast_2d(x)),
        hess_fn=lambda x: np.broadcast_to(m, (np.atleast_2d(x).shape[0], 2, 2)),
    )
    _, c = transport_coefficients(rotation, flat_v, np.array([[0.4, -0.2]]))
    a = np.diag([1.0, 4.0])
    assert c[0] == pytest.approx(0.5 * np.sum(a * m), abs=1e-14)


def test_z_losses_examples(ou1d, rng):
    spec = MlpSpec(widths=(1, 4, 1), l2_lambda=0.0)
    # constant positive network: only the final bias set
    const = MlpParams(spec)
    const.layers[-1][1][...] = 0.8
    batch = rng.uniform(-1, 1, size=(12, 1))
    val, grad = z_loss("L3", const, batch, ou1d, ou_oracle())
    assert val < 1e-28  # constants solve the transport equation when c = 0
    zero = MlpParams(spec)
    targets = rng.uniform(0.3, 1.0, size=12)
    val, _ = z_loss("L1", zero, (batch, targets), ou1d, ou_oracle())
    assert val == pytest.approx(np.mean(targets**2))
    negative = MlpParams(spec)
    negative.layers[-1][1][...] = -0.7
    val, _ = z_loss("L2", negative, (batch, targets), ou1d, ou_oracle())
    assert val == pytest.approx(np.mean((-0.7 - targets) ** 2) + 0.7)  # hinge adds |Z|


def test_z_l3_on_analytic_pair(ou1d, rng):
    spec = MlpSpec(widths=(1, 4, 1), l2_lambda=0.0)
    const = MlpParams(spec)
    const.layers[-1][1][...] = np.pi**-0.5
    batch = rng.uniform(-1, 1, size=(50, 1))
    val, _ = z_loss("L3", const, batch, ou1d, ou_oracle())
    assert val < 1e-12


def test_z_loss_gradients_match_finite_differences(ou1d, rng):
    spec = MlpSpec(widths=(1, 5, 3, 1), l2_lambda=1e-3)
    params = net.init_params(spec, seed=4)
    x = rng.uniform(-1, 1, size=(6, 1))
    targets = rng.uniform(0.2, 1.0, size=6)
    oracle = ou_oracle()

    for kind, batch in [("L1", (x, targets)), ("L2", (x, targets)), ("L3", x)]:
        _, grad = z_loss(kind, params, batch, ou1d, oracle)
        step = 1e-6
        fd = np.zeros(params.size)
        for i in range(params.size):
            hi = MlpParams(spec, params.flat.copy())
            hi.flat[i] += step
            lo = MlpParams(spec, params.flat.copy())
            lo.flat[i] -= step
            vh, _ = z_loss(kind, hi, batch, ou1d, oracle)
            vl, _ = z_loss(kind, lo, batch, ou1d, oracle)
            vh += weight_penalty(hi)
            vl += weight_penalty(lo)
            fd[i] = (vh - vl) / (2 * step)
        rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-10)
        assert rel < 1e-5, f"{kind}: rel err {rel}"


def _v_and_z_nets(seed):
    """A V network wrapped as TrainedQp and a Z network, on the 2-D OU system."""
    spec = MlpSpec(widths=(2, 8, 8, 1), l2_lambda=1e-3)
    return TrainedQp(params=net.init_params(spec, seed=seed), alpha=0.8), \
        net.init_params(spec, seed=seed + 1)


def test_z_loss_traces_the_network_once(rng, trace_calls):
    ou2d = make_benchmark("ou2d")
    trained_v, params = _v_and_z_nets(seed=3)
    x = rng.uniform(-1, 1, size=(16, 2))
    targets = np.full(16, np.pi**-0.5)
    b, c = transport_coefficients(ou2d, trained_v, x)
    for kind, batch in (("L1", (x, targets)), ("L2", (x, targets)), ("L3", (x, b, c)), ("L3", x)):
        trace_calls.clear()
        z_loss(kind, params, batch, ou2d, trained_v)
        assert [p for p in trace_calls if p is params] == [params], kind
    trace_calls.clear()
    z_loss("L3", params, (x, b, c), ou2d, trained_v)
    assert trace_calls == [params]  # frozen coefficients: V is not traced


def test_z_loss_l3_frozen_coefficients_bitwise(rng):
    ou2d = make_benchmark("ou2d")
    trained_v, params = _v_and_z_nets(seed=7)
    x = rng.uniform(-1, 1, size=(128, 2))
    value, grad = z_loss("L3", params, x, ou2d, trained_v)
    value_c, grad_c = z_loss("L3", params, (x, *transport_coefficients(ou2d, trained_v, x)),
                             ou2d, trained_v)
    assert value_c == value
    assert np.array_equal(grad_c, grad)


def test_train_z_computes_coefficients_once_in_full_batches(ou1d, rng, monkeypatch):
    # |Y3| = 200 with batch 128: two calls of 128 rows, the second wrapping
    # around Y3, however many epochs run.
    rows = []
    real = train_z_mod.transport_coefficients

    def recording(system, trained, x):
        rows.append(x.shape[0])
        return real(system, trained, x)

    monkeypatch.setattr(train_z_mod, "transport_coefficients", recording)
    sets = ZTrainingSets(y1=np.zeros((10, 1)), y1_targets=np.full(10, np.pi**-0.5),
                         y2=rng.uniform(-1, 1, size=(40, 1)), y2_targets=np.full(40, np.pi**-0.5),
                         y3=rng.uniform(-1, 1, size=(200, 1)))
    cfg = QpTrainConfig(epochs=3, fine_tune_epochs=2, widths=(1, 4, 1), seed=2)
    train_z(sets, cfg, ou1d, ou_oracle())
    assert rows == [128] * int(np.ceil(200 / 128))


def _regressions(rng, n=40):
    """A regression table of n reliable points with the OU's V and Z0."""
    table = _empty_table(rng.uniform(-1, 1, size=(n, 1)))
    table["v_hat"] = table["point"][:, 0] ** 2
    table["log_z0_hat"] = np.log(np.pi**-0.5)
    table["rss_plain"] = table["rss_rescaled"] = 1.0
    table["dof"], table["used_rows"], table["reliable"] = 7, 10, 1
    table["se_v"] = table["se_log_z0"] = 0.01
    return table


NO_CURVES = (np.zeros((0, 1)), np.zeros(0))


def test_assemble_z_sets(rng):
    regs = _regressions(rng)
    attr = (np.zeros((6, 1)), np.full(6, np.pi**-0.5))
    curves = (rng.uniform(-1.5, 1.5, size=(30, 1)), np.full(30, np.pi**-0.5))
    sets = assemble_z_sets(attr, regs, curves,
                           {"y2_regression": 25, "y2_transport": 20, "y3": 35}, seed=1)
    assert sets.y1.shape == (6, 1)
    assert sets.y2.shape[0] == 45
    assert sets.y3.shape[0] == 35
    assert np.allclose(sets.y2_targets, np.pi**-0.5)
    # no curve samples: regression points only
    sets2 = assemble_z_sets(attr, regs, NO_CURVES, {"y2_regression": 25, "y3": 35}, seed=1)
    assert sets2.y2.shape[0] == 25


def test_assemble_z_sets_requires_attractor(rng):
    regs = _regressions(rng)
    with pytest.raises(ValueError, match="Y1"):
        assemble_z_sets((np.zeros((0, 1)), np.zeros(0)), regs, NO_CURVES, {}, seed=0)


def test_train_z_smoke_constant_prefactor(ou1d, rng):
    # Tiny end-to-end: exact targets pi^-1/2 and exact-V transport; the
    # net should sit near the constant after a short run.
    regs = _regressions(rng, n=60)
    attr = (np.zeros((10, 1)), np.full(10, np.pi**-0.5))
    sets = assemble_z_sets(attr, regs, NO_CURVES, {"y2_regression": 60, "y3": 60}, seed=2)
    cfg = QpTrainConfig(epochs=300, fine_tune_epochs=10, widths=(1, 16, 1),
                        lr1=5e-3, lr2=5e-3, lr3=1e-3, seed=5)
    trained = train_z(sets, cfg, ou1d, ou_oracle())
    xs = np.linspace(-1, 1, 41)[:, None]
    assert np.max(np.abs(trained.z(xs) - np.pi**-0.5)) < 0.08
    again = train_z(sets, cfg, ou1d, ou_oracle())
    assert np.array_equal(trained.params.flat, again.params.flat)
