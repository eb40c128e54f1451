import numpy as np
import pytest

from deepwkb import net
from deepwkb.net import AdamState, MlpParams, MlpSpec
from deepwkb.regression import RegressionResult
from deepwkb.train_v import (QpTrainConfig, QpTrainingSets, TrainingDiverged,
                             alternating_adam, assemble_qp_sets, estimate_alpha,
                             hj_residual, qp_loss, train_qp)

from conftest import figure8_quasipotential


def test_hj_residual_ou_exact(ou1d, rng):
    x = rng.uniform(-2, 2, size=(100, 1))
    resid, direction = hj_residual(ou1d, 2.0 * x, x)
    assert np.max(np.abs(resid)) == 0.0
    assert np.array_equal(direction, x)  # f + A grad V = -x + 2x
    assert hj_residual(ou1d, np.zeros((1, 1)), np.array([[0.7]]))[0][0] == 0.0


def test_hj_residual_figure8_exact(figure8, rng):
    _, grad, _ = figure8_quasipotential()
    x = rng.uniform(-2.5, 2.5, size=(100, 2))
    assert np.max(np.abs(hj_residual(figure8, grad(x), x)[0])) < 1e-12


def fit_net_to_parabola(seed=0, steps=4000, match_gradient=False):
    """Small net fitted to V = x^2 on [-1, 1] by direct regression.

    With match_gradient the derivative is supervised as well, which is
    what the operator-residual oracle needs: the residual is linear in
    the gradient error, so value-only fits stall near 1e-5.
    """
    spec = MlpSpec(widths=(1, 24, 1), l2_lambda=0.0)
    params = net.init_params(spec, seed=seed)
    state = AdamState.fresh(params, lr=3e-3)
    rng = np.random.default_rng(seed)
    for k in range(steps):
        if k == int(steps * 0.6):
            state.lr = 3e-4
        if k == int(steps * 0.85):
            state.lr = 3e-5
        x = rng.uniform(-1.2, 1.2, size=(64, 1))
        v = net.forward(params, x)
        grad = net.grad_params(params, x, 2.0 * (v - x[:, 0] ** 2) / 64)
        if match_gradient:
            g = net.grad_input(params, x)[:, 0]
            grad += net.grad_params_of_directional_input_grad(
                params, x, np.ones_like(x), 2.0 * (g - 2.0 * x[:, 0]) / 64)
        net.adam_step(state, params, grad)
    return params


def test_qp_losses_zero_network(ou1d, rng):
    spec = MlpSpec(widths=(1, 5, 1), l2_lambda=1e-3)
    zero = MlpParams(spec)
    batch = rng.uniform(-1, 1, size=(16, 1))
    val, grad = qp_loss("L1", zero, batch, ou1d)
    assert val == 0.0
    assert np.array_equal(grad, np.zeros(zero.size))  # hinge subgradient 0 at 0
    targets = rng.uniform(0.2, 1.0, size=16)
    val, _ = qp_loss("L2", zero, (batch, targets), ou1d)
    assert val == pytest.approx(np.mean(targets**2))
    val, grad = qp_loss("L3", zero, batch, ou1d)
    assert val == 0.0


def test_qp_l3_vanishes_on_fitted_solution(ou1d, rng):
    params = fit_net_to_parabola(steps=20000, match_gradient=True)
    batch = rng.uniform(-1, 1, size=(200, 1))
    val, _ = qp_loss("L3", params, batch, ou1d)
    assert val < 1e-6


def test_qp_loss_gradients_match_finite_differences(ou1d, rng):
    spec = MlpSpec(widths=(1, 6, 4, 1), l2_lambda=1e-3)
    params = net.init_params(spec, seed=5)
    x = rng.uniform(-1, 1, size=(7, 1))
    targets = rng.uniform(0.0, 1.0, size=7)
    mask = params.weight_mask()
    lam = spec.l2_lambda

    def full(kind, batch):
        def objective(p):
            # differentiated objective = loss value + the L2 penalty term
            val, _ = qp_loss(kind, p, batch, ou1d)
            return val + 0.5 * lam * np.sum(p.flat[mask] ** 2)
        _, grad = qp_loss(kind, params, batch, ou1d)
        step = 1e-6
        fd = np.zeros(params.size)
        for i in range(params.size):
            hi = MlpParams(spec, params.flat.copy())
            hi.flat[i] += step
            lo = MlpParams(spec, params.flat.copy())
            lo.flat[i] -= step
            fd[i] = (objective(hi) - objective(lo)) / (2 * step)
        rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-10)
        assert rel < 1e-5, f"{kind}: rel err {rel}"

    full("L1", x)
    full("L2", (x, targets))
    full("L3", x)


def _make_results(points, v_fn, reliable_mask):
    out = []
    for p, ok in zip(points, reliable_mask):
        out.append(RegressionResult(point=p, v_hat=v_fn(p), log_z0_hat=0.0, slope=0.0,
                                    rss_plain=1.0, rss_rescaled=1.0, dof=7,
                                    used_rows=10, reliable=bool(ok),
                                    se_v=0.01, se_log_z0=0.01))
    return out


def test_assemble_sets_composition(rng):
    pts = rng.uniform(-2, 2, size=(50, 1))
    reliable = np.abs(pts[:, 0]) < 1.0
    results = _make_results(pts, lambda p: p[0] ** 2, reliable)
    results[3] = None if not reliable[3] else results[3]
    attractor = np.zeros((5, 1))
    cfg = QpTrainConfig(artificial_value=2.5)
    u_top = np.where(reliable, 1.0, 0.0)  # far points have no density mass
    sets = assemble_qp_sets(attractor, pts, results, cfg, largest_eps_density=u_top)
    n_rel = int(reliable.sum())
    assert sets.x1.shape == (5, 1)
    assert sets.x2.shape[0] == 50  # reliable with targets + artificial rest
    assert int(sets.x2_artificial.sum()) == 50 - n_rel
    assert np.all(sets.x2_targets[sets.x2_artificial] == 2.5)
    assert np.all(sets.x2_is_reference == ~sets.x2_artificial)
    assert sets.x3.shape[0] == 50


def test_assemble_sets_match_per_point_rule(rng):
    # X2 holds the reliable points in order, then the far points: those
    # without a reliable fit whose top-level density is below the threshold.
    pts = rng.uniform(-2, 2, size=(60, 1))
    results = _make_results(pts, lambda p: p[0] ** 2, np.abs(pts[:, 0]) < 1.0)
    for i in range(0, 60, 7):
        results[i] = None
    u_top = rng.uniform(0.0, 2e-6, size=60)
    cfg = QpTrainConfig(artificial_value=4.0)
    sets = assemble_qp_sets(np.zeros((3, 1)), pts, results, cfg, largest_eps_density=u_top)
    rel = [i for i, r in enumerate(results) if r is not None and r.reliable]
    far = [i for i in range(60) if i not in rel and u_top[i] < cfg.far_field_density]
    assert 0 < len(far) < 60 - len(rel)
    assert np.array_equal(sets.x2, pts[rel + far])
    assert np.array_equal(sets.x2_targets, [results[i].v_hat for i in rel] + [4.0] * len(far))
    assert np.array_equal(sets.x2_artificial, np.arange(len(rel) + len(far)) >= len(rel))
    assert np.array_equal(sets.x2_is_reference, ~sets.x2_artificial)


def test_assemble_keeps_small_negative_targets(rng):
    pts = np.array([[0.1], [0.2], [0.3]])
    results = _make_results(pts, lambda p: -0.003 if p[0] == 0.1 else p[0] ** 2,
                            [True, True, True])
    attractor = np.zeros((2, 1))
    sets = assemble_qp_sets(attractor, pts, results, QpTrainConfig())
    assert -0.003 in sets.x2_targets  # no pre-clipping, the hinge handles sign
    assert sets.x2_artificial.sum() == 0  # all reliable: no artificial points


def test_assemble_expanded_replaces_artificial(rng):
    pts = rng.uniform(-2, 2, size=(30, 1))
    reliable = np.abs(pts[:, 0]) < 0.8
    results = _make_results(pts, lambda p: p[0] ** 2, reliable)
    attractor = np.zeros((2, 1))
    curve_pts = rng.uniform(-1.5, 1.5, size=(40, 1))
    sets = assemble_qp_sets(attractor, pts, results, QpTrainConfig(),
                            largest_eps_density=np.zeros(30),
                            expanded=(curve_pts, curve_pts[:, 0] ** 2))
    assert sets.x2_artificial.sum() == 0
    assert sets.x2.shape[0] == int(reliable.sum()) + 40
    assert np.array_equal(sets.x2_is_reference,
                          np.r_[np.ones(int(reliable.sum()), bool), np.zeros(40, bool)])


def test_assemble_requires_reliable_targets():
    pts = np.array([[0.5], [1.0]])
    results = _make_results(pts, lambda p: p[0] ** 2, [False, False])
    attractor = np.zeros((2, 1))
    with pytest.raises(ValueError, match="reliable"):
        assemble_qp_sets(attractor, pts, results, QpTrainConfig())


def test_alternating_schedule_state_isolation(ou1d, rng):
    spec = MlpSpec(widths=(1, 4, 1), l2_lambda=0.0)
    params = net.init_params(spec, seed=1)
    sizes = (40, 25, 70)
    data = [rng.uniform(-1, 1, size=(s, 1)) for s in sizes]

    def loss(p, b):
        v = net.forward(p, b)
        return float(np.mean(v**2)), net.grad_params(p, b, 2.0 * v / b.shape[0])

    members = [(f"m{i}", sizes[i], lambda idx, i=i: data[i][idx], loss, 1e-3)
               for i in range(3)]
    cfg = QpTrainConfig(epochs=1, batch_size=16, fine_tune_epochs=0)
    log, states = alternating_adam(params, members, cfg, seed=3)
    n_batches = int(np.ceil(max(sizes) / 16))
    assert [s.t for s in states] == [n_batches] * 3  # one step per drawn batch
    assert len(log) == 1


def test_alternating_adam_detects_divergence(rng):
    spec = MlpSpec(widths=(1, 3, 1))
    params = net.init_params(spec, seed=2)

    def bad_loss(p, b):
        return float("inf"), np.zeros(p.size)

    members = [("bad", 10, lambda idx: np.zeros((len(idx), 1)), bad_loss, 1e-3)]
    with pytest.raises(TrainingDiverged):
        alternating_adam(params, members, QpTrainConfig(epochs=1, fine_tune_epochs=0), seed=0)


def test_estimate_alpha_examples(rng):
    params = fit_net_to_parabola(seed=3)
    pts = rng.uniform(0.3, 1.0, size=(40, 1))
    exact = net.forward(params, pts)
    assert estimate_alpha(params, pts, exact) == pytest.approx(1.0, abs=1e-12)
    assert estimate_alpha(params, pts, exact / 0.9) == pytest.approx(0.9, abs=1e-12)
    with pytest.raises(ValueError, match="alpha"):
        estimate_alpha(params, pts[:5], exact[:5] + 10.0)  # only 5 qualifying


def test_estimate_alpha_median_robust():
    # ratios {0.8, 0.9, 5.0} replicated: the median ignores the outlier
    spec = MlpSpec(widths=(1, 1))
    params = MlpParams(spec)
    params.layers[0][0][0, 0] = 1.0  # identity net: V(x) = x
    pts = np.array([[0.8], [0.9], [5.0]] * 5)
    targets = np.ones(15)
    assert estimate_alpha(params, pts, targets) == 0.9


def test_train_qp_smoke_and_determinism(ou1d, rng):
    pts = np.linspace(-1.2, 1.2, 60)[:, None]
    results = _make_results(pts, lambda p: p[0] ** 2, np.ones(60, bool))
    attractor = np.zeros((20, 1))
    cfg = QpTrainConfig(epochs=3, fine_tune_epochs=1, widths=(1, 8, 6, 1), seed=7)
    sets = assemble_qp_sets(attractor, pts, results, cfg)
    t1 = train_qp(sets, cfg, ou1d)
    t2 = train_qp(sets, cfg, ou1d)
    assert np.array_equal(t1.params.flat, t2.params.flat)
    assert t1.alpha == t2.alpha
    assert len(t1.log) == 4
    assert all(np.isfinite(row[1]) for row in t1.log)


def test_train_qp_continues_from_initial(ou1d):
    pts = np.linspace(-1.2, 1.2, 30)[:, None]
    results = _make_results(pts, lambda p: p[0] ** 2, np.ones(30, bool))
    attractor = np.zeros((5, 1))
    cfg = QpTrainConfig(epochs=1, fine_tune_epochs=0, widths=(1, 6, 1), seed=1)
    sets = assemble_qp_sets(attractor, pts, results, cfg)
    first = train_qp(sets, cfg, ou1d)
    resumed = train_qp(sets, cfg, ou1d, initial=first.params)
    assert not np.array_equal(resumed.params.flat, first.params.flat)
    assert resumed.params.spec == first.params.spec
