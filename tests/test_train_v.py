import ctypes

import numpy as np
import pytest

from deepwkb import net
from deepwkb.net import AdamState, MlpParams, MlpSpec
from deepwkb.regression import _empty_table
from deepwkb.train_v import (BATCH_SIZE, FAR_FIELD_DENSITY, QpTrainConfig, QpTrainingSets,
                             TrainingDiverged, alternating_adam, assemble_qp_sets,
                             estimate_alpha, hj_residual, qp_loss, train_qp)

from conftest import figure8_quasipotential, fresh_interpreter, weight_penalty


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
    state = AdamState.fresh(params.size, lr=3e-3)
    rng = np.random.default_rng(seed)
    for k in range(steps):
        if k == int(steps * 0.6):
            state.lr = 3e-4
        if k == int(steps * 0.85):
            state.lr = 3e-5
        x = rng.uniform(-1.2, 1.2, size=(64, 1))
        acts = net.trace(params, x)
        v = acts[-1][:, 0]
        grad = net.grad_params(params, acts, 2.0 * (v - x[:, 0] ** 2) / 64)
        if match_gradient:
            g = net.grad_input(params, acts)[:, 0]
            grad += net.grad_params_of_directional_input_grad(
                params, acts, np.ones_like(x), 2.0 * (g - 2.0 * x[:, 0]) / 64)
        net.adam_step(state, params.flat, grad)
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

    def full(kind, batch):
        def objective(p):
            # differentiated objective = loss value + the L2 penalty term
            val, _ = qp_loss(kind, p, batch, ou1d)
            return val + weight_penalty(p)
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


def test_qp_loss_traces_the_network_once(ou1d, rng, net_calls):
    params = net.init_params(MlpSpec(widths=(1, 6, 4, 1)), seed=5)
    x = rng.uniform(-1, 1, size=(7, 1))
    for kind, batch in (("L1", x), ("L2", (x, rng.uniform(size=7))), ("L3", x)):
        net_calls.clear()
        qp_loss(kind, params, batch, ou1d)
        sweep = [params] if kind == "L3" else []  # one input gradient, one directional sweep
        assert [net_calls[k] for k in ("trace", "grad_input",
                                       "grad_params_of_directional_input_grad")] \
            == [[params], sweep, sweep], kind


def _make_table(points, v_fn, reliable_mask, u_top=0.0):
    """A regression table that fits every point, with V = v_fn."""
    table = _empty_table(points)
    table["v_hat"] = [v_fn(p) for p in points]
    table["rss_plain"] = table["rss_rescaled"] = 1.0
    table["dof"], table["used_rows"], table["reliable"] = 7, 10, reliable_mask
    table["se_v"] = table["se_log_z0"] = 0.01
    table["u_top"] = u_top
    return table


def _exclude(table, rows):
    """Make ``rows`` excluded points: every column but point and u_top 0."""
    for name in table.dtype.names:
        if name not in ("point", "u_top"):
            table[name][rows] = 0


def test_assemble_sets_composition(rng):
    pts = rng.uniform(-2, 2, size=(50, 1))
    reliable = np.abs(pts[:, 0]) < 1.0
    # far points have no density mass
    table = _make_table(pts, lambda p: p[0] ** 2, reliable, u_top=np.where(reliable, 1.0, 0.0))
    if not reliable[3]:
        _exclude(table, [3])
    attractor = np.zeros((5, 1))
    sets = assemble_qp_sets(attractor, table, QpTrainConfig())
    n_rel = int(reliable.sum())
    assert sets.x1.shape == (5, 1)
    assert sets.x2.shape[0] == 50  # reliable with targets + artificial rest
    assert int(sets.x2_artificial.sum()) == 50 - n_rel
    # the artificial value is 1.5 x the 95th percentile of the reliable targets
    artificial = 1.5 * np.percentile(pts[reliable, 0] ** 2, 95.0)
    assert np.all(sets.x2_targets[sets.x2_artificial] == artificial)
    assert np.all(sets.x2_is_reference == ~sets.x2_artificial)
    assert sets.x3.shape[0] == 50


def test_assemble_sets_match_per_point_rule(rng):
    # X2 holds the reliable points in order, then the far points: those
    # without a reliable fit whose top-level density is below the threshold.
    pts = rng.uniform(-2, 2, size=(60, 1))
    u_top = rng.uniform(0.0, 2e-6, size=60)
    table = _make_table(pts, lambda p: p[0] ** 2, np.abs(pts[:, 0]) < 1.0, u_top=u_top)
    _exclude(table, np.arange(0, 60, 7))
    sets = assemble_qp_sets(np.zeros((3, 1)), table, QpTrainConfig())
    rel = [i for i in range(60) if table["reliable"][i] == 1]
    far = [i for i in range(60) if i not in rel and u_top[i] < FAR_FIELD_DENSITY]
    assert 0 < len(far) < 60 - len(rel)
    assert np.array_equal(sets.x2, pts[rel + far])
    artificial = 1.5 * np.percentile(pts[rel, 0] ** 2, 95.0)
    assert np.array_equal(sets.x2_targets, list(table["v_hat"][rel]) + [artificial] * len(far))
    assert np.array_equal(sets.x2_artificial, np.arange(len(rel) + len(far)) >= len(rel))
    assert np.array_equal(sets.x2_is_reference, ~sets.x2_artificial)


def test_assemble_keeps_small_negative_targets(rng):
    pts = np.array([[0.1], [0.2], [0.3]])
    table = _make_table(pts, lambda p: -0.003 if p[0] == 0.1 else p[0] ** 2,
                        [True, True, True])
    attractor = np.zeros((2, 1))
    sets = assemble_qp_sets(attractor, table, QpTrainConfig())
    assert -0.003 in sets.x2_targets  # no pre-clipping, the hinge handles sign
    assert sets.x2_artificial.sum() == 0  # all reliable: no artificial points


def test_assemble_expanded_replaces_artificial(rng):
    pts = rng.uniform(-2, 2, size=(30, 1))
    reliable = np.abs(pts[:, 0]) < 0.8
    table = _make_table(pts, lambda p: p[0] ** 2, reliable)
    attractor = np.zeros((2, 1))
    curve_pts = rng.uniform(-1.5, 1.5, size=(40, 1))
    sets = assemble_qp_sets(attractor, table, QpTrainConfig(),
                            expanded=(curve_pts, curve_pts[:, 0] ** 2))
    assert sets.x2_artificial.sum() == 0
    assert sets.x2.shape[0] == int(reliable.sum()) + 40
    assert np.array_equal(sets.x2_is_reference,
                          np.r_[np.ones(int(reliable.sum()), bool), np.zeros(40, bool)])


def test_assemble_requires_reliable_targets():
    pts = np.array([[0.5], [1.0]])
    table = _make_table(pts, lambda p: p[0] ** 2, [False, False])
    attractor = np.zeros((2, 1))
    with pytest.raises(ValueError, match="reliable"):
        assemble_qp_sets(attractor, table, QpTrainConfig())


def test_alternating_schedule_state_isolation(ou1d, rng, adam_calls):
    spec = MlpSpec(widths=(1, 4, 1), l2_lambda=0.0)
    params = net.init_params(spec, seed=1)
    sizes = (320, 200, 560)  # 5 batches of 128 per epoch; the smaller sets recycle
    terms = [(f"m{i}", (rng.uniform(-1, 1, size=(s, 1)),), 1e-3) for i, s in enumerate(sizes)]

    def loss(kind, p, b):
        acts = net.trace(p, b)
        v = acts[-1][:, 0]
        return float(np.mean(v**2)), net.grad_params(p, acts, 2.0 * v / b.shape[0])

    cfg = QpTrainConfig(epochs=1, fine_tune_epochs=0)
    log, rejected = alternating_adam(params, terms, loss, cfg, seed=3)
    states = [call[0] for call in adam_calls]
    n_batches = int(np.ceil(max(sizes) / BATCH_SIZE))
    assert all(s is states[k % 3] for k, s in enumerate(states))  # one state per term
    assert len({id(s) for s in states}) == 3
    assert [s.t for s in states[:3]] == [n_batches] * 3  # one step per drawn batch
    assert rejected == {"m0": 0, "m1": 0, "m2": 0}
    assert len(log) == 1


def test_alternating_adam_batches_take_the_same_rows_of_each_array():
    params = net.init_params(MlpSpec(widths=(1, 3, 1)), seed=2)
    rows = np.arange(300.0)
    terms = [("L1", (rows[:50, None],), 1e-3), ("L2", (rows[:70, None], rows[:70] + 0.5), 1e-3),
             ("L3", (rows[:, None], rows + 0.5, -rows), 1e-3)]
    seen = []

    def loss(kind, p, batch):
        seen.append((kind, batch))
        return 0.0, np.zeros(p.size)

    alternating_adam(params, terms, loss, QpTrainConfig(epochs=2, fine_tune_epochs=1), seed=0)
    # 3 batches of each term in each of the 2 epochs, then 3 of L1 and L3
    assert [kind for kind, _ in seen] == ["L1", "L2", "L3"] * 6 + ["L1", "L3"] * 3
    for kind, batch in seen:
        x = batch if kind == "L1" else batch[0]
        assert x.shape == (BATCH_SIZE, 1)
        if kind != "L1":
            assert np.array_equal(batch[1], x[:, 0] + 0.5)
        if kind == "L3":
            assert len(batch) == 3 and np.array_equal(batch[2], -x[:, 0])
    # the first epoch's L3 stream begins with every row once
    first = np.concatenate([b[0][:, 0] for kind, b in seen[:9] if kind == "L3"])
    assert np.array_equal(np.sort(first[:300]), rows)


def test_alternating_adam_detects_divergence(rng):
    spec = MlpSpec(widths=(1, 3, 1))
    params = net.init_params(spec, seed=2)

    def loss(kind, p, b):
        return float("inf") if kind == "L2" else 0.0, np.zeros(p.size)

    terms = [(kind, (np.zeros((10, 1)),), 1e-3) for kind in ("L1", "L2", "L3")]
    with pytest.raises(TrainingDiverged, match="^L2 became non-finite at epoch 0$"):
        alternating_adam(params, terms, loss, QpTrainConfig(epochs=1, fine_tune_epochs=0),
                         seed=0)


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
    table = _make_table(pts, lambda p: p[0] ** 2, np.ones(60, bool))
    attractor = np.zeros((20, 1))
    cfg = QpTrainConfig(epochs=3, fine_tune_epochs=1, widths=(1, 8, 6, 1), seed=7)
    sets = assemble_qp_sets(attractor, table, cfg)
    t1 = train_qp(sets, cfg, ou1d)
    t2 = train_qp(sets, cfg, ou1d)
    assert np.array_equal(t1.params.flat, t2.params.flat)
    assert t1.alpha == t2.alpha
    assert len(t1.log) == 4
    assert all(np.isfinite(row[1]) for row in t1.log)


def test_train_qp_continues_from_initial(ou1d):
    pts = np.linspace(-1.2, 1.2, 30)[:, None]
    table = _make_table(pts, lambda p: p[0] ** 2, np.ones(30, bool))
    attractor = np.zeros((5, 1))
    cfg = QpTrainConfig(epochs=1, fine_tune_epochs=0, widths=(1, 6, 1), seed=1)
    sets = assemble_qp_sets(attractor, table, cfg)
    first = train_qp(sets, cfg, ou1d)
    resumed = train_qp(sets, cfg, ou1d, initial=first.params)
    assert not np.array_equal(resumed.params.flat, first.params.flat)
    assert resumed.params.spec == first.params.spec


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="no mallopt in this libc")
def test_training_keeps_freed_memory_for_the_next_step():
    # A fresh interpreter, whose allocator no training has set.  Blocks of
    # 1 MB and up, each 64 KB larger than the last, are all above glibc's
    # default mmap threshold, which rises only to the last block freed: so
    # each is mapped and faulted in anew, over 5,000 page faults for the
    # 20 blocks.  Kept in the heap, they cost about the pages of the last.
    code = ("import resource, numpy as np\n"
            "from deepwkb.train_v import _keep_freed_memory\n"
            "_keep_freed_memory()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for k in range(20):\n"
            "    np.ones((1 << 17) + k * (1 << 13))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    assert int(fresh_interpreter(code)) < 2000
