import warnings

import numpy as np
import pytest
from scipy.special import expit

from deepwkb import net
from deepwkb.density import DensityHistogram, GridSpec
from deepwkb.net import AdamState, MlpParams, MlpSpec

from conftest import grad_input_at


def small_spec(n_in=2, lam=0.0):
    return MlpSpec(widths=(n_in, 7, 5, 1), l2_lambda=lam)


def reference_forward(spec, flat, x):
    """Independent re-implementation of the forward pass at one point."""
    params = MlpParams(spec, flat)
    a = np.asarray(x, dtype=float)
    for l, (w, b) in enumerate(params.layers):
        z = w @ a + b
        a = z if l == spec.n_layers - 1 else 1.0 / (1.0 + np.exp(-z))
    return float(a[0])


def test_init_deterministic_and_bounded():
    spec = MlpSpec(widths=(2, 32, 1))
    p1 = net.init_params(spec, seed=7)
    p2 = net.init_params(spec, seed=7)
    p3 = net.init_params(spec, seed=8)
    assert np.array_equal(p1.flat, p2.flat)
    assert not np.array_equal(p1.flat, p3.flat)
    # hidden layer: sigmoid-corrected bound 4 sqrt(6/(fan_in+fan_out))
    w0 = p1.layers[0][0]
    bound = 4.0 * np.sqrt(6.0 / 34.0)
    assert np.max(np.abs(w0)) <= bound
    assert np.max(np.abs(w0)) > 0.9 * bound  # the bound is actually used
    assert np.array_equal(p1.layers[0][1], np.zeros(32))
    # linear output layer keeps the unit-gain bound
    w_last = p1.layers[-1][0]
    assert np.max(np.abs(w_last)) <= np.sqrt(6.0 / 33.0)


def test_init_signal_survives_depth():
    # The whole point of the gain correction: the input must still move
    # the output of the deep standard ladder at initialization.
    spec = MlpSpec(widths=net.default_widths(1))
    p = net.init_params(spec, seed=0)
    xs = np.linspace(-2, 2, 101)[:, None]
    assert np.std(net.forward(p, xs)) > 1e-3


def test_forward_degenerate_cases(rng):
    spec = small_spec()
    zero = MlpParams(spec)
    x = rng.normal(size=2)[None, :]
    assert net.forward(zero, x)[0] == 0.0
    bias_only = MlpParams(spec)
    bias_only.layers[-1][1][...] = 3.25
    assert net.forward(bias_only, x)[0] == 3.25
    assert net.forward(bias_only, rng.normal(size=(5, 2))) == pytest.approx([3.25] * 5)


def test_forward_matches_reference(rng):
    spec = small_spec()
    p = net.init_params(spec, seed=1)
    for _ in range(5):
        x = rng.normal(size=2)
        assert net.forward(p, x[None, :])[0] == pytest.approx(reference_forward(spec, p.flat, x),
                                                              abs=1e-15)


def test_trace_sigmoid_and_slopes():
    # A unit first layer hands z straight to the sigmoid.
    p = MlpParams(MlpSpec(widths=(1, 1, 1)))
    p.layers[0][0][...] = 1.0
    z = np.linspace(-800.0, 800.0, 1_000_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # exp(800) overflows, silently
        tr = net.trace(p, z[:, None])
    s = tr[1][:, 0]
    ulps = np.abs(s.view(np.int64) - expit(z).view(np.int64))  # both >= 0
    assert ulps.max() <= 4
    assert s[0] == 0.0 and s[-1] == 1.0
    assert np.array_equal(tr.slopes[1], tr[1] * (1.0 - tr[1]))
    assert tr.slopes[0] is None and tr.slopes[-1] is None


@pytest.mark.parametrize("widths", [(1, 32, 32, 1), net.default_widths(2)])
def test_forward_is_the_traced_output(rng, widths):
    p = net.init_params(MlpSpec(widths=widths), seed=4)
    x = 30.0 * rng.normal(size=(129, widths[0]))  # saturates some sigmoids
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = net.forward(p, x)
    assert np.array_equal(out, net.trace(p, x)[-1][:, 0])


def _fd_params(fun, p, step=1e-5):
    out = np.zeros(p.size)
    for i in range(p.size):
        fp = MlpParams(p.spec, p.flat.copy())
        fp.flat[i] += step
        fm = MlpParams(p.spec, p.flat.copy())
        fm.flat[i] -= step
        out[i] = (fun(fp) - fun(fm)) / (2 * step)
    return out


def test_grad_params_finite_differences(rng):
    spec = small_spec()
    p = net.init_params(spec, seed=2)
    x = rng.normal(size=2)[None, :]
    g = net.grad_params(p, net.trace(p, x), np.ones(1))
    fd = _fd_params(lambda q: net.forward(q, x)[0], p)
    assert np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)) < 1e-6


def test_grad_params_l2_term(rng):
    # grad_params is the bare data gradient; the losses add the penalty to
    # it in place.
    spec = small_spec(lam=0.01)
    p = net.init_params(spec, seed=3)
    x = rng.normal(size=2)[None, :]
    grad = net.grad_params(p, net.trace(p, x), np.zeros(1))
    assert np.array_equal(grad, np.zeros(p.size))
    assert net._add_weight_penalty(p, grad) is grad
    g = MlpParams(spec, grad)
    for (gw, gb), (w, _) in zip(g.layers, p.layers):
        assert np.array_equal(gw, 0.01 * w)
        assert np.array_equal(gb, np.zeros_like(gb))


def test_grad_input_linear_network(rng):
    # A single affine layer has constant gradient equal to its weight row.
    spec = MlpSpec(widths=(3, 1), l2_lambda=0.0)
    p = net.init_params(spec, seed=4)
    w = p.layers[0][0][0]
    for _ in range(3):
        x = rng.normal(size=3)[None, :]
        assert np.allclose(grad_input_at(p, x)[0], w, atol=1e-15)
    assert np.allclose(net.hessian_input(p, x), 0.0)


def test_grad_input_finite_differences(rng):
    spec = small_spec()
    p = net.init_params(spec, seed=5)
    x = rng.normal(size=2)[None, :]
    g = grad_input_at(p, x)[0]
    step = 1e-5
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        fd = (net.forward(p, x + e)[0] - net.forward(p, x - e)[0]) / (2 * step)
        assert abs(g[j] - fd) / max(abs(fd), 1e-8) < 1e-6


def test_grad_input_symmetry(rng):
    # Symmetrized first-layer weights across two inputs give equal components.
    spec = small_spec()
    p = net.init_params(spec, seed=6)
    w0 = p.layers[0][0]
    w0[:, 1] = w0[:, 0]
    g = grad_input_at(p, np.array([[0.4, 0.4]]))[0]
    assert g[0] == pytest.approx(g[1], abs=1e-14)


def test_hessian_input_finite_differences(rng):
    spec = small_spec()
    p = net.init_params(spec, seed=7)
    x = rng.normal(size=2)[None, :]
    h = net.hessian_input(p, x)[0]
    assert np.array_equal(h, h.T)
    step = 1e-5
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        fd = (grad_input_at(p, x + e)[0] - grad_input_at(p, x - e)[0]) / (2 * step)
        assert np.max(np.abs(h[:, j] - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-5


def test_hessian_local_quadratic_oracle():
    # 1-d net fitted locally by a quadratic: hessian ~ 2a.
    spec = MlpSpec(widths=(1, 8, 1), l2_lambda=0.0)
    p = net.init_params(spec, seed=8)
    x0 = 0.3
    xs = x0 + np.linspace(-1e-3, 1e-3, 7)[:, None]
    vals = net.forward(p, xs)
    coef = np.polyfit(xs.ravel() - x0, vals, 2)
    h = net.hessian_input(p, np.array([[x0]]))[0, 0, 0]
    assert h == pytest.approx(2.0 * coef[0], rel=1e-4)


def test_dirgrad_finite_differences_and_linearity(rng):
    spec = small_spec()
    p = net.init_params(spec, seed=9)
    x = rng.normal(size=2)[None, :]
    w1 = rng.normal(size=2)[None, :]
    w2 = rng.normal(size=2)[None, :]
    one = np.ones(1)
    acts = net.trace(p, x)
    g = net.grad_params_of_directional_input_grad(p, acts, w1, one)
    fd = _fd_params(lambda q: float(w1[0] @ grad_input_at(q, x)[0]), p)
    assert np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-5
    assert np.array_equal(net.grad_params_of_directional_input_grad(p, acts, np.zeros((1, 2)), one),
                          np.zeros(p.size))
    g12 = net.grad_params_of_directional_input_grad(p, acts, w1 + w2, one)
    g2 = net.grad_params_of_directional_input_grad(p, acts, w2, one)
    assert np.max(np.abs(g12 - (g + g2))) < 1e-12
    # An absent output seed is a zero one.
    assert np.array_equal(net.grad_params_of_directional_input_grad(p, acts, w1, one, np.zeros(1)),
                          g)


def reference_dirgrad(params, acts, w_dir, coeff):
    """The unseeded directional kernel with its slopes recomputed from the
    activations and its gradient summed into zeros, in the kernel's order
    of operations."""
    last = params.spec.n_layers - 1
    slope = [None] + [s * (1.0 - s) for s in acts[1:-1]]
    zdots, adots = [], [w_dir]
    for l, (w, _) in enumerate(params.layers):
        zdots.append(adots[-1] @ w.T)
        adots.append(zdots[-1] if l == last else slope[l + 1] * zdots[-1])
    grad = MlpParams(params.spec)
    a_bar, q = np.zeros((w_dir.shape[0], 1)), coeff[:, None]
    for l in range(last, -1, -1):
        w, _ = params.layers[l]
        if l == last:
            z_bar, r = a_bar, q
        else:
            sp = slope[l + 1]
            z_bar = sp * a_bar + sp * (1.0 - 2.0 * acts[l + 1]) * zdots[l] * q
            r = sp * q
        gw, gb = grad.layers[l]
        gw += z_bar.T @ acts[l] + r.T @ adots[l]
        gb += z_bar.sum(axis=0)
        a_bar, q = z_bar @ w, r @ w
    return grad.flat


def test_dirgrad_output_seed_adds_grad_params(rng):
    # Seeding the output adjoint with u gives the directional gradient plus
    # grad_params(u) in one sweep, at paper width and batch.
    p = net.init_params(MlpSpec(widths=net.default_widths(2)), seed=15)
    x = rng.uniform(-1.0, 1.0, size=(128, 2))
    b = rng.normal(size=(128, 2))
    coeff, c = rng.normal(size=128), rng.normal(size=128)
    acts = net.trace(p, x)
    unseeded = net.grad_params_of_directional_input_grad(p, acts, b, coeff)
    assert np.array_equal(unseeded, reference_dirgrad(p, acts, b, coeff))
    fused = net.grad_params_of_directional_input_grad(p, acts, b, coeff, coeff * c)
    apart = unseeded + net.grad_params(p, acts, coeff * c)
    assert np.max(np.abs(fused - apart)) <= 1e-12 * np.max(np.abs(apart))
    with pytest.raises(ValueError, match="upstream"):
        net.grad_params_of_directional_input_grad(p, acts, b, coeff, c[:5])


def test_adam_first_step_closed_form():
    spec = small_spec()
    p = MlpParams(spec)
    state = AdamState.fresh(p, lr=1e-3)
    net.adam_step(state, p, np.ones(p.size))
    assert np.allclose(p.flat, -1e-3 / (1.0 + 1e-8))
    assert state.t == 1


def test_adam_zero_gradient_is_noop():
    spec = small_spec()
    p = net.init_params(spec, seed=10)
    before = p.flat.copy()
    state = AdamState.fresh(p, lr=1e-2)
    net.adam_step(state, p, np.zeros(p.size))
    assert np.array_equal(p.flat, before)


def test_adam_rejects_nonfinite_gradient():
    spec = small_spec()
    p = net.init_params(spec, seed=11)
    before = p.flat.copy()
    state = AdamState.fresh(p, lr=1e-2)
    g = np.ones(p.size)
    g[3] = np.nan
    net.adam_step(state, p, g)
    assert state.rejected == 1 and state.t == 0
    assert np.array_equal(p.flat, before)


def test_two_optimizers_keep_independent_state(rng):
    spec = small_spec()
    p = net.init_params(spec, seed=12)
    s1 = AdamState.fresh(p, lr=1e-3)
    s2 = AdamState.fresh(p, lr=5e-4)
    net.adam_step(s1, p, rng.normal(size=p.size))
    m1 = s1.m.copy()
    net.adam_step(s2, p, rng.normal(size=p.size))
    assert np.array_equal(s1.m, m1)  # the second optimizer left s1 untouched
    assert s1.t == 1 and s2.t == 1


def test_flat_view_round_trip(rng):
    spec = small_spec()
    p = net.init_params(spec, seed=13)
    q = MlpParams(spec, p.flat.copy())
    for (w1, b1), (w2, b2) in zip(p.layers, q.layers):
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
    # views share the flat buffer
    p.layers[0][0][0, 0] = 123.0
    assert p.flat[0] == 123.0


def test_checkpoint_round_trip(tmp_path, rng):
    spec = MlpSpec(widths=(2, 4, 1), l2_lambda=2e-3)
    p = net.init_params(spec, seed=14)
    state = AdamState.fresh(p, lr=3e-4)
    net.adam_step(state, p, rng.normal(size=p.size))
    path = tmp_path / "model.dwkbnet"
    net.save_checkpoint(path, p, adam_states=[state], extra=b'{"alpha": 0.93}')
    q, states, extra = net.load_checkpoint(path)
    assert q.spec == spec
    assert np.array_equal(q.flat, p.flat)
    assert states[0].t == 1 and states[0].lr == 3e-4
    assert np.array_equal(states[0].m, state.m)
    assert np.array_equal(states[0].v, state.v)
    assert extra == b'{"alpha": 0.93}'


def test_readers_reject_a_file_of_another_format(tmp_path):
    # The earlier hand-packed layouts, and each reader given the other's
    # file, raise ValueError naming the path.
    hist_path, net_path = tmp_path / "new.dwkbhist", tmp_path / "new.dwkbnet"
    DensityHistogram(GridSpec((0.0,), (1.0,), (4,)), epsilon=0.1).to_file(hist_path)
    net.save_checkpoint(net_path, net.init_params(small_spec(), seed=0))
    old_hist, old_net = tmp_path / "old.dwkbhist", tmp_path / "old.dwkbnet"
    old_hist.write_bytes(b"DWKBHIST" + bytes(48))
    old_net.write_bytes(b"DWKBNET\x00" + bytes(48))
    for read, paths in ((net.load_checkpoint, (hist_path, old_net)),
                        (DensityHistogram.from_file, (net_path, old_hist))):
        for path in paths:
            with pytest.raises(ValueError, match=path.name):
                read(path)
