"""The network kernels' helper thread: the same bits as the inline path,
its gate, Adam's rejection under the split update, fork safety and
draining on error."""

import signal
import sys
import threading
import time

import numpy as np
import pytest

from deepwkb import net, simulate
from deepwkb.models import make_benchmark
from deepwkb.net import AdamState, MlpSpec
from deepwkb.train_v import qp_loss
from deepwkb.train_z import z_loss

BATCH = 128


@pytest.fixture
def gate(monkeypatch):
    """Sets whether a spare core is seen, so the helper engages (or not)
    whatever the machine and its BLAS threads."""
    def set_gate(on):
        monkeypatch.setattr(net, "_spare_core", lambda: on)
    return set_gate


@pytest.fixture
def paper(rng):
    """Paper-width parameters, the trace of a batch of 128 points, and one
    direction, coefficient and output seed per row."""
    p = net.init_params(MlpSpec(widths=net.default_widths(2)), seed=15)
    x = rng.uniform(-1.0, 1.0, size=(BATCH, 2))
    return (p, net.trace(p, x), rng.normal(size=(BATCH, 2)), rng.normal(size=BATCH),
            rng.normal(size=BATCH))


def kernel_outputs(p, acts, b, coeff, ups):
    """Every kernel and loss that hands work to the helper, at one batch."""
    system = make_benchmark("ou2d")
    x = acts[0]
    targets = np.sum(x**2, axis=1)
    out = {
        "grad_params": net.grad_params(p, acts, ups),
        "dirgrad": net.grad_params_of_directional_input_grad(p, acts, b, coeff),
        "dirgrad_upstream": net.grad_params_of_directional_input_grad(p, acts, b, coeff, ups),
    }
    for kind, batch in (("L1", x), ("L2", (x, targets)), ("L3", x)):
        out[f"qp_loss {kind}"] = qp_loss(kind, p, batch, system)
    for kind, batch in (("L1", (x, np.full(BATCH, 1.0 / np.pi))), ("L2", (x, targets)),
                        ("L3", (x, b, coeff))):
        out[f"z_loss {kind}"] = z_loss(kind, p, batch, system, None)
    return out


def test_helper_engages_only_at_width(gate):
    gate(True)
    small = net.init_params(MlpSpec(widths=(1, 32, 32, 1)), seed=1)
    wide = net.init_params(MlpSpec(widths=net.default_widths(2)), seed=1)
    assert small.size == 1153 and wide.size == 157633
    assert net._helper_for(small.size) is None
    assert net._helper_for(wide.size) is not None
    gate(False)
    assert net._helper_for(wide.size) is None


@pytest.mark.parametrize("env, threads", [
    ({}, 0),
    ({"OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1),
    ({"OPENBLAS_NUM_THREADS": "-3", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "3"}, 3),
])
def test_blas_threads_read_as_openblas_reads_them(monkeypatch, env, threads):
    for name in net._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert net._blas_threads() == threads


def test_helper_kernels_match_inline_bitwise(gate, paper):
    gate(False)
    inline = kernel_outputs(*paper)
    gate(True)
    assert net._helper_for(paper[0].size) is not None
    helped = kernel_outputs(*paper)
    for name, want in inline.items():
        got = helped[name]
        if isinstance(want, tuple):  # a loss: (value, gradient)
            assert got[0] == want[0], name
            got, want = got[1], want[1]
        assert np.array_equal(got, want), name


def adam_run(p, grads):
    p = p.copy()
    state = AdamState.fresh(p, lr=1e-3)
    for g in grads:
        net.adam_step(state, p, g)
    return p.flat, state


def test_adam_split_matches_inline_bitwise(gate, paper, rng):
    p = paper[0]
    grads = 1e-2 * rng.normal(size=(20, p.size))
    gate(False)
    flat, state = adam_run(p, grads)
    gate(True)
    flat_h, state_h = adam_run(p, grads)
    assert state_h.t == state.t == 20
    assert np.array_equal(flat_h, flat)
    assert np.array_equal(state_h.m, state.m)
    assert np.array_equal(state_h.v, state.v)


@pytest.mark.parametrize("bad, where", [(np.nan, "second"), (np.inf, "first")])
def test_adam_rejects_nonfinite_in_either_half(gate, paper, rng, bad, where):
    gate(True)
    p = paper[0].copy()
    state = AdamState.fresh(p, lr=1e-3)
    for _ in range(3):
        net.adam_step(state, p, 1e-2 * rng.normal(size=p.size))
    before = p.flat.copy(), state.m.copy(), state.v.copy(), state.t
    g = rng.normal(size=p.size)
    g[p.size // 2 + 5 if where == "second" else 7] = bad
    net.adam_step(state, p, g)
    assert state.rejected == 1
    assert state.t == before[3]
    for now, then in zip((p.flat, state.m, state.v), before):
        assert np.array_equal(now, then)


class _TimedOut(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _TimedOut


def test_forked_child_drops_the_helper(gate, paper):
    gate(True)
    p, acts, _, _, ups = paper
    state = AdamState.fresh(p, lr=1e-3)
    net.adam_step(state, p.copy(), ups.mean() * np.ones(p.size))  # starts the helper
    assert net._helper is not None
    want = net.grad_params(p, acts, ups)
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(30)
    try:
        with simulate.call_in_child(net.grad_params, p, acts, ups) as result:
            got = result()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert np.array_equal(got, want)
    assert net._helper is not None  # the parent keeps its helper


class _TaskFailed(Exception):
    pass


def test_task_error_surfaces_after_every_task_ends(gate, paper, monkeypatch):
    gate(True)
    p, acts, _, _, ups = paper
    want = net.grad_params(p, acts, ups)
    real = net._weight_grad
    ended = []

    def task(delta, a, gw, gb):
        if delta.shape[1] == 1:  # the output layer's task, handed over first
            raise _TaskFailed("output layer")
        time.sleep(0.02)
        real(delta, a, gw, gb)
        ended.append(gw.shape)

    monkeypatch.setattr(net, "_weight_grad", task)
    with pytest.raises(_TaskFailed, match="output layer"):
        net.grad_params(p, acts, ups)
    assert len(ended) == p.spec.n_layers - 1
    monkeypatch.setattr(net, "_weight_grad", real)
    assert np.array_equal(net.grad_params(p, acts, ups), want)


def test_kernel_error_waits_for_handed_tasks(gate, paper, monkeypatch):
    gate(True)
    p, acts, _, _, ups = paper
    want = net.grad_params(p, acts, ups)
    real = net._weight_grad
    ended = []

    def slow(delta, a, gw, gb):
        time.sleep(0.02)
        real(delta, a, gw, gb)
        ended.append(gw.shape)

    monkeypatch.setattr(net, "_weight_grad", slow)
    broken = net._Trace(acts)
    broken.slopes = list(acts.slopes)
    broken.slopes[1] = np.ones((3, 3))  # the adjoint chain fails at the first layer
    with pytest.raises(ValueError):
        net.grad_params(p, broken, ups)
    assert len(ended) == p.spec.n_layers - 1  # every layer above the first
    monkeypatch.setattr(net, "_weight_grad", real)
    assert np.array_equal(net.grad_params(p, acts, ups), want)


def test_concurrent_callers_under_fast_switching(gate, paper, rng):
    # More calling threads than cores, and a thread switch every 10 us: a
    # task lost, run twice or run against another call's queue would leave
    # unwritten or wrong entries.
    p, acts, b, coeff, ups = paper
    grads = 1e-2 * rng.normal(size=(5, p.size))
    gate(False)
    want = (net.grad_params(p, acts, ups),
            net.grad_params_of_directional_input_grad(p, acts, b, coeff, ups),
            adam_run(p, grads)[0])
    gate(True)
    results, errors = [], []

    def caller():
        try:
            for _ in range(4):
                results.append((net.grad_params(p, acts, ups),
                                net.grad_params_of_directional_input_grad(p, acts, b, coeff, ups),
                                adam_run(p, grads)[0]))
        except Exception as exc:
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(results) == 12
    for got in results:
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
