"""Adam's update over parts of the flat vector, as the training ranks take
it: two halves give the bits of one whole-vector step, and a non-finite
gradient entry in either half rejects the step."""

import numpy as np
import pytest

from deepwkb import net
from deepwkb.net import AdamState, MlpSpec


@pytest.fixture
def paper():
    """Paper-width parameters; their size is no multiple of the Adam chunk,
    so the halves' chunks start elsewhere than the whole vector's."""
    p = net.init_params(MlpSpec(widths=net.default_widths(2)), seed=15)
    assert p.size % net._ADAM_CHUNK != 0
    return p


def halves(p):
    return slice(0, p.size // 2), slice(p.size // 2, p.size)


def adam_run(p, grads, split):
    """The parameters and moments after one step per gradient, either over
    the whole vector or as two states that share the moments and each take
    one half, as two ranks do."""
    p = p.copy()
    state = AdamState.fresh(p, lr=1e-3)
    if not split:
        for g in grads:
            net.adam_step(state, p, g)
        return p.flat, state.m, state.v, state.t
    ranks = [AdamState(lr=state.lr, m=state.m, v=state.v) for _ in range(2)]
    for g in grads:
        for rank, part in zip(ranks, halves(p)):
            net.adam_step(rank, p, g[part], part)
    assert ranks[0].t == ranks[1].t
    return p.flat, state.m, state.v, ranks[0].t


def test_adam_split_matches_inline_bitwise(paper, rng):
    grads = 1e-2 * rng.normal(size=(20, paper.size))
    flat, m, v, t = adam_run(paper, grads, split=False)
    flat_s, m_s, v_s, t_s = adam_run(paper, grads, split=True)
    assert t_s == t == 20
    assert np.array_equal(flat_s, flat)
    assert np.array_equal(m_s, m)
    assert np.array_equal(v_s, v)


@pytest.mark.parametrize("bad, where", [(np.nan, "second"), (np.inf, "first")])
def test_adam_rejects_nonfinite_in_either_half(paper, rng, bad, where):
    p = paper.copy()
    state = AdamState.fresh(p, lr=1e-3)
    for _ in range(3):
        net.adam_step(state, p, 1e-2 * rng.normal(size=p.size))
    before = p.flat.copy(), state.m.copy(), state.v.copy(), state.t
    g = rng.normal(size=p.size)
    g[p.size // 2 + 5 if where == "second" else 7] = bad
    part = halves(p)[1 if where == "second" else 0]
    net.adam_step(state, p, g)  # the whole vector
    net.adam_step(state, p, g[part], part)  # the half that holds the entry
    assert state.rejected == 2
    assert state.t == before[3]
    for now, then in zip((p.flat, state.m, state.v), before):
        assert np.array_equal(now, then)
