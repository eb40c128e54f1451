"""Adam's update over parts of the flat vector, as the training ranks take
it: two slices, each with moments of its own, give the bits of one
whole-vector step, and a non-finite gradient entry in a slice rejects
that slice's step."""

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


def split_states(p, lr=1e-3):
    """One fresh state per half, as each rank holds for its own part."""
    return [AdamState.fresh(part.stop - part.start, lr) for part in halves(p)]


def test_adam_split_matches_inline_bitwise(paper, rng):
    grads = 1e-2 * rng.normal(size=(20, paper.size))
    whole, split = paper.copy(), paper.copy()
    state = AdamState.fresh(whole.size, lr=1e-3)
    ranks = split_states(split)
    for g in grads:
        net.adam_step(state, whole.flat, g)
        for rank, part in zip(ranks, halves(split)):
            net.adam_step(rank, split.flat[part], g[part])
    assert state.t == ranks[0].t == ranks[1].t == 20
    assert np.array_equal(split.flat, whole.flat)
    assert np.array_equal(np.concatenate([r.m for r in ranks]), state.m)
    assert np.array_equal(np.concatenate([r.v for r in ranks]), state.v)


@pytest.mark.parametrize("bad, where", [(np.nan, "second"), (np.inf, "first")])
def test_adam_rejects_nonfinite_in_either_half(paper, rng, bad, where):
    p = paper.copy()
    ranks = split_states(p)
    parts = halves(p)
    for _ in range(3):
        g = 1e-2 * rng.normal(size=p.size)
        for rank, part in zip(ranks, parts):
            net.adam_step(rank, p.flat[part], g[part])
    hit = 1 if where == "second" else 0
    state, part = ranks[hit], parts[hit]
    before = p.flat[part].copy(), state.m.copy(), state.v.copy()
    g = rng.normal(size=p.size)
    g[p.size // 2 + 5 if where == "second" else 7] = bad
    for rank, other in zip(ranks, parts):
        net.adam_step(rank, p.flat[other], g[other])
    assert (state.rejected, state.t) == (1, 3)
    assert (ranks[1 - hit].rejected, ranks[1 - hit].t) == (0, 4)  # the other half stepped
    for now, then in zip((p.flat[part], state.m, state.v), before):
        assert np.array_equal(now, then)
