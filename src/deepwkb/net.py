"""Scalar-output multilayer perceptron with exact derivatives, in numpy.

The architecture is the fixed ladder  n -> 32 -> 256 -> 256 -> 256 -> 64
-> 16 -> 1  with sigmoid hidden units and a linear output (the
quasi-potential is unbounded above, so the output stage cannot saturate).
Besides the forward pass the module provides four exact derivative
operations needed by the training losses:

* grad_params            -- reverse mode over the parameters,
* grad_input             -- reverse mode over the input point,
* hessian_input          -- forward-over-reverse input Hessian,
* grad_params_of_directional_input_grad
                         -- parameter gradient of w . grad_x NN(x),
                            i.e. reverse mode through the tangent pass,
                            optionally plus that of the output itself,

plus a bias-corrected Adam step.  ``trace`` runs the forward pass on a
batch of input points of shape (B, n), the only input shape accepted, and
keeps every layer's activations and, beside each hidden one, its slope
s (1 - s), computed once.  The three backward kernels (grad_params,
grad_input and the directional kernel) take that trace in place of the
points, so a loss that calls several of them traces the network once;
``hessian_input`` takes the points and traces them itself, and
``forward`` runs the same layers without keeping them.  The
parameter-gradient kernels write each layer's gradient straight into one
flat vector.  Every kernel returns one value, gradient or Hessian per
row.  Everything runs in float64: the second-order training signals are
too fragile at single precision.  Every 2-D product goes through
``np.dot``, not ``@``: with an inner dimension of 1 (a 1-d input, the
scalar output's adjoint) ``matmul`` takes a loop several times slower
than ``dot``'s, for the same bits.

The sigmoid is 1 / (1 + exp(-z)) in numpy ufuncs, in place, within 4 ulp
of scipy's ``expit``.  At paper width ``expit`` costs about 12 ns per
element, nearly as much as the 256 x 256 matrix product that feeds it,
and the ufunc sigmoid on numpy's vectorised ``exp`` about a quarter of
that.  numpy picks its ``exp`` kernel (as BLAS its matrix kernels) by
the CPU's SIMD extensions at run time, so outputs are deterministic on
one machine but their last bits may differ between CPUs.

Training at paper width splits each batch into row blocks, evaluated by
two processes that share the parameters (see ``train_v``); ``adam_step``
updates a slice of the flat vector, so that each process updates its own
part.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .models import _as_batch, _load_npz, _philox

__all__ = [
    "MlpSpec",
    "MlpParams",
    "AdamState",
    "default_widths",
    "init_params",
    "trace",
    "forward",
    "grad_params",
    "grad_input",
    "hessian_input",
    "grad_params_of_directional_input_grad",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
]

_NET_FORMAT = "deepwkb-checkpoint-1"


def default_widths(dim_in):
    return (dim_in, 32, 256, 256, 256, 64, 16, 1)


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths plus the L2 penalty on weights (not biases)."""

    widths: tuple
    l2_lambda: float = 1e-3

    def __post_init__(self):
        if len(self.widths) < 2 or self.widths[-1] != 1:
            raise ValueError("need at least one layer and scalar output")
        if any(w < 1 for w in self.widths):
            raise ValueError("layer widths must be positive")

    @property
    def dim_in(self):
        return self.widths[0]

    @property
    def n_layers(self):
        return len(self.widths) - 1

    @cached_property
    def layout(self):
        """Per layer, the slices of the flat vector that hold W and b and
        W's shape, and the total size; computed once per spec."""
        out = []
        off = 0
        for n_in, n_out in zip(self.widths[:-1], self.widths[1:]):
            w_end = off + n_out * n_in
            out.append((slice(off, w_end), (n_out, n_in), slice(w_end, w_end + n_out)))
            off = w_end + n_out
        return tuple(out), off


class MlpParams:
    """Parameters stored as one flat float64 vector with per-layer views."""

    def __init__(self, spec: MlpSpec, flat=None):
        self.spec = spec
        _, size = spec.layout
        if flat is None:
            flat = np.zeros(size)
        flat = np.ascontiguousarray(flat, dtype=float)
        if flat.shape != (size,):
            raise ValueError(f"flat vector has length {flat.shape}, expected {size}")
        self.flat = flat
        self.layers = _layer_views(spec, flat)

    @property
    def size(self):
        return self.flat.shape[0]

    def copy(self):
        return MlpParams(self.spec, self.flat.copy())


def _layer_views(spec: MlpSpec, flat):
    """Per-layer (W, b) views into the flat vector ``flat``."""
    return [(flat[w].reshape(shape), flat[b]) for w, shape, b in spec.layout[0]]


def _add_weight_penalty(params: MlpParams, grad):
    """Add the penalty's gradient lambda * W to the flat gradient ``grad`` in
    place, layer by layer; biases are not penalised.  Returns ``grad``."""
    lam = params.spec.l2_lambda
    flat = params.flat
    for w, _, _ in params.spec.layout[0]:
        gw = grad[w]
        gw += lam * flat[w]
    return grad


SIGMOID_INIT_GAIN = 4.0


def init_params(spec: MlpSpec, seed) -> MlpParams:
    """Uniform(-b, b) weights with b = 4 sqrt(6/(fan_in+fan_out)) on hidden
    layers, zero biases; deterministic in the seed.

    The factor 4 is the standard sigmoid correction of the Glorot bound:
    the uncorrected bound targets unit-gain activations, while the
    logistic slope is at most 1/4, so at depth six the input signal dies
    by a factor ~4^-L and training collapses onto the constant (trivial)
    solution.  The linear output layer keeps the unit-gain bound.
    """
    rng = _philox(seed)
    params = MlpParams(spec)
    last = spec.n_layers - 1
    for l, (w, b) in enumerate(params.layers):
        gain = 1.0 if l == last else SIGMOID_INIT_GAIN
        bound = gain * np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = 0.0
    return params


class _Trace(list):
    """The activations of every layer, as a list: the input, the sigmoid
    outputs of the hidden layers, then the (B, 1) linear output.
    ``slopes[l]`` is the sigmoid slope s (1 - s) beside hidden activation
    ``self[l]``, and None beside the input and the output."""

    __slots__ = ("slopes",)


def _sigmoid_(s):
    """1 / (1 + exp(-z)) in place; exp overflows to inf (the callers ignore
    it), so a very negative z saturates to exactly 0."""
    np.negative(s, out=s)
    np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)


def trace(params: MlpParams, x) -> _Trace:
    """Forward trace of a (B, n) batch: every layer's activations and the
    hidden layers' slopes.  The backward kernels read it in place of x."""
    last = params.spec.n_layers - 1
    acts = _Trace([_as_batch(x, params.spec.dim_in)])
    acts.slopes = [None]
    with np.errstate(over="ignore"):
        for l, (w, b) in enumerate(params.layers):
            s = np.dot(acts[-1], w.T)
            s += b
            sp = None
            if l < last:
                _sigmoid_(s)
                sp = np.subtract(1.0, s)
                sp *= s
            acts.append(s)
            acts.slopes.append(sp)
    return acts


def forward(params: MlpParams, x):
    """Network outputs (B,) for a (B, n) batch; the layers of ``trace``
    without keeping the activations or computing the slopes."""
    last = params.spec.n_layers - 1
    a = _as_batch(x, params.spec.dim_in)
    with np.errstate(over="ignore"):
        for l, (w, b) in enumerate(params.layers):
            a = np.dot(a, w.T)
            a += b
            if l < last:
                _sigmoid_(a)
    return a[:, 0]


def grad_params(params: MlpParams, acts, upstream) -> np.ndarray:
    """Flat gradient of  sum_b upstream_b * NN(x_b)  over the parameters,
    from the trace ``acts`` of the batch.

    ``upstream`` holds one coefficient per batch row.  No weight penalty
    is added here: the losses add it once.
    """
    ups = np.asarray(upstream, dtype=float)
    if ups.shape != (acts[0].shape[0],):
        raise ValueError("upstream has wrong shape")

    grad = np.empty(params.size)
    views = _layer_views(params.spec, grad)
    delta = ups[:, None]  # d(sum ups*y)/d z_L
    for l in range(params.spec.n_layers - 1, -1, -1):
        gw, gb = views[l]
        np.dot(delta.T, acts[l], out=gw)
        delta.sum(axis=0, out=gb)
        if l > 0:
            delta = np.dot(delta, params.layers[l][0])
            delta *= acts.slopes[l]
    return grad


def grad_input(params: MlpParams, acts):
    """Input gradients grad_x NN(x_b), shape (B, n), from the trace ``acts``."""
    delta = np.ones((acts[0].shape[0], 1))
    for l in range(params.spec.n_layers - 1, 0, -1):
        delta = np.dot(delta, params.layers[l][0])
        delta *= acts.slopes[l]
    return np.dot(delta, params.layers[0][0])


def hessian_input(params: MlpParams, x):
    """Input Hessians, shape (B, n, n).

    Forward-over-reverse: the n input tangent directions ride through the
    forward pass, then through the adjoint recursion.  The result is
    symmetrized to strip last-bit asymmetry.
    """
    acts = trace(params, x)
    n = params.spec.dim_in
    bsz = acts[0].shape[0]
    n_layers = params.spec.n_layers

    # Forward tangents zdot[l][b, i, t] = d z_l,i / d x_t.
    zdots = []
    adot = np.broadcast_to(np.eye(n), (bsz, n, n))
    for l, (w, _) in enumerate(params.layers):
        zdot = np.einsum("oi,bit->bot", w, adot, optimize=True)
        zdots.append(zdot)
        if l < n_layers - 1:
            adot = acts.slopes[l + 1][:, :, None] * zdot

    # Adjoint values and their tangents.
    delta = np.ones((bsz, 1))
    delta_dot = np.zeros((bsz, 1, n))
    for l in range(n_layers - 1, 0, -1):
        w, _ = params.layers[l]
        s = np.dot(delta, w)
        s_dot = np.einsum("bot,oi->bit", delta_dot, w, optimize=True)
        sp = acts.slopes[l]
        spp = sp * (1.0 - 2.0 * acts[l])
        delta = s * sp
        delta_dot = s_dot * sp[:, :, None] + (s * spp)[:, :, None] * zdots[l - 1]
    w1 = params.layers[0][0]
    h = np.einsum("bit,ij->bjt", delta_dot, w1, optimize=True)
    return 0.5 * (h + np.swapaxes(h, 1, 2))


def grad_params_of_directional_input_grad(params: MlpParams, acts, w_dir, coeff,
                                          upstream=None) -> np.ndarray:
    """Flat gradient w.r.t. parameters of
    sum_b c_b * (w_b . grad_x NN(x_b)) + sum_b upstream_b * NN(x_b),
    from the trace ``acts`` of the batch.

    ``w_dir`` holds one direction per batch row, (B, n), and ``coeff`` and
    ``upstream`` one coefficient per row, (B,).  ``upstream`` seeds the
    output's primal adjoint, so the second sum costs no sweep of its own
    (it is the gradient ``grad_params`` computes); None means zero.  No
    L2 term is added here (the loss assemblies own the regularizer).
    """
    wb = np.asarray(w_dir, dtype=float)
    if wb.shape != acts[0].shape:
        raise ValueError("direction batch must match input batch")
    bsz = wb.shape[0]
    c = np.asarray(coeff, dtype=float)
    if c.shape != (bsz,):
        raise ValueError("coeff must hold one value per batch row")
    ups = np.zeros(bsz) if upstream is None else np.asarray(upstream, dtype=float)
    if ups.shape != (bsz,):
        raise ValueError("upstream must hold one value per batch row")

    n_layers = params.spec.n_layers
    weights = [w for w, _ in params.layers]
    # Adjoints of the augmented graph; objective is sum_b c_b * zdot_L
    # plus sum_b upstream_b * z_L.  The tangent adjoints q_l, and
    # r_l = s'_l q_l, run from q = c at the linear output down to the first
    # layer; they never read the forward tangents.
    qs, rs = [None] * n_layers, [None] * n_layers
    q = c[:, None]
    for l in range(n_layers - 1, -1, -1):
        qs[l] = q
        rs[l] = q if l == n_layers - 1 else acts.slopes[l + 1] * q
        if l > 0:
            q = np.dot(rs[l], weights[l])
    # Forward tangent pass in direction w: zdot_l, adot_l.
    zdots, adots = [], [wb]
    adot = wb
    for l, wmat in enumerate(weights):
        zdot = np.dot(adot, wmat.T)
        zdots.append(zdot)
        adot = zdot if l == n_layers - 1 else acts.slopes[l + 1] * zdot
        adots.append(adot)

    grad = np.empty(params.size)
    views = _layer_views(params.spec, grad)
    a_bar = ups[:, None]
    for l in range(n_layers - 1, -1, -1):
        if l == n_layers - 1:  # linear output: act' = 1, act'' = 0
            z_bar = a_bar
        else:
            sp = acts.slopes[l + 1]
            spp = sp * (1.0 - 2.0 * acts[l + 1])
            z_bar = sp * a_bar + spp * zdots[l] * qs[l]
        gw, gb = views[l]
        np.dot(z_bar.T, acts[l], out=gw)
        gw += np.dot(rs[l].T, adots[l])
        z_bar.sum(axis=0, out=gb)
        if l > 0:
            a_bar = np.dot(z_bar, weights[l])
    return grad


# Elements per pass of the Adam update: a chunk's seven arrays of float64
# (1.75 MB) stay in cache through its thirteen passes.  At paper width in
# a training run, on one thread, the update took 2.6 ms over the whole
# vector at once and 2.0 ms in chunks.
_ADAM_CHUNK = 1 << 15


@dataclass
class AdamState:
    """Moment accumulators for one optimizer instance."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    floor: float = 1e-8
    rejected: int = 0

    @classmethod
    def fresh(cls, params: MlpParams, lr):
        return cls(lr=lr, m=np.zeros(params.size), v=np.zeros(params.size))


def adam_step(state: AdamState, params: MlpParams, grads, part=slice(None)):
    """One bias-corrected Adam update, in place, of the parameters and
    moments in ``part``, a slice of the flat vector (all of it by
    default), from ``grads``, their gradient.

    Non-finite gradient entries reject the step: the counter is bumped and
    neither the moments nor the parameters move.  ``t`` counts steps, so
    processes that update disjoint parts of one step each count it once.
    """
    lo, hi, _ = part.indices(params.size)
    g = np.asarray(grads, dtype=float)
    if g.shape != (hi - lo,):
        raise ValueError("gradient length does not match parameters")
    if not np.all(np.isfinite(g)):
        state.rejected += 1
        return state, params
    state.t += 1
    corr1 = 1.0 - state.beta1 ** state.t
    corr2 = 1.0 - state.beta2 ** state.t
    for start in range(lo, hi, _ADAM_CHUNK):
        # In place through three chunk-sized temporaries, in the operation
        # order of lr * m_hat / (sqrt(v_hat) + floor).
        chunk = slice(start, min(start + _ADAM_CHUNK, hi))
        m, v, gp = state.m[chunk], state.v[chunk], g[chunk.start - lo:chunk.stop - lo]
        m *= state.beta1
        m += (1.0 - state.beta1) * gp
        g2 = (1.0 - state.beta2) * gp
        g2 *= gp
        v *= state.beta2
        v += g2
        step = np.divide(m, corr1)
        denom = np.divide(v, corr2, out=g2)
        np.sqrt(denom, out=denom)
        denom += state.floor
        step *= state.lr
        step /= denom
        flat = params.flat[chunk]
        flat -= step
    return state, params


# ---------------------------------------------------------------------------
# Checkpoints: a .npz container of the widths, l2_lambda, the flat parameter
# vector, the caller's extra bytes and any optimizer states, one array per
# AdamState field with one row per state.
# ---------------------------------------------------------------------------


@contextmanager
def write_atomically(path):
    """Binary handle on a sibling temporary file that replaces ``path`` when
    the block completes; on failure ``path`` keeps its previous content."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path, params: MlpParams, adam_states=None, extra=None):
    states = list(adam_states or [])
    spec = params.spec
    with write_atomically(path) as fh:
        np.savez(fh, format=_NET_FORMAT, widths=np.asarray(spec.widths),
                 l2_lambda=spec.l2_lambda, flat=params.flat,
                 extra=np.frombuffer(extra or b"", dtype=np.uint8),
                 **{f"adam_{f.name}": np.array([getattr(s, f.name) for s in states])
                    for f in fields(AdamState)})


def load_checkpoint(path):
    """Returns (params, adam_states, extra_bytes)."""
    z = _load_npz(path, _NET_FORMAT)
    spec = MlpSpec(widths=tuple(z["widths"].tolist()), l2_lambda=z["l2_lambda"].item())
    columns = [z[f"adam_{f.name}"] for f in fields(AdamState)]
    states = [AdamState(*(c.item() if c.ndim == 0 else c for c in row)) for row in zip(*columns)]
    return MlpParams(spec, z["flat"]), states, z["extra"].tobytes()
