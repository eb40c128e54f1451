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

At paper width the three training kernels share their work with one
helper thread, started on first use.  ``grad_params`` queues each
layer's weight-gradient product and bias sum while its adjoint chain
runs on; the directional kernel hands the helper its tangent-adjoint
chain during the forward tangent pass, then queues each layer's
gradient products during the adjoint chain; ``adam_step`` checks the
whole gradient, then queues its update in chunks of 2^15 elements that
stay in cache.  The helper takes queued tasks in order, and the calling
thread runs what is still queued when its own chain ends.  numpy
releases the interpreter lock inside its products and loops, so the two
threads run on two cores, and every product and elementwise operation
is the serial one, so the outputs keep their bits.  The helper engages
only for networks of at least 2^14 parameters (the paper width has
157,633, the 1-d OU net 1,153) with a second usable core and
one-threaded BLAS, read once
from OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS in
OpenBLAS's order: a multi-threaded BLAS already spreads the products
over the cores.  A kernel waits for every task it queued before it
returns or raises, and a forked child drops the helper, whose thread it
does not inherit.  The tasks call numpy only, never this module's
public functions, which perfbench's tracer wraps with one span stack
for one thread.
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cache, cached_property
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


# ---------------------------------------------------------------------------
# The helper thread of the parameter-gradient kernels (see the module
# docstring).
# ---------------------------------------------------------------------------

# Below this many parameters a handoff costs more than the work handed off.
_HELPER_MIN_PARAMS = 1 << 14
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_helper = None


def _blas_threads():
    """BLAS's thread count as OpenBLAS reads it at load: the first positive
    value of its three variables, or 0 (every core) when none is set."""
    for name in _BLAS_THREAD_VARS:
        try:
            n = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if n > 0:
            return n
    return 0


@cache
def _spare_core():
    """Whether a second usable core sits idle beside one-threaded BLAS.
    A multi-threaded BLAS already spreads the products over the cores, and
    the helper only contends with it."""
    from .simulate import _usable_cores

    return _usable_cores() >= 2 and _blas_threads() == 1


def _helper_for(size):
    """The helper's executor for a network of ``size`` parameters, started
    on first use; None where handing it work does not pay."""
    global _helper
    if size < _HELPER_MIN_PARAMS or not _spare_core():
        return None
    if _helper is None:
        from concurrent.futures import ThreadPoolExecutor

        _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="deepwkb-net")
    return _helper


def _drop_helper():
    # A forked child inherits the executor but not its thread: work handed
    # to it would wait forever.
    global _helper
    _helper = None


os.register_at_fork(after_in_child=_drop_helper)


class _Tasks:
    """The tasks one kernel call hands to the helper, or runs at once in
    the calling thread where the helper does not engage.

    The helper takes the call's tasks from a queue in the order handed
    over.  When the call joins, its own thread runs the tasks the helper
    has not taken yet, then waits for the one it runs (or cancels its turn
    if it has not started), so neither thread idles while work is queued.
    The two threads poll rather than sleep: on a 2-vCPU virtual machine a
    task handed to a sleeping thread started 0.14 ms later in the median
    and 0.87 ms at the 90th percentile, against 0.04 and 0.06 ms for a
    polling one, while a 256 x 256 layer's product takes about 0.4 ms.
    Leaving the ``with`` block waits for every task, so none outlives the
    call, and raises the first task's exception unless the block raised
    its own.  A task calls numpy only: perfbench's tracer wraps this
    module's public functions and keeps one span stack, for one thread.
    """

    __slots__ = ("pool", "queue", "serving")

    def __init__(self, size):
        self.pool = _helper_for(size)
        self.queue = None
        self.serving = None

    def run(self, fn, *args):
        if self.pool is None:
            fn(*args)
            return
        if self.serving is None:
            self.queue = deque()
            self.serving = self.pool.submit(_take_tasks, self.queue, True)
        self.queue.append((fn, args))

    def join(self):
        """Run every task handed over so far, here or on the helper; raise
        the first exception."""
        if self.serving is None:
            return
        serving, self.serving = self.serving, None
        error = _take_tasks(self.queue, False)
        if not serving.cancel():  # the helper has started: wait for its task
            self.queue.append(None)
            while not serving.done():
                time.sleep(0)  # polls, releasing the interpreter lock
            if error is None:
                error = serving.result()
        if error is not None:
            raise error

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.join()
        elif self.serving is not None:  # the block's own exception wins
            self.queue.append(None)
            self.serving.result()


def _take_tasks(queue, until_stopped):
    """Take tasks from ``queue`` and run them, until it yields None or, if
    not ``until_stopped``, until it is empty; return the first task's
    exception, or None.  A task after a failed one still runs."""
    error = None
    while True:
        try:
            task = queue.popleft()
        except IndexError:
            if not until_stopped:
                return error
            time.sleep(0)  # polls, releasing the interpreter lock
            continue
        if task is None:
            return error
        fn, args = task
        try:
            fn(*args)
        except Exception as exc:  # the kernel re-raises it
            if error is None:
                error = exc


def _weight_grad(delta, a, gw, gb):
    np.dot(delta.T, a, out=gw)
    delta.sum(axis=0, out=gb)


def grad_params(params: MlpParams, acts, upstream) -> np.ndarray:
    """Flat gradient of  sum_b upstream_b * NN(x_b)  over the parameters,
    from the trace ``acts`` of the batch.

    ``upstream`` holds one coefficient per batch row.  No weight penalty
    is added here: the losses add it once.  Each layer's weight and bias
    gradient is queued for the helper while the adjoint chain runs on.
    """
    ups = np.asarray(upstream, dtype=float)
    if ups.shape != (acts[0].shape[0],):
        raise ValueError("upstream has wrong shape")

    grad = np.empty(params.size)
    views = _layer_views(params.spec, grad)
    delta = ups[:, None]  # d(sum ups*y)/d z_L
    with _Tasks(params.size) as tasks:
        for l in range(params.spec.n_layers - 1, -1, -1):
            tasks.run(_weight_grad, delta, acts[l], *views[l])
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
    # plus sum_b upstream_b * z_L.  The tangent adjoints q (and r = s' q)
    # never read the forward tangents, so the helper runs their chain
    # while this thread runs the forward tangent pass.
    qs, rs = [None] * n_layers, [None] * n_layers
    with _Tasks(params.size) as tasks:
        tasks.run(_tangent_adjoints, weights, acts.slopes, c[:, None], qs, rs)
        # Forward tangent pass in direction w: zdot_l, adot_l.
        zdots, adots = [], [wb]
        adot = wb
        for l, wmat in enumerate(weights):
            zdot = np.dot(adot, wmat.T)
            zdots.append(zdot)
            adot = zdot if l == n_layers - 1 else acts.slopes[l + 1] * zdot
            adots.append(adot)
        tasks.join()

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
            tasks.run(_directional_weight_grad, z_bar, acts[l], rs[l], adots[l], *views[l])
            if l > 0:
                a_bar = np.dot(z_bar, weights[l])
    return grad


def _tangent_adjoints(weights, slopes, q, qs, rs):
    """The chain q_l (into ``qs``) and r_l = s'_l q_l (into ``rs``), from
    q = c at the linear output down to the first layer."""
    last = len(weights) - 1
    for l in range(last, -1, -1):
        qs[l] = q
        r = q if l == last else slopes[l + 1] * q
        rs[l] = r
        if l > 0:
            q = np.dot(r, weights[l])


def _directional_weight_grad(z_bar, a, r, adot, gw, gb):
    np.dot(z_bar.T, a, out=gw)
    gw += np.dot(r.T, adot)
    z_bar.sum(axis=0, out=gb)


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


def adam_step(state: AdamState, params: MlpParams, grads):
    """One bias-corrected Adam update, in place.

    Non-finite gradient entries reject the step: the counter is bumped and
    neither the moments nor the parameters move.
    """
    g = np.asarray(grads, dtype=float)
    if g.shape != (params.size,):
        raise ValueError("gradient length does not match parameters")
    if not np.all(np.isfinite(g)):
        state.rejected += 1
        return state, params
    state.t += 1
    corr1 = 1.0 - state.beta1 ** state.t
    corr2 = 1.0 - state.beta2 ** state.t

    def update(part):
        # In place through three chunk-sized temporaries, in the operation
        # order of lr * m_hat / (sqrt(v_hat) + floor).
        m, v, gp = state.m[part], state.v[part], g[part]
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
        flat = params.flat[part]
        flat -= step

    # The update is elementwise: the two threads share its chunks.
    with _Tasks(params.size) as tasks:
        for lo in range(0, params.size, _ADAM_CHUNK):
            tasks.run(update, slice(lo, lo + _ADAM_CHUNK))
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
