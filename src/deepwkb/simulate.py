"""Euler-Maruyama ensemble simulation, deterministic flow, attractor sampling.

Trajectories advance with the explicit scheme

    x <- x + f(x) dt + sqrt(eps * dt) * sigma xi,   xi ~ N(0, I_m),

and retain their states every ``sample_interval`` time units for a
caller-supplied sink.  One call advances a whole noise ladder.  Its K
levels are split into one contiguous group per usable core (at most K
groups), and each group, a single one too, runs in a forked worker
process.  Within a group one step loop moves the levels' trajectories
as one (levels * n_traj, n) state array, each row scaled by its own
level's sqrt(eps * dt).  Each trajectory owns
an independent counter-based RNG substream, the
``SeedSequence(seed).spawn(n_traj)`` children of its level's seed, so a
level's noise, states and samples are bit for bit those of a call with
that level alone, whatever the grouping.  A worker sends its retained
states through a pipe, one message per chunk of steps with one batch per
level, and the sinks are called in the calling process: each sink gets
its level's batches in the order they were drawn, but the levels' calls
may interleave in any order.  Each worker draws normals ``_CHUNK_STEPS``
steps at a time into a step-major buffer of ``_CHUNK_STEPS * levels *
n_traj * m`` float64 values for its own levels (2 KiB per trajectory and
noise dimension), ``_FILL_BLOCK`` trajectories at a time through a
trajectory-major block; the streams depend on neither size.

The zero-noise flow that ``sample_attractor`` integrates does not depend
on the ensemble, so the simulate stage runs it through
``call_in_child`` in a forked child of its own beside the level workers;
paper-width training forks its second rank the same way (see
``train_v``).  One routine, ``_children``, forks every kind of child and
receives their messages in one loop.
"""

from __future__ import annotations

import os
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, fields
from multiprocessing import connection, get_context

import numpy as np

from .models import _philox

__all__ = [
    "SimConfig",
    "SimSummary",
    "simulate_ensemble",
    "integrate_ode",
    "sample_attractor",
    "call_in_child",
]

_CHUNK_STEPS = 256
_FILL_BLOCK = 64


@dataclass
class SimConfig:
    """Ensemble parameters for one noise level."""

    epsilon: float
    dt: float
    total_time: float
    n_traj: int
    sample_interval: float
    seed: int
    domain: tuple  # (lower, upper) arrays of length n
    escape_policy: str = "none"  # or "restart_at_last_inside"
    x0: np.ndarray | None = None  # default: domain center
    burn_in_fraction: float = 0.01  # leading part of each trajectory discarded

    def validate(self, dim):
        # epsilon = 0 is allowed: the scheme degenerates to the Euler flow.
        if not (self.epsilon >= 0 and np.isfinite(self.epsilon)):
            raise ValueError("epsilon must be nonnegative and finite")
        if not (0 < self.dt < np.inf and 0 < self.total_time < np.inf):
            raise ValueError("dt and total_time must be positive and finite")
        if self.n_traj < 1:
            raise ValueError("need at least one trajectory")
        if not self.dt - 1e-12 <= self.sample_interval < np.inf:
            raise ValueError("sample_interval must be >= dt and finite")
        ratio = self.sample_interval / self.dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("sample_interval must be an integer multiple of dt")
        nsteps = self.total_time / self.dt
        if abs(nsteps - round(nsteps)) > 1e-6:
            raise ValueError("total_time must be an integer multiple of dt")
        lo, hi = (np.asarray(v, dtype=float) for v in self.domain)
        if lo.shape != (dim,) or hi.shape != (dim,) or np.any(hi <= lo):
            raise ValueError("domain box is empty or has wrong dimension")
        if self.x0 is not None and np.shape(self.x0) != (dim,):
            raise ValueError("x0 has wrong dimension")
        if self.escape_policy not in ("none", "restart_at_last_inside"):
            raise ValueError(f"unknown escape policy {self.escape_policy!r}")
        if not 0.0 <= self.burn_in_fraction < 1.0:
            raise ValueError("burn_in_fraction must lie in [0, 1)")
        return lo, hi


@dataclass
class SimSummary:
    """Counts of one call, summed over its levels; ``per_level`` holds one
    ``{"samples", "escapes", "aborted"}`` dict of ints per level, in order."""

    steps_taken: int
    samples_emitted: int
    escapes: int
    aborted_trajectories: int
    per_level: list


def _trajectory_generators(seed, n_traj):
    # One Philox stream per trajectory, split from the level's seed.
    root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.Philox(s)) for s in root.spawn(n_traj)]


def _ladder(cfgs, sinks, dim):
    """The levels and their sinks as lists, and the domain box (lo, hi) the
    levels share; they may differ only in epsilon and seed."""
    if isinstance(cfgs, SimConfig):
        cfgs = [cfgs]
    if callable(sinks):
        sinks = [sinks]
    cfgs, sinks = list(cfgs), list(sinks)
    if not cfgs or len(sinks) != len(cfgs):
        raise ValueError(f"need one sink per level, got {len(sinks)} for {len(cfgs)}")
    for cfg in cfgs:
        lo, hi = cfg.validate(dim)
        for f in fields(SimConfig):
            if f.name not in ("epsilon", "seed") and not np.array_equal(
                    getattr(cfg, f.name), getattr(cfgs[0], f.name)):
                raise ValueError(f"levels may differ only in epsilon and seed, not {f.name}")
    return cfgs, sinks, lo, hi


def simulate_ensemble(system, cfgs, sinks) -> SimSummary:
    """Run one or several levels and stream retained states into their sinks.

    ``cfgs`` is one SimConfig or a list of them, and ``sinks`` one callable
    or a list with one per level.  Level i's sink receives one (k, n) array
    per chunk of steps: the level's states retained in the chunk, one row
    per live trajectory and sample time, in the order drawn.
    With escape_policy="restart_at_last_inside", a step that exits the
    domain box is rolled back to the previous state and counted;
    rolled-back states are re-sampled as usual, so no emitted sample lies
    outside the box.  Trajectories hitting a non-finite state are frozen
    and excluded from sampling.

    The levels are split into one contiguous group per usable core, and
    each group is advanced in a forked worker with a noise buffer of its
    own.  Every sink is called in the calling process as the messages
    arrive.  Each sink receives its level's batches in the order the level
    emitted them; calls to different levels' sinks may interleave in any
    order.  An exception raised in a worker is re-raised here with its
    type, a dead worker is reported by its levels and exit code, and no
    worker outlives the call.
    """
    cfgs, sinks, lo, hi = _ladder(cfgs, sinks, system.dim_state)
    groups = np.array_split(np.arange(len(cfgs)), min(len(cfgs), _usable_cores()))
    jobs = [_advance(system, [cfgs[i] for i in group], lo, hi) for group in groups]
    counts = [None] * len(groups)
    with _children(jobs, [f"simulation worker for levels {group.tolist()}"
                          for group in groups]) as messages:
        for g, tag, payload in messages():
            if tag == "batches":
                for level, batch in payload:
                    sinks[groups[g][level]](batch)
            else:
                counts[g] = payload
    steps, emitted, escapes, aborted = np.concatenate(counts).T
    return SimSummary(
        steps_taken=int(steps.sum()),
        samples_emitted=int(emitted.sum()),
        escapes=int(escapes.sum()),
        aborted_trajectories=int(aborted.sum()),
        per_level=[{"samples": int(s), "escapes": int(e), "aborted": int(a)}
                   for s, e, a in zip(emitted, escapes, aborted)],
    )


def _usable_cores():
    return len(os.sched_getaffinity(0))


def _advance(system, cfgs, lo, hi):
    """The step loop: advance the levels ``cfgs`` as one state array.

    Yields one ("batches", [(level, batch), ...]) message per chunk of
    steps, with one batch per level holding its states retained in the
    chunk, in the order drawn (per chunk, not per sample time, since each
    message costs a worker's parent a pipe read and an unpickle, and each
    batch a sink call).  The last message is ("done", counts), with counts
    a (levels, 4) int array of steps taken, samples emitted, escapes and
    aborted trajectories per level.
    """
    n, m = system.dim_state, system.dim_noise
    cfg = cfgs[0]
    n_levels, n_traj = len(cfgs), cfg.n_traj
    rows = n_levels * n_traj

    n_steps = round(cfg.total_time / cfg.dt)
    sample_every = round(cfg.sample_interval / cfg.dt)
    burn_in_steps = int(np.ceil(cfg.burn_in_fraction * n_steps))

    x0 = np.asarray(cfg.x0, dtype=float) if cfg.x0 is not None else 0.5 * (lo + hi)
    x = np.tile(x0, (rows, 1))
    alive = np.ones(rows, dtype=bool)
    steps_done = np.full(rows, n_steps)  # live steps per row; a row stops counting when it aborts

    gens = [g for c in cfgs for g in _trajectory_generators(c.seed, n_traj)]
    # The per-row noise scale and box bounds as full (rows, n) arrays: numpy
    # runs an operand broadcast against (rows, n) with an inner loop of
    # length n, several times slower per step than equal shapes.
    sqrt_noise = np.repeat([np.sqrt(c.epsilon * c.dt) for c in cfgs], n_traj * n).reshape(rows, n)
    lo_rows, hi_rows = np.tile(lo, (rows, 1)), np.tile(hi, (rows, 1))
    sigma_t = system.sigma_constant.T
    restart = cfg.escape_policy == "restart_at_last_inside"
    levels = [slice(i * n_traj, (i + 1) * n_traj) for i in range(n_levels)]

    escapes = np.zeros(n_levels, dtype=np.int64)
    emitted = np.zeros(n_levels, dtype=np.int64)
    noise = np.empty((min(_CHUNK_STEPS, n_steps), rows, m))  # step-major: noise[k] is one step
    # Trajectory-major staging: a draw straight into noise[:chunk, j] would
    # scatter its values rows * m apart, so each stream fills a contiguous
    # row here and each block of _FILL_BLOCK rows goes in by one transposed copy.
    block = np.empty((min(_FILL_BLOCK, rows), noise.shape[0], m))

    step = 0
    while step < n_steps:
        chunk = min(_CHUNK_STEPS, n_steps - step)
        retained = [[] for _ in levels]
        for b0 in range(0, rows, _FILL_BLOCK):
            part = gens[b0:b0 + _FILL_BLOCK]
            for j, g in enumerate(part):
                g.standard_normal(out=block[j, :chunk])
            filled = block[:len(part), :chunk]
            np.copyto(noise[:chunk, b0:b0 + len(part)], filled.transpose(1, 0, 2))
        for k in range(chunk):
            step += 1
            # np.dot, not @: for m = 1, matmul's (rows, 1) @ (1, 1) costs several times more.
            x_new = x + system.drift(x) * cfg.dt + sqrt_noise * np.dot(noise[k], sigma_t)
            # Checked every step, not per chunk, so a non-finite row is frozen before a sample.
            if not np.isfinite(x_new).all():
                bad = ~np.all(np.isfinite(x_new), axis=1)
                x_new[bad] = x[bad]
                steps_done[bad & alive] = step - 1
                alive &= ~bad
            if restart and ((x_new < lo_rows).any() or (x_new > hi_rows).any()):
                out = np.any((x_new < lo_rows) | (x_new > hi_rows), axis=1) & alive
                if out.any():
                    x_new[out] = x[out]
                    escapes += out.reshape(n_levels, n_traj).sum(axis=1)
            x = x_new
            if step > burn_in_steps and step % sample_every == 0:
                for i, level in enumerate(levels):
                    batch = x[level][alive[level]]
                    if batch.shape[0]:
                        retained[i].append(batch)
                        emitted[i] += batch.shape[0]
        if any(retained):
            yield "batches", [(i, np.concatenate(s)) for i, s in enumerate(retained) if s]

    steps = steps_done.reshape(n_levels, n_traj).sum(axis=1)
    aborted = (~alive).reshape(n_levels, n_traj).sum(axis=1)
    yield "done", np.stack([steps, emitted, escapes, aborted], axis=1)


def _worker(conn, messages):
    """Body of a forked child: send each message the generator ``messages``
    yields, or a ("failed", (exception, traceback text)) message."""
    try:
        for message in messages:
            conn.send(message)
    except Exception as exc:
        conn.send(("failed", (exc, traceback.format_exc())))
    finally:
        conn.close()


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a forked child, as its cause."""

    def __str__(self):
        return self.args[0]


@contextmanager
def _children(jobs, names):
    """Fork one child per message generator in ``jobs`` (fork, because a
    system's drift closures cannot be pickled) and yield a function
    ``arrivals(timeout=None)``, whose iterator of (index, tag, payload)
    runs over their messages as they arrive, up to each child's "done",
    and raises TimeoutError when none comes within ``timeout`` seconds.  A
    child's exception is re-raised here with its type and its traceback as
    the cause; a child that dies first is reported by its name in
    ``names`` and exit code.  On exit the children whose "done" has not
    arrived are terminated, and all are joined."""
    ctx = get_context("fork")
    children, pending = [], {}
    try:
        for i, messages in enumerate(jobs):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(send, messages), daemon=True)
            proc.start()
            send.close()
            children.append((proc, recv))
            pending[recv] = i

        def arrivals(timeout=None):
            while pending:
                ready = connection.wait(list(pending), timeout)
                if not ready:
                    raise TimeoutError
                for recv in ready:
                    i = pending[recv]
                    try:
                        tag, payload = recv.recv()
                    except EOFError:
                        proc = children[i][0]
                        proc.join()
                        raise RuntimeError(f"{names[i]} exited with code {proc.exitcode}") from None
                    if tag == "failed":
                        exc, tb = payload
                        raise exc from _WorkerTraceback(tb)
                    if tag == "done":
                        del pending[recv]
                    yield i, tag, payload

        yield arrivals
    finally:
        for proc, recv in children:
            if recv in pending:
                proc.terminate()
            proc.join()
            recv.close()


@contextmanager
def call_in_child(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` in a forked child, ``_children``'s one
    job, while the ``with`` block runs here.  The block gets a function
    ``result(timeout=None)`` that waits for fn's result, at most
    ``timeout`` seconds, and returns it, re-raising fn's exception with its
    type, or raises TimeoutError if the child is still running.  A child
    whose result the block did not take is terminated when the block
    exits, and no child outlives the block."""
    def returned():
        yield "done", fn(*args, **kwargs)

    with _children([returned()], ["child process"]) as arrivals:
        yield lambda timeout=None: next(arrivals(timeout))[2]


def integrate_ode(system, x0, dt, total_time):
    """Integrate the zero-noise flow from the state x0 of shape (n,) with
    the classical 4th-order scheme, stepping it as a (1, n) batch row.

    Returns every state as an array of shape (k, n) including the initial
    state.  Raises on divergence to non-finite values.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dim_state,):
        raise ValueError("x0 has wrong dimension")
    x = x0[None, :]
    n_steps = round(total_time / dt)
    f = system.drift
    out = [x]
    for k in range(n_steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"deterministic flow diverged at t={(k + 1) * dt:g}")
        out.append(x)
    return np.concatenate(out)


def _attractor_pool_size(burn_in, collect_time, dt):
    """How many states ``sample_attractor`` draws from: those after the burn-in."""
    return round((burn_in + collect_time) / dt) - round(burn_in / dt)


def sample_attractor(system, x0, burn_in, collect_time, count, dt=0.01, seed=0) -> np.ndarray:
    """Integrate past the transient, then draw ``count`` states uniformly
    in time (without replacement) from the next ``collect_time`` units;
    returns them as a (count, n) array in time order."""
    if not (0 <= burn_in < np.inf and 0 < collect_time < np.inf):
        raise ValueError("burn_in must be at least 0 and collect_time positive, both finite")
    size = _attractor_pool_size(burn_in, collect_time, dt)
    if count > size:
        raise ValueError(f"requested {count} points but only {size} are available")
    traj = integrate_ode(system, x0, dt, burn_in + collect_time)
    pool = traj[traj.shape[0] - size:]
    rng = _philox(seed)
    idx = rng.choice(pool.shape[0], size=count, replace=False)
    return pool[np.sort(idx)]

