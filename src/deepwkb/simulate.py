"""Euler-Maruyama ensemble simulation, deterministic flow, attractor sampling.

Trajectories advance with the explicit scheme

    x <- x + f(x) dt + sqrt(eps * dt) * sigma xi,   xi ~ N(0, I_m),

and retain their states every ``sample_interval`` time units for a
caller-supplied sink.  One call advances a whole noise ladder.
Its K levels are split into one contiguous group per usable core (at
most K groups), and each group runs in a forked worker process; with a
single group the call runs in-process.  Within a group one step loop
moves the levels' trajectories as one (levels * n_traj, n) state array,
each row scaled by its own level's sqrt(eps * dt).  Each trajectory owns
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
noise dimension); the streams do not depend on the chunk size.

The zero-noise flow that ``sample_attractor`` integrates does not depend
on the ensemble, so the simulate stage runs it through
``call_in_child`` in a forked child of its own beside the level workers.
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
        if self.dt <= 0 or self.total_time <= 0:
            raise ValueError("dt and total_time must be positive")
        if self.n_traj < 1:
            raise ValueError("need at least one trajectory")
        if self.sample_interval < self.dt - 1e-12:
            raise ValueError("sample_interval must be >= dt")
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
    own (in this process when there is only one group).  Every sink is
    called in the calling process.  Each sink receives its level's batches
    in the order the level emitted them; calls to different levels' sinks
    may interleave in any order.  An exception raised in a worker is
    re-raised here with its type, and no worker outlives the call.
    """
    cfgs, sinks, lo, hi = _ladder(cfgs, sinks, system.dim_state)
    groups = np.array_split(np.arange(len(cfgs)), min(len(cfgs), _usable_cores()))
    if len(groups) == 1:
        for message in _advance(system, cfgs, lo, hi):
            counts = _deliver(message, sinks)
    else:
        counts = np.concatenate(_run_workers(system, cfgs, sinks, lo, hi, groups))
    steps, emitted, escapes, aborted = counts.T
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

    step = 0
    while step < n_steps:
        chunk = min(_CHUNK_STEPS, n_steps - step)
        retained = [[] for _ in levels]
        for j, g in enumerate(gens):
            noise[:chunk, j] = g.standard_normal((chunk, m))
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


def _deliver(message, sinks):
    """Act on one message of a child, whose sinks are ``sinks``: feed
    batches to the sinks, re-raise the child's exception, or return the
    payload that ends its messages (None before it)."""
    tag, payload = message
    if tag == "batches":
        for level, batch in payload:
            sinks[level](batch)
        return None
    if tag == "failed":
        exc, tb = payload
        raise exc from _WorkerTraceback(tb)
    return payload


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


def _fork(messages):
    """Start a forked child that sends ``messages`` (fork, because a
    system's drift closures cannot be pickled); returns the process and
    the receiving end of its pipe."""
    ctx = get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_worker, args=(send, messages), daemon=True)
    proc.start()
    send.close()
    return proc, recv


def _receive(proc, recv, what):
    """The next message of a child, or RuntimeError if it died first."""
    try:
        return recv.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"{what} exited with code {proc.exitcode}") from None


def _reap(children, finished):
    """Join the children, terminating them first unless they finished."""
    for proc, recv in children:
        if not finished:
            proc.terminate()
        proc.join()
        recv.close()


def _run_workers(system, cfgs, sinks, lo, hi, groups):
    """Advance each group of levels in a forked worker and call the sinks
    here as the messages arrive.  Returns the groups' counts, in group
    order."""
    workers, ok = [], False
    try:
        for group in groups:
            workers.append(_fork(_advance(system, [cfgs[i] for i in group], lo, hi)))
        counts = [None] * len(groups)
        pending = {recv: g for g, (_, recv) in enumerate(workers)}
        while pending:
            for recv in connection.wait(list(pending)):
                g = pending[recv]
                message = _receive(workers[g][0], recv,
                                   f"simulation worker for levels {groups[g].tolist()}")
                counts[g] = _deliver(message, [sinks[i] for i in groups[g]])
                if counts[g] is not None:
                    del pending[recv]
        ok = True
    finally:
        _reap(workers, ok)
    return counts


def _returned(fn, args, kwargs):
    """The one message of a child that calls fn: its result."""
    yield "done", fn(*args, **kwargs)


@contextmanager
def call_in_child(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` in a forked child while the ``with``
    block runs here.  The block gets a function that waits for fn's result
    and returns it, re-raising fn's exception with its type.  A child
    whose result the block did not take is terminated when the block
    exits, and no child outlives the block."""
    child = _fork(_returned(fn, args, kwargs))
    taken = False

    def result():
        nonlocal taken
        value = _deliver(_receive(*child, "child process"), ())
        taken = True
        return value

    try:
        yield result
    finally:
        _reap([child], taken)


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
    size = _attractor_pool_size(burn_in, collect_time, dt)
    if count > size:
        raise ValueError(f"requested {count} points but only {size} are available")
    traj = integrate_ode(system, x0, dt, burn_in + collect_time)
    pool = traj[traj.shape[0] - size:]
    rng = _philox(seed)
    idx = rng.choice(pool.shape[0], size=count, replace=False)
    return pool[np.sort(idx)]

