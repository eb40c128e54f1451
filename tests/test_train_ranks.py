"""Paper-width training on two ranks: the same bits as one process, the
two-block step, rejection on every rank, failures that surface, and the
rule that decides the rank count."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import deepwkb
from deepwkb import net, simulate, train_v
from deepwkb.models import _philox, make_benchmark
from deepwkb.net import AdamState, MlpSpec
from deepwkb.train_v import (QpTrainConfig, QpTrainingSets, _epoch_indices, alternating_adam,
                             qp_loss, train_qp)
from deepwkb.train_z import ZTrainingSets, train_z

X86_64 = os.uname().machine == "x86_64"
needs_ranks = pytest.mark.skipif(not X86_64, reason="two ranks run on x86-64 only")


@pytest.fixture
def ranks(monkeypatch):
    """Sets the usable cores and one-threaded BLAS, so that paper-width
    training runs on ``cores`` ranks whatever the machine; returns the
    list of ``call_in_child`` calls, one per two-rank schedule."""
    forks = []
    real = simulate.call_in_child

    def counted(*args, **kwargs):
        forks.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "call_in_child", counted)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    def use(cores):
        monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
        return forks
    return use


def paper_params(seed=3):
    return net.init_params(MlpSpec(widths=net.default_widths(2)), seed=seed)


def three_terms(rng):
    """Terms L1, L2 and L3 of one batch of 2-d points each."""
    return [(kind, (rng.uniform(-1.0, 1.0, size=(128, 2)),), 1e-3)
            for kind in ("L1", "L2", "L3")]


ONE_EPOCH = QpTrainConfig(epochs=1, fine_tune_epochs=0)


@needs_ranks
def test_paper_width_training_does_not_depend_on_the_core_count(ranks, rng):
    system = make_benchmark("ou2d")
    box = [rng.uniform(-1.0, 1.0, size=(128, 2)) for _ in range(4)]
    near = 1e-3 * rng.standard_normal((32, 2))
    qp_sets = QpTrainingSets(x1=near, x2=box[0], x2_targets=np.sum(box[0] ** 2, axis=1),
                             x2_artificial=np.zeros(128, dtype=bool), x3=box[1])
    z_sets = ZTrainingSets(y1=near, y1_targets=np.full(32, 1.0 / np.pi), y2=box[2],
                           y2_targets=np.full(128, 1.0 / np.pi), y3=box[3])
    cfg = QpTrainConfig(epochs=2, fine_tune_epochs=1, seed=5)
    runs = []
    for cores in (2, 1):
        forks = ranks(cores)
        tv = train_qp(qp_sets, cfg, system)
        tz = train_z(z_sets, cfg, system, tv)
        runs.append((len(forks), tv, tz))
    (forked, tv2, tz2), (forked_too, tv1, tz1) = runs
    assert forked == 2 and forked_too == 2  # one child per trainer, none when pinned
    assert tv2.params.size == 157633
    assert tv2.alpha == tv1.alpha
    for two, one in ((tv2, tv1), (tz2, tz1)):
        assert np.array_equal(two.params.flat, one.params.flat)
        assert np.array_equal(np.asarray(two.log), np.asarray(one.log), equal_nan=True)
        assert two.rejected == one.rejected == {"L1": 0, "L2": 0, "L3": 0}


@needs_ranks
@pytest.mark.parametrize("cores", [2, 1])
def test_two_block_step_is_the_share_weighted_sum_of_its_blocks(ranks, rng, adam_calls, cores):
    system = make_benchmark("ou2d")
    terms = [("L1", (rng.uniform(-1.0, 1.0, size=(128, 2)),), 1e-3),
             ("L2", (rng.uniform(-1.0, 1.0, size=(128, 2)), rng.uniform(0.0, 1.0, size=128)), 2e-3),
             ("L3", (rng.uniform(-1.0, 1.0, size=(128, 2)),), 5e-4)]

    def loss(kind, p, batch):
        return qp_loss(kind, p, batch, system)

    ranks(cores)
    trained = paper_params()
    log, rejected = alternating_adam(trained, terms, loss, ONE_EPOCH, seed=4)
    states = [call[0] for call in adam_calls]

    # Rank 0 alone: rows 0-63 and 64-127 of each batch, weighted by 1/2
    # and added block 0 first, then one whole-vector Adam step per term.
    p = paper_params()
    rng_schedule = _philox(4)
    idx = [_epoch_indices(rng_schedule, 128, 1)[0] for _ in terms]
    want_log = [0]
    for (kind, arrays, lr), rows in zip(terms, idx):
        parts = [tuple(a[rows[lo:lo + 64]] for a in arrays) for lo in (0, 64)]
        (v0, g0), (v1, g1) = (loss(kind, p, b if len(b) > 1 else b[0]) for b in parts)
        g = 0.5 * g0
        g += 0.5 * g1
        net.adam_step(AdamState.fresh(p.size, lr), p.flat, g)
        want_log.append(0 + 0.5 * v0 + 0.5 * v1)
    assert np.array_equal(trained.flat, p.flat)
    assert log == [tuple(want_log)]
    assert [s.t for s in states] == [1, 1, 1] and len({id(s) for s in states}) == 3
    assert rejected == {"L1": 0, "L2": 0, "L3": 0}


@needs_ranks
@pytest.mark.parametrize("block, where, bad", [
    (0, "first", np.nan), (0, "second", np.inf), (1, "first", np.inf), (1, "second", np.nan)])
def test_nonfinite_block_rejects_the_step_on_every_rank(ranks, rng, adam_calls,
                                                        block, where, bad):
    # Rank 0 evaluates block 0 and updates the first half of the elements
    # with its own moments, rank 1 block 1 and the second half.  Rank 0
    # records the whole parameter vector at each loss call, after both
    # ranks ended the step before it, and its moments before each Adam step.
    forks = ranks(2)
    parent = os.getpid()
    size = paper_params().size
    calls, params_at = [], []

    def loss(kind, p, batch):
        calls.append(kind)
        if os.getpid() == parent:
            params_at.append(p.flat.copy())
        g = np.full(size, 1e-3 * (len(calls) + float(np.sum(batch))))
        if len(calls) == 5 and (os.getpid() != parent) == (block == 1):  # epoch 1's L2
            g[size // 4 if where == "first" else 3 * size // 4] = bad
        return 0.0, g

    _, rejected_steps = alternating_adam(paper_params(), three_terms(rng), loss,
                                         QpTrainConfig(epochs=2, fine_tune_epochs=1), seed=0)
    assert len(forks) == 1
    state, t, rejected, m, v = adam_calls[4]
    assert state is adam_calls[1][0] and (t, rejected) == (1, 0)
    assert (state.t, state.rejected) == (1, 1)  # no later L2 step
    assert np.array_equal(params_at[5], params_at[4])  # neither half moved
    assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
    assert rejected_steps == {"L1": 0, "L2": 1, "L3": 0}


@needs_ranks
def test_ranks_keep_their_bits_on_an_oversubscribed_machine(ranks, rng):
    # Three busy processes on two cores, and 180 steps of a network just
    # above the block threshold, so the barriers dominate: a rank that read
    # a gradient or parameter before the other wrote it would move the bits.
    params = net.init_params(MlpSpec(widths=(2, 128, 128, 1)), seed=6)
    assert params.size >= train_v._BLOCK_MIN_PARAMS
    system = make_benchmark("ou2d")
    terms = [(kind, (rng.uniform(-1.0, 1.0, size=(1280, 2)),), 1e-3)
             for kind in ("L1", "L3", "L3")]

    def loss(kind, p, batch):
        return qp_loss(kind, p, batch, system)

    cfg = QpTrainConfig(epochs=6, fine_tune_epochs=0)
    busy = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        start = time.monotonic()
        runs = []
        for cores in (2, 1):
            forks = ranks(cores)
            trained = params.copy()
            log, _ = alternating_adam(trained, terms, loss, cfg, seed=8)
            runs.append((trained.flat, log))
        assert time.monotonic() - start < 60.0
    finally:
        busy.kill()
        busy.wait(timeout=10)
    assert len(forks) == 1
    assert np.array_equal(runs[0][0], runs[1][0]) and runs[0][1] == runs[1][1]


class RankFailure(Exception):
    pass


@needs_ranks
def test_rank_one_exception_reaches_rank_zero(ranks, rng):
    ranks(2)
    parent = os.getpid()

    def loss(kind, p, batch):
        if os.getpid() != parent and kind == "L2":
            raise RankFailure("rank 1 failed")
        return 0.0, np.zeros(p.size)

    with pytest.raises(RankFailure, match="rank 1 failed") as info:
        alternating_adam(paper_params(), three_terms(rng), loss, ONE_EPOCH, seed=0)
    child_traceback = str(info.value.__cause__)  # the child's frames, down to the loss
    assert "in _schedule" in child_traceback and "in loss" in child_traceback


@needs_ranks
def test_killed_rank_one_is_reported_by_its_exit_code(ranks, rng):
    ranks(2)
    parent = os.getpid()

    def loss(kind, p, batch):
        if os.getpid() != parent and kind == "L3":
            os.kill(os.getpid(), signal.SIGKILL)
        return 0.0, np.zeros(p.size)

    start = time.monotonic()
    with pytest.raises(RuntimeError, match=f"exited with code {-signal.SIGKILL}"):
        alternating_adam(paper_params(), three_terms(rng), loss, ONE_EPOCH, seed=0)
    assert time.monotonic() - start < 10.0


@needs_ranks
def test_rank_one_exits_once_its_parent_is_gone():
    # Rank 0 prints rank 1's pid and ends its process in the L2 step, while
    # rank 1 waits at that step's barrier.
    code = ("import multiprocessing, os\n"
            "import numpy as np\n"
            "from deepwkb import net, simulate\n"
            "from deepwkb.net import MlpSpec\n"
            "from deepwkb.train_v import QpTrainConfig, alternating_adam\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
            "simulate._usable_cores = lambda: 2\n"
            "parent = os.getpid()\n"
            "def loss(kind, p, batch):\n"
            "    if os.getpid() == parent and kind == 'L2':\n"
            "        print(multiprocessing.active_children()[0].pid, flush=True)\n"
            "        os._exit(0)\n"
            "    return 0.0, np.zeros(p.size)\n"
            "params = net.init_params(MlpSpec(widths=net.default_widths(2)), seed=3)\n"
            "terms = [(k, (np.zeros((128, 2)),), 1e-3) for k in ('L1', 'L2', 'L3')]\n"
            "cfg = QpTrainConfig(epochs=1, fine_tune_epochs=0)\n"
            "alternating_adam(params, terms, loss, cfg, 0)\n")
    src = str(Path(deepwkb.__file__).parents[1])
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    pid = int(proc.stdout.readline())
    try:
        assert proc.wait(timeout=60) == 0
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and _running(pid):
            time.sleep(0.05)
        assert not _running(pid)
    finally:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)
        proc.stdout.close()


def _running(pid):
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_small_networks_train_on_whole_batches_in_this_process(ranks, rng):
    forks = ranks(2)
    seen = []

    def loss(kind, p, batch):
        seen.append(batch.shape)
        return 0.0, np.zeros(p.size)

    terms = [(kind, (rng.uniform(-1.0, 1.0, size=(128, 1)),), 1e-3) for kind in ("L1", "L2", "L3")]
    alternating_adam(net.init_params(MlpSpec(widths=(1, 32, 32, 1)), seed=1), terms, loss,
                     ONE_EPOCH, seed=0)
    assert forks == [] and seen == [(128, 1)] * 3


@pytest.mark.parametrize("env, threads", [
    ({}, 0),
    ({"OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1),
    ({"OPENBLAS_NUM_THREADS": "-3", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "3"}, 3),
])
def test_blas_threads_read_as_openblas_reads_them(monkeypatch, env, threads):
    for name in train_v._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert train_v._blas_threads() == threads


@pytest.mark.parametrize("cores, blas, spare", [(2, "1", True), (1, "1", False),
                                                (2, "2", False), (4, None, False)])
def test_a_second_rank_needs_a_core_beside_one_blas_thread(monkeypatch, cores, blas, spare):
    for name in train_v._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    if blas is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
    assert train_v._spare_core() == (spare and X86_64)


@needs_ranks
@pytest.mark.parametrize("rank", [0, 1])
def test_diverging_training_leaves_no_rank_running(ranks, rng, rank):
    forks = ranks(2)
    parent = os.getpid()

    def loss(kind, p, batch):
        diverged = kind == "L2" and (os.getpid() != parent) == (rank == 1)
        return float("inf") if diverged else 0.0, np.zeros(p.size)

    with pytest.raises(train_v.TrainingDiverged, match="^L2 became non-finite at epoch 0$"):
        alternating_adam(paper_params(), three_terms(rng), loss, ONE_EPOCH, seed=0)
    assert len(forks) == 1  # and the autouse fixture finds no child left
