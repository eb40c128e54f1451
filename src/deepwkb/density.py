"""Grid-binned empirical density estimation and collocation selection.

The empirical density at a bin is  u_hat = N0 / (h N)  where N0 is the
bin count, h the bin volume and N the total number of retained samples
including those falling outside the grid.  Bins are half-open with the
tie-break that a sample sitting exactly on a shared boundary belongs to
the lower-index bin; the first bin also contains its lower edge.
Histograms for one- and two-dimensional systems are stored dense, higher
dimensions use a sparse map keyed by the C-order flat index.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .models import _as_batch, _philox

__all__ = [
    "GridSpec",
    "DensityHistogram",
    "select_collocation",
]

_HIST_MAGIC = b"DWKBHIST"
_HIST_VERSION = 1
DEFAULT_MIN_COUNT = 20
_DENSE_CELL_CAP = 1 << 26


@dataclass(frozen=True)
class GridSpec:
    """Rectangular binning grid."""

    lower: tuple
    upper: tuple
    bins_per_dim: tuple

    def __post_init__(self):
        lo, hi = self.lower_arr, self.upper_arr
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("grid corners must be 1-d and of equal length")
        if np.any(hi <= lo):
            raise ValueError("grid has non-positive extent")
        if len(self.bins_per_dim) != lo.shape[0] or any(b < 1 for b in self.bins_per_dim):
            raise ValueError("bins_per_dim invalid")

    @property
    def lower_arr(self):
        return np.asarray(self.lower, dtype=float)

    @property
    def upper_arr(self):
        return np.asarray(self.upper, dtype=float)

    @property
    def dim(self):
        return len(self.bins_per_dim)

    @property
    def widths(self):
        return (self.upper_arr - self.lower_arr) / np.asarray(self.bins_per_dim)

    @property
    def bin_volume(self):
        return float(np.prod(self.widths))

    @property
    def n_cells(self):
        return int(np.prod(self.bins_per_dim))

    def bin_indices(self, points):
        """Multi-indices for points of shape (B, n); -1 marks off-grid rows.

        A point on a shared boundary goes to the lower-index bin; the grid's
        lower edge belongs to bin 0 and its upper edge to the last bin, even
        where (upper - lower) / widths rounds above the bin count.
        """
        pts = _as_batch(points, self.dim)
        lo, hi = self.lower_arr, self.upper_arr
        t = (pts - lo) / self.widths
        # Clipped before the cast, so a point far off the grid cannot overflow int64.
        idx = np.clip(np.ceil(t), 1, np.asarray(self.bins_per_dim)).astype(np.int64) - 1
        inside = np.all((pts >= lo) & (pts <= hi), axis=1)
        idx[~inside] = -1
        return idx, inside

    def flat_indices(self, points):
        """C-order flat indices; -1 for off-grid points."""
        idx, inside = self.bin_indices(points)
        flat = np.full(idx.shape[0], -1, dtype=np.int64)
        if inside.any():
            flat[inside] = np.ravel_multi_index(idx[inside].T, self.bins_per_dim)
        return flat, inside

    def centers(self, flat):
        """Bin centers for C-order flat indices, shape (B, n)."""
        multi = np.stack(np.unravel_index(np.asarray(flat, dtype=np.int64), self.bins_per_dim), axis=-1)
        return self.lower_arr + (multi + 0.5) * self.widths


class DensityHistogram:
    """Per-bin sample counts at one noise level."""

    def __init__(self, grid: GridSpec, epsilon: float):
        self.grid = grid
        self.epsilon = float(epsilon)
        self.total = 0
        if grid.dim <= 2:
            if grid.n_cells > _DENSE_CELL_CAP:
                raise MemoryError("grid exceeds the dense cell cap")
            self._dense = np.zeros(grid.n_cells, dtype=np.int64)
            self._sparse = None
        else:
            self._dense = None
            self._sparse = {}

    # -- accumulation ---------------------------------------------------

    def add_batch(self, batch):
        flat, inside = self.grid.flat_indices(batch)
        self.total += flat.shape[0]
        if not inside.any():
            return
        hit = flat[inside]
        if self._dense is not None:
            self._dense += np.bincount(hit, minlength=self.grid.n_cells)
        else:
            uniq, cnt = np.unique(hit, return_counts=True)
            store = self._sparse
            for u, c in zip(uniq.tolist(), cnt.tolist()):
                store[u] = store.get(u, 0) + c

    # -- queries ----------------------------------------------------------

    @property
    def binned_count(self):
        if self._dense is not None:
            return int(self._dense.sum())
        return int(sum(self._sparse.values()))

    def counts_at_flat(self, flat):
        """Counts for an array of flat indices (off-grid marked -1 give 0)."""
        flat = np.asarray(flat, dtype=np.int64)
        out = np.zeros(flat.shape[0], dtype=np.int64)
        ok = flat >= 0
        if self._dense is not None:
            out[ok] = self._dense[flat[ok]]
        else:
            out[ok] = [self._sparse.get(int(i), 0) for i in flat[ok]]
        return out

    def counts_at(self, points):
        flat, _ = self.grid.flat_indices(points)
        return self.counts_at_flat(flat)

    def occupied(self):
        """(flat indices, counts) of all non-empty bins."""
        if self._dense is not None:
            flat = np.nonzero(self._dense)[0]
            return flat, self._dense[flat]
        flat = np.fromiter(self._sparse.keys(), dtype=np.int64, count=len(self._sparse))
        cnt = np.fromiter(self._sparse.values(), dtype=np.int64, count=len(self._sparse))
        order = np.argsort(flat)
        return flat[order], cnt[order]

    # -- persistence ------------------------------------------------------

    def to_file(self, path):
        flat, cnt = self.occupied()
        g = self.grid
        with open(path, "wb") as fh:
            fh.write(_HIST_MAGIC)
            fh.write(struct.pack("<II", _HIST_VERSION, g.dim))
            fh.write(np.asarray(g.bins_per_dim, dtype="<u8").tobytes())
            fh.write(g.lower_arr.astype("<f8").tobytes())
            fh.write(g.upper_arr.astype("<f8").tobytes())
            fh.write(struct.pack("<d", self.epsilon))
            fh.write(struct.pack("<QQ", self.total, flat.shape[0]))
            rec = np.empty((flat.shape[0], 2), dtype="<u8")
            rec[:, 0] = flat
            rec[:, 1] = cnt
            fh.write(rec.tobytes())

    @classmethod
    def from_file(cls, path):
        with open(path, "rb") as fh:
            if fh.read(8) != _HIST_MAGIC:
                raise ValueError("bad histogram magic")
            version, dim = struct.unpack("<II", fh.read(8))
            if version != _HIST_VERSION:
                raise ValueError(f"unsupported histogram version {version}")
            bins = np.frombuffer(fh.read(8 * dim), dtype="<u8").astype(int)
            lo = np.frombuffer(fh.read(8 * dim), dtype="<f8")
            hi = np.frombuffer(fh.read(8 * dim), dtype="<f8")
            (eps,) = struct.unpack("<d", fh.read(8))
            total, nrec = struct.unpack("<QQ", fh.read(16))
            rec = np.frombuffer(fh.read(16 * nrec), dtype="<u8").reshape(nrec, 2)
        grid = GridSpec(tuple(lo), tuple(hi), tuple(bins))
        hist = cls(grid, eps)
        hist.total = int(total)
        if hist._dense is not None:
            hist._dense[rec[:, 0].astype(np.int64)] = rec[:, 1].astype(np.int64)
        else:
            hist._sparse = {int(i): int(c) for i, c in rec}
        return hist


def _weighted_sample_without_replacement(rng, weights, k):
    # Exponential-keys scheme: smallest Exp(1)/w wins; exact for k draws.
    keys = rng.exponential(size=weights.shape[0]) / weights
    return np.argpartition(keys, k - 1)[:k]


def select_collocation(grid: GridSpec, histograms, m_points, traj_fraction=0.5, seed=0):
    """Pick (m_points, n) collocation points: a trajectory-weighted share
    and a uniform rest.

    The first round(m_points * traj_fraction) points are drawn without
    replacement over occupied bins of the histogram at the largest noise
    level, proportionally to bin counts; the rest uniformly over the
    remaining grid.  All points are bin centers.
    """
    if not histograms:
        raise ValueError("no histograms supplied")
    if not 0.0 <= traj_fraction <= 1.0:
        raise ValueError("traj_fraction must lie in [0, 1]")
    top = max(histograms, key=lambda h: h.epsilon)
    rng = _philox(seed)

    n_traj_pts = int(round(m_points * traj_fraction))
    occ_flat, occ_cnt = top.occupied()
    if n_traj_pts > occ_flat.shape[0]:
        raise ValueError(
            f"cannot draw {n_traj_pts} trajectory points from {occ_flat.shape[0]} occupied bins"
        )
    chosen = []
    if n_traj_pts > 0:
        take = _weighted_sample_without_replacement(rng, occ_cnt.astype(float), n_traj_pts)
        chosen.append(occ_flat[take])

    n_unif = m_points - n_traj_pts
    if n_unif > 0:
        used = set(chosen[0].tolist()) if chosen else set()
        remaining = grid.n_cells - len(used)
        if n_unif > remaining:
            raise ValueError("grid too small for the requested uniform draw")
        picked = []
        # Rejection against the used set; the used set is tiny relative to
        # the grid in every practical configuration.
        while len(picked) < n_unif:
            cand = rng.integers(0, grid.n_cells, size=2 * (n_unif - len(picked)) + 8)
            for c in cand.tolist():
                if c not in used:
                    used.add(c)
                    picked.append(c)
                    if len(picked) == n_unif:
                        break
        chosen.append(np.asarray(picked, dtype=np.int64))

    flat = np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)
    return grid.centers(flat)
