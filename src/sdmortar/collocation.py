"""Stochastic collocation grids for independent standard normal variables.

Gauss-Hermite rules are normalized against the N(0,1) density (weights sum
to one, probabilists' convention). Multi-dimensional grids come in two
flavors: full tensor products and Smolyak sparse grids built from the nested
sequence of rule sizes 2^(p+1) - 1. Both expose the map from a global
realization index to the local index seen by one KL region, which is what
makes the per-region flux-basis reuse work.
"""

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.linalg import eigh_tridiagonal


def gauss_hermite_rule(m):
    """Nodes and weights of the m-point Gauss-Hermite rule for N(0,1).

    Golub-Welsch on the probabilists' Hermite Jacobi matrix (off-diagonal
    sqrt(k)), then nodes and weights are symmetrized so that the rule is
    bitwise symmetric about zero. Exact for polynomials up to degree 2m-1.
    """
    if m < 1:
        raise ValueError("rule size must be >= 1")
    if m == 1:
        return np.array([0.0]), np.array([1.0])
    off = np.sqrt(np.arange(1.0, m))
    nodes, vecs = eigh_tridiagonal(np.zeros(m), off)
    weights = vecs[0, :] ** 2
    weights = weights / weights.sum()
    # enforce exact symmetry: x -> (x - reversed(x))/2, w -> (w + reversed(w))/2
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights


def rule_size_at_level(level):
    """Sparse-grid 1D rule size H(level) = 2^(level+1) - 1."""
    return 2 ** (level + 1) - 1


@dataclass
class CollocationGrid:
    """Points (n_real, n_dims) with weights, plus region bookkeeping.

    `splits` gives the number of dimensions per KL region in region order;
    dimension blocks are contiguous, region 0 first. `local_indices[i]` maps
    each global realization to the local realization index of region i, and
    `local_counts[i]` is the number of distinct local realizations N_real(i).
    """

    points: np.ndarray
    weights: np.ndarray
    splits: tuple
    local_indices: list
    local_counts: list

    @property
    def n_real(self):
        return len(self.weights)

    @property
    def n_dims(self):
        return self.points.shape[1]

    def region_slice(self, i):
        lo = sum(self.splits[:i])
        return slice(lo, lo + self.splits[i])


def _tensor_points(xs, ws):
    """All combinations of 1D rules, dimension 0 slowest (mixed radix)."""
    sizes = [len(x) for x in xs]
    if not sizes:
        return np.zeros((1, 0)), np.array([1.0])
    total = int(np.prod(sizes))
    pts = np.empty((total, len(sizes)))
    wgt = np.ones(total)
    kk = np.arange(total)
    stride = total
    for d, (x, w) in enumerate(zip(xs, ws)):
        stride //= sizes[d]
        idx = (kk // stride) % sizes[d]
        pts[:, d] = x[idx]
        wgt *= w[idx]
    return pts, wgt


def _region_tables(points, splits):
    """Per region, each point's local realization index (distinct region
    coordinate tuples, numbered in first-occurrence order) and their count."""
    local_indices, local_counts = [], []
    lo = 0
    for n_i in splits:
        sl = slice(lo, lo + n_i)
        lo += n_i
        seen = {}
        idx = np.empty(len(points), dtype=int)
        for k, pt in enumerate(points):
            idx[k] = seen.setdefault(tuple(pt[sl]), len(seen))
        local_indices.append(idx)
        local_counts.append(len(seen))
    return local_indices, local_counts


def build_tensor_grid(m_per_dim, splits=None):
    """Full tensor product of 1D Gauss-Hermite rules.

    `m_per_dim` is one size per dimension (a scalar broadcasts). Dimension 0
    is the slowest-running index in the realization ordering, so the global
    index is the mixed-radix number with digits (k_0, ..., k_{n-1}).
    """
    m_per_dim = np.atleast_1d(np.asarray(m_per_dim, dtype=int))
    n = len(m_per_dim)
    if splits is None:
        splits = (n,)
    if sum(splits) != n:
        raise ValueError(f"splits {splits} do not sum to {n} dims")
    rules = [gauss_hermite_rule(m) for m in m_per_dim]
    points, weights = _tensor_points([r[0] for r in rules],
                                     [r[1] for r in rules])
    li, lc = _region_tables(points, splits)
    return CollocationGrid(points, weights, tuple(splits), li, lc)


def _sparse_level_sets(n, level):
    """Multi-indices p with max(0, level-n+1) <= |p| <= level, and coeffs."""
    lmin = max(0, level - n + 1)
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 1:
            for last in range(0, budget + 1):
                out.append(prefix + (last,))
            return
        for v in range(0, budget + 1):
            rec(prefix + (v,), remaining - 1, budget - v)

    rec((), n, level)
    kept = []
    for p in out:
        s = sum(p)
        if lmin <= s <= level:
            c = (-1) ** (level - s) * comb(n - 1, level - s)
            kept.append((p, c))
    return kept


def build_sparse_grid(n_dims, level, splits=None):
    """Smolyak sparse Gauss-Hermite grid at the given level.

    Combination-technique weights; duplicate points across component tensor
    grids are merged by exact coordinate equality, and the merged points are
    sorted lexicographically. Exact for total degree 2*level + 1.
    """
    if n_dims < 1:
        raise ValueError("sparse grids need n_dims >= 1")
    if level < 0:
        raise ValueError("level must be >= 0")
    if splits is None:
        splits = (n_dims,)
    if sum(splits) != n_dims:
        raise ValueError(f"splits {splits} do not sum to {n_dims} dims")

    rules = {}

    def rule(lev):
        if lev not in rules:
            rules[lev] = gauss_hermite_rule(rule_size_at_level(lev))
        return rules[lev]

    merged = {}
    for p, coeff in _sparse_level_sets(n_dims, level):
        pts, wgt = _tensor_points([rule(pi)[0] for pi in p],
                                  [rule(pi)[1] for pi in p])
        for pt, w in zip(pts, wgt):
            key = tuple(pt)
            merged[key] = merged.get(key, 0.0) + coeff * w

    keys = sorted(merged.keys())
    points = np.array(keys).reshape(len(keys), n_dims)
    weights = np.array([merged[k] for k in keys])
    li, lc = _region_tables(points, splits)
    return CollocationGrid(points, weights, tuple(splits), li, lc)
