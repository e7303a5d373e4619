"""Exact Euclidean minimum spanning trees over dense point sets.

Dense Prim construction: O(n^2) time, O(n d) memory, comparisons on squared
distances (square roots only when edge lengths are reported). Exactness
matters because downstream statistics count specific edges; approximate or
k-NN-graph trees can silently drop a true edge and bias those counts.

Tie rule: whenever two candidate edges have equal squared length, the one
with the smaller canonical (i, j) pair (i < j, lexicographic) wins. Real
data can contain exact ties, so determinism has to be imposed. Prim applies
the rule in two places. Choosing the next vertex compares edges that share
no endpoint, so the tied candidates are lexsorted by their pairs. Relaxing
an outside vertex t against the vertex v that just joined compares (v, t)
with t's current best edge (parent[t], t); both end at t, so the canonical
order reduces to v < parent[t] in all four placements of v and parent[t]
around t.

The loop keeps only the vertices outside the tree, compacted by swap-remove,
so step k touches n - k rows. Row sums do not depend on the row count, so
the lengths are the same bits a full-length pass would give. The boolean
masks are written into three buffers allocated once at full length: numpy
caches freed arrays below 1 KiB by exact size, and masks that shrink by one
element every step would leave about 2 MiB of them cached.

Prim runs on the distinct rows only. np.unique groups equal rows (-0.0 and
0.0 compare equal, and give the same d2 to every row), each group's
representative is its smallest index, and the distinct rows are ordered by
representative, so the tie rule on their positions is the rule on the
representatives. Under the strict (d2, i, j) order the tree is unique, and
Kruskal on all rows builds it as follows, provided distinct rows never have
d2 == 0: the zero-length edges come first, and inside a group the star from
its representative precedes every other pair; all pairs between two groups
have the same d2 bits, and the representatives' pair is the first of them.
So each duplicate joins its representative by a zero-length edge, and the
groups are joined by the tree over the representatives. When a squared
difference underflows (rows 1e-300 and 0.0), distinct rows tie with the
duplicates at d2 == 0. The smallest edge is always in the tree, so a zero in
the representatives' tree detects that, and Prim then runs over all rows.

At d = 1 the path through the sorted distinct values replaces Prim when a
certificate holds: for every three consecutive values a < b < c, d2(a, c) is
strictly larger than d2(a, b) and d2(b, c). Rounded subtraction and squaring
are monotone, so every longer span is at least a triple it contains; each
edge off the path is then strictly longer than every path edge on its cycle,
and the path is the tree under any tie rule. The certificate can fail only by
rounding (-1e16, 0.0, 1e-300 sorted: the outer span rounds to the first
step, and the path would give (0, 2), (1, 2) for rows [-1e16], [1e-300],
[0.0] where Prim gives (0, 1), (1, 2)); Prim runs then.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import derive_rng


@dataclass(frozen=True)
class MstResult:
    """Spanning tree edge list: arrays i, j (i < j), edge lengths, point count."""

    i: np.ndarray
    j: np.ndarray
    length: np.ndarray
    n_points: int

    def __post_init__(self):
        i = np.asarray(self.i, dtype=np.int64)
        j = np.asarray(self.j, dtype=np.int64)
        length = np.asarray(self.length, dtype=np.float64)
        if not (i.shape == j.shape == length.shape == (self.n_points - 1,)):
            # a tree with the wrong edge count is a fault of the builder, not of its input
            raise RuntimeError(
                f"broken spanning tree: expected {self.n_points - 1} edges, got shapes "
                f"{i.shape}, {j.shape}, {length.shape}"
            )
        for a in (i, j, length):
            a.flags.writeable = False
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "length", length)


def build_mst(points) -> MstResult:
    """Exact Euclidean MST of an (n, d) point matrix, n >= 2.

    Output edges are canonically oriented (i < j) and sorted by (i, j).
    Duplicate points are allowed; the tie rule resolves their zero-length
    edges deterministically.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be a 2-D matrix, got shape {pts.shape}")
    n = pts.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    if not np.all(np.isfinite(pts)):
        bad = np.argwhere(~np.isfinite(pts))[0]
        raise ValueError(f"non-finite coordinate at row {bad[0]}, column {bad[1]}")

    _, first, inverse = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    rep = np.sort(first)
    i, j, d2 = _unique_tree(pts[rep])
    i, j = rep[i], rep[j]
    if rep.size < n and np.all(d2 > 0):
        own_rep = first[inverse.ravel()]
        dup = np.flatnonzero(own_rep != np.arange(n))
        i = np.concatenate((i, own_rep[dup]))
        j = np.concatenate((j, dup))
        d2 = np.concatenate((d2, np.zeros(dup.size)))
    elif rep.size < n:  # distinct rows at d2 == 0 tie with the duplicates
        i, j, d2 = _prim(pts)

    order = np.lexsort((j, i))
    return MstResult(i=i[order], j=j[order], length=np.sqrt(d2[order]), n_points=n)


def _unique_tree(pts):
    """Edges (i, j, d2) of the tree over distinct rows: the sorted path at d = 1
    when its certificate holds, else Prim."""
    if pts.shape[1] == 1:
        s = np.argsort(pts[:, 0], kind="stable")
        x = pts[s]
        step = ((x[1:] - x[:-1]) ** 2).sum(axis=1)
        span = ((x[2:] - x[:-2]) ** 2).sum(axis=1)
        if np.all(span > step[:-1]) and np.all(span > step[1:]):
            a, b = s[:-1], s[1:]
            return np.minimum(a, b), np.maximum(a, b), step
    return _prim(pts)


def _prim(pts):
    """Edges (i, j, d2) of dense Prim over all rows, in the order they join."""
    n = pts.shape[0]
    rest = np.arange(1, n)
    rows = pts[1:].copy()
    dist2 = ((rows - pts[0]) ** 2).sum(axis=1)
    parent = np.zeros(n - 1, dtype=np.int64)
    sel, upd, tie = (np.empty(n - 1, dtype=bool) for _ in range(3))

    out_i = np.empty(n - 1, dtype=np.int64)
    out_j = np.empty(n - 1, dtype=np.int64)
    out_d2 = np.empty(n - 1, dtype=np.float64)
    for m in range(n - 1, 0, -1):
        d2 = dist2[:m]
        cand = np.flatnonzero(np.equal(d2, d2.min(), out=sel[:m]))
        if cand.size > 1:
            t, p = rest[cand], parent[cand]
            k = cand[np.lexsort((np.maximum(p, t), np.minimum(p, t)))[0]]
        else:
            k = cand[0]
        v, u = int(rest[k]), int(parent[k])
        last = m - 1
        out_i[last], out_j[last], out_d2[last] = min(u, v), max(u, v), d2[k]

        # v joins the tree: swap-remove it, then relax the rest against v
        rest[k], parent[k], dist2[k] = rest[last], parent[last], dist2[last]
        rows[k] = rows[last]
        d2 = dist2[:last]
        nd2 = ((rows[:last] - pts[v]) ** 2).sum(axis=1)
        better = np.less(nd2, d2, out=upd[:last])
        tied = np.greater(parent[:last], v, out=tie[:last])
        tied &= np.equal(nd2, d2, out=sel[:last])
        better |= tied
        np.copyto(parent[:last], v, where=better)
        np.minimum(d2, nd2, out=d2)
    return out_i, out_j, out_d2


def add_jitter(points, seed) -> np.ndarray:
    """Perturb coordinates by uniform noise of 1e-9 times the coordinate scale.

    Breaks exact inter-point distance ties so the spanning tree is unique,
    at the cost of no longer being a function of the input points alone.
    """
    pts = np.asarray(points, dtype=np.float64)
    span = float(pts.max() - pts.min()) if pts.size else 0.0
    scale = span if span > 0 else 1.0
    rng = derive_rng(seed)
    return pts + rng.uniform(-1.0, 1.0, size=pts.shape) * (1e-9 * scale)
