"""Exact Euclidean minimum spanning trees over dense point sets.

Dense Prim construction: O(n^2) time, O(n d) memory, comparisons on squared
distances (square roots only when edge lengths are reported). Exactness
matters because downstream statistics count specific edges; approximate or
k-NN-graph trees can silently drop a true edge and bias those counts.

Tie rule: whenever two candidate edges (i, j) have equal squared length,
the one with the smallest key min(i, j)*n + max(i, j) wins, n the row count;
that is the lexicographic order of the canonical pairs (i < j). Real data can
contain exact ties, so determinism has to be imposed. Prim applies the rule
in two places. Choosing the next vertex compares edges that share no
endpoint, so the tied candidate with the smallest key is taken. Relaxing
an outside vertex t against the vertex v that just joined compares (v, t)
with t's current best edge (parent[t], t); both end at t, so the canonical
order reduces to v < parent[t] in all four placements of v and parent[t]
around t.

The loop keeps only the vertices outside the tree, compacted by swap-remove,
so step k touches n - k of them. They are the columns of a (d, w) array: each
step subtracts the vertex that joined as a (d, 1) column into a reused
buffer, squares it in place and adds its d rows, so every ufunc call runs d
inner loops of length w, not w loops of length d. numpy runs 2-D ufuncs on
strided operands about three times slower than on contiguous ones, so the
array stays contiguous: a swap-remove moves one column inside the width w,
the dead columns past the live ones are computed and ignored, and the live
ones are copied to a narrower array once more than w/16 have died.

The row sums follow numpy's own order for sum(axis=1), so every d2 keeps the
bits of ((a - b) ** 2).sum(axis=1), the formula tests/bruteforce.py uses;
the tie rule compares those bits. numpy adds d < 8 terms in sequence; for
8 <= d <= 128 it keeps eight accumulators r[j] += x[8b + j], combines them as
((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and then adds the d % 8 tail
in sequence; above 128 it splits at h = d//2 - (d//2) % 8 and adds the two
halves' sums. The columns hold the coordinates of each block of eight in
bit-reversed order (0, 4, 2, 6, 1, 5, 3, 7), so each combining level adds the
block's second half to its first, again with contiguous operands. Row sums do
not depend on the row count, so the lengths are the same bits a full-length
pass would give. The boolean masks are written into buffers allocated once at
full length: numpy caches freed arrays below 1 KiB by exact size, and masks
that shrink by one element every step would leave about 2 MiB of them cached.

Prim runs on the distinct rows only, grouped by dataset.row_groups: a stable
lexsort of the rows puts equal rows next to each other (-0.0 and 0.0 compare
equal, and give the same d2 to every row), so each group's representative is
its first row in sorted order, which is its smallest index, and the distinct
rows are ordered by representative, so the tie rule on their positions is the
rule on the representatives. Under the strict (d2, i, j) order the tree is
unique, and Kruskal on all rows builds it as follows, provided distinct rows
never have d2 == 0: the zero-length edges come first, and inside a group the
star from its representative precedes every other pair; all pairs between two
groups have the same d2 bits, and the representatives' pair is the first of
them. So each duplicate joins its representative by a zero-length edge, and
the groups are joined by the tree over the representatives. When a squared
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

from .dataset import check_finite, derive_rng, row_groups


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
    """Exact Euclidean MST of an (n, d) point matrix, n >= 2, d >= 1.

    Output edges are canonically oriented (i < j) and sorted by (i, j).
    Duplicate points are allowed; the tie rule resolves their zero-length
    edges deterministically.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise ValueError(
            f"points must be a 2-D matrix with at least one column, got shape {pts.shape}")
    n = pts.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    check_finite(pts)

    own_rep = row_groups(pts)
    rep = np.flatnonzero(own_rep == np.arange(n))
    i, j, d2 = _unique_tree(pts[rep])
    i, j = rep[i], rep[j]
    if rep.size < n and np.all(d2 > 0):
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
    n, d = pts.shape
    laid = pts[:, _sum_order(d)]
    at = laid[:, :, None]
    cols = laid[1:].T.copy()
    buf = np.empty_like(cols)
    dist2 = _sq_dist(cols, at[0], buf).copy()
    rest = np.arange(1, n)
    parent = np.zeros(n - 1, dtype=np.int64)
    sel, upd, tie = (np.empty(n - 1, dtype=bool) for _ in range(3))

    out_i = np.empty(n - 1, dtype=np.int64)
    out_j = np.empty(n - 1, dtype=np.int64)
    out_d2 = np.empty(n - 1, dtype=np.float64)
    for m in range(n - 1, 0, -1):
        d2 = dist2[:m]
        k = int(d2.argmin())
        if np.count_nonzero(np.equal(d2, d2[k], out=sel[:m])) > 1:
            cand = np.flatnonzero(sel[:m])
            t, p = rest[cand], parent[cand]
            k = cand[(np.minimum(p, t) * n + np.maximum(p, t)).argmin()]
        v, u = int(rest[k]), int(parent[k])
        last = m - 1
        out_i[last], out_j[last], out_d2[last] = min(u, v), max(u, v), d2[k]

        # v joins the tree: swap-remove it, then relax the rest against v
        rest[k], parent[k], dist2[k] = rest[last], parent[last], dist2[last]
        cols[:, k] = cols[:, last]
        width = cols.shape[1]
        if width - last > width // 16:
            cols = cols[:, :last].copy()
            buf = np.empty_like(cols)
        d2 = dist2[:last]
        nd2 = _sq_dist(cols, at[v], buf)[:last]
        better = np.less(nd2, d2, out=upd[:last])
        tied = np.equal(nd2, d2, out=tie[:last])
        np.putmask(parent[:last], better, v)
        np.minimum(d2, nd2, out=d2)
        if np.count_nonzero(tied):
            np.minimum(parent[:last], v, out=parent[:last], where=tied)
    return out_i, out_j, out_d2


_BIT_REVERSED = (0, 4, 2, 6, 1, 5, 3, 7)


def _sum_order(d):
    """Coordinate order of the columns that _sum_rows adds in numpy's order."""
    if d > 128:
        h = d // 2 - (d // 2) % 8
        return _sum_order(h) + [h + c for c in _sum_order(d - h)]
    full = d - d % 8
    return [b + r for b in range(0, full, 8) for r in _BIT_REVERSED] + list(range(full, d))


def _sq_dist(cols, x, buf):
    """Squared distances from the (d, 1) column x to each column of the (d, w)
    array cols, laid out by _sum_order; buf is a (d, w) work array."""
    np.subtract(cols, x, out=buf)
    np.square(buf, out=buf)
    return _sum_rows(buf)


def _sum_rows(sq):
    """Sum the rows of sq in place in numpy's pairwise order; returns sq[0]."""
    d = sq.shape[0]
    if d > 128:
        h = d // 2 - (d // 2) % 8
        total = _sum_rows(sq[:h])
        total += _sum_rows(sq[h:])
        return total
    full = d - d % 8
    if full:
        for b in range(8, full, 8):
            sq[:8] += sq[b:b + 8]
        sq[:4] += sq[4:8]
        sq[:2] += sq[2:4]
        sq[0] += sq[1]
    total = sq[0]
    for r in range(max(full, 1), d):
        total += sq[r]
    return total


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
