"""Exact Euclidean minimum spanning trees over dense point sets.

Dense Prim construction: O(n^2) time, O(n d) memory, comparisons on squared
distances (square roots only when edge lengths are reported). Exactness
matters because downstream statistics count specific edges; approximate or
k-NN-graph trees can silently drop a true edge and bias those counts.

Tie rule: whenever two candidate edges (i, j) have equal squared length,
the one with the smallest key min(i, j)*n + max(i, j) wins, n the row count;
that is the lexicographic order of the canonical pairs (i < j). Real data can
contain exact ties, so determinism has to be imposed. Prim applies the rule
in two places, each written once and shared by both Prim kernels. Choosing
the next vertex compares edges that share no endpoint, so the tied candidate
with the smallest key (_pair_key) is taken. Relaxing an outside vertex t
against the vertex v that just joined (_relax) compares (v, t) with t's
current best edge (parent[t], t); both end at t, so the canonical order
reduces to v < parent[t] in all four placements of v and parent[t] around t.

Every kernel returns bare edges: vertex arrays (u, v) over the distinct
rows, unoriented and without lengths. _tree finishes each tree in one place:
it orients the edges, takes their d2 once from the rows (_edge_d2), attaches
the duplicate rows, sorts the edges and takes square roots. The d2 a kernel
compared and the d2 _tree reports are the same bits: (a - b)^2 and (b - a)^2
are the same float, and _edge_d2 adds the terms in _sum_rows order. So the
kernels keep one neighbour per vertex while they grow, not a length.

Rows about 1.3e154 or more apart overflow their d2 to inf, and all such pairs
tie, so the tie rule rather than the geometry would pick among them. _tree
raises DatasetError when a tree edge has d2 == inf, and asks for rescaled
input; scaling by a power of two keeps every tree's edges, and so every
cross count, while no d2 overflows or underflows. The check is exact: every
overflowed pair is longer than every finite one, so a tree whose edges are
all finite is the true tree, whatever pairs off it overflow. So that error is
the only report of an overflow: d2 are computed under np.errstate(over=
"ignore"), entered once per kernel call and once per set in _edge_d2 and
_sorted_path, never per Prim step, and never across a yield of build_msts,
where it would leak into the caller.

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

build_msts takes many point matrices at once, as greedy feature selection
scores its candidates, and reads each one once, in order, so point_sets may
be a generator that builds each matrix only when it is reached. Each matrix is
converted and checked (_checked), deduplicated, tried on the sorted path and
finished (duplicates attached, the underflow fallback) on its own, exactly as
build_mst does it; a set left for Prim keeps its matrix and its distinct rows
until its lockstep runs. Those sets are grown in lockstep: ordered by
dimension and then by falling size, they share one (d, B, w) column array, so
each step makes one argmin, one swap-remove and one relax for all B trees, one
set of numpy calls where one tree at a time makes B. Every set in the array
has the same number m of outside vertices, and a set of n rows joins, its
first row in its tree, when m reaches n - 1; the array is then rebuilt at
width m. Per set, each step does what a step of the one-tree kernel does to
the same columns in the same order: the d2 come from the same subtractions,
squares and _sum_rows additions, and the tie rule is the same _pair_key (with
the set's own n) and the same _relax. So every tree has the bits of build_mst
on that set alone. A join or a compaction allocates the column and work
arrays afresh, as the one-tree kernel does. A lockstep holds at most
LOCKSTEP_CELLS cells (coordinate x set x column) at any join; the sets past
that start the next lockstep. A single set, or one wider than that on its
own, runs the one-tree kernel, which makes fewer numpy calls per step than a
lockstep of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DatasetError, check_finite, derive_rng, row_groups

# Most cells (coordinate x set x column) a lockstep's column array holds: with
# its work array, 384 KiB. Larger groups measured no faster on selection steps
# of a dozen sets of 600-1200 rows, and every byte adds to a selection's peak
# memory.
LOCKSTEP_CELLS = 3 << 13


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
    edges deterministically. Raises DatasetError when the squared length of
    a tree edge overflows to inf; scaling by a power of two keeps the edges.
    """
    return next(build_msts([points]))[1]


def build_msts(point_sets):
    """Yield (k, MstResult) for each (n, d) point matrix k of point_sets, in
    the order the trees are done; each tree is the build_mst of its matrix,
    bit for bit.

    point_sets is read once, in order, and each matrix is converted, checked
    and deduplicated once; the matrices that need Prim are kept, with their
    distinct rows, until their lockstep group runs. A group of one runs the
    one-tree kernel.
    """
    waiting = []
    for k, points in enumerate(point_sets):
        pts = _checked(points)
        own_rep = _own_rep(pts)
        rows = _distinct(pts, own_rep)
        path = _sorted_path(rows)
        if path is None:
            waiting.append((rows.shape[1], -rows.shape[0], k, pts, own_rep, rows))
        else:
            yield k, _tree(pts, own_rep, rows, *path)
    waiting.sort(key=lambda w: w[:3])
    for group in _lockstep_groups(waiting):
        rows = [w[5] for w in group]
        trees = [_prim(rows[0])] if len(group) == 1 else _lockstep(rows)
        for (_, _, k, pts, own_rep, distinct), edges in zip(group, trees):
            yield k, _tree(pts, own_rep, distinct, *edges)


def _checked(points) -> np.ndarray:
    """The checked (n, d) float matrix of a point set."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise ValueError(
            f"points must be a 2-D matrix with at least one column, got shape {pts.shape}")
    if pts.shape[0] < 2:
        raise ValueError(f"need at least 2 points, got {pts.shape[0]}")
    check_finite(pts)
    return pts


def _own_rep(pts):
    """Each row's representative (int32), or None when every row is distinct."""
    own_rep = row_groups(pts)
    return None if np.all(_is_rep(own_rep)) else own_rep.astype(np.int32)


def _is_rep(own_rep):
    return own_rep == np.arange(own_rep.size)


def _distinct(pts, own_rep):
    return pts if own_rep is None else pts[_is_rep(own_rep)]


def _tree(pts, own_rep, rows, u, v) -> MstResult:
    """The tree over all rows of pts from the edges (u, v) over its distinct
    rows: the one place edges are oriented and their lengths taken."""
    i, j = np.minimum(u, v), np.maximum(u, v)
    d2 = _edge_d2(rows, i, j)
    if np.isinf(d2).any():  # overflowed pairs all tie at inf, so the tree may be wrong
        raise DatasetError("squared distances overflow to inf; rescale the input "
                           "(cross counts do not depend on scale)")
    if own_rep is not None:
        if not np.all(d2 > 0):  # distinct rows at d2 == 0 tie with the duplicates
            return _tree(pts, None, pts, *_prim(pts))
        rep = np.flatnonzero(_is_rep(own_rep))
        dup = np.flatnonzero(~_is_rep(own_rep))
        i = np.concatenate((rep[i], own_rep[dup]))
        j = np.concatenate((rep[j], dup))
        d2 = np.concatenate((d2, np.zeros(dup.size)))

    order = np.lexsort((j, i))
    return MstResult(i=i[order], j=j[order], length=np.sqrt(d2[order]), n_points=pts.shape[0])


def _edge_d2(pts, i, j):
    """d2 of the edges (i, j), with the bits the Prim kernels compare."""
    with np.errstate(over="ignore"):
        sq = (pts[j] - pts[i])[:, _sum_order(pts.shape[1])].T.copy()
        np.square(sq, out=sq)
        return _sum_rows(sq).copy()


def _sorted_path(pts):
    """Edges (u, v) of the sorted path over distinct rows when d = 1 and its
    certificate holds, else None."""
    if pts.shape[1] > 1:
        return None
    s = np.argsort(pts[:, 0], kind="stable")
    x = pts[s]
    with np.errstate(over="ignore"):
        step = ((x[1:] - x[:-1]) ** 2).sum(axis=1)
        span = ((x[2:] - x[:-2]) ** 2).sum(axis=1)
    if np.all(span > step[:-1]) and np.all(span > step[1:]):
        return s[:-1], s[1:]
    return None


def _lockstep_groups(waiting):
    """Split sets sorted by (d, -size) into runs of one d whose column array
    holds at most LOCKSTEP_CELLS cells at every join; a set wider than that
    on its own makes a run of one."""
    group = []
    for w in waiting:
        d, size = w[0], -w[1]
        if group and (d != group[0][0] or d * (len(group) + 1) * (size - 1) > LOCKSTEP_CELLS):
            yield group
            group = []
        group.append(w)
        if d * (size - 1) > LOCKSTEP_CELLS:
            yield group
            group = []
    if group:
        yield group


def _lockstep(rows):
    """Edges (u, v) of dense Prim over each of several (n, d) matrices of
    distinct rows, one d, largest first, grown together: one entry per matrix.
    """
    d = rows[0].shape[1]
    sizes = np.array([r.shape[0] for r in rows], dtype=np.int64)
    off = np.concatenate(([0], np.cumsum(sizes)))
    tree = np.empty(off[-1], dtype=np.int32)  # each vertex's tree neighbour as it joined
    order = _sum_order(d)
    width = int(sizes[0]) - 1
    cols = np.empty((d, 0, width))
    # per outside vertex: d2 to its tree, its id and its parent's (exact as floats),
    # so one fancy index reads or moves all three
    meta = np.empty((3, 0, width))
    b = 0
    with np.errstate(over="ignore"):  # as in _prim
        for m in range(width, 0, -1):
            if b < sizes.size and sizes[b] == m + 1:
                # the sets of m + 1 rows join; the arrays are rebuilt at width m
                new = b + int(np.count_nonzero(sizes[b:] == m + 1))
                fresh = np.stack([r[:, order].T for r in rows[b:new]], axis=1)
                cols = np.concatenate((cols[:, :, :m], fresh[:, :, 1:]), axis=1)
                buf = np.empty_like(cols)
                joining = np.zeros((3, new - b, m))
                joining[0] = _sq_dist(fresh[:, :, 1:], fresh[:, :, :1], buf[:, b:])
                joining[1] = np.arange(1, m + 1)
                meta = np.concatenate((meta[:, :, :m], joining), axis=1)
                b = new
                sets, n_of, at = np.arange(b), sizes[:b], off[:b]
                better, tied = np.empty((2, b, m), dtype=bool)

            d2 = meta[0, :, :m]
            k = d2.argmin(axis=1)
            eq = np.equal(d2, d2[sets, k][:, None], out=better[:, :m])
            if np.count_nonzero(eq) > b:
                # per set, the tied candidate with the smallest key, as in _prim
                ri, ci = np.nonzero(eq)
                t, p = meta[1:, ri, ci].astype(np.int64)
                key = _pair_key(p, t, n_of[ri]) * m + ci
                k = np.minimum.reduceat(key, np.searchsorted(ri, sets)) % m
            joined = meta[:, sets, k]
            tree[at + joined[1].astype(np.int64)] = joined[2]

            # each v joins its tree: swap-remove it, then relax the rest against v
            last = m - 1
            x = cols[:, sets, k][:, :, None]
            meta[:, sets, k] = meta[:, :, last]
            cols[:, sets, k] = cols[:, :, last]
            width = cols.shape[2]
            if width - last > width // 16:
                cols = cols[:, :, :last].copy()
                buf = np.empty_like(cols)
            _relax(meta[0, :, :last], _sq_dist(cols, x, buf)[:, :last], meta[2, :, :last],
                   joined[1][:, None], better[:, :last], tied[:, :last])

    return [(tree[a + 1:a + n], np.arange(1, n))
            for a, n in zip(off[:-1].tolist(), sizes.tolist())]


def _prim(pts):
    """Edges (u, v) of dense Prim over all rows: each vertex v > 0 and the
    tree neighbour u it joined by."""
    n, d = pts.shape
    laid = pts[:, _sum_order(d)]
    at = laid[:, :, None]
    cols = laid[1:].T.copy()
    buf = np.empty_like(cols)
    rest = np.arange(1, n)
    parent = np.zeros(n - 1, dtype=np.int64)
    tree = np.empty(n, dtype=np.int64)
    sel, upd, tie = (np.empty(n - 1, dtype=bool) for _ in range(3))
    # one errstate per call, not per step: _tree reports an overflowed tree edge
    with np.errstate(over="ignore"):
        dist2 = _sq_dist(cols, at[0], buf).copy()
        for m in range(n - 1, 0, -1):
            d2 = dist2[:m]
            k = int(d2.argmin())
            if np.count_nonzero(np.equal(d2, d2[k], out=sel[:m])) > 1:
                cand = np.flatnonzero(sel[:m])
                k = cand[_pair_key(parent[cand], rest[cand], n).argmin()]
            v = int(rest[k])
            tree[v] = parent[k]

            # v joins the tree: swap-remove it, then relax the rest against v
            last = m - 1
            rest[k], parent[k], dist2[k] = rest[last], parent[last], dist2[last]
            cols[:, k] = cols[:, last]
            width = cols.shape[1]
            if width - last > width // 16:
                cols = cols[:, :last].copy()
                buf = np.empty_like(cols)
            _relax(dist2[:last], _sq_dist(cols, at[v], buf)[:last], parent[:last], v,
                   upd[:last], tie[:last])
    return tree[1:], np.arange(1, n)


def _pair_key(p, t, n):
    """Tie key of the edges (p, t) among n rows: min(p, t)*n + max(p, t)."""
    return np.minimum(p, t) * n + np.maximum(p, t)


def _relax(d2, nd2, parent, v, closer, tie):
    """Relax the outside vertices against v, which just joined: where nd2, the
    d2 to v, is smaller, d2 and parent take nd2 and v; on a tie the smaller
    parent stays. closer and tie are boolean work arrays of d2's shape."""
    np.less(nd2, d2, out=closer)
    np.equal(nd2, d2, out=tie)
    np.copyto(parent, v, where=closer)
    np.minimum(d2, nd2, out=d2)
    if np.count_nonzero(tie):
        np.minimum(parent, v, out=parent, where=tie)


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
