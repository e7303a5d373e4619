import itertools
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import kruskal_cross_count, kruskal_mst, kruskal_total_length
from dpdiv import emst
from dpdiv.dataset import DatasetError
from dpdiv.divergence import fr_statistic
from dpdiv.emst import MstResult, _sq_dist, _sum_order, add_jitter, build_mst, build_msts


def edge_pairs(mst):
    return list(zip(mst.i.tolist(), mst.j.tolist()))


def assert_matches_kruskal(pts):
    mst = build_mst(pts)
    reference = kruskal_mst(pts)
    assert edge_pairs(mst) == [(i, j) for i, j, _ in reference]
    assert mst.length.tolist() == [length for _, _, length in reference]


class TestSmallCases:
    def test_three_collinear_points(self):
        mst = build_mst(np.array([[0.0], [1.0], [3.0]]))
        assert edge_pairs(mst) == [(0, 1), (1, 2)]
        assert mst.length.tolist() == [1.0, 2.0]
        assert mst.length.sum() == 3.0

    def test_single_edge(self):
        mst = build_mst(np.array([[0.0], [5.0]]))
        assert edge_pairs(mst) == [(0, 1)]
        assert mst.length.tolist() == [5.0]
        assert mst.length.sum() == 5.0

    def test_unit_square_tie_rule(self):
        # all four sides tie at length 1; the canonical-pair rule picks
        # (0,1), then (0,3), then keeps (1,2) over the tied (2,3)
        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        mst = build_mst(corners)
        assert edge_pairs(mst) == [(0, 1), (0, 3), (1, 2)]
        np.testing.assert_allclose(mst.length, 1.0)

    def test_duplicate_points(self):
        mst = build_mst(np.array([[1.0, 2.0], [1.0, 2.0], [4.0, 6.0]]))
        assert mst.length[0] == 0.0
        assert len(edge_pairs(mst)) == 2

    def test_errors(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_mst(np.array([[0.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            build_mst(np.array([[0.0], [np.inf]]))
        with pytest.raises(ValueError, match="2-D"):
            build_mst(np.zeros(4))
        with pytest.raises(ValueError, match="at least one column"):
            build_mst(np.zeros((3, 0)))


class TestAgainstBruteForce:
    def test_random_instance_64_points_d5(self):
        rng = np.random.default_rng(64)
        pts = rng.normal(size=(64, 5))
        mst = build_mst(pts)
        reference = kruskal_mst(pts)
        assert edge_pairs(mst) == [(i, j) for i, j, _ in reference]
        total = float(mst.length.sum())
        assert abs(total - kruskal_total_length(pts)) <= 1e-9 * total

    def test_exact_edge_sets_on_distinct_distances(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            d = int(rng.integers(1, 7))
            pts = rng.normal(size=(n, d))
            mst = build_mst(pts)
            assert edge_pairs(mst) == [(i, j) for i, j, _ in kruskal_mst(pts)]


class TestTiesAgainstBruteForce:
    """Exact edge lists and lengths where many candidate edges tie."""

    @pytest.mark.parametrize("d", [*range(1, 9), 9, 12, 16, 17])
    def test_integer_lattice(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(6):
            n = int(rng.integers(4, 60))
            assert_matches_kruskal(rng.integers(0, 3, size=(n, d)).astype(float))

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 12, 16, 17, 20])
    def test_every_row_three_times(self, d):
        rng = np.random.default_rng(200 + d)
        for base in (rng.normal(size=(15, d)), rng.integers(0, 2, size=(15, d)).astype(float)):
            assert_matches_kruskal(np.repeat(base, 3, axis=0)[rng.permutation(45)])

    @pytest.mark.parametrize("d", [10, 15, 20])
    def test_feature_selection_dimensions(self, d):
        rng = np.random.default_rng(300 + d)
        assert_matches_kruskal(rng.normal(size=(60, d)))
        assert_matches_kruskal(rng.integers(0, 2, size=(60, d)).astype(float))

    @pytest.mark.parametrize("pts", [
        [[0.0], [0.0]],
        [[3.0, 1.0], [-2.0, 0.5]],
        [[0.0], [0.0], [0.0]],
        [[0.0], [1.0], [2.0]],
        [[2.0], [1.0], [0.0]],
        [[0.0, 0.0], [1.0, 0.0], [0.5, 0.75]],
    ], ids=["n2_same", "n2", "n3_same", "n3_tie", "n3_tie_reversed", "n3"])
    def test_two_and_three_points(self, pts):
        assert_matches_kruskal(np.array(pts))


class TestDistinctRowsAndSortedPath:
    """Exact edge lists where the tree is built over the distinct rows, and
    where the d = 1 sorted path must yield to Prim."""

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
    def test_rounding_breaks_the_sorted_path(self, perm):
        # sorted: -1e16, 0.0, 1e-300; the outer span rounds to the first step
        assert_matches_kruskal(np.array([[-1e16], [1e-300], [0.0]])[list(perm)])

    @pytest.mark.parametrize("pts", [
        [[0.0], [-0.0], [1.0], [-0.0]],
        [[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [-0.0, -0.0], [0.0, 0.0]],
    ], ids=["d1", "d2"])
    def test_rows_differing_only_by_signed_zero(self, pts):
        assert_matches_kruskal(np.array(pts))

    @pytest.mark.parametrize("pts", [
        [[1e-300], [0.0], [0.0]],
        [[0.0, 1e-300], [0.0, 0.0], [5.0, 5.0], [0.0, 0.0], [0.0, 1e-300]],
    ], ids=["d1", "d2"])
    def test_distinct_rows_whose_d2_underflows(self, pts):
        # 1e-300 and 0.0 are distinct rows at d2 == 0, tied with the duplicates
        assert_matches_kruskal(np.array(pts))

    @pytest.mark.parametrize("n", [2, 50])
    def test_all_rows_identical(self, n):
        assert_matches_kruskal(np.full((n, 3), 1.5))

    def test_gaussian_line_with_repeated_rows(self):
        rng = np.random.default_rng(400)
        for _ in range(2):
            pts = rng.normal(size=(1200, 1))
            pts[rng.integers(0, 1200, 400)] = pts[rng.integers(0, 1200, 400)]
            assert_matches_kruskal(pts)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_mixed_grid_and_continuous_columns(self, d):
        rng = np.random.default_rng(500 + d)
        for _ in range(8):
            n = int(rng.integers(5, 120))
            pts = rng.normal(size=(n, d))
            grid = rng.random(d) < 0.7
            pts[:, grid] = np.round(pts[:, grid] * 2.0) / 2.0
            assert_matches_kruskal(pts)

    def test_wrong_edge_count_is_an_internal_error(self):
        with pytest.raises(RuntimeError, match="expected 3 edges") as caught:
            MstResult(i=[0, 1], j=[1, 2], length=[1.0, 1.0], n_points=4)
        assert not isinstance(caught.value, ValueError)


_UNDERFLOW_ROWS = ([-1e16], [1e-300], [0.0])


@st.composite
def lockstep_batches(draw):
    """2-6 point sets of one d (1-5 or 9) and unequal sizes of 2-60 rows: 0.5-grid
    rows with duplicates, an integer lattice of exact ties, or grid rows around
    the rows [-1e16], [1e-300], [0.0] (padded with zeros), whose d2 underflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 3, 4, 5, 9]))
    kind = draw(st.sampled_from(["grid", "lattice", "underflow"]))
    low = 3 if kind == "underflow" else 2
    sizes = draw(st.lists(st.integers(low, 60), min_size=2, max_size=6, unique=True))
    sets = []
    for n in sizes:
        if kind == "lattice":
            pts = rng.integers(0, 3, size=(n, d)).astype(float)
        else:
            pts = np.round(rng.normal(size=(n, d)) * 2.0) / 2.0
        if kind == "underflow":
            at = rng.choice(n, size=3, replace=False)
            pts[at] = 0.0
            pts[at, 0] = np.ravel(_UNDERFLOW_ROWS)
        sets.append(pts)
    return sets


class TestLockstep:
    """build_msts grows the sets that need Prim together; each tree must keep
    the bits of build_mst on that set alone and match the brute force."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(lockstep_batches(), st.sampled_from([emst.LOCKSTEP_CELLS, 40]))
    def test_each_tree_equals_the_one_tree_build(self, sets, cells):
        # a budget of 40 cells splits batches into many locksteps and single trees
        with mock.patch.object(emst, "LOCKSTEP_CELLS", cells):
            trees = dict(build_msts(sets))
        assert sorted(trees) == list(range(len(sets)))
        for k, pts in enumerate(sets):
            alone, batched = build_mst(pts), trees[k]
            for field in ("i", "j", "length"):
                assert getattr(batched, field).tobytes() == getattr(alone, field).tobytes()
            assert edge_pairs(batched) == [(i, j) for i, j, _ in kruskal_mst(pts)]

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(lockstep_batches(), st.data())
    def test_cross_counts_match_the_brute_force(self, sets, data):
        splits = [data.draw(st.integers(1, len(pts) - 1)) for pts in sets]
        counts = fr_statistic([(pts[:s], pts[s:], None) for pts, s in zip(sets, splits)])
        assert counts.dtype.kind == "i"
        assert counts.tolist() == [kruskal_cross_count(pts[:s], pts[s:])
                                   for pts, s in zip(sets, splits)]

    def test_columns_pick_the_features_of_both_samples(self):
        rng = np.random.default_rng(700)
        f = np.round(rng.normal(size=(40, 6)) * 2.0) / 2.0
        g = np.round(rng.normal(size=(30, 6)) * 2.0) / 2.0 + 0.5
        subsets = [[0], [2, 5], [1, 3, 4], [5, 0, 2]]
        counts = fr_statistic([(f, g, cols) for cols in subsets])
        assert counts.tolist() == [fr_statistic(f[:, cols], g[:, cols]) for cols in subsets]

    def test_groups_keep_within_the_cell_budget(self, monkeypatch):
        # sets of (d, size): the groups a budget of 600 cells gives
        monkeypatch.setattr(emst, "LOCKSTEP_CELLS", 600)
        waiting = [(d, -n, k) for k, (d, n) in enumerate(
            [(2, 301), (2, 200), (2, 100), (2, 100), (2, 50), (3, 40), (3, 40), (5, 400)])]
        groups = [[w[2] for w in g] for g in emst._lockstep_groups(waiting)]
        # the 200-row set would join the first run at 2 * 2 * 199 = 796 cells, so it
        # starts the next one, where the smaller sets still fit (2 * 4 * 49 = 392);
        # a new d starts a run, and 5 * 399 cells are too many for any run
        assert groups == [[0], [1, 2, 3, 4], [5, 6], [7]]

    def test_full_group_memory_is_bounded_by_the_cell_budget(self, monkeypatch):
        # ten 1200-row sets at d = 2 make one lockstep of 2 * 10 * 1199 = 23 980
        # cells, inside LOCKSTEP_CELLS; with its column, work and meta arrays and
        # a join's copies of them, the build peaks at about 1.25 MiB
        rng = np.random.default_rng(720)
        sets = [rng.normal(size=(1200, 2)) for _ in range(10)]
        assert 2 * len(sets) * 1199 <= emst.LOCKSTEP_CELLS
        calls = _callers(monkeypatch, "_lockstep")
        tracemalloc.start()
        try:
            trees = dict(build_msts(sets))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == ["build_msts"] and sorted(trees) == list(range(10))
        assert peak <= 8 * emst.LOCKSTEP_CELLS * 8


def _callers(monkeypatch, name):
    """Wrap emst.<name>; the returned list collects the name of each caller."""
    calls, original = [], getattr(emst, name)

    def counted(*args):
        calls.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    monkeypatch.setattr(emst, name, counted)
    return calls


_GRID = np.round(np.random.default_rng(710).normal(size=(60, 3)) * 2.0) / 2.0


class TestOneFinisher:
    """Every kernel returns bare edges: _tree orients them and takes their
    lengths once per tree, and both Prim kernels relax through _relax."""

    @pytest.mark.parametrize("sets, relaxed_by", [
        ([np.random.default_rng(711).normal(size=(50, 1))], set()),
        ([_GRID], {"_prim"}),
        ([_GRID[:, :2], _GRID[:45, 1:], _GRID[10:30, ::2] + 0.25], {"_lockstep"}),
        ([np.array(_UNDERFLOW_ROWS)], {"_prim"}),
    ], ids=["sorted_path", "prim", "lockstep", "underflow"])
    def test_each_tree_takes_its_lengths_once(self, sets, relaxed_by, monkeypatch):
        d2_calls, relax_calls = _callers(monkeypatch, "_edge_d2"), _callers(monkeypatch, "_relax")
        trees = dict(build_msts(sets))
        assert d2_calls == ["_tree"] * len(sets)
        assert set(relax_calls) == relaxed_by
        for k, pts in enumerate(sets):
            assert edge_pairs(trees[k]) == [(i, j) for i, j, _ in kruskal_mst(pts)]

    def test_underflow_fallback_finishes_through_tree_again(self, monkeypatch):
        d2_calls, relax_calls = _callers(monkeypatch, "_edge_d2"), _callers(monkeypatch, "_relax")
        pts = np.array([[1e-300], [0.0], [0.0]])
        assert edge_pairs(build_mst(pts)) == [(i, j) for i, j, _ in kruskal_mst(pts)]
        # the representatives' tree has a zero-length edge, so Prim runs over all rows
        assert d2_calls == ["_tree", "_tree"]
        assert set(relax_calls) == {"_prim"}


class TestEachSetReadOnce:
    def test_one_check_and_one_deduplication_per_set(self, monkeypatch):
        # a sorted-path set, a set for _prim, a 3-set lockstep and a set of
        # duplicate rows that waits for Prim on its own
        dup = np.repeat(np.random.default_rng(712).normal(size=(20, 4)), 2, axis=0)
        sets = [np.random.default_rng(711).normal(size=(50, 1)), _GRID,
                _GRID[:, :2], _GRID[:45, 1:], _GRID[10:30, ::2] + 0.25, dup]
        checks = _callers(monkeypatch, "check_finite")
        groupings = _callers(monkeypatch, "row_groups")
        prims, locksteps = _callers(monkeypatch, "_prim"), _callers(monkeypatch, "_lockstep")
        trees = dict(build_msts(iter(sets)))
        assert checks == ["_checked"] * len(sets)
        assert groupings == ["_own_rep"] * len(sets)
        assert (prims, locksteps) == (["build_msts"] * 2, ["build_msts"])
        for k, pts in enumerate(sets):
            assert edge_pairs(trees[k]) == [(i, j) for i, j, _ in kruskal_mst(pts)]


@pytest.mark.filterwarnings("error")  # the DatasetError is the only report of an overflow
class TestOverflow:
    """d2 of rows about 1.3e154 apart overflows to inf, where every such pair
    ties; a tree edge at inf is refused, a non-tree pair at inf is harmless."""

    @pytest.mark.parametrize("pts", [
        [[0.0], [1e200], [3e200], [-1e200]],
        [[0.0], [0.0], [1e200]],
        [[0.0, 0.0], [1e200, 0.0], [0.0, 3e200]],
    ], ids=["sorted_path_fails", "duplicates", "prim"])
    def test_an_overflowing_tree_edge_raises(self, pts):
        with pytest.raises(DatasetError, match="overflow.*rescale"):
            build_mst(np.array(pts))

    def test_an_overflowing_set_in_a_lockstep_raises(self):
        sets = [_GRID[:, :2], np.array([[0.0, 0.0], [1e200, 0.0], [0.0, 3e200]]), _GRID[:, 1:]]
        with pytest.raises(DatasetError, match="overflow"):
            dict(build_msts(sets))

    @pytest.mark.parametrize("pts", [
        [[0.0], [1e154], [2e154]],
        [[0.0, 0.0], [1e154, 0.0], [2e154, 0.0]],
    ], ids=["sorted_path", "prim"])
    def test_an_overflowing_pair_off_the_tree_is_harmless(self, pts):
        pts = np.array(pts)
        mst, scaled = build_mst(pts), build_mst(pts * 2.0 ** -600)
        assert edge_pairs(mst) == edge_pairs(scaled) == [(0, 1), (1, 2)]
        assert (mst.length * 2.0 ** -600).tolist() == scaled.length.tolist()

    def test_an_overflowing_pair_in_a_lockstep_is_harmless(self):
        sets = [_GRID[:, :2], np.array([[0.0, 0.0], [1e154, 0.0], [2e154, 0.0]]), _GRID[:, 1:]]
        assert edge_pairs(dict(build_msts(sets))[1]) == [(0, 1), (1, 2)]

    def test_an_overflowing_pair_in_the_underflow_fallback_is_harmless(self):
        # rows 0 and 1 underflow to d2 == 0, so Prim runs again over all rows
        mst = build_mst(np.array([[1e-300], [0.0], [0.0], [1e154], [2e154]]))
        assert edge_pairs(mst) == [(0, 1), (0, 2), (0, 3), (3, 4)]

    def test_the_error_state_does_not_leak_into_the_caller(self):
        # a sorted-path set, a set for _prim, and a lockstep of two
        sets = [np.array([[0.0], [1e154], [2e154]]), np.array([[0.0] * 3, [1e154, 0.0, 0.0]]),
                _GRID[:, :2], _GRID[:, 1:]]
        before = np.geterr()
        trees = build_msts(sets)
        for _ in sets:
            next(trees)
            assert np.geterr() == before


class TestColumnKernel:
    def test_squared_distances_keep_numpys_row_sum_bits(self):
        # The tie rule compares d2 bits; a numpy that changes its summation
        # order fails here before any tree differs from the brute force.
        rng = np.random.default_rng(600)
        for d in [*range(1, 141), 200, 256, 257, 300]:
            a = rng.normal(size=(37, d)) * 10.0 ** rng.uniform(-3, 3, size=(37, d))
            b = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3, size=d)
            order = _sum_order(d)
            assert sorted(order) == list(range(d))
            cols = a[:, order].T.copy()
            got = _sq_dist(cols, b[order][:, None], np.empty_like(cols))
            assert got.tobytes() == ((a - b) ** 2).sum(axis=1).tobytes(), f"d = {d}"


class TestStructuralProperties:
    def test_spanning_and_acyclic(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(120, 3))
        mst = build_mst(pts)
        parent = list(range(120))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in edge_pairs(mst):
            ri, rj = find(i), find(j)
            assert ri != rj, "cycle detected"
            parent[ri] = rj
        assert len({find(v) for v in range(120)}) == 1

    def test_canonical_orientation_and_order(self):
        rng = np.random.default_rng(4)
        mst = build_mst(rng.normal(size=(50, 2)))
        assert np.all(mst.i < mst.j)
        pairs = edge_pairs(mst)
        assert pairs == sorted(pairs)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(80, 4))
        perm = rng.permutation(80)
        total = float(build_mst(pts).length.sum())
        total_perm = float(build_mst(pts[perm]).length.sum())
        assert abs(total - total_perm) <= 1e-9 * total

    def test_translation_rotation_invariance(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(70, 3))
        rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        moved = pts @ rot.T + np.array([5.0, -3.0, 11.0])
        t0 = float(build_mst(pts).length.sum())
        t1 = float(build_mst(moved).length.sum())
        assert abs(t0 - t1) <= 1e-9 * t0

    def test_deterministic_rebuild(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(40, 2))
        a, b = build_mst(pts), build_mst(pts)
        np.testing.assert_array_equal(a.i, b.i)
        np.testing.assert_array_equal(a.j, b.j)
        np.testing.assert_array_equal(a.length, b.length)


class TestJitter:
    def test_seeded_and_small(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        j1 = add_jitter(pts, seed=9)
        j2 = add_jitter(pts, seed=9)
        np.testing.assert_array_equal(j1, j2)
        assert np.max(np.abs(j1 - pts)) <= 1e-9
        assert not np.array_equal(add_jitter(pts, seed=10), j1)

    def test_breaks_ties(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        jittered = add_jitter(pts, seed=2)
        d2 = []
        for a in range(4):
            for b in range(a + 1, 4):
                d2.append(((jittered[a] - jittered[b]) ** 2).sum())
        assert len(set(d2)) == len(d2)
