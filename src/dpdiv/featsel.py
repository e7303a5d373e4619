"""Greedy forward feature selection driven by cross-match error criteria.

The per-subset criterion is the pooled-MST cross-edge ratio between the two
source classes (an upper-bound surrogate for classification error); with
shift_weight > 0 it adds a penalty for source/target distribution shift, so
domain-invariant features win even when they separate the classes less.

Each step scores all its candidates from one fr_statistic call: one class
pool per candidate and, with a target, one shift pool, given as column
subsets of the shared source and target rows rather than as matrices built up
front. fr_statistic gathers each pool's columns once, when emst.build_msts
reaches it; build_msts grows the trees in lockstep, and each keeps the bits
of a tree built alone, so the selection does not depend on the batching.
criterion_phi is the same computation for a single subset, and
fr_statistic checks each subset's columns for both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import check_weight, shift_penalty
from .divergence import estimate_from_count, fr_statistic


@dataclass(frozen=True)
class SelectionTrace:
    """Result of a greedy selection run.

    selected: chosen feature indices, in selection order.
    criterion_values: the winning criterion value at each step.
    per_step_candidates: when auditing, one {feature: value} map per step.
    shift_weight: the shift penalty weight the run used.
    """

    selected: tuple[int, ...]
    criterion_values: tuple[float, ...]
    per_step_candidates: tuple[dict, ...] | None
    shift_weight: float

    def __post_init__(self):
        if len(set(self.selected)) != len(self.selected):
            raise ValueError(f"selected features contain duplicates: {self.selected}")
        if len(self.criterion_values) != len(self.selected):
            raise ValueError("criterion_values and selected must have equal length")


def _check_inputs(source0, source1, target, shift_weight):
    s0 = np.asarray(source0, dtype=np.float64)
    s1 = np.asarray(source1, dtype=np.float64)
    if s0.ndim != 2 or s1.ndim != 2 or s0.shape[1] != s1.shape[1]:
        raise ValueError("source matrices must be 2-D with a common number of columns")
    check_weight("shift_weight", shift_weight)
    if shift_weight == 0.0:
        return s0, s1, None  # only the shift penalty reads the target
    if target is None:
        raise ValueError("shift_weight > 0 requires a target sample")
    tgt = np.asarray(target, dtype=np.float64)
    if tgt.ndim != 2 or tgt.shape[1] != s0.shape[1]:
        raise ValueError("target must be 2-D with the same number of columns")
    return s0, s1, tgt


def _zscore(x):
    """Columns centred and scaled by their own mean and std; constant columns keep scale 1."""
    mu, sd = x.mean(axis=0), x.std(axis=0)
    return (x - mu) / np.where(sd > 0, sd, 1.0)


def criterion_phi(source0, source1, target, features, shift_weight=0.0) -> float:
    """Criterion for one feature subset: cross-edge ratio plus shift penalty.

    Value = C(source0[F], source1[F]) / (n0 + n1); with shift_weight > 0 it
    adds shift_weight times the shift penalty 2 sqrt(dp_tilde) between the
    merged source and the target. Lower is better. features is a non-empty
    set of distinct integer column indices in [0, d) (bools are rejected);
    fr_statistic checks it, as it checks the columns of every triple.
    """
    s0, s1, tgt = _check_inputs(source0, source1, target, shift_weight)
    return _criteria(s0, s1, tgt, [list(features)], shift_weight)[0]


def _criteria(s0, s1, tgt, subsets, shift_weight) -> list[float]:
    """criterion_phi of each feature subset, from one fr_statistic call over
    every subset's class pool and, with a target, its shift pool."""
    n01 = s0.shape[0] + s1.shape[0]
    source = None if tgt is None else np.vstack([s0, s1])
    pairs = []
    for features in subsets:
        pairs.append((s0, s1, features))
        if tgt is not None:
            pairs.append((source, tgt, features))
    counts = fr_statistic(pairs).tolist()
    if tgt is None:
        return [c / n01 for c in counts]
    return [c / n01 + shift_weight * shift_penalty(estimate_from_count(s, n01, tgt.shape[0]))
            for c, s in zip(counts[::2], counts[1::2])]


def forward_select(source0, source1, target=None, k=None, shift_weight=0.0,
                   audit=False, standardize=False) -> SelectionTrace:
    """Greedily pick k features, each step adding the candidate with minimal criterion.

    Ties break toward the smallest feature index (the cross counts are
    integers, so exact ties are common at small n). standardize z-scores the
    source columns (pooled) and, when the shift penalty reads it, the target
    columns (separately) first; this is the domain-normalization pre-pass and
    is off by default.

    Rescaling every column by one positive constant never changes the
    selection (cross counts are scale-invariant); per-feature rescaling can.
    """
    s0, s1, tgt = _check_inputs(source0, source1, target, shift_weight)
    d = s0.shape[1]
    if s0.shape[0] < 2 or s1.shape[0] < 2:
        raise ValueError("each source class needs at least 2 points")
    if k is None:
        k = min(20, d)
    if not (1 <= k <= d):
        raise ValueError(f"k must lie in [1, {d}], got {k}")
    if standardize:
        n0 = s0.shape[0]
        pooled = _zscore(np.vstack([s0, s1]))
        s0, s1 = pooled[:n0], pooled[n0:]
        if tgt is not None:
            tgt = _zscore(tgt)

    selected: list[int] = []
    values: list[float] = []
    audits: list[dict] = []
    remaining = list(range(d))
    for _ in range(k):
        step_scores = dict(zip(remaining, _criteria(
            s0, s1, tgt, [selected + [f] for f in remaining], shift_weight)))
        best = min(remaining, key=lambda f: (step_scores[f], f))
        selected.append(best)
        values.append(step_scores[best])
        remaining.remove(best)
        if audit:
            audits.append(dict(sorted(step_scores.items())))
    return SelectionTrace(
        selected=tuple(selected),
        criterion_values=tuple(values),
        per_step_candidates=tuple(audits) if audit else None,
        shift_weight=float(shift_weight),
    )
