"""Friedman-Rafsky cross-edge statistic and the divergence estimates built on it.

The statistic C counts edges of the Euclidean MST over the pooled sample
whose endpoints come from different groups. Heavily mixed samples give a
large C (similar distributions); a single bridge edge between two far-apart
clusters gives C = 1. Every count in the package (estimate, feature
selection, the experiments' trials) comes from fr_statistic's (f, g, columns)
triples: one rule, check_pair, checks their matrices and columns, and
emst.build_msts builds the trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledSample
from .emst import build_msts


@dataclass(frozen=True)
class DivergenceEstimate:
    """Cross-edge count plus the plug-in divergence and affinity estimates.

    dp_tilde_raw may be negative at small sample sizes because of estimator
    variance; dp_tilde is its clamp into [0, 1], and every downstream bound
    consumes the clamped value so square roots stay defined. dp uses the
    empirical prior p_hat = n_f / (n_f + n_g); affinity = 1 - dp.
    """

    cross_count: int
    n_f: int
    n_g: int
    dp: float
    dp_tilde_raw: float
    dp_tilde: float
    affinity: float
    p_hat: float


def fr_statistic(sample_f, sample_g=None):
    """Count pooled-MST edges joining a point of sample_f to a point of sample_g.

    With sample_g omitted, sample_f is a sequence of (f, g, columns) triples,
    each standing for the pool of f[:, columns] over g[:, columns], and the
    counts come back as an int ndarray, one per triple; two matrices are the
    one-triple case, counted as an int. columns is None (all of them) or a
    non-empty set of distinct integer column indices in [0, d), bools
    rejected; every triple is checked before any tree is built. Each pool is
    gathered when emst.build_msts reaches it, which builds the trees together.
    """
    triples = sample_f if sample_g is None else [(sample_f, sample_g, None)]
    pairs = [check_pair(*triple) for triple in triples]
    pools = (np.concatenate((f, g) if cols is None else (f[:, cols], g[:, cols]))
             for f, g, cols in pairs)
    counts = np.empty(len(pairs), dtype=np.int64)
    for k, mst in build_msts(pools):
        counts[k] = _cross_count(mst, len(pairs[k][0]))
    return counts if sample_g is None else int(counts[0])


def check_pair(sample_f, sample_g, columns=None):
    """The two samples as float matrices, and the columns of their pool as a list (or None)."""
    f = np.asarray(sample_f, dtype=np.float64)
    g = np.asarray(sample_g, dtype=np.float64)
    if f.ndim != 2 or g.ndim != 2:
        raise ValueError(f"expected 2-D point matrices, got shapes {f.shape} and {g.shape}")
    if f.shape[0] == 0 or g.shape[0] == 0:
        raise ValueError("both samples must be non-empty")
    if f.shape[1] != g.shape[1]:
        raise ValueError(f"dimension mismatch: {f.shape[1]} vs {g.shape[1]}")
    if columns is not None:
        columns, d = list(columns), f.shape[1]
        if not columns:
            raise ValueError("feature set must be non-empty")
        for pos, c in enumerate(columns):
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or not 0 <= c < d:
                raise ValueError(f"feature {c!r} is not a column index in [0, {d})")
            if c in columns[:pos]:
                raise ValueError(f"feature {c!r} is repeated")
    return f, g, columns


def _cross_count(mst, n_f) -> int:
    return int(np.count_nonzero((mst.i < n_f) != (mst.j < n_f)))


def estimate(sample_f, sample_g) -> DivergenceEstimate:
    """Divergence point estimates from two point matrices (f rows first in the pool)."""
    return estimate_from_count(fr_statistic(sample_f, sample_g), len(sample_f), len(sample_g))


def estimate_from_count(c: int, n_f: int, n_g: int) -> DivergenceEstimate:
    """The estimates of a pool of n_f + n_g points whose tree has c cross edges."""
    n = n_f + n_g
    p_hat = n_f / n
    dp_tilde_raw = 1.0 - 2.0 * c / n
    dp_tilde = min(1.0, max(0.0, dp_tilde_raw))
    dp = min(1.0, max(0.0, 1.0 - c * n / (2.0 * n_f * n_g)))
    return DivergenceEstimate(
        cross_count=c,
        n_f=n_f,
        n_g=n_g,
        dp=dp,
        dp_tilde_raw=dp_tilde_raw,
        dp_tilde=dp_tilde,
        affinity=1.0 - dp,
        p_hat=p_hat,
    )


def estimate_from_labeled(sample: LabeledSample) -> DivergenceEstimate:
    """Split a labeled sample by class and estimate; class 0 plays the role of f."""
    return estimate(*sample.split_classes())
