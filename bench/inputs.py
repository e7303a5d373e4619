"""Seeded input generator for the benchmark workloads.

Uses numpy only, never dpdiv, so the program under test receives inputs it
had no part in making. Equal (seed, workload) pairs give byte-identical files.
Every model is well-conditioned: each class covariance is a random rotation
of eigenvalues drawn from [0.5, 2].
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np


def workload_rng(seed: int, workload: str) -> np.random.Generator:
    """Generator keyed by the workload seed and a stable hash of the workload name."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(workload.encode())]))


def random_model(rng: np.random.Generator, d: int, separation: float, prior_p: float = 0.5,
                 axes=None) -> dict:
    """Two-class Gaussian model as the JSON dict the CLI reads (full covariances),
    with class means `separation` apart along a random direction within the
    coordinate `axes` (all of them by default)."""

    def cov():
        basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
        c = (basis * rng.uniform(0.5, 2.0, d)) @ basis.T
        return (c + c.T) / 2.0

    mean0 = rng.normal(0.0, 0.5, d)
    axes = np.arange(d) if axes is None else np.asarray(axes)
    direction = np.zeros(d)
    direction[axes] = rng.standard_normal(axes.size)
    mean1 = mean0 + separation * direction / np.linalg.norm(direction)
    return {
        "mean0": mean0.tolist(),
        "mean1": mean1.tolist(),
        "cov0": cov().tolist(),
        "cov1": cov().tolist(),
        "prior_p": prior_p,
    }


def draw(rng: np.random.Generator, mean, cov, n: int, shift=0.0) -> np.ndarray:
    """n rows from N(mean + shift, cov)."""
    mean = np.asarray(mean, dtype=np.float64) + shift
    chol = np.linalg.cholesky(np.asarray(cov, dtype=np.float64))
    return rng.standard_normal((n, mean.size)) @ chol.T + mean


def labeled_sample(rng, model: dict, n_per_class: int, shift=0.0):
    """Class-0 and class-1 rows in a seeded random interleaving, with their labels."""
    points = np.vstack([
        draw(rng, model["mean0"], model["cov0"], n_per_class, shift),
        draw(rng, model["mean1"], model["cov1"], n_per_class, shift),
    ])
    labels = np.repeat([0, 1], n_per_class)
    order = rng.permutation(points.shape[0])
    return points[order], labels[order]


def write_csv(path: Path, points: np.ndarray, labels=None) -> None:
    """Header x0..x{d-1}[,label]; 17 significant digits, so values reload exactly."""
    names = [f"x{i}" for i in range(points.shape[1])]
    lines = [",".join(names + (["label"] if labels is not None else []))]
    for k, row in enumerate(points):
        cells = [format(float(v), ".17g") for v in row]
        if labels is not None:
            cells.append(str(int(labels[k])))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_model(path: Path, model: dict) -> None:
    path.write_text(json.dumps(model), encoding="utf-8")
