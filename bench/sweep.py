"""Layer sweep: the cost of each oracle layer and of a bare ``X @ w`` against n.

Not gated.  It regenerates the per-layer baseline table of ROADMAP.md from one
command: p = 0.9, mu = 1000, d = 40 (d = 20 at n = 1e6), each time the
median of a few calls on Gaussian data.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from tailopt import (
    Dataset,
    LinearLeastSquares,
    RiskParams,
    batch_losses,
    exact_oracle,
    jacobian_transpose_apply,
    smoothed_oracle,
    smoothed_weights_entropic,
    smoothed_weights_euclidean,
)

P, MU = 0.9, 1000.0
FULL = ((10_000, 40, 20), (100_000, 40, 5), (1_000_000, 20, 3))  # (n, d, repeats)
TINY = ((1_000, 10, 3), (10_000, 10, 2))


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = perf_counter()
        fn()
        times.append(perf_counter() - t)
    return 1e3 * statistics.median(times)


def sweep(seed: int, tiny: bool) -> list[dict]:
    loss = LinearLeastSquares()
    rows = []
    for n, d, repeats in TINY if tiny else FULL:
        rng = np.random.default_rng([seed, n])
        data = Dataset(rng.standard_normal((n, d)), rng.standard_normal(n))
        X = data.features
        w = 0.1 * rng.standard_normal(d)
        L = batch_losses(loss, data, w)
        q = smoothed_weights_euclidean(L, P, MU).weights
        euclid = RiskParams(p=P, mu=MU)
        rows.append({
            "n": n,
            "d": d,
            "losses_ms": _median_ms(lambda: batch_losses(loss, data, w), repeats),
            "euclidean_weights_ms": _median_ms(lambda: smoothed_weights_euclidean(L, P, MU), repeats),
            "entropic_weights_ms": _median_ms(lambda: smoothed_weights_entropic(L, P, MU), repeats),
            "jacobian_ms": _median_ms(lambda: jacobian_transpose_apply(loss, data, w, q), repeats),
            "exact_oracle_ms": _median_ms(lambda: exact_oracle(loss, data, w, P), repeats),
            "smoothed_oracle_ms": _median_ms(lambda: smoothed_oracle(loss, data, w, euclid), repeats),
            "matvec_ms": _median_ms(lambda: X @ w, repeats),
        })
        del data, X, L, q
    return rows


def format_table(rows: list[dict]) -> str:
    keys = [k for k in rows[0] if k.endswith("_ms")]
    lines = ["n d " + " ".join(keys)]
    lines += [
        f"{r['n']} {r['d']} " + " ".join(f"{r[k]:.3f}" for k in keys) for r in rows
    ]
    return "\n".join(lines)
