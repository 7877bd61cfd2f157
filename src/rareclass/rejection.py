"""Per-subclass rejection thresholds: lower-tail peaks-over-threshold with a
Generalized Pareto tail fit, or a plain percentile cutoff."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

EVT_POT = "evt_pot"
PERCENTILE = "percentile"

ANCHOR_QUANTILE = 0.2
MIN_SAMPLES = {EVT_POT: 8, PERCENTILE: 2}
_XI_ZERO = 1e-6


class RejectionError(DataError):
    pass


@dataclass(frozen=True)
class TailFit:
    shape: float                     # xi
    scale: float                     # sigma
    anchor: float                    # u


@dataclass(frozen=True)
class RejectionThresholds:
    t: np.ndarray                    # length K
    method: str
    q: float
    fitted_tail_params: tuple[TailFit | None, ...] = ()
    fallback: tuple[bool, ...] = ()  # per-k: EVT degenerated to percentile

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise RejectionError("q must lie in (0, 1)")
        if not np.all(np.isfinite(self.t)):
            raise RejectionError("non-finite thresholds")
        for name, entries in (("fitted_tail_params", self.fitted_tail_params),
                              ("fallback", self.fallback)):
            if len(entries) not in (0, self.K):         # empty: not recorded
                raise RejectionError(f"{name} has {len(entries)} entries for {self.K} thresholds")

    @property
    def K(self) -> int:
        return len(self.t)


def _gpd_moments(excesses: np.ndarray) -> tuple[float, float] | None:
    """Method-of-moments GPD fit; None when the sample is degenerate."""
    mean = float(np.mean(excesses))
    var = float(np.var(excesses, ddof=1))
    if mean <= 0 or var <= 0:
        return None
    xi = 0.5 * (1.0 - mean * mean / var)
    sigma = 0.5 * mean * (mean * mean / var + 1.0)
    if not (np.isfinite(xi) and np.isfinite(sigma)) or sigma <= 0:
        return None
    return xi, sigma


def _quantile(scores: np.ndarray, q: float) -> float:
    """np.quantile(scores, q) bit for bit, without the np.unique that loads numpy.ma."""
    n = len(scores)
    v = (n - 1) * q
    lo = -1 if v >= n - 1 else int(v)     # at the last index, numpy takes the max as both ends
    s = np.partition(scores, sorted({0, -1, lo, lo + 1}))     # numpy's kth set: ties land alike
    if np.isnan(s[-1]):
        return float(s[-1])
    a, b, t = s[lo], s[lo + 1 if lo >= 0 else -1], v - lo     # numpy's _lerp, both branches
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def _pot_lower_threshold(scores: np.ndarray, q: float) -> tuple[float, TailFit] | None:
    """POT on the lower tail of positive-member scores: excesses are u - s below the anchor."""
    m = len(scores)
    u = _quantile(scores, ANCHOR_QUANTILE)
    excesses = u - scores[scores < u]
    if len(excesses) < 2:
        return None
    fit = _gpd_moments(excesses)
    if fit is None:
        return None
    xi, sigma = fit
    n_u = len(excesses)
    ratio = q * m / n_u
    if abs(xi) < _XI_ZERO:
        t = u - sigma * np.log(n_u / (q * m))
    else:
        try:
            t = u - sigma / xi * (ratio ** (-xi) - 1.0)
        except OverflowError:           # a Python float power raises where numpy's gives inf
            t = np.inf
    if not np.isfinite(t):
        return None
    return float(t), TailFit(shape=xi, scale=sigma, anchor=u)


def calibrate_scores(per_subclass_scores: list[np.ndarray], method: str,
                     q: float = 0.01) -> RejectionThresholds:
    """Calibrate one threshold per subclass from training-member scores."""
    if method not in MIN_SAMPLES:
        raise RejectionError(f"unknown method {method!r}")
    if not 0 < q < 1:
        raise RejectionError("q must lie in (0, 1)")
    t = np.empty(len(per_subclass_scores))
    tails: list[TailFit | None] = []
    fallback: list[bool] = []
    for k, scores in enumerate(per_subclass_scores):
        scores = np.asarray(scores, dtype=np.float64)
        if len(scores) < MIN_SAMPLES[method]:
            raise RejectionError(
                f"subclass {k + 1}: {len(scores)} samples < {MIN_SAMPLES[method]} required for {method}")
        pot = _pot_lower_threshold(scores, q) if method == EVT_POT else None
        # the percentile rule: the method itself, or EVT's fallback when the tail fit degenerates
        t[k], tail = pot or (_quantile(scores, q), None)
        tails.append(tail)
        fallback.append(method == EVT_POT and pot is None)
    return RejectionThresholds(t=t, method=method, q=q,
                               fitted_tail_params=tuple(tails), fallback=tuple(fallback))


def calibrate(model, data, method: str, q: float) -> RejectionThresholds:
    """Score each subclass's own training members with its SC and calibrate thresholds."""
    params = model.params
    per_k = []
    for k in range(data.K):
        members = data.Yk[k] > 0
        per_k.append(data.R[members] @ params.W[k] + params.b[k])
    return calibrate_scores(per_k, method=method, q=q)


def accepts(thresholds: RejectionThresholds, k: int, score: float) -> bool:
    """Boundary inclusive: a score exactly at the threshold is accepted."""
    if not 1 <= k <= thresholds.K:
        raise RejectionError(f"invalid subclass id {k}")
    return bool(score >= thresholds.t[k - 1])
