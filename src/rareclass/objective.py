"""Joint hinge loss with cross- and self-correlation penalties, its gradients,
the squared-Gram cache, and the penalty Hessian for desk-scale PSD checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError


class ObjectiveError(NumericError, ValueError):
    pass


class StaleCacheError(ObjectiveError):
    """Gram cache fingerprint does not match the feature matrix."""


# Counts squared-Gram constructions; tests assert one build per training run.
GRAM_BUILD_COUNT = 0


class ModelParams:
    """The GC and the K SCs as one (K+1) x (d+1) array ``theta``: row 0 is
    (w0, b0), row k is (w_k, b_k). Its row-major ravel is the flat layout
    (w0, b0, w1, b1, ..., wK, bK); w0, b0, W and b are views of it."""

    __slots__ = ("theta", "w0", "W", "b")

    def __init__(self, w0, b0, W, b):
        w0 = np.asarray(w0, dtype=np.float64)
        W = np.asarray(W, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if w0.ndim != 1 or b.ndim != 1 or (W.size and W.shape != (len(b), len(w0))):
            raise ObjectiveError(
                f"parameter shapes w0 {w0.shape}, W {W.shape}, b {b.shape} do not fit together")
        d, K = len(w0), len(b)
        theta = np.empty((K + 1, d + 1))
        theta[0, :d], theta[0, d] = w0, b0
        theta[1:, :d], theta[1:, d] = W.reshape(K, d), b
        self._set(theta)

    def _set(self, theta: np.ndarray) -> None:
        if not np.all(np.isfinite(theta)):
            raise ObjectiveError("non-finite parameter entries")
        # views into theta, made once rather than sliced on every read
        self.theta = theta
        self.w0, self.W, self.b = theta[0, :-1], theta[1:, :-1], theta[1:, -1]

    @property
    def b0(self) -> float:
        return float(self.theta[0, -1])

    @property
    def d(self) -> int:
        return self.theta.shape[1] - 1

    @property
    def K(self) -> int:
        return self.theta.shape[0] - 1

    @classmethod
    def zeros(cls, d: int, K: int) -> "ModelParams":
        return cls.from_flat(np.zeros((K + 1) * (d + 1)), d, K)

    def flat(self) -> np.ndarray:
        """Concatenate as (w0, b0, w1, b1, ..., wK, bK)."""
        return self.theta.flatten()

    @classmethod
    def from_flat(cls, theta: np.ndarray, d: int, K: int) -> "ModelParams":
        params = cls.__new__(cls)
        params._set(np.array(theta, dtype=np.float64).reshape(K + 1, d + 1))
        return params


@dataclass(frozen=True)
class Hyperparams:
    lambda0: float
    lambdaK: np.ndarray              # length K, one ridge weight per SC
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "lambdaK", np.asarray(self.lambdaK, dtype=np.float64))
        if self.lambda0 < 0 or self.mu < 0 or np.any(self.lambdaK < 0):
            raise ObjectiveError("hyperparameters must be non-negative")

    @classmethod
    def uniform(cls, K: int, lambda0: float = 1.0, lambdak: float = 1.0,
                mu: float = 1.0) -> "Hyperparams":
        return cls(lambda0=lambda0, lambdaK=np.full(K, lambdak), mu=mu)


def _fingerprint(X: np.ndarray) -> str:
    import hashlib          # here, not at load: only train and evaluate hash X, and it maps OpenSSL
    return hashlib.sha256(np.ascontiguousarray(X, dtype=np.float64).data).hexdigest()


@dataclass(frozen=True)
class GramCache:
    g2: np.ndarray                   # d x d, (X^T X) elementwise squared
    fingerprint: str

    def check(self, X: np.ndarray) -> None:
        if self.fingerprint != _fingerprint(X):
            raise StaleCacheError("gram cache does not match the feature matrix")


def gram_squared(X: np.ndarray) -> GramCache:
    """(x_[p]^T x_[q])^2 for all column pairs; O(nd^2), computed once per X."""
    global GRAM_BUILD_COUNT
    GRAM_BUILD_COUNT += 1
    X = np.asarray(X, dtype=np.float64)
    G = X.T @ X
    return GramCache(g2=G * G, fingerprint=_fingerprint(X))


def identity_gram(X: np.ndarray) -> GramCache:
    """Penalty Gram for orthogonal features (PCA): identity replaces (X^T X)^2."""
    d = np.asarray(X).shape[1]
    return GramCache(g2=np.eye(d), fingerprint=_fingerprint(np.asarray(X, dtype=np.float64)))


@dataclass(frozen=True)
class BoundData:
    X: np.ndarray                    # n x d
    y_all: np.ndarray                # length n, +1 on rare rows
    R: np.ndarray                    # n0 x d, the rare rows
    Yk: np.ndarray                   # K x n0, row k-1 is y_k (+1 on subclass-k rows)

    def __post_init__(self):
        n0 = self.R.shape[0]
        if int(np.sum(self.y_all == 1)) != n0:
            raise ObjectiveError("y_all positives must match rare row count")
        if self.Yk.shape[1] != n0:
            raise ObjectiveError("per-subclass labels must cover the rare rows")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def n0(self) -> int:
        return self.R.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def K(self) -> int:
        return self.Yk.shape[0]


def bind_data(X: np.ndarray, rare_mask: np.ndarray, subclasses: np.ndarray) -> BoundData:
    """Assemble BoundData from features, a rare/majority mask and 1..K subclass ids (0 for majority)."""
    X = np.asarray(X, dtype=np.float64)
    rare_mask = np.asarray(rare_mask, dtype=bool)
    subclasses = np.asarray(subclasses, dtype=int)
    y_all = np.where(rare_mask, 1.0, -1.0)
    rare = np.flatnonzero(rare_mask)
    # rare rows in one run (a grouped corpus) are a view of X, not a second copy
    one_run = rare_mask.shape == X.shape[:1] and len(rare) and rare[-1] - rare[0] + 1 == len(rare)
    R = X[rare[0]:rare[-1] + 1] if one_run else X[rare_mask]
    subs = subclasses[rare_mask]
    K = int(subs.max(initial=0))
    Yk = np.where(subs[None, :] == np.arange(1, K + 1)[:, None], 1.0, -1.0)
    return BoundData(X=X, y_all=y_all, R=R, Yk=Yk)


def hinge(scores: np.ndarray, labels: np.ndarray) -> float:
    """Sum of max(0, 1 - y*s)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise ObjectiveError("scores and labels must have equal length")
    return float(np.sum(np.maximum(0.0, 1.0 - labels * scores)))


def _penalty(W: np.ndarray, mu: float, g2: np.ndarray) -> float:
    """The correlation penalty of the weight rows W (row 0 is w0, row k is w_k)."""
    if mu == 0.0:
        return 0.0
    a0 = W[0] ** 2
    Ak = W[1:] ** 2                          # K x d
    g2a0 = g2 @ a0
    self0 = 0.5 * float(a0 @ g2a0)
    selfk = 0.5 * float(np.sum(Ak * (Ak @ g2.T)))
    cross = float((Ak.sum(axis=0)) @ g2a0)
    return 0.5 * mu * (self0 + selfk + cross)


def _loss(theta: np.ndarray, data: BoundData, hp: Hyperparams, g2: np.ndarray) -> float:
    """total_loss on the (K+1) x (d+1) parameter array, without the Gram check."""
    W, b = theta[:, :-1], theta[:, -1]
    loss = hinge(data.X @ W[0] + b[0], data.y_all)
    loss += 0.5 * hp.lambda0 * float(W[0] @ W[0])
    for k in range(data.K):
        loss += hinge(data.R @ W[k + 1] + b[k + 1], data.Yk[k])
        loss += 0.5 * hp.lambdaK[k] * float(W[k + 1] @ W[k + 1])
    return loss + _penalty(W, hp.mu, g2)


def total_loss(params: ModelParams, data: BoundData, hp: Hyperparams,
               gram: GramCache) -> float:
    """The joint objective: GC hinge over all rows, SC hinges over rare rows,
    ridge terms, and the correlation penalty weighted by the squared Gram."""
    gram.check(data.X)
    return _loss(params.theta, data, hp, gram.g2)


def _grad(theta: np.ndarray, hp: Hyperparams, g2: np.ndarray, X: np.ndarray,
          y: np.ndarray, R: np.ndarray, Yk: np.ndarray,
          gc_scale: float = 1.0, sc_scale: float = 1.0) -> np.ndarray:
    """Joint subgradient, laid out like theta, without the Gram check.

    The GC hinge is summed over the rows of X and each SC hinge over the rows
    of R, times gc_scale and sc_scale; the ridge and penalty terms are exact.
    On the full data with unit scales this is grad_w0, grad_wk and grad_bias
    in one pass; on a minibatch the scales map the batch sums to full sums.
    """
    W, b = theta[:, :-1], theta[:, -1]
    grad = np.empty_like(theta)
    # subgradient 0 at the kink: strict ">" in the margin-violation indicator
    c0 = -y * ((1.0 - y * (X @ W[0] + b[0])) > 0.0)
    grad[0, :-1] = gc_scale * (X.T @ c0)
    grad[0, -1] = gc_scale * float(np.sum(c0))
    for k in range(1, len(theta)):
        # one product per subclass, as in grad_wk, so mu=0 fits decouple exactly
        ck = -Yk[k - 1] * ((1.0 - Yk[k - 1] * (R @ W[k] + b[k])) > 0.0)
        grad[k, :-1] = sc_scale * (R.T @ ck)
        grad[k, -1] = sc_scale * float(np.sum(ck))
    sq = W ** 2
    coupled = sq + sq[0]                     # row k: w_k^2 + w0^2
    coupled[0] = sq.sum(axis=0)              # row 0: w0^2 + sum_k w_k^2
    ridge = np.concatenate(([hp.lambda0], hp.lambdaK))
    grad[:, :-1] += W * (ridge[:, None] + hp.mu * (coupled @ g2.T))
    return grad


def _hinge_grad_w(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    # subgradient 0 at the kink: strict ">" in the margin-violation indicator
    active = (1.0 - y * (X @ w + b)) > 0.0
    return X.T @ (-y * active)


def _hinge_grad_b(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float) -> float:
    active = (1.0 - y * (X @ w + b)) > 0.0
    return float(np.sum(-y * active))


def grad_w0(params: ModelParams, data: BoundData, hp: Hyperparams,
            gram: GramCache) -> np.ndarray:
    gram.check(data.X)
    g = _hinge_grad_w(data.X, data.y_all, params.w0, params.b0)
    reg = hp.lambda0 + hp.mu * (gram.g2 @ ((params.W ** 2).sum(axis=0) + params.w0 ** 2))
    return g + params.w0 * reg


def grad_wk(k: int, params: ModelParams, data: BoundData, hp: Hyperparams,
            gram: GramCache) -> np.ndarray:
    if not 1 <= k <= data.K:
        raise ObjectiveError(f"invalid subclass id {k}")
    gram.check(data.X)
    wk = params.W[k - 1]
    g = _hinge_grad_w(data.R, data.Yk[k - 1], wk, params.b[k - 1])
    reg = hp.lambdaK[k - 1] + hp.mu * (gram.g2 @ (wk ** 2 + params.w0 ** 2))
    return g + wk * reg


def grad_bias(which: int, params: ModelParams, data: BoundData) -> float:
    """Hinge subgradient for a bias: which=0 for the GC, 1..K for the SCs. Biases unregularized."""
    if which == 0:
        return _hinge_grad_b(data.X, data.y_all, params.w0, params.b0)
    if not 1 <= which <= data.K:
        raise ObjectiveError(f"invalid subclass id {which}")
    return _hinge_grad_b(data.R, data.Yk[which - 1], params.W[which - 1], params.b[which - 1])


def penalty_only(params: ModelParams, mu: float, gram: GramCache) -> float:
    """The correlation penalty term alone (used by Hessian verification)."""
    return _penalty(params.theta[:, :-1], mu, gram.g2)


def penalty_hessian(params: ModelParams, mu: float, gram: GramCache) -> np.ndarray:
    """Exact d(K+1) x d(K+1) Hessian of the correlation penalty.

    Block structure: diagonal blocks 2*mu*(w_k w_k^T . G2) + diag(mu * sum_q ...),
    off-diagonal blocks 2*mu*(w0 w_k^T . G2) in block-row/column 0 only,
    zeros between distinct SCs. Desk scale only: d(K+1) <= 200.
    """
    d, K = params.d, params.K
    size = d * (K + 1)
    if size > 200:
        raise ObjectiveError(f"Hessian size {size} exceeds desk-scale cap 200")
    g2 = gram.g2
    ws = [params.w0] + [params.W[k] for k in range(K)]
    a0 = params.w0 ** 2
    sum_ak = (params.W ** 2).sum(axis=0)
    H = np.zeros((size, size))
    for j in range(K + 1):
        lo = j * d
        if j == 0:
            v = mu * (g2 @ (a0 + sum_ak))
        else:
            v = mu * (g2 @ (a0 + params.W[j - 1] ** 2))
        H[lo:lo + d, lo:lo + d] = 2.0 * mu * np.outer(ws[j], ws[j]) * g2 + np.diag(v)
    for k in range(1, K + 1):
        block = 2.0 * mu * np.outer(params.w0, params.W[k - 1]) * g2
        H[0:d, k * d:(k + 1) * d] = block
        H[k * d:(k + 1) * d, 0:d] = block.T
    return H
