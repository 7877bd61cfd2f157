"""Joint minimization of the correlation-penalized objective via Nesterov-accelerated
subgradient descent, full-batch or mini-batch."""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .objective import (
    BoundData, GramCache, Hyperparams, ModelParams, ObjectiveError, _grad, _loss,
    gram_squared,
)


class DivergenceError(RuntimeError):
    """Loss exploded past the divergence guard, or is not finite."""


@dataclass(frozen=True)
class TrainConfig:
    max_iters: int = 500
    step_size: float | None = None   # None -> 1/(lambda0 + mu*max diag of G2)
    step_decay: str = "inv_sqrt"     # "fixed" | "inv_sqrt"
    momentum: float = 0.9
    tol: float = 1e-6
    batch: int | None = None         # None -> full batch; m -> minibatch size
    seed: int = 0
    log_every: int = 0               # 0 disables progress lines
    track_iterates: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.step_decay not in ("fixed", "inv_sqrt"):
            raise ValueError(f"unknown step_decay {self.step_decay!r}")


@dataclass
class TrainedModel:
    params: ModelParams
    hp: Hyperparams
    loss_trace: list[float]
    converged: bool
    iters_run: int
    gram: GramCache | None = None
    iterates: list[ModelParams] | None = None


def default_step_size(hp: Hyperparams, gram: GramCache) -> float:
    return 1.0 / (hp.lambda0 + hp.mu * float(np.max(np.diag(gram.g2))) + 1e-12)


def _batch_view(data: BoundData, rng: np.random.Generator, m: int,
                rare_pos: np.ndarray):
    """Sample a size-m batch; return (X_b, y_b, R_b, Yk_b, gc_scale, sc_scale).

    rare_pos maps a row of X to its row in R; the scales map the batch's hinge
    sums back to full-data sums (sc_scale is 0 when the batch has no rare row).
    """
    idx = np.sort(rng.choice(data.n, size=m, replace=False))
    rpos = rare_pos[idx[data.y_all[idx] > 0]]
    gc_scale = data.n / m
    sc_scale = data.n0 / len(rpos) if len(rpos) else 0.0
    return (data.X[idx], data.y_all[idx], data.R[rpos], data.Yk[:, rpos],
            gc_scale, sc_scale)


def fit(data: BoundData, hp: Hyperparams, cfg: TrainConfig = TrainConfig(),
        gram: GramCache | None = None) -> TrainedModel:
    """Nesterov-accelerated subgradient descent on the joint parameter block.

    The squared Gram is built once up front, or checked against X once when
    given, and reused every iteration. Returns
    the best-recorded iterate, since subgradient steps are not monotone. With
    cfg.batch set, hinge subgradients are estimated from seeded random batches
    (scaled back to full sums); the penalty terms stay exact.
    """
    if gram is None:
        gram = gram_squared(data.X)
    else:
        gram.check(data.X)
    step0 = cfg.step_size if cfg.step_size is not None else default_step_size(hp, gram)
    rng = np.random.default_rng(cfg.seed)
    m = cfg.batch
    if m is not None and not 1 <= m <= data.n:
        raise ValueError(f"batch size {m} outside 1..{data.n}")

    d, K = data.d, data.K
    full = (data.X, data.y_all, data.R, data.Yk)
    rare_pos = np.cumsum(data.y_all > 0) - 1
    theta = np.zeros((K + 1, d + 1))
    velocity = np.zeros_like(theta)
    best_loss = np.inf
    best_theta = theta
    loss_trace: list[float] = []
    iterates: list[ModelParams] | None = [] if cfg.track_iterates else None
    initial_loss = None
    converged = False
    iters_run = 0

    for it in range(cfg.max_iters):
        eta = step0 if cfg.step_decay == "fixed" else step0 / np.sqrt(1.0 + it)
        rows = full if m is None else _batch_view(data, rng, m, rare_pos)
        g = _grad(theta + cfg.momentum * velocity, hp, gram.g2, *rows)
        velocity = cfg.momentum * velocity - eta * g
        theta = theta + velocity
        iters_run = it + 1
        if not np.all(np.isfinite(theta)):
            raise ObjectiveError("non-finite parameter entries")

        loss = _loss(theta, data, hp, gram.g2)
        loss_trace.append(loss)
        if iterates is not None:
            iterates.append(ModelParams.from_flat(theta, d, K))
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss {loss} at iter {it}")
        if initial_loss is None:
            initial_loss = max(loss, 1e-12)
        if loss > 1e6 * initial_loss:
            raise DivergenceError(
                f"loss {loss:.3e} exceeded 1e6x initial {initial_loss:.3e} at iter {it}")
        if loss < best_loss:
            best_loss = loss
            best_theta = theta
        if cfg.log_every and (it + 1) % cfg.log_every == 0:
            gnorm = float(np.linalg.norm(g))
            print(f"iter={it + 1} loss={loss:.6g} grad_norm={gnorm:.6g}", file=sys.stderr)
        if len(loss_trace) > 10:
            window = loss_trace[-11:]
            span = max(abs(window[0]), abs(window[-1]), 1e-12)
            if abs(window[0] - window[-1]) / span < cfg.tol:
                converged = True
                break

    return TrainedModel(params=ModelParams.from_flat(best_theta, d, K), hp=hp,
                        loss_trace=loss_trace, converged=converged,
                        iters_run=iters_run, gram=gram, iterates=iterates)

