"""Unit timings of the training kernels at the train-raw shape, run in a
child process like every other measurement:

    python perfbench/kernels.py SEED

prints one JSON object: median milliseconds of one GramCache.check, one joint
gradient (grad_w0, grad_wk for every subclass, grad_bias for every bias), one
total_loss and one full-batch trainer.fit iteration, the iteration's overhead
beyond the gradient and the loss (ModelParams.flat/from_flat and the update),
and wall and CPU time for the whole set. All are taken in one process within
about two seconds, so host-speed drift between them stays small.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from workloads import train_raw_matrix

REPEATS = 8
FIT_ITERS = 5


def _median_ms(kernels: dict, repeats: int) -> dict[str, float]:
    """Median milliseconds per kernel; the kernels take turns, so a change in
    host speed during the measurement reaches all of them alike."""
    times: dict[str, list[float]] = {name: [] for name in kernels}
    for fn in kernels.values():
        fn()                             # warm-up: first-call costs are not the kernel's
    for _ in range(repeats):
        for name, fn in kernels.items():
            start = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - start)
    return {name: 1000.0 * statistics.median(t) for name, t in times.items()}


def main(seed: int) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from rareclass.objective import (Hyperparams, ModelParams, bind_data, grad_bias, grad_w0,
                                     grad_wk, gram_squared, total_loss)
    from rareclass.trainer import TrainConfig, fit
    X, sub, _, _ = train_raw_matrix(seed)
    data = bind_data(X, sub > 0, sub)
    gram = gram_squared(data.X)
    hp = Hyperparams.uniform(data.K, mu=1e-4)
    rng = np.random.default_rng(seed)
    params = ModelParams(w0=0.1 * rng.standard_normal(data.d), b0=0.0,
                         W=0.1 * rng.standard_normal((data.K, data.d)), b=np.zeros(data.K))

    def joint_grad():
        grad_w0(params, data, hp, gram)
        grad_bias(0, params, data)
        for k in range(1, data.K + 1):
            grad_wk(k, params, data, hp, gram)
            grad_bias(k, params, data)

    cfg = TrainConfig(max_iters=FIT_ITERS, step_size=0.003, tol=1e-15, seed=seed)
    wall, cpu = time.perf_counter(), time.process_time()
    ms = _median_ms({"check": lambda: gram.check(data.X), "grad": joint_grad,
                     "loss": lambda: total_loss(params, data, hp, gram),
                     "fit": lambda: fit(data, hp, cfg, gram=gram)}, REPEATS)
    iter_ms = ms["fit"] / FIT_ITERS
    out = {"objective.gram_check_ms": ms["check"], "objective.grad_ms": ms["grad"],
           "objective.loss_ms": ms["loss"], "trainer.iter_ms": iter_ms,
           "trainer.iter_overhead_ms": iter_ms - ms["grad"] - ms["loss"]}
    out["wall_s"] = time.perf_counter() - wall
    out["cpu_s"] = time.process_time() - cpu
    return out


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1])), allow_nan=False))
