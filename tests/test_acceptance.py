"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line on the real stderr so the verdicts survive output capture."""

import sys
import time

import numpy as np
import pytest

from conftest import (
    decorrelation_instance, joint_grad_flat, make_instance, mean_abs_cosine,
    numeric_grad, params_off_kink,
)
from rareclass.cli import bench_timings
from rareclass.coverage import (
    CoverProgram, check_feasible, enumerate_exact, solve_exact, solve_greedy,
)
from rareclass.dataset import Doc, LabeledCorpus, RARE, SyntheticConfig, gen_synthetic
from rareclass.evaluation import ConfusionTable, acc_rare, run_experiment
from rareclass.objective import (
    Hyperparams, ModelParams, bind_data, gram_squared, penalty_hessian, total_loss,
)
from rareclass.recognizer import (
    MAJORITY, ModelDocument, predict_stream, save,
)
from rareclass.rejection import EVT_POT, calibrate
from rareclass.trainer import TrainConfig, fit


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_channel(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}{tail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, file=sys.stderr)
    else:
        print(line, file=sys.stderr)
    assert ok, f"criterion {num} {name} failed{tail}"


def test_criterion_01_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for trial in range(50):
        mu = (0.0, 0.5, 2.0)[trial % 3]
        data = make_instance(rng, n=20, d=8, K=3)
        hp = Hyperparams.uniform(3, lambda0=0.7, lambdak=1.3, mu=mu)
        gram = gram_squared(data.X)
        p = params_off_kink(rng, data, margin_gap=0.05)
        analytic = joint_grad_flat(p, data, hp, gram)
        numeric = numeric_grad(
            lambda th: total_loss(ModelParams.from_flat(th, data.d, data.K),
                                  data, hp, gram),
            p.flat())
        err = float(np.max(np.abs(analytic - numeric))) / max(float(np.max(np.abs(numeric))), 1.0)
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    verdict(1, "gradient finite-difference agreement",
            worst < 1e-5 and elapsed < 10.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_joint_loss_convex_and_penalty_hessian_psd():
    rng = np.random.default_rng(102)
    worst_gap = -np.inf
    for _ in range(100):
        data = make_instance(rng, n=14, d=5, K=2)
        hp = Hyperparams.uniform(2, mu=float(rng.uniform(0.1, 3.0)))
        gram = gram_squared(data.X)
        a = ModelParams.from_flat(rng.standard_normal((data.d + 1) * (data.K + 1)),
                                  data.d, data.K)
        b = ModelParams.from_flat(rng.standard_normal((data.d + 1) * (data.K + 1)),
                                  data.d, data.K)
        fa = total_loss(a, data, hp, gram)
        fb = total_loss(b, data, hp, gram)
        for t in (0.25, 0.5, 0.75):
            mid = ModelParams.from_flat(t * a.flat() + (1 - t) * b.flat(),
                                        data.d, data.K)
            gap = total_loss(mid, data, hp, gram) - (t * fa + (1 - t) * fb)
            worst_gap = max(worst_gap, gap)
    worst_eig = np.inf
    for _ in range(20):
        K = int(rng.integers(1, 5))
        d = int(rng.integers(2, 60 // (K + 1) + 1))
        data = make_instance(rng, n=12, d=d, K=K)
        gram = gram_squared(data.X)
        p = ModelParams.from_flat(rng.standard_normal((d + 1) * (K + 1)), d, K)
        H = penalty_hessian(p, float(rng.uniform(0.1, 2.0)), gram)
        eig = float(np.linalg.eigvalsh(H).min())
        worst_eig = min(worst_eig, eig / max(float(np.linalg.norm(H, 2)), 1e-300))
    verdict(2, "convexity and penalty-curvature PSD",
            worst_gap <= 1e-9 and worst_eig >= -1e-9,
            f"max convexity gap {worst_gap:.2e}, min rel eig {worst_eig:.2e}")


def test_criterion_03_cross_penalty_frobenius_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(3, 8))
        X = rng.standard_normal((int(rng.integers(4, 12)), d))
        w0 = rng.standard_normal(d)
        wk = rng.standard_normal(d)
        G = X.T @ X
        direct = sum((w0[p] * wk[q] * G[p, q]) ** 2
                     for p in range(d) for q in range(d))
        frob = float(np.linalg.norm(G * np.outer(w0, wk), ord="fro") ** 2)
        worst = max(worst, abs(direct - frob) / max(abs(frob), 1e-300))
    verdict(3, "cross-penalty Frobenius identity", worst < 1e-10,
            f"max rel err {worst:.2e}")


def test_criterion_04_mu_zero_decouples_into_independent_fits():
    rng = np.random.default_rng(104)
    data = make_instance(rng, n=24, d=4, K=2)
    cfg = TrainConfig(max_iters=60, step_size=0.01, tol=1e-15, momentum=0.9,
                      seed=7, track_iterates=True)
    joint = fit(data, Hyperparams.uniform(2, lambda0=1.0, lambdak=1.0, mu=0.0), cfg)

    worst = 0.0
    gc_data = bind_data(data.X, data.y_all > 0, np.zeros(data.n, dtype=int))
    gc_fit = fit(gc_data, Hyperparams.uniform(0, lambda0=1.0, mu=0.0), cfg)
    for it_j, it_g in zip(joint.iterates, gc_fit.iterates):
        worst = max(worst, float(np.max(np.abs(it_j.w0 - it_g.w0))),
                    abs(it_j.b0 - it_g.b0))
    for k in range(2):
        sc_data = bind_data(data.R, data.Yk[k] > 0, np.zeros(data.n0, dtype=int))
        sc_fit = fit(sc_data, Hyperparams.uniform(0, lambda0=1.0, mu=0.0), cfg)
        for it_j, it_s in zip(joint.iterates, sc_fit.iterates):
            worst = max(worst, float(np.max(np.abs(it_j.W[k] - it_s.w0))),
                        abs(it_j.b[k] - it_s.b0))
    verdict(4, "mu=0 joint fit decouples", worst < 1e-12,
            f"max iterate gap {worst:.2e}")


def test_criterion_05_correlation_penalty_decorrelates_separators():
    cos_mu0, cos_mu5 = [], []
    for seed in range(5):
        data = decorrelation_instance(seed)
        cfg = TrainConfig(max_iters=5000, seed=seed, tol=1e-12)
        for mu, out in ((0.0, cos_mu0), (5.0, cos_mu5)):
            model = fit(data, Hyperparams.uniform(2, mu=mu), cfg)
            out.append(mean_abs_cosine(model.params))
    m0, m5 = float(np.mean(cos_mu0)), float(np.mean(cos_mu5))
    verdict(5, "de-correlation of general vs specialized separators",
            m5 < 0.95 * m0, f"mean |cos| {m0:.3f} -> {m5:.3f}")


def test_criterion_06_word_cover_exactness_and_greedy_quality():
    rng = np.random.default_rng(106)
    start = time.monotonic()
    exact_ok = True
    ratios = []
    for _ in range(100):
        K = int(rng.integers(1, 4))
        d = int(rng.integers(3, {1: 10, 2: 8, 3: 7}[K] + 1))
        per = int(rng.integers(1, 5))
        majority = int(rng.integers(1, 17 - K * per))
        blocks = tuple((rng.random((per, d)) < 0.35).astype(np.int8)
                       for _ in range(K))
        N = (rng.random((majority, d)) < 0.35).astype(np.int8)
        p = CoverProgram(R_blocks=blocks, N=N,
                         terms=tuple(f"w{chr(97 + j)}" for j in range(d)))
        sol = solve_exact(p)
        check_feasible(sol, p)
        best = enumerate_exact(p)
        exact_ok = exact_ok and sol.optimal and sol.objective == best
        g = solve_greedy(p)
        check_feasible(g, p)
        if best > 0:
            ratios.append(g.objective / best)
    elapsed = time.monotonic() - start
    verdict(6, "exact word cover matches enumeration; greedy feasible",
            exact_ok and elapsed < 60.0 and max(ratios) <= 2.0,
            f"greedy/optimal mean {np.mean(ratios):.3f} max {max(ratios):.3f}, "
            f"{elapsed:.1f}s")


def test_criterion_07_published_count_reconciliation():
    table = ConfusionTable(
        known_correct=np.array([293.0, 28.0, 0.0]),
        known_wrong=np.array([13.2, 0.0, 0.0]),
        emerging=np.array([54.0, 77.2, 0.0]),
        majority=np.array([32.0, 325.2, 0.0]))
    value = acc_rare(table)
    verdict(7, "reported-count reconciliation", abs(value - 0.450) <= 0.005,
            f"acc_rare {value:.4f}")


def _normalized_synthetic_corpus() -> LabeledCorpus:
    base = gen_synthetic(SyntheticConfig(
        d=10, K_total=6, docs_per_subclass=200, majority_docs=1200,
        subclass_separation=6.0, noise_scale=1.0, seed=0))
    X = base.feature_matrix()
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    docs = tuple(Doc(doc.text, doc.label, doc.subclass, features=tuple(row))
                 for doc, row in zip(base.docs, X))
    return LabeledCorpus(docs=docs, K=base.K, subclass_names=base.subclass_names)


def test_criterion_08_end_to_end_synthetic_experiment():
    start = time.monotonic()
    corpus = _normalized_synthetic_corpus()
    report = run_experiment(
        corpus, {"mu": 1e-4},
        TrainConfig(max_iters=500, step_size=0.003, seed=0),
        repetitions=5, base_seed=0, representation="raw",
        reject_method=EVT_POT, q=0.2)
    elapsed = time.monotonic() - start
    f1 = report.mean["f1"]
    acc = report.mean["acc_rare"]
    unseen = report.mean["recall_unseen"]
    ok = (not report.incomplete and f1 is not None and f1 >= 0.85
          and acc >= 0.60 and unseen >= 0.5 and elapsed < 120.0)
    verdict(8, "end-to-end synthetic experiment", ok,
            f"F1 {f1:.3f}, acc_rare {acc:.3f}, recall_unseen {unseen:.3f}, "
            f"{elapsed:.1f}s")


def test_criterion_09_training_time_scales_linearly():
    # minimum over repeats per problem size to damp scheduler noise
    runs = [bench_timings(n=1000, d=200, K=4, iters=200, mu=1.0, seed=0)
            for _ in range(2)]
    seconds = [min(r[i]["seconds"] for r in runs) for i in range(3)]
    ratios = [seconds[i + 1] / seconds[i] for i in range(2)]
    ok = all(1.5 <= r <= 2.7 for r in ratios)
    verdict(9, "linear scaling of training time", ok,
            "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_10_stream_economy_and_constant_model_size(tmp_path):
    rng = np.random.default_rng(110)
    corpus = gen_synthetic(SyntheticConfig(
        d=8, K_total=3, docs_per_subclass=60, majority_docs=300,
        subclass_separation=6.0, noise_scale=1.0, seed=5))
    X = corpus.feature_matrix()
    rare_mask = np.array([doc.label == RARE for doc in corpus.docs])
    subs = np.array([doc.subclass or 0 for doc in corpus.docs])
    data = bind_data(X, rare_mask, subs)
    model = fit(data, Hyperparams.uniform(3, mu=0.0),
                TrainConfig(max_iters=200, step_size=0.01, seed=5))
    thresholds = calibrate(model, data, method=EVT_POT, q=0.05)
    doc = ModelDocument(d=8, K=3, params=model.params,
                        thresholds=thresholds, representation={"kind": "raw"},
                        subclass_names=("s1", "s2", "s3"))

    majority_pool = X[~rare_mask]
    rare_pool = X[rare_mask]
    stream = []
    for _ in range(10_000):
        pool = majority_pool if rng.random() < 0.9 else rare_pool
        stream.append(pool[rng.integers(len(pool))])

    before = tmp_path / "before.json"
    after = tmp_path / "after.json"
    save(doc, before)
    decisions, stats = predict_stream(doc, stream)
    save(doc, after)

    non_majority = sum(1 for d in decisions if d.verdict != MAJORITY)
    ok = (stats.sc_evaluations == non_majority
          and before.read_bytes() == after.read_bytes())
    verdict(10, "stream-time economy and constant model size", ok,
            f"{stats.sc_evaluations} SC evaluations for {non_majority} "
            f"non-majority verdicts over {len(stream)} instances")
