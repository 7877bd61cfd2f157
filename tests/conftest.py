import numpy as np
import pytest

from rareclass.dataset import Doc, LabeledCorpus, MAJORITY, RARE
from rareclass.objective import BoundData, ModelParams, bind_data


def make_instance(rng, n=12, d=4, K=2, rare_frac=0.5):
    """Random BoundData with roughly rare_frac rare rows split over K subclasses."""
    X = rng.standard_normal((n, d))
    n0 = max(int(n * rare_frac), K)
    rare = np.zeros(n, dtype=bool)
    rare[:n0] = True
    subs = np.zeros(n, dtype=int)
    subs[:n0] = rng.integers(1, K + 1, size=n0)
    for k in range(1, K + 1):       # every subclass needs at least one member
        if not np.any(subs[:n0] == k):
            subs[k - 1] = k
    return bind_data(X, rare, subs)


def params_off_kink(rng, data, margin_gap=0.05, max_tries=200):
    """Random params whose hinge margins all sit at least margin_gap from the kink."""
    for _ in range(max_tries):
        p = ModelParams(w0=rng.standard_normal(data.d), b0=float(rng.standard_normal()),
                        W=rng.standard_normal((data.K, data.d)), b=rng.standard_normal(data.K))
        gaps = [np.abs(1.0 - data.y_all * (data.X @ p.w0 + p.b0))]
        for k in range(data.K):
            gaps.append(np.abs(1.0 - data.Yk[k] * (data.R @ p.W[k] + p.b[k])))
        if min(np.min(g) for g in gaps) > margin_gap:
            return p
    raise RuntimeError("could not sample params away from hinge kinks")


def joint_grad_flat(p, data, hp, gram):
    from rareclass.objective import grad_bias, grad_w0, grad_wk
    return ModelParams(
        w0=grad_w0(p, data, hp, gram), b0=grad_bias(0, p, data),
        W=np.array([grad_wk(k, p, data, hp, gram) for k in range(1, data.K + 1)]),
        b=np.array([grad_bias(k, p, data) for k in range(1, data.K + 1)])).flat()


def route_per_item(model, X):
    """The per-item routing loop the batched recognizer replaced, kept as the
    reference it is compared against: (decisions, stats) for the rows of X."""
    from rareclass.recognizer import EMERGING, KNOWN, MAJORITY, Decision, StreamStats
    from rareclass.rejection import accepts
    p = model.params
    stats, decisions = StreamStats(), []
    for x in X:
        gc_score = float(p.w0 @ x + p.b0)
        if gc_score <= 0:
            stats.majority += 1
            decisions.append(Decision(MAJORITY, None, gc_score, None))
            continue
        sc_scores = p.W @ x + p.b
        stats.sc_evaluations += 1
        accepting = [k for k in range(1, model.K + 1)
                     if accepts(model.thresholds, k, float(sc_scores[k - 1]))]
        if not accepting:
            stats.emerging += 1
            decisions.append(Decision(EMERGING, None, gc_score, sc_scores))
            continue
        best = min(accepting, key=lambda k: (-sc_scores[k - 1], k))
        stats.known[best] = stats.known.get(best, 0) + 1
        decisions.append(Decision(KNOWN, best, gc_score, sc_scores))
    return decisions, stats


def numeric_grad(loss_fn, theta, eps=1e-6):
    g = np.zeros_like(theta)
    for i in range(len(theta)):
        e = np.zeros_like(theta)
        e[i] = eps
        g[i] = (loss_fn(theta + e) - loss_fn(theta - e)) / (2 * eps)
    return g


def decorrelation_instance(seed, s_sig=4.0, s_gen=2.0, n1=80, n2=80, nm=240,
                           d=5, noise=0.8):
    """Two-subclass instance whose subclass signatures (cols 0/3) also mark the
    rare/majority boundary, with col 1 a near-duplicate of col 0 and col 2 a
    weaker general rare signal the top-level separator can fall back on."""
    rng = np.random.default_rng(seed)
    n = n1 + n2 + nm
    X = noise * rng.standard_normal((n, d))
    sub1, sub2 = slice(0, n1), slice(n1, n1 + n2)
    X[sub1, 0] += s_sig
    X[sub2, 3] += s_sig
    X[:n1 + n2, 2] += s_gen
    X[:, 1] = X[:, 0] + 0.01 * rng.standard_normal(n)
    rare = np.zeros(n, bool)
    rare[:n1 + n2] = True
    subs = np.zeros(n, int)
    subs[sub1] = 1
    subs[sub2] = 2
    return bind_data(X, rare, subs)


def mean_abs_cosine(params):
    """Mean |cos(w0, w_k)| over the specialized separators."""
    norms = [np.linalg.norm(params.W[k]) for k in range(len(params.W))]
    w0n = np.linalg.norm(params.w0)
    return float(np.mean([abs(params.w0 @ params.W[k]) / (w0n * norms[k] + 1e-12)
                          for k in range(len(params.W))]))


@pytest.fixture
def tiny_corpus():
    docs = (
        Doc("flood waters rising flood", RARE, 1),
        Doc("flood damage reported", RARE, 1),
        Doc("fire spreads fast", RARE, 2),
        Doc("fire crews dispatched", RARE, 2),
        Doc("market opens steady", MAJORITY),
        Doc("concert tickets on sale", MAJORITY),
    )
    return LabeledCorpus(docs=docs, K=2, id="tiny", subclass_names=("flood", "fire"))


def balanced_corpus(K=3, per_subclass=10, majority=20, seed=0):
    """Text-free corpus with per-subclass sizes fixed; for split-protocol tests."""
    docs = []
    for k in range(1, K + 1):
        docs += [Doc(f"doc subclass{k} token{i}", RARE, k) for i in range(per_subclass)]
    docs += [Doc(f"majority token{i}", MAJORITY) for i in range(majority)]
    return LabeledCorpus(docs=tuple(docs), K=K, id=f"balanced-{K}")
