import numpy as np
import pytest

from rareclass import trainer
from rareclass.dataset import Doc, LabeledCorpus, MAJORITY, RARE
from rareclass.objective import BoundData, ModelParams, bind_data
from rareclass.recognizer import ModelDocument, save
from rareclass.rejection import PERCENTILE, RejectionThresholds


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


@pytest.fixture
def second_fit_fails(monkeypatch):
    """trainer.fit raising a TypeError, as a bug would, on its second call; the calls made."""
    fit, calls = trainer.fit, []

    def fit_or_fail(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise TypeError("a bug, not bad data")
        return fit(*args, **kwargs)

    monkeypatch.setattr(trainer, "fit", fit_or_fail)
    return calls


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
    return LabeledCorpus(docs=docs, K=2, subclass_names=("flood", "fire"))


def balanced_corpus(K=3, per_subclass=10, majority=20, seed=0):
    """Text-free corpus with per-subclass sizes fixed; for split-protocol tests."""
    docs = []
    for k in range(1, K + 1):
        docs += [Doc(f"doc subclass{k} token{i}", RARE, k) for i in range(per_subclass)]
    docs += [Doc(f"majority token{i}", MAJORITY) for i in range(majority)]
    return LabeledCorpus(docs=tuple(docs), K=K)


def write_integer_model(path):
    """Save a raw d=3, K=2 model with integer weights at `path`: gc = x0 + x1 - 1,
    sc1 = x1, sc2 = x2, both thresholds 1. Integer features give exact scores."""
    save(ModelDocument(
        d=3, K=2,
        params=ModelParams(w0=[1.0, 1.0, 0.0], b0=-1.0,
                           W=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], b=[0.0, 0.0]),
        thresholds=RejectionThresholds(t=np.array([1.0, 1.0]), method=PERCENTILE, q=0.05),
        representation={"kind": "raw"}, subclass_names=("a", "b")), path)
    return str(path)


def text_feature_corpus(seed=0, K=3, per_subclass=24, majority=72, d=5):
    """Docs with both text and features: background words for every doc, topic
    words per subclass and words shared by all rare docs; features around a
    shared rare direction plus one direction per subclass. Every representation
    (raw, tfidf, pca) can train on it."""
    rng = np.random.default_rng(seed)
    letters = "abcdefgh"
    background = ["b" + a + b for a in letters for b in letters]
    shared = ["s" + a + a for a in letters[:6]]
    centers = rng.standard_normal((K, d)) * 0.5
    centers[:, 0] = 1.0
    docs = []
    for k in range(K + 1):                       # k = 0: majority
        for _ in range(per_subclass if k else majority):
            words = list(rng.choice(background, size=12))
            x = 0.3 * rng.standard_normal(d)
            if k:
                words += list(rng.choice(["t" + letters[k] + b for b in letters[:6]], size=4))
                words += list(rng.choice(shared, size=2))
                x += centers[k - 1]
            docs.append(Doc(" ".join(words), RARE if k else MAJORITY, k or None, x))
    return LabeledCorpus(docs=tuple(docs), K=K,
                         subclass_names=tuple(f"topic-{k}" for k in range(1, K + 1)))


def train_by_hand(corpus, rep, pca_rank, hp_template, cfg, reject_method, q):
    """The `train` sequence cmd_train wrote out before evaluation.train_document,
    kept as the reference the one pipeline is compared against."""
    from rareclass import featurize, recognizer, rejection, trainer
    from rareclass.objective import Hyperparams, gram_squared, identity_gram
    if rep == "raw":
        X = corpus.feature_matrix()
        descriptor, vocab, proj = {"kind": "raw", "d": X.shape[1]}, None, None
    else:
        texts = [d.text for d in corpus.docs]
        vocab = featurize.build_vocab(texts, top_n=1000)
        X = featurize.tfidf_transform(texts, vocab)
        descriptor, proj = {"kind": "tfidf"}, None
        if rep == "pca":
            proj = featurize.pca_fit(X, rank=min(pca_rank, min(X.shape)))
            X = (X - proj.mean) @ proj.components.T
            descriptor = {"kind": "pca", "rank": proj.rank}
    rare_mask = np.array([d.label == RARE for d in corpus.docs])
    subs = np.array([d.subclass or 0 for d in corpus.docs])
    data = bind_data(X, rare_mask, subs)
    hp = Hyperparams.uniform(data.K, **hp_template)
    gram = identity_gram(X) if rep == "pca" else gram_squared(X)
    model = trainer.fit(data, hp, cfg, gram=gram)
    thresholds = rejection.calibrate(model, data, method=reject_method, q=q)
    return recognizer.ModelDocument(
        d=data.d, K=data.K, params=model.params,
        thresholds=thresholds, representation=descriptor,
        subclass_names=corpus.subclass_names or tuple(str(k) for k in range(1, data.K + 1)),
        vocab=vocab, projection=proj)


def run_single_by_hand(corpus, hp_template, cfg, seed, rep, pca_rank, reject_method, q,
                       top_n=1000):
    """The `evaluate` repetition run_single wrote out before train_document,
    with its own tf-idf and PCA transform of the test docs: the metrics dict."""
    from rareclass import featurize, recognizer, rejection, trainer
    from rareclass.dataset import split_protocol
    from rareclass.evaluation import acc_rare, confusion_table, top_level_metrics
    from rareclass.objective import Hyperparams, gram_squared, identity_gram
    split = split_protocol(corpus, seed=seed)
    test_order = list(split.test_seen) + list(split.test_unseen) + list(split.test_majority)
    vocab = proj = None
    if rep == "raw":
        X = corpus.feature_matrix()
        Xtr, Xte, descriptor = X[list(split.train)], X[test_order], {"kind": "raw", "d": X.shape[1]}
    else:
        train_texts = [corpus.docs[i].text for i in split.train]
        vocab = featurize.build_vocab(train_texts, top_n=top_n)
        Xtr = featurize.tfidf_transform(train_texts, vocab)
        Xte = featurize.tfidf_transform([corpus.docs[i].text for i in test_order], vocab)
        descriptor = {"kind": "tfidf"}
        if rep == "pca":
            proj = featurize.pca_fit(Xtr, rank=min(pca_rank, min(Xtr.shape)))
            Xtr, Xte = (Xtr - proj.mean) @ proj.components.T, (Xte - proj.mean) @ proj.components.T
            descriptor = {"kind": "pca", "rank": proj.rank}
    seen_sorted = sorted(split.seen_subclasses)
    remap = {k: j + 1 for j, k in enumerate(seen_sorted)}
    rare_mask = np.array([corpus.docs[i].label == RARE for i in split.train])
    subs = np.array([remap.get(corpus.docs[i].subclass or 0, 0) for i in split.train])
    data = bind_data(Xtr, rare_mask, subs)
    gram = identity_gram(Xtr) if rep == "pca" else gram_squared(Xtr)
    model = trainer.fit(data, Hyperparams.uniform(data.K, **hp_template), cfg, gram=gram)
    thresholds = rejection.calibrate(model, data, method=reject_method, q=q)
    names = corpus.subclass_names or tuple(str(k) for k in range(1, corpus.K + 1))
    doc = recognizer.ModelDocument(
        d=data.d, K=data.K, params=model.params,
        thresholds=thresholds, representation=descriptor,
        subclass_names=tuple(names[k - 1] for k in seen_sorted), vocab=vocab, projection=proj)
    decisions, _ = recognizer.predict_stream(doc, Xte)
    metrics = top_level_metrics(decisions, split)
    subclass_of = {i: remap.get(corpus.docs[i].subclass or 0, 0) for i in split.test_seen}
    metrics["acc_rare"] = acc_rare(confusion_table(decisions, split, subclass_of))
    return metrics


def build_vocab_by_hand(texts, top_n=1000):
    """The per-text vocabulary fit the count table replaced, kept as its reference."""
    from collections import Counter
    from rareclass.featurize import FeaturizeError, Vocabulary, tokenize
    if not texts:
        raise FeaturizeError("empty training set")
    freq, df = Counter(), Counter()
    for text in texts:
        toks = tokenize(text)
        freq.update(toks)
        df.update(set(toks))
    if not freq:
        raise FeaturizeError("empty effective vocabulary")
    terms = tuple(sorted(freq, key=lambda t: (-freq[t], t))[:top_n])
    return Vocabulary(terms=terms, df=tuple(df[t] for t in terms), n_docs_fitted=len(texts))


def tfidf_by_hand(texts, vocab):
    """The per-text tf-idf loop the count table replaced, kept as its reference."""
    from collections import Counter
    from rareclass.featurize import tokenize
    idx = vocab.index()
    idf = np.log((1.0 + vocab.n_docs_fitted) / (1.0 + np.asarray(vocab.df, dtype=np.float64)))
    X = np.zeros((len(texts), vocab.d))
    for i, text in enumerate(texts):
        for tok, cnt in Counter(tokenize(text)).items():
            j = idx.get(tok)
            if j is not None:
                X[i, j] = cnt * idf[j]
        norm = np.linalg.norm(X[i])
        if norm > 0:
            X[i] /= norm
    return X


def build_program_by_hand(corpus, vocab):
    """The per-doc occurrence loop build_program replaced, kept as its reference."""
    from rareclass.coverage import CoverProgram
    from rareclass.featurize import tokenize
    idx = vocab.index()

    def occurrence_rows(doc_indices):
        M = np.zeros((len(doc_indices), vocab.d), dtype=np.int8)
        for r, i in enumerate(doc_indices):
            for tok in set(tokenize(corpus.docs[i].text)):
                j = idx.get(tok)
                if j is not None:
                    M[r, j] = 1
        return M

    blocks = tuple(occurrence_rows(corpus.subclass_indices(k)) for k in range(1, corpus.K + 1))
    return CoverProgram(R_blocks=blocks, N=occurrence_rows(corpus.majority_indices()),
                        terms=vocab.terms)


def solve_exact_by_hand(p, time_cap=None):
    """The array-based branch-and-bound the bitmask solve_exact replaced, kept
    as its reference: same branch order, bound, incumbent rule and time check."""
    import time
    from rareclass.coverage import _evaluate_assignment
    d, K = p.d, p.K
    start = time.monotonic()
    R_all = p.R_all
    can_cover_block = [np.zeros((d + 1, len(b)), dtype=bool) for b in p.R_blocks]
    can_cover_all = np.zeros((d + 1, len(R_all)), dtype=bool)
    for j in range(d - 1, -1, -1):
        for k in range(K):
            can_cover_block[k][j] = can_cover_block[k][j + 1] | (p.R_blocks[k][:, j] > 0)
        can_cover_all[j] = can_cover_all[j + 1] | (R_all[:, j] > 0)

    incumbent = {"sol": None, "obj": np.inf, "timed_out": False}
    assign = np.zeros(d, dtype=np.int8)
    cov_blocks = [np.zeros(len(b), dtype=np.int32) for b in p.R_blocks]
    cov_all = np.zeros(len(R_all), dtype=np.int32)

    def lower_bound(j, words, alpha, beta):
        forced = 0
        for k in range(K):
            forced += int(np.count_nonzero((cov_blocks[k] == 0) & ~can_cover_block[k][j]))
        forced += int(np.count_nonzero((cov_all == 0) & ~can_cover_all[j]))
        return words + alpha + beta + forced

    def dfs(j, words, alpha, beta):
        if incumbent["timed_out"]:
            return
        if time_cap is not None and time.monotonic() - start > time_cap:
            incumbent["timed_out"] = True
            return
        if lower_bound(j, words, alpha, beta) >= incumbent["obj"]:
            return
        if j == d:
            sol = _evaluate_assignment(p, assign)
            if sol.objective < incumbent["obj"]:
                incumbent["obj"] = sol.objective
                incumbent["sol"] = sol
            return
        col_blocks = [b[:, j] > 0 for b in p.R_blocks]
        col_all = R_all[:, j] > 0
        col_alpha = int(p.N[:, j].sum())
        dfs(j + 1, words, alpha, beta)
        assign[j] = 1
        cov_all[col_all] += 1
        dfs(j + 1, words + 1, alpha + col_alpha, beta)
        cov_all[col_all] -= 1
        for k in range(K):
            cross = sum(int(col_blocks[kp].sum()) for kp in range(K) if kp != k)
            assign[j] = k + 2
            cov_blocks[k][col_blocks[k]] += 1
            dfs(j + 1, words + 1, alpha, beta + cross)
            cov_blocks[k][col_blocks[k]] -= 1
        assign[j] = 0

    dfs(0, 0, 0, 0)
    if incumbent["sol"] is None:
        incumbent["sol"] = _evaluate_assignment(p, np.zeros(d, dtype=np.int8))
    sol = incumbent["sol"]
    sol.optimal = not incumbent["timed_out"]
    return sol


def solve_greedy_by_hand(p):
    """The per-word greedy loop solve_greedy replaced, kept as its reference:
    each step scores every free word over a fresh masked copy of the uncovered
    target docs, and takes the best margin, ties to the smallest word."""
    from rareclass.coverage import _evaluate_assignment
    taken = np.zeros(p.d, dtype=np.int8)

    def grow(target, cross_cost, code):
        covered = np.zeros(len(target), dtype=bool)
        while True:
            free = np.flatnonzero(taken == 0)
            if len(free) == 0:
                return
            gains = [(int(target[~covered][:, j].sum()) - int(cross_cost[j]), j) for j in free]
            gain, j = max(gains, key=lambda t: (t[0], -t[1]))
            if gain <= 0:
                return
            taken[j] = code
            covered |= target[:, j] > 0

    for s in [*range(1, p.K + 1), 0]:
        target, other = p.target(s)
        grow(target, other.sum(axis=0), s + 1)
    return _evaluate_assignment(p, taken)
