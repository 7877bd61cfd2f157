"""Top- and sub-level metrics, confusion accounting, and the repeated
split/train/calibrate/predict experiment protocol."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import featurize, recognizer, rejection, trainer
from .dataset import RARE, LabeledCorpus, SplitResult, split_protocol
from .objective import Hyperparams, bind_data, gram_squared, identity_gram
from .recognizer import EMERGING, MAJORITY, Decision, ModelDocument

METRIC_NAMES = ("precision", "recall", "f1", "precision_seen",
                "recall_seen", "recall_unseen", "acc_rare")


class EvalError(ValueError):
    pass


@dataclass
class ConfusionTable:
    """Predicted {known-correct, known-wrong-subclass, emerging, majority} x
    true {seen-subclass, unseen, majority} counts."""
    known_correct: np.ndarray        # length 3 columns: (seen, unseen, majority)
    known_wrong: np.ndarray
    emerging: np.ndarray
    majority: np.ndarray

    COLUMNS = ("seen", "unseen", "majority")

    def __post_init__(self):
        for row in self.rows().values():
            if np.any(np.asarray(row) < 0):
                raise EvalError("negative confusion counts")

    def rows(self) -> dict[str, np.ndarray]:
        return {"known_correct": self.known_correct, "known_wrong": self.known_wrong,
                "emerging": self.emerging, "majority": self.majority}

    def column_totals(self) -> np.ndarray:
        return self.known_correct + self.known_wrong + self.emerging + self.majority

    @property
    def n_test_rare(self) -> float:
        totals = self.column_totals()
        return float(totals[0] + totals[1])


def confusion_table(decisions: list[Decision], split: SplitResult,
                    subclass_of: dict[int, int]) -> ConfusionTable:
    """Route one decision per test doc into the predicted x true grid.

    Test order is test_seen + test_unseen + test_majority; subclass_of maps a
    doc index to its true subclass id.
    """
    order = list(split.test_seen) + list(split.test_unseen) + list(split.test_majority)
    if len(decisions) != len(order):
        raise EvalError(f"{len(decisions)} decisions for {len(order)} test docs")
    rows = {name: np.zeros(3) for name in ("known_correct", "known_wrong", "emerging", "majority")}
    n_seen = len(split.test_seen)
    n_unseen = len(split.test_unseen)
    for pos, (doc_idx, dec) in enumerate(zip(order, decisions)):
        col = 0 if pos < n_seen else (1 if pos < n_seen + n_unseen else 2)
        if dec.verdict == MAJORITY:
            row = "majority"
        elif dec.verdict == EMERGING:
            row = "emerging"
        elif col == 0 and dec.subclass == subclass_of.get(doc_idx):
            row = "known_correct"
        else:
            row = "known_wrong"
        rows[row][col] += 1
    return ConfusionTable(**rows)


def top_level_metrics(decisions: list[Decision], split: SplitResult) -> dict[str, float | None]:
    """Precision/recall/F1 of the rare-vs-majority decision, with seen/unseen splits.

    A doc counts as predicted-rare when its verdict is not Majority. Undefined
    precision (nothing predicted rare) is reported as None, as is F1.
    """
    n_seen = len(split.test_seen)
    n_unseen = len(split.test_unseen)
    n_rare = n_seen + n_unseen
    n_total = n_rare + len(split.test_majority)
    if len(decisions) != n_total:
        raise EvalError(f"{len(decisions)} decisions for {n_total} test docs")
    pred_rare = [d.verdict != MAJORITY for d in decisions]
    n_pred = sum(pred_rare)
    tp_seen = sum(pred_rare[:n_seen])
    tp_unseen = sum(pred_rare[n_seen:n_rare])
    tp = tp_seen + tp_unseen

    precision = tp / n_pred if n_pred else None
    recall = tp / n_rare if n_rare else 0.0
    if precision is None or precision + recall == 0:
        f1 = None if precision is None else 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "precision_seen": tp_seen / n_pred if n_pred else None,
        "recall_seen": tp_seen / n_seen if n_seen else 0.0,
        "recall_unseen": tp_unseen / n_unseen if n_unseen else 0.0,
    }


def acc_rare(confusion: ConfusionTable) -> float:
    """Fraction of rare test docs routed to their correct seen subclass or,
    when unseen, flagged emerging."""
    n_rare = confusion.n_test_rare
    if n_rare == 0:
        raise EvalError("no rare test instances")
    return float(confusion.known_correct[0] + confusion.emerging[1]) / n_rare


@dataclass
class MetricReport:
    per_seed: list[dict]             # one metrics dict per repetition
    mean: dict[str, float | None]
    sd: dict[str, float | None]
    seeds: list[int]
    incomplete: bool = False
    errors: list[str] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    first_error: Exception | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "seeds": self.seeds,
            "per_seed": self.per_seed,
            "mean": self.mean,
            "sd": self.sd,
            "incomplete": self.incomplete,
            "errors": self.errors,
            "config": self.config,
        }

    def to_text(self) -> str:
        lines = [f"{'metric':<16}{'mean':>10}{'sd':>10}"]
        for name in METRIC_NAMES:
            m, s = self.mean.get(name), self.sd.get(name)
            mtxt = f"{m:.3f}" if m is not None else "null"
            stxt = f"{s:.3f}" if s is not None else "null"
            lines.append(f"{name:<16}{mtxt:>10}{stxt:>10}")
        if self.incomplete:
            lines.append("(incomplete: one or more repetitions failed)")
        return "\n".join(lines) + "\n"


def aggregate(per_seed: list[dict], seeds: list[int], errors: list[str],
              config: dict | None = None) -> MetricReport:
    mean: dict[str, float | None] = {}
    sd: dict[str, float | None] = {}
    for name in METRIC_NAMES:
        vals = [m[name] for m in per_seed if m.get(name) is not None]
        if not vals:
            mean[name] = sd[name] = None
            continue
        mean[name] = float(np.mean(vals))
        sd[name] = float(np.std(vals, ddof=1)) if len(vals) > 1 else None
    return MetricReport(per_seed=per_seed, mean=mean, sd=sd, seeds=seeds,
                        incomplete=bool(errors), errors=errors, config=config or {})


def train_document(corpus: LabeledCorpus, rows, subclasses, hp_template: dict,
                   cfg: trainer.TrainConfig, representation: str = "raw", pca_rank: int = 0,
                   top_n: int = 1000, reject_method: str = rejection.EVT_POT,
                   q: float = 0.01) -> ModelDocument:
    """Fit the representation on corpus.docs[rows], train the GC and the SCs on
    those rows with the given corpus subclass ids renumbered 1..K in order, and
    calibrate the SC thresholds: the one path from corpus rows to a model."""
    rows = list(rows)
    if representation == "raw":
        X = corpus.feature_matrix()[rows]
        descriptor, vocab, proj = {"kind": "raw", "d": X.shape[1]}, None, None
    elif representation in ("tfidf", "pca"):
        counts = corpus.term_counts.rows(rows)
        vocab = featurize.build_vocab(counts, top_n=top_n)
        X = featurize.tfidf_transform(counts, vocab)
        descriptor, proj = {"kind": "tfidf"}, None
        if representation == "pca":
            proj = featurize.pca_fit(X, rank=min(pca_rank, min(X.shape)))
            X = featurize.pca_transform(X, proj)
            descriptor = {"kind": "pca", "rank": proj.rank}
    else:
        raise EvalError(f"unknown representation {representation!r}")

    subclasses = list(subclasses)
    renumber = {k: j + 1 for j, k in enumerate(subclasses)}
    docs = [corpus.docs[i] for i in rows]
    data = bind_data(X, np.array([d.label == RARE for d in docs]),
                     np.array([renumber.get(d.subclass or 0, 0) for d in docs]))
    gram = identity_gram(X) if representation == "pca" else gram_squared(X)
    hp = Hyperparams.uniform(data.K, **hp_template)
    model = trainer.fit(data, hp, cfg, gram=gram)
    thresholds = rejection.calibrate(model, data, method=reject_method, q=q)
    names = corpus.subclass_names or tuple(str(k) for k in range(1, corpus.K + 1))
    return ModelDocument(
        version=recognizer.MODEL_VERSION, d=data.d, K=data.K, params=model.params,
        thresholds=thresholds, representation=descriptor,
        subclass_names=tuple(names[k - 1] for k in subclasses),
        vocab=vocab, projection=proj)


def run_single(corpus: LabeledCorpus, hp_template: dict, cfg: trainer.TrainConfig,
               seed: int, representation: str = "raw", pca_rank: int = 0,
               top_n: int = 1000, reject_method: str = rejection.EVT_POT,
               q: float = 0.01) -> tuple[dict, ModelDocument, SplitResult]:
    """One repetition: split -> train_document -> predict the test docs -> metrics."""
    split = split_protocol(corpus, seed=seed)
    seen_sorted = sorted(split.seen_subclasses)
    doc = train_document(corpus, split.train, seen_sorted, hp_template, cfg,
                         representation=representation, pca_rank=pca_rank, top_n=top_n,
                         reject_method=reject_method, q=q)
    test_order = list(split.test_seen) + list(split.test_unseen) + list(split.test_majority)
    if representation == "raw":
        Xte = corpus.feature_matrix()[test_order]
    else:
        Xte = doc.text_features(corpus.term_counts.rows(test_order))

    decisions, _ = recognizer.predict_stream(doc, Xte)
    metrics = top_level_metrics(decisions, split)
    remap = {k: j + 1 for j, k in enumerate(seen_sorted)}
    subclass_of = {i: remap[corpus.docs[i].subclass] for i in split.test_seen}
    table = confusion_table(decisions, split, subclass_of)
    metrics["acc_rare"] = acc_rare(table)
    return metrics, doc, split


def run_experiment(corpus: LabeledCorpus, hp_template: dict, cfg: trainer.TrainConfig,
                   repetitions: int = 5, base_seed: int = 0,
                   representation: str = "raw", pca_rank: int = 0,
                   top_n: int = 1000, reject_method: str = rejection.EVT_POT,
                   q: float = 0.01, config_echo: dict | None = None) -> MetricReport:
    """The repeated-split protocol: seeds base_seed+0..+(repetitions-1), mean +- sample sd."""
    per_seed: list[dict] = []
    errors: list[str] = []
    first_error = None
    seeds = [base_seed + i for i in range(repetitions)]
    for seed in seeds:
        try:
            metrics, _, _ = run_single(
                corpus, hp_template, cfg, seed, representation=representation,
                pca_rank=pca_rank, top_n=top_n, reject_method=reject_method, q=q)
            per_seed.append(metrics)
        except Exception as exc:  # a failed repetition marks the report incomplete
            errors.append(f"seed {seed}: {exc}")
            first_error = first_error or exc
    report = aggregate(per_seed, seeds, errors, config=config_echo)
    report.first_error = first_error
    return report
