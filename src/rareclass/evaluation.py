"""Top- and sub-level metrics, confusion accounting, and the repeated
split/train/calibrate/predict experiment protocol."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import featurize, recognizer, rejection, trainer
from .dataset import RARE, LabeledCorpus, SplitResult, split_protocol
from .errors import DataError, NumericError, UsageError
from .objective import Hyperparams, bind_data, identity_gram
from .recognizer import EMERGING, MAJORITY, Decision, ModelDocument

METRIC_NAMES = ("precision", "recall", "f1", "precision_seen",
                "recall_seen", "recall_unseen", "acc_rare")


class EvalError(DataError):
    pass


@dataclass
class ConfusionTable:
    """Predicted {known-correct, known-wrong-subclass, emerging, majority} x
    true {seen-subclass, unseen, majority} counts."""
    known_correct: np.ndarray        # length 3 columns: (seen, unseen, majority)
    known_wrong: np.ndarray
    emerging: np.ndarray
    majority: np.ndarray

    def __post_init__(self):
        for row in (self.known_correct, self.known_wrong, self.emerging, self.majority):
            if np.any(np.asarray(row) < 0):
                raise EvalError("negative confusion counts")

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
    """Precision/recall/F1 of the rare-vs-majority decision, with seen/unseen splits (_rates)."""
    return _rates(confusion_table(decisions, split, {}))


def _rates(table: ConfusionTable) -> dict[str, float | None]:
    """top_level_metrics from a table's columns. A doc counts as predicted-rare when its verdict
    is not Majority, so subclass_of does not change them. Undefined precision (nothing
    predicted rare) is reported as None, as is F1."""
    n_seen, n_unseen, _ = table.column_totals().astype(int).tolist()
    n_rare = n_seen + n_unseen
    # predicted rare per true column: (seen, unseen, majority)
    tp_seen, tp_unseen, fp = (table.column_totals() - table.majority).astype(int).tolist()
    tp = tp_seen + tp_unseen
    n_pred = tp + fp

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
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "first_error"}

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
                   reject_method: str = rejection.EVT_POT, q: float = 0.01) -> ModelDocument:
    """Fit the representation on corpus.docs[rows], train the GC and the SCs on
    those rows with the given corpus subclass ids renumbered 1..K in order, and
    calibrate the SC thresholds: the one path from corpus rows to a model. A given
    subclass with no document among the rows is an EvalError naming it."""
    rows = list(rows)
    subclasses = list(subclasses)
    docs = [corpus.docs[i] for i in rows]
    names = corpus.subclass_names or tuple(str(k) for k in range(1, corpus.K + 1))
    untrained = sorted(set(subclasses) - {d.subclass for d in docs})
    if untrained:
        raise EvalError("no training document of seen subclass "
                        + ", ".join(repr(names[k - 1]) for k in untrained))
    if representation == "raw":
        X = corpus.feature_matrix(rows)
        descriptor, vocab, proj = {"kind": "raw", "d": X.shape[1]}, None, None
    elif representation in ("tfidf", "pca"):
        counts = corpus.term_counts.rows(rows)
        vocab = featurize.build_vocab(counts, top_n=1000)         # the 1k of --rep tfidf1k
        descriptor, proj = {"kind": "tfidf"}, None
        if representation == "pca":   # tf-idf as a temporary, centred in place and freed before the
            # eigensolver, rebuilt below: the np.linalg.eigh fallback's 32 MB would sit above a live one
            proj = featurize.pca_fit_in_place(featurize.tfidf_transform(counts, vocab),
                                              rank=min(pca_rank, len(counts), vocab.d))
            descriptor = {"kind": "pca", "rank": proj.rank}
        X = featurize.tfidf_transform(counts, vocab)
        if proj is not None:          # pca_transform's bits, centring this matrix and not a copy
            X -= proj.mean
            X = X @ proj.components.T
    else:
        raise EvalError(f"unknown representation {representation!r}")

    renumber = {k: j + 1 for j, k in enumerate(subclasses)}
    data = bind_data(X, np.array([d.label == RARE for d in docs]),
                     np.array([renumber.get(d.subclass or 0, 0) for d in docs]))
    gram = identity_gram(X) if representation == "pca" else None    # None: fit builds (X^T X)^2, hashing X once
    hp = Hyperparams.uniform(data.K, **hp_template)
    model = trainer.fit(data, hp, cfg, gram=gram)
    thresholds = rejection.calibrate(model, data, method=reject_method, q=q)
    return ModelDocument(
        d=data.d, K=data.K, params=model.params,
        thresholds=thresholds, representation=descriptor,
        subclass_names=tuple(names[k - 1] for k in subclasses),
        vocab=vocab, projection=proj)


def run_single(corpus: LabeledCorpus, hp_template: dict, cfg: trainer.TrainConfig,
               seed: int, **training) -> tuple[dict, ModelDocument, SplitResult]:
    """One repetition: split -> train_document(**training) -> predict the test docs
    -> the metrics, all read from one confusion table."""
    split = split_protocol(corpus, seed=seed)
    seen_sorted = sorted(split.seen_subclasses)
    doc = train_document(corpus, split.train, seen_sorted, hp_template, cfg, **training)
    test_order = list(split.test_seen) + list(split.test_unseen) + list(split.test_majority)
    Xte = (corpus.feature_matrix(test_order) if doc.vocab is None
           else doc.text_features(corpus.term_counts.rows(test_order)))
    decisions, _ = recognizer.predict_stream(doc, Xte)
    remap = {k: j + 1 for j, k in enumerate(seen_sorted)}
    table = confusion_table(decisions, split,
                            {i: remap[corpus.docs[i].subclass] for i in split.test_seen})
    return {**_rates(table), "acc_rare": acc_rare(table)}, doc, split


def run_experiment(corpus: LabeledCorpus, hp_template: dict, cfg: trainer.TrainConfig,
                   repetitions: int = 5, base_seed: int = 0, config_echo: dict | None = None,
                   **training) -> MetricReport:
    """The repeated-split protocol: seeds base_seed+0..+(repetitions-1), mean +- sample sd.
    `training` (representation, pca_rank, reject_method, q) goes on to train_document. A
    repetition that raises a documented error (exit 1-3) is recorded as failed; others propagate."""
    per_seed: list[dict] = []
    errors: list[str] = []
    first_error = None
    seeds = [base_seed + i for i in range(repetitions)]
    for seed in seeds:
        try:
            per_seed.append(run_single(corpus, hp_template, cfg, seed, **training)[0])
        except (UsageError, DataError, NumericError, np.linalg.LinAlgError) as exc:
            # LinAlgError, from featurize's eigensolver, is the one numeric error not rareclass's
            errors.append(f"seed {seed}: {exc}")
            first_error = first_error or exc
    report = aggregate(per_seed, seeds, errors, config=config_echo)
    report.first_error = first_error
    return report
