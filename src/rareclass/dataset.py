"""Corpus data model, ingestion, split protocol and synthetic generation."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .featurize import TermCounts, count_terms

RARE = "rare"
MAJORITY = "majority"


class CorpusError(ValueError):
    """Raised when a corpus file or record violates the data contract."""


@dataclass(frozen=True)
class Doc:
    text: str
    label: str                      # "rare" | "majority"
    subclass: int | None = None     # 1..K for rare docs, None for majority
    features: np.ndarray | None = None


@dataclass(frozen=True)
class LabeledCorpus:
    docs: tuple[Doc, ...]
    K: int
    id: str = ""
    subclass_names: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.docs) == 0:
            raise CorpusError("empty corpus")
        if self.K < 1:
            raise CorpusError("corpus must contain at least one rare subclass")
        seen = set()
        for i, doc in enumerate(self.docs):
            if doc.label == RARE:
                if doc.subclass is None:
                    raise CorpusError(f"doc {i}: rare doc missing subclass")
                if not 1 <= doc.subclass <= self.K:
                    raise CorpusError(f"doc {i}: subclass {doc.subclass} outside 1..{self.K}")
                seen.add(doc.subclass)
            elif doc.label == MAJORITY:
                if doc.subclass is not None:
                    raise CorpusError(f"doc {i}: majority doc carries subclass")
            else:
                raise CorpusError(f"doc {i}: unknown label {doc.label!r}")
        missing = set(range(1, self.K + 1)) - seen
        if missing:
            raise CorpusError(f"subclasses with no documents: {sorted(missing)}")

    @property
    def n(self) -> int:
        return len(self.docs)

    @property
    def n_rare(self) -> int:
        return sum(1 for d in self.docs if d.label == RARE)

    def subclass_indices(self, k: int) -> list[int]:
        return [i for i, d in enumerate(self.docs) if d.subclass == k]

    def majority_indices(self) -> list[int]:
        return [i for i, d in enumerate(self.docs) if d.label == MAJORITY]

    @cached_property
    def term_counts(self) -> TermCounts:
        """Every doc's text counted once, the first time a text representation
        or the word-cover program asks for it."""
        return count_terms([d.text for d in self.docs])

    def feature_matrix(self) -> np.ndarray:
        """Stack pre-built numeric features; error if any doc lacks them."""
        rows = []
        for i, d in enumerate(self.docs):
            if d.features is None:
                raise CorpusError(f"doc {i} has no pre-built features")
            rows.append(d.features)
        return np.asarray(rows, dtype=np.float64)


@dataclass(frozen=True)
class SplitResult:
    train: tuple[int, ...]
    test_seen: tuple[int, ...]        # R_s
    test_unseen: tuple[int, ...]      # R_u
    test_majority: tuple[int, ...]    # N_test
    seen_subclasses: frozenset[int]
    unseen_subclasses: frozenset[int]
    seed: int


@dataclass(frozen=True)
class SyntheticConfig:
    d: int
    K_total: int
    docs_per_subclass: int
    majority_docs: int
    subclass_separation: float
    noise_scale: float = 1.0
    collinearity_groups: tuple[tuple[int, ...], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.K_total < 2:
            raise ValueError("K_total must be >= 2")
        if self.docs_per_subclass < 4:
            raise ValueError("docs_per_subclass must be >= 4")
        if self.subclass_separation < 0:
            raise ValueError("subclass_separation must be >= 0")
        if self.noise_scale <= 0:
            raise ValueError("noise_scale must be > 0")


_NUMBER_TYPES = frozenset((int, float))          # bool is its own type, so true/false are refused
_FLOAT_MAX = float(np.finfo(np.float64).max)


def check_features(f) -> None:
    """Raise CorpusError unless f is a `features` list of ints and floats
    (no bools, no integers beyond the float range)."""
    if type(f) is not list:
        raise CorpusError("'features' is not a list")
    types = set(map(type, f))
    if not types <= _NUMBER_TYPES:
        raise CorpusError("'features' has a non-numeric entry")
    if int in types and any(type(v) is int and abs(v) > _FLOAT_MAX for v in f):
        raise CorpusError("'features' has an integer beyond the float range")


def _record_to_doc(rec: dict, lineno: int, name_to_id: dict[str, int]) -> Doc:
    if not isinstance(rec, dict):
        raise CorpusError(f"line {lineno}: record is not a JSON object")
    text = rec.get("text")
    if text is None:
        text = ""
    elif not isinstance(text, str):
        raise CorpusError(f"line {lineno}: 'text' is not a string")
    label = rec.get("label")
    sub_name = rec.get("subclass") or None
    feats = rec.get("features")
    if feats is not None:
        try:
            check_features(feats)
        except CorpusError as exc:
            raise CorpusError(f"line {lineno}: {exc}") from None
        feats = np.asarray(feats, dtype=np.float64)
        if not np.isfinite(feats).all():
            raise CorpusError(f"line {lineno}: 'features' has a non-finite entry")
    if label == RARE:
        if sub_name is None:
            raise CorpusError(f"line {lineno}: rare doc missing subclass")
        sid = name_to_id.setdefault(str(sub_name), len(name_to_id) + 1)
        return Doc(text=text, label=RARE, subclass=sid, features=feats)
    if label == MAJORITY:
        if sub_name is not None:
            raise CorpusError(f"line {lineno}: majority doc carries subclass")
        return Doc(text=text, label=MAJORITY, features=feats)
    raise CorpusError(f"line {lineno}: label must be 'rare' or 'majority', got {label!r}")


def load_corpus(path, format: str = "jsonl", corpus_id: str = "") -> LabeledCorpus:
    """Load a corpus from jsonl or csv; subclass names get ids 1..K in first-appearance order."""
    name_to_id: dict[str, int] = {}
    docs: list[Doc] = []
    d = None                                     # length of the first features row

    def add(rec, lineno: int) -> None:
        nonlocal d
        doc = _record_to_doc(rec, lineno, name_to_id)
        if doc.features is not None:
            if d is None:
                d = len(doc.features)
            elif len(doc.features) != d:
                raise CorpusError(
                    f"line {lineno}: feature dimension {len(doc.features)} != {d} of the first features row")
        docs.append(doc)

    if format == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"line {lineno}: invalid json ({exc.msg})") from exc
                add(rec, lineno)
    elif format == "csv":
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            for lineno, row in enumerate(reader, start=2):
                add(row, lineno)
    else:
        raise CorpusError(f"unknown format {format!r}")
    if not docs:
        raise CorpusError("empty corpus")
    K = len(name_to_id)
    names = tuple(sorted(name_to_id, key=name_to_id.get))
    return LabeledCorpus(docs=tuple(docs), K=K, id=corpus_id or str(path), subclass_names=names)


def save_corpus(corpus: LabeledCorpus, path) -> None:
    """Write a corpus back to jsonl (inverse of load_corpus for the jsonl format)."""
    names = corpus.subclass_names or tuple(str(k) for k in range(1, corpus.K + 1))
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.docs:
            rec = {"text": doc.text, "label": doc.label}
            if doc.label == RARE:
                rec["subclass"] = names[doc.subclass - 1]
            if doc.features is not None:
                rec["features"] = [float(v) for v in doc.features]
            fh.write(json.dumps(rec) + "\n")


def split_protocol(corpus: LabeledCorpus, seed: int,
                   seen_fraction: float = 2.0 / 3.0,
                   train_fraction: float = 0.8) -> SplitResult:
    """Randomly hold out unseen subclasses and split the rest 80/20, deterministically per seed."""
    if corpus.K < 2:
        raise CorpusError("K < 2: cannot hold out an unseen subclass")
    if not (0 < seen_fraction < 1 and 0 < train_fraction < 1):
        raise ValueError("fractions must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    n_seen = int(np.floor(seen_fraction * corpus.K))
    n_seen = min(max(n_seen, 1), corpus.K - 1)  # always >=1 seen and >=1 unseen
    perm = rng.permutation(corpus.K) + 1
    seen = frozenset(int(k) for k in perm[:n_seen])
    unseen = frozenset(int(k) for k in perm[n_seen:])

    train: list[int] = []
    test_seen: list[int] = []
    test_unseen: list[int] = []
    for k in range(1, corpus.K + 1):
        idx = np.array(corpus.subclass_indices(k))
        if k in unseen:
            test_unseen.extend(int(i) for i in idx)
            continue
        idx = idx[rng.permutation(len(idx))]
        n_train = int(np.floor(train_fraction * len(idx)))
        train.extend(int(i) for i in idx[:n_train])
        test_seen.extend(int(i) for i in idx[n_train:])

    maj = np.array(corpus.majority_indices())
    maj = maj[rng.permutation(len(maj))]
    n_train = int(np.floor(train_fraction * len(maj)))
    train.extend(int(i) for i in maj[:n_train])
    test_majority = [int(i) for i in maj[n_train:]]

    return SplitResult(
        train=tuple(sorted(train)),
        test_seen=tuple(sorted(test_seen)),
        test_unseen=tuple(sorted(test_unseen)),
        test_majority=tuple(sorted(test_majority)),
        seen_subclasses=seen,
        unseen_subclasses=unseen,
        seed=seed,
    )


def gen_synthetic(cfg: SyntheticConfig) -> LabeledCorpus:
    """Generate a numeric-feature corpus: subclasses around distinct centers, majority around origin.

    All rare centers share a common "rare direction" (axis 0) so that a general
    rare-vs-majority boundary exists that transfers to held-out subclasses;
    each subclass additionally has its own direction in the remaining axes.
    Center norms equal cfg.subclass_separation. collinearity_groups duplicate a
    group's first column into the others (plus small noise) to force
    multi-collinearity.
    """
    rng = np.random.default_rng(cfg.seed)
    d, K = cfg.d, cfg.K_total
    s = cfg.subclass_separation

    shared = np.zeros(d)
    shared[0] = 1.0
    centers = np.zeros((K, d))
    for k in range(K):
        u = rng.standard_normal(d)
        u[0] = 0.0
        norm = np.linalg.norm(u)
        if norm > 0:
            u /= norm
        centers[k] = (s / np.sqrt(2.0)) * (shared + u)

    rows = []
    labels = []
    subs = []
    for k in range(K):
        pts = centers[k] + cfg.noise_scale * rng.standard_normal((cfg.docs_per_subclass, d))
        rows.append(pts)
        labels += [RARE] * cfg.docs_per_subclass
        subs += [k + 1] * cfg.docs_per_subclass
    pts = cfg.noise_scale * rng.standard_normal((cfg.majority_docs, d))
    rows.append(pts)
    labels += [MAJORITY] * cfg.majority_docs
    subs += [None] * cfg.majority_docs
    X = np.vstack(rows)

    if cfg.collinearity_groups:
        for group in cfg.collinearity_groups:
            base = group[0]
            for col in group[1:]:
                X[:, col] = X[:, base] + 0.01 * cfg.noise_scale * rng.standard_normal(len(X))

    docs = tuple(
        Doc(text="", label=lab, subclass=sub, features=X[i].copy())
        for i, (lab, sub) in enumerate(zip(labels, subs))
    )
    names = tuple(f"synthetic-{k}" for k in range(1, K + 1))
    return LabeledCorpus(docs=docs, K=K, id=f"synthetic-seed{cfg.seed}", subclass_names=names)
