"""Corpus data model, ingestion, split protocol and synthetic generation."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import pool
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
    lines: tuple[int, ...] = ()     # each doc's line in the file it was read from, if it was
    # every doc's features as one read-only (n, d) matrix, which each Doc.features is a
    # row of; None for a corpus built Doc by Doc or with a doc that has no features
    features: np.ndarray | None = field(default=None, compare=False, repr=False)

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

    def feature_matrix(self, rows=None) -> np.ndarray:
        """The pre-built numeric features of the docs at `rows` (default: every doc),
        stacked; an error names the first of them that has none. For a corpus that
        holds its `features` matrix, every row in order is that read-only matrix
        itself, not a copy, and any other rows are a copy."""
        if self.features is not None:
            if rows is None:
                return self.features
            rows = np.asarray(rows, dtype=np.intp)
            in_order = len(rows) == self.n and np.array_equal(rows, np.arange(self.n))
            return self.features if in_order else self.features[rows]
        stacked = []
        for i in range(self.n) if rows is None else rows:
            features = self.docs[i].features
            if features is None:
                raise CorpusError(f"line {self.lines[i]}: doc has no pre-built features"
                                  if self.lines else f"doc {i} has no pre-built features")
            stacked.append(features)
        if not stacked:                                 # no rows: (0, d), as any other slice
            return self.feature_matrix()[:0]
        return np.array(stacked, dtype=np.float64)


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


def record_text(rec: dict) -> str:
    """A record's `text`: absent or null reads as ""; anything but a string is a CorpusError."""
    text = rec.get("text")
    if text is not None and not isinstance(text, str):
        raise CorpusError("'text' is not a string")
    return text or ""


def record_subclass(rec: dict) -> str | None:
    """A record's `subclass`: absent, null or "" is None; anything but a string is a CorpusError."""
    name = rec.get("subclass")
    if name is not None and not isinstance(name, str):
        raise CorpusError("'subclass' is not a string")
    return name or None


def read_lines(path):
    """(line number from 1, line) for each non-blank line of a text file; a
    file that is not UTF-8 is a CorpusError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path} is not UTF-8 text ({exc.reason})") from exc


def parse_line(lineno: int, line: str):
    """One jsonl record; a line that is not JSON is a CorpusError naming it."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"line {lineno}: invalid json ({exc.msg})") from exc


def read_jsonl(path):
    """(line number from 1, parsed record) for each non-blank line of a jsonl file."""
    for lineno, line in read_lines(path):
        yield lineno, parse_line(lineno, line)


def _record_fields(lineno: int, rec) -> tuple[str, str, str | None, list | None]:
    """A record's text, label, subclass name and `features` list, each checked;
    an error names the line."""
    try:
        if not isinstance(rec, dict):
            raise CorpusError("record is not a JSON object")
        text = record_text(rec)
        label = rec.get("label")
        name = record_subclass(rec)
        features = rec.get("features")
        if features is not None:
            check_features(features)
            if not all(map(math.isfinite, features)):
                raise CorpusError("'features' has a non-finite entry")
        if label == RARE and name is None:
            raise CorpusError("rare doc missing subclass")
        if label == MAJORITY and name is not None:
            raise CorpusError("majority doc carries subclass")
        if label not in (RARE, MAJORITY):
            raise CorpusError(f"label must be 'rare' or 'majority', got {label!r}")
    except CorpusError as exc:
        raise CorpusError(f"line {lineno}: {exc}") from None
    return text, label, name, features


# characters of jsonl lines one process parses at a time
CORPUS_CHUNK = 2 << 20


def _check_chunk(chunk: list, parse=parse_line):
    """Parse and check one chunk of (line number, line) pairs, up to its first bad
    record: ([(line number, text, label, subclass name, features length or None)],
    the float64 rows of its `features` as one block, the error or None). The block
    is None when those rows differ in length: one of them then differs from the
    file's first `features` row, which the caller reports before it reads the block.
    Each line is dropped from the chunk once parsed, so the chunk does not hold it."""
    records, rows, error = [], [], None
    chunk.reverse()
    while chunk:
        lineno, line = chunk.pop()
        try:
            text, label, name, features = _record_fields(lineno, parse(lineno, line))
        except CorpusError as exc:
            error = exc
            break
        records.append((lineno, text, label, name, None if features is None else len(features)))
        if features is not None:
            rows.append(features)
    block = np.array(rows, dtype=np.float64) if len(set(map(len, rows))) <= 1 else None
    return records, block, error


def _gather(results) -> tuple[list[Doc], list[int], tuple[str, ...], np.ndarray | None]:
    """(the docs, their line numbers, the subclass names in first-appearance order,
    the read-only matrix of every doc's features or None if a doc has none) from
    checked chunks in file order; the first error in the file is raised. Each
    Doc.features is a row of one matrix of the docs that have features."""
    name_to_id: dict[str, int] = {}
    records, blocks, d = [], [], None               # d: length of the first features row
    for chunk_records, block, error in results:
        for lineno, *_, length in chunk_records:
            if length is None:
                continue
            if d is None:
                d = length
            elif length != d:
                raise CorpusError(f"line {lineno}: feature dimension {length} != {d} "
                                  "of the first features row")
        if error is not None:
            raise error
        records += chunk_records
        if len(block):              # not None, as every length is d; empty with no features
            blocks.append(block)
    matrix, at = np.empty((sum(map(len, blocks)), d or 0)), 0
    blocks.reverse()
    while blocks:                   # each block goes once copied, so no two copies are held
        block = blocks.pop()
        matrix[at:at + len(block)] = block
        at += len(block)
    matrix.flags.writeable = False
    rows = iter(matrix)
    docs, lines = [], []
    for lineno, text, label, name, length in records:
        sid = name_to_id.setdefault(name, len(name_to_id) + 1) if label == RARE else None
        docs.append(Doc(text, label, sid, None if length is None else next(rows)))
        lines.append(lineno)
    names = tuple(sorted(name_to_id, key=name_to_id.get))
    return docs, lines, names, matrix if len(matrix) == len(docs) else None


def load_corpus(path, format: str = "jsonl", corpus_id: str = "") -> LabeledCorpus:
    """Load a corpus from jsonl or csv; subclass names get ids 1..K in first-appearance order.
    A jsonl file of more than one chunk is parsed on every CPU this process may use."""
    if format == "jsonl":
        chunks = pool.chunked(read_lines(path), CORPUS_CHUNK, weight=lambda pair: len(pair[1]))
        with pool.map_chunks(_check_chunk, chunks) as (results, _):
            docs, lines, names, features = _gather(results)
    elif format == "csv":
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(enumerate(csv.DictReader(fh), start=2))
            docs, lines, names, features = _gather([_check_chunk(rows, parse=lambda lineno, row: row)])
    else:
        raise CorpusError(f"unknown format {format!r}")
    if not docs:
        raise CorpusError("empty corpus")
    return LabeledCorpus(docs=tuple(docs), K=len(names), id=corpus_id or str(path),
                         subclass_names=names, lines=tuple(lines), features=features)


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

    X.flags.writeable = False
    docs = tuple(Doc(text="", label=lab, subclass=sub, features=row)
                 for lab, sub, row in zip(labels, subs, X))
    names = tuple(f"synthetic-{k}" for k in range(1, K + 1))
    return LabeledCorpus(docs=docs, K=K, id=f"synthetic-seed{cfg.seed}", subclass_names=names,
                         features=X)
