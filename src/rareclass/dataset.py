"""Corpus data model, ingestion, split protocol and synthetic generation."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import stat
import tempfile
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import pool
from .errors import DataError
from .featurize import TermCounts, count_terms

RARE = "rare"
MAJORITY = "majority"
SEEN_FRACTION = 2.0 / 3.0   # of the subclasses that a split keeps seen
TRAIN_FRACTION = 0.8        # of each seen subclass, and of the majority, that a split trains on


class CorpusError(DataError):
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


def _numbered(fh, path):
    """(line number from 1, line) for every line of the text file fh; a file
    that is not UTF-8 is a CorpusError naming `path`, met where fh decodes it."""
    try:
        yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path} is not UTF-8 text ({exc.reason})") from exc


def _non_blank(fh, path):
    """_numbered's pairs whose line is not blank."""
    return ((lineno, line) for lineno, line in _numbered(fh, path) if line.strip())


def _spans(fh, path):
    """(line number, byte offset, byte length) of each non-blank line of fh, a
    UTF-8 text file read with newline="" so that each line keeps its own ending
    and its length in bytes is exact."""
    at = 0
    for lineno, line in _numbered(fh, path):
        length = len(line) if line.isascii() else len(line.encode())
        if line.strip():
            yield lineno, at, length
        at += length


def _read_spans(fn, fd: int, spans: list):
    """fn over the (line number, line) pairs a chunk of `_spans` stands for, read
    from the file descriptor fd without moving its offset. Each line ends as a
    text file reads it: a CR or CRLF ending reads as LF."""
    start = spans[0][1]
    data = memoryview(os.pread(fd, spans[-1][1] + spans[-1][2] - start, start))
    pairs = []
    for lineno, at, length in spans:
        line = str(data[at - start:at - start + length], "utf-8")
        pairs.append((lineno, line.rstrip("\r\n") + "\n" if line.endswith(("\r", "\r\n")) else line))
    return fn(pairs)


@contextlib.contextmanager
def map_lines(fn, path, size: int, weigh: bool = False):
    """`pool.map_chunks` of fn over the (line number, line) pairs of the non-blank
    lines of the UTF-8 text file at `path`, `size` lines to a chunk, or with `weigh`
    `size` characters. When the input is a regular file that may hold more than one
    chunk and this process may use more than one CPU, this process reads only
    each line's span and each chunk's mapper reads its lines from the file (a
    weighed chunk is then `size` bytes), so no chunk's text is held or pickled
    here. A pipe, which cannot be read twice, and a process allowed one CPU hand
    the mapper lines read here."""
    with open(path, "rb") as raw:
        info = os.fstat(raw.fileno())
        by_span = (stat.S_ISREG(info.st_mode) and not (weigh and info.st_size <= size)
                   and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1)
        with io.TextIOWrapper(raw, encoding="utf-8", newline="" if by_span else None) as fh:
            if by_span:
                items, fn = _spans(fh, path), functools.partial(_read_spans, fn, raw.fileno())
            else:
                items = _non_blank(fh, path)
            weight = (lambda item: item[2] if by_span else len(item[1])) if weigh else (lambda item: 1)
            with pool.map_chunks(fn, items, size, weight) as mapped:
                yield mapped


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key it repeats (json.loads keeps its last value) is a ValueError naming it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return obj


# every input rareclass reads (corpus and stream records, model files, config files) is decoded by it
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def decode_json(text: str):
    """json.loads(text), with a repeated key refused (_unique_keys)."""
    if text.startswith("\ufeff"):                 # json.loads's own refusal
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _DECODER.decode(text)


def parse_line(lineno: int, line: str):
    """One jsonl record; a line that is not JSON, or repeats a key, is a CorpusError naming it."""
    try:
        return decode_json(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"line {lineno}: invalid json ({exc.msg})") from exc
    except ValueError as exc:                     # a repeated key
        raise CorpusError(f"line {lineno}: {exc}") from exc


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


# characters of jsonl lines one process parses at a time (bytes, on map_lines's span path)
CORPUS_CHUNK = 2 << 20


def _check_chunk(chunk: list):
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
            text, label, name, features = _record_fields(lineno, parse_line(lineno, line))
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


def load_corpus(path) -> LabeledCorpus:
    """Load a jsonl corpus; subclass names get ids 1..K in first-appearance order.
    A file of more than one chunk is parsed on every CPU this process may use, each
    process reading its chunk's lines from the file unless the file is a pipe (map_lines)."""
    with map_lines(_check_chunk, path, CORPUS_CHUNK, weigh=True) as (results, _):
        docs, lines, names, features = _gather(results)
    return LabeledCorpus(docs=tuple(docs), K=len(names), id=str(path),
                         subclass_names=names, lines=tuple(lines), features=features)


@contextlib.contextmanager
def atomic_open(path):
    """A text file that replaces `path` when the block ends and is deleted if the block raises."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:                  # named by the path asked for, not the temporary file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path, payload: str) -> None:
    with atomic_open(path) as fh:
        fh.write(payload)


def save_corpus(corpus: LabeledCorpus, path) -> None:
    """Write a corpus back to jsonl (the inverse of load_corpus), as
    strict JSON: a non-finite feature is a CorpusError naming its doc, and nothing is written."""
    names = corpus.subclass_names or tuple(str(k) for k in range(1, corpus.K + 1))
    with atomic_open(path) as fh:
        for i, doc in enumerate(corpus.docs):
            rec = {"text": doc.text, "label": doc.label}
            if doc.label == RARE:
                rec["subclass"] = names[doc.subclass - 1]
            if doc.features is not None:
                rec["features"] = [float(v) for v in doc.features]
            try:
                fh.write(json.dumps(rec, allow_nan=False) + "\n")
            except ValueError:              # only a feature can be non-finite
                raise CorpusError(f"doc {i}: 'features' has a non-finite entry") from None


def split_protocol(corpus: LabeledCorpus, seed: int) -> SplitResult:
    """Randomly hold out unseen subclasses and split the rest 80/20, deterministically per seed."""
    if corpus.K < 2:
        raise CorpusError("K < 2: cannot hold out an unseen subclass")
    rng = np.random.default_rng(seed)
    n_seen = int(np.floor(SEEN_FRACTION * corpus.K))
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
        n_train = int(np.floor(TRAIN_FRACTION * len(idx)))
        train.extend(int(i) for i in idx[:n_train])
        test_seen.extend(int(i) for i in idx[n_train:])

    maj = np.array(corpus.majority_indices())
    maj = maj[rng.permutation(len(maj))]
    n_train = int(np.floor(TRAIN_FRACTION * len(maj)))
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
    multi-collinearity. A noise scale or separation whose features overflow is a CorpusError.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            X, labels, subs = _synthetic_rows(cfg)
    except FloatingPointError:
        raise CorpusError(f"the features overflow: noise_scale={cfg.noise_scale:g}, "
                          f"subclass_separation={cfg.subclass_separation:g}") from None
    X.flags.writeable = False
    docs = tuple(Doc(text="", label=lab, subclass=sub, features=row)
                 for lab, sub, row in zip(labels, subs, X))
    names = tuple(f"synthetic-{k}" for k in range(1, cfg.K_total + 1))
    return LabeledCorpus(docs=docs, K=cfg.K_total, id=f"synthetic-seed{cfg.seed}", subclass_names=names,
                         features=X)


def _synthetic_rows(cfg: SyntheticConfig) -> tuple[np.ndarray, list[str], list[int | None]]:
    """gen_synthetic's feature matrix, labels and subclass ids."""
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
    return X, labels, subs
