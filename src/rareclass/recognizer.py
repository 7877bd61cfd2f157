"""Stream-time decision flow (majority filter -> specialized argmax-with-reject)
and model persistence."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .dataset import CorpusError, check_features
from .featurize import (PcaProjection, TermCounts, Vocabulary, count_terms, pca_transform,
                        tfidf_transform)
from .objective import ModelParams
from .rejection import RejectionThresholds

MAJORITY = "Majority"
KNOWN = "Known"
EMERGING = "Emerging"

MODEL_VERSION = 1


class ModelDocumentError(ValueError):
    pass


@dataclass(frozen=True)
class Decision:
    verdict: str                     # "Majority" | "Known" | "Emerging"
    subclass: int | None             # set iff verdict == Known
    gc_score: float
    sc_scores: np.ndarray | None     # present iff verdict != Majority

    def to_json(self, index: int | None = None) -> dict:
        rec = {"verdict": self.verdict, "gc_score": self.gc_score}
        if index is not None:
            rec = {"index": index, **rec}
        if self.verdict == KNOWN:
            rec["subclass"] = self.subclass
        return rec


@dataclass
class StreamStats:
    majority: int = 0
    known: dict[int, int] = field(default_factory=dict)
    emerging: int = 0
    sc_evaluations: int = 0

    @property
    def total(self) -> int:
        return self.majority + sum(self.known.values()) + self.emerging

    def merge(self, other: "StreamStats") -> None:
        """Add another stream's counters to these."""
        self.majority += other.majority
        self.emerging += other.emerging
        self.sc_evaluations += other.sc_evaluations
        for k, count in other.known.items():
            self.known[k] = self.known.get(k, 0) + count


@dataclass
class ModelDocument:
    version: int
    d: int
    K: int
    params: ModelParams
    thresholds: RejectionThresholds
    representation: dict             # {"kind": "tfidf"|"pca"|"raw", ...}
    subclass_names: tuple[str, ...]
    vocab: Vocabulary | None = None
    projection: PcaProjection | None = None

    def __post_init__(self):
        if self.version != MODEL_VERSION:
            raise ModelDocumentError(f"unsupported model version {self.version}")
        if self.params.d != self.d or self.params.K != self.K:
            raise ModelDocumentError(
                f"params shape ({self.params.K}x{self.params.d}) inconsistent with d={self.d}, K={self.K}")
        if self.thresholds.K != self.K:
            raise ModelDocumentError(
                f"thresholds count {self.thresholds.K} inconsistent with K={self.K}")
        if len(self.subclass_names) != self.K:
            raise ModelDocumentError(
                f"subclass_names count {len(self.subclass_names)} inconsistent with K={self.K}")
        kind = self.representation.get("kind") if isinstance(self.representation, dict) else None
        if kind not in ("raw", "tfidf", "pca"):
            raise ModelDocumentError(f"unknown representation {self.representation!r}")
        if kind == "tfidf" and self.vocab is not None and self.vocab.d != self.d:
            raise ModelDocumentError(f"vocabulary size {self.vocab.d} inconsistent with d={self.d}")
        proj = self.projection
        if kind == "pca" and proj is not None:
            if proj.components.shape != (self.d, len(proj.mean)):
                raise ModelDocumentError(
                    f"projection components {proj.components.shape} inconsistent with "
                    f"d={self.d} and mean length {len(proj.mean)}")
            if self.vocab is not None and len(proj.mean) != self.vocab.d:
                raise ModelDocumentError(
                    f"projection mean length {len(proj.mean)} inconsistent with vocabulary size {self.vocab.d}")
            if not (np.all(np.isfinite(proj.mean)) and np.all(np.isfinite(proj.components))):
                raise ModelDocumentError("projection has non-finite feature values")

    def check_record(self, rec) -> None:
        """Raise ModelDocumentError unless rec is a stream record this model can featurize:
        an object with a `features` list of d numbers, or else a `text` string
        (absent means empty) when the model has a text representation."""
        if not isinstance(rec, dict):
            raise ModelDocumentError("record is not a JSON object")
        if "features" not in rec:
            if self.representation["kind"] == "raw":
                raise ModelDocumentError("raw-representation model requires 'features' records")
            if not isinstance(rec.get("text", ""), str):
                raise ModelDocumentError("'text' is not a string")
            return
        f = rec["features"]
        try:
            check_features(f)
        except CorpusError as exc:
            raise ModelDocumentError(str(exc)) from None
        if len(f) != self.d:
            raise ModelDocumentError(f"feature dimension {len(f)} != model d {self.d}")

    def featurize(self, records: list[dict]) -> np.ndarray:
        """Map stream records to an (n, d) array, choosing per record: its own
        `features` when it has them, else its `text` through the model's
        representation. Records are expected to pass check_record."""
        n = len(records)
        text_rows = [i for i, r in enumerate(records) if "features" not in r]
        if not text_rows:
            return self._features([r["features"] for r in records]) if n else np.empty((0, self.d))
        if self.representation["kind"] == "raw":
            raise ModelDocumentError("raw-representation model requires 'features' records")
        X = np.empty((n, self.d))
        if len(text_rows) < n:
            feature_rows = [i for i, r in enumerate(records) if "features" in r]
            X[feature_rows] = self._features([records[i]["features"] for i in feature_rows])
        X[text_rows] = self.text_features(count_terms([records[i].get("text", "") for i in text_rows]))
        return X

    def text_features(self, counts: TermCounts) -> np.ndarray:
        """The model's text representation (tf-idf, then the PCA projection for
        a pca model) of counted documents."""
        T = tfidf_transform(counts, self.vocab)
        return pca_transform(T, self.projection) if self.representation["kind"] == "pca" else T

    def _features(self, rows: list) -> np.ndarray:
        try:
            X = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelDocumentError(f"malformed 'features' record: {exc}") from exc
        if X.shape[1] != self.d:
            raise ModelDocumentError(f"feature dimension {X.shape[1]} != model d {self.d}")
        return X


def predict_batch(model: ModelDocument, X: np.ndarray,
                  stats: StreamStats | None = None) -> list[Decision]:
    """Route each row of X: one GC product for all rows, SC scores only for the
    rows the GC does not filter out as majority (gc <= 0; a NaN score is not
    filtered), then argmax-with-reject over the SCs: a score at its threshold
    accepts, and ties go to the smallest subclass id."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise ModelDocumentError(f"input dimension {X.shape[1:]} != ({model.d},)")
    p = model.params
    # einsum rather than BLAS: a row's scores are then the same bits in any
    # chunk, where a BLAS product's summation order depends on the row count
    gc = np.einsum("ij,j->i", X, p.w0) + p.b0
    rows = np.flatnonzero(~(gc <= 0))
    S = np.einsum("ij,kj->ik", X[rows], p.W) + p.b
    accept = S >= model.thresholds.t
    known = accept.any(axis=1)
    # argmax returns the first maximum, so ties go to the smallest id
    subclass = np.where(known, np.argmax(np.where(accept, S, -np.inf), axis=1) + 1, 0)

    gc_scores = gc.tolist()
    decisions = [Decision(MAJORITY, None, g, None) for g in gc_scores]
    for j, (i, k) in enumerate(zip(rows.tolist(), subclass.tolist())):
        decisions[i] = (Decision(KNOWN, k, gc_scores[i], S[j]) if k
                        else Decision(EMERGING, None, gc_scores[i], S[j]))
    if stats is not None:
        stats.majority += len(X) - len(rows)
        stats.sc_evaluations += len(rows)
        stats.emerging += len(rows) - int(np.count_nonzero(known))
        for k, count in zip(*np.unique(subclass[known], return_counts=True)):
            stats.known[int(k)] = stats.known.get(int(k), 0) + int(count)
    return decisions


def predict(model: ModelDocument, x: np.ndarray,
            stats: StreamStats | None = None) -> Decision:
    """Route one input; see predict_batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.d,):
        raise ModelDocumentError(f"input dimension {x.shape} != ({model.d},)")
    return predict_batch(model, x[None, :], stats)[0]


def predict_stream(model: ModelDocument,
                   source: Iterable[np.ndarray] | np.ndarray) -> tuple[list[Decision], StreamStats]:
    """One Decision per input, in order, plus counters over the whole stream.
    A 2-D array is routed as it is; any other source is read row by row."""
    if not (isinstance(source, np.ndarray) and source.ndim == 2):
        source = _stack_rows(model, source)
    stats = StreamStats()
    return predict_batch(model, source, stats), stats


def _stack_rows(model: ModelDocument, source: Iterable[np.ndarray]) -> np.ndarray:
    rows = []
    for i, x in enumerate(source):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (model.d,):
            raise ModelDocumentError(f"item {i}: input dimension {x.shape} != ({model.d},)")
        rows.append(x)
    return np.stack(rows) if rows else np.empty((0, model.d))


@contextlib.contextmanager
def atomic_open(path):
    """A text file that replaces `path` when the block ends and is deleted if the block raises."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
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


def save(model: ModelDocument, path) -> None:
    """Serialize to versioned JSON; floats round-trip bit-exactly via repr."""
    doc = {
        "version": model.version,
        "d": model.d,
        "K": model.K,
        "params": {
            "w0": model.params.w0.tolist(),
            "b0": model.params.b0,
            "W": model.params.W.tolist(),
            "b": model.params.b.tolist(),
        },
        "thresholds": model.thresholds.to_json(),
        "representation": model.representation,
        "subclass_names": list(model.subclass_names),
        "vocab": model.vocab.to_json() if model.vocab is not None else None,
        "projection": model.projection.to_json() if model.projection is not None else None,
    }
    try:
        payload = json.dumps(doc, allow_nan=False)
    except ValueError as exc:
        raise ModelDocumentError(f"model document has a non-finite value: {exc}") from exc
    atomic_write(path, payload)


def load(path) -> ModelDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelDocumentError(f"corrupt model document: {exc.msg}") from exc
    try:
        params = ModelParams(
            w0=np.asarray(doc["params"]["w0"], dtype=np.float64),
            b0=float(doc["params"]["b0"]),
            W=np.asarray(doc["params"]["W"], dtype=np.float64).reshape(doc["K"], doc["d"]),
            b=np.asarray(doc["params"]["b"], dtype=np.float64),
        )
        model = ModelDocument(
            version=int(doc["version"]),
            d=int(doc["d"]),
            K=int(doc["K"]),
            params=params,
            thresholds=RejectionThresholds.from_json(doc["thresholds"]),
            representation=doc["representation"],
            subclass_names=tuple(doc["subclass_names"]),
            vocab=Vocabulary.from_json(doc["vocab"]) if doc.get("vocab") else None,
            projection=PcaProjection.from_json(doc["projection"]) if doc.get("projection") else None,
        )
    except ModelDocumentError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelDocumentError(f"corrupt model document: {exc}") from exc
    # a text model built in code may get its vocabulary later; a file must carry it
    kind = model.representation["kind"]
    if kind != "raw" and model.vocab is None:
        raise ModelDocumentError(f"{kind} model document has no vocabulary")
    if kind == "pca" and model.projection is None:
        raise ModelDocumentError("pca model document has no projection")
    return model
