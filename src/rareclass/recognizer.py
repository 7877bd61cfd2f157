"""Stream-time decision flow (majority filter -> specialized argmax-with-reject)
and model persistence."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .featurize import PcaProjection, Vocabulary, tfidf_transform, pca_transform
from .objective import ModelParams
from .rejection import RejectionThresholds, accepts

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

    def featurize(self, records: list[dict]) -> np.ndarray:
        """Map stream records ({text} or {features}) to length-d arrays."""
        kind = self.representation["kind"]
        if all("features" in r for r in records):
            X = np.asarray([r["features"] for r in records], dtype=np.float64)
            if X.shape[1] != self.d:
                raise ModelDocumentError(f"feature dimension {X.shape[1]} != model d {self.d}")
            return X
        texts = [r.get("text", "") for r in records]
        if kind == "tfidf":
            return tfidf_transform(texts, self.vocab).values
        if kind == "pca":
            return pca_transform(tfidf_transform(texts, self.vocab).values, self.projection).values
        raise ModelDocumentError("raw-representation model requires 'features' records")


def predict(model: ModelDocument, x: np.ndarray,
            stats: StreamStats | None = None) -> Decision:
    """GC filter first; SCs are evaluated only when the GC score is positive."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.d,):
        raise ModelDocumentError(f"input dimension {x.shape} != ({model.d},)")
    p = model.params
    gc_score = float(p.w0 @ x + p.b0)
    if gc_score <= 0:
        if stats is not None:
            stats.majority += 1
        return Decision(verdict=MAJORITY, subclass=None, gc_score=gc_score, sc_scores=None)
    sc_scores = p.W @ x + p.b
    if stats is not None:
        stats.sc_evaluations += 1
    accepting = [k for k in range(1, model.K + 1)
                 if accepts(model.thresholds, k, float(sc_scores[k - 1]))]
    if not accepting:
        if stats is not None:
            stats.emerging += 1
        return Decision(verdict=EMERGING, subclass=None, gc_score=gc_score, sc_scores=sc_scores)
    # argmax over the accepting set; ties go to the smallest subclass id
    best = min(accepting, key=lambda k: (-sc_scores[k - 1], k))
    if stats is not None:
        stats.known[best] = stats.known.get(best, 0) + 1
    return Decision(verdict=KNOWN, subclass=best, gc_score=gc_score, sc_scores=sc_scores)


def predict_stream(model: ModelDocument,
                   source: Iterable[np.ndarray]) -> tuple[list[Decision], StreamStats]:
    """One Decision per input, in order, plus counters over the whole stream."""
    stats = StreamStats()
    decisions = []
    for i, x in enumerate(source):
        try:
            decisions.append(predict(model, x, stats=stats))
        except ModelDocumentError as exc:
            raise ModelDocumentError(f"item {i}: {exc}") from exc
    return decisions, stats


def _atomic_write(path, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    _atomic_write(path, payload)


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
        return ModelDocument(
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
