"""Stream-time decision flow (majority filter -> specialized argmax-with-reject)
and model persistence."""

from __future__ import annotations

import contextlib
import json
import sys
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .dataset import CorpusError, atomic_write, check_features, decode_json, record_text
from .errors import DataError
from .featurize import PcaProjection, TermCounts, Vocabulary, count_terms, tfidf_transform
from .objective import ModelParams
from .rejection import EVT_POT, PERCENTILE, RejectionThresholds, TailFit

MAJORITY = "Majority"
KNOWN = "Known"
EMERGING = "Emerging"

MODEL_VERSION = 1


class ModelDocumentError(DataError):
    pass


@dataclass(frozen=True, slots=True)
class Decision:
    verdict: str                     # "Majority" | "Known" | "Emerging"
    subclass: int | None             # set iff verdict == Known
    gc_score: float
    sc_scores: np.ndarray | None     # present iff verdict != Majority

    def to_json(self, index: int) -> dict:
        rec = {"index": index, "verdict": self.verdict, "gc_score": self.gc_score}
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


@dataclass(frozen=True)
class ModelDocument:
    d: int
    K: int
    params: ModelParams
    thresholds: RejectionThresholds
    representation: MappingProxyType  # {"kind": "tfidf"|"pca"|"raw", ...}: a dict, kept as a read-only copy
    subclass_names: tuple[str, ...]
    vocab: Vocabulary | None = None
    projection: PcaProjection | None = None

    def __post_init__(self):
        if self.params.d != self.d or self.params.K != self.K:
            raise ModelDocumentError(
                f"params shape ({self.params.K}x{self.params.d}) inconsistent with d={self.d}, K={self.K}")
        if self.thresholds.K != self.K:
            raise ModelDocumentError(
                f"thresholds count {self.thresholds.K} inconsistent with K={self.K}")
        if len(self.subclass_names) != self.K:
            raise ModelDocumentError(
                f"subclass_names count {len(self.subclass_names)} inconsistent with K={self.K}")
        kind = self.representation.get("kind") if isinstance(self.representation, (dict, MappingProxyType)) else None
        if kind not in ("raw", "tfidf", "pca"):
            raise ModelDocumentError(f"unknown representation {self.representation!r}")
        object.__setattr__(self, "representation", MappingProxyType(dict(self.representation)))
        if kind != "raw" and self.vocab is None:
            raise ModelDocumentError(f"{kind} model document has no vocabulary")
        if kind == "pca" and self.projection is None:
            raise ModelDocumentError("pca model document has no projection")
        if kind != "pca" and "rank" in self.representation:
            raise ModelDocumentError(f"'representation.rank' is not a key of a {kind} model")
        # a part the kind ignores would be dropped unread, so a file that carries one is refused
        if kind == "raw" and self.vocab is not None:
            raise ModelDocumentError("'vocab' must be null in a raw model")
        if kind != "pca" and self.projection is not None:
            raise ModelDocumentError(f"'projection' must be null in a {kind} model")
        if self.representation.get("d", self.d) != self.d:
            raise ModelDocumentError(
                f"'representation.d' {self.representation['d']} inconsistent with d={self.d}")
        if kind == "tfidf" and self.vocab.d != self.d:
            raise ModelDocumentError(f"vocabulary size {self.vocab.d} inconsistent with d={self.d}")
        proj = self.projection
        if kind == "pca":
            if proj.components.shape != (self.d, len(proj.mean)):
                raise ModelDocumentError(
                    f"projection components {proj.components.shape} inconsistent with "
                    f"d={self.d} and mean length {len(proj.mean)}")
            if proj.explained_variance.shape != (proj.rank,):
                raise ModelDocumentError(
                    f"projection explained_variance {proj.explained_variance.shape} inconsistent with rank {proj.rank}")
            if len(proj.mean) != self.vocab.d:
                raise ModelDocumentError(
                    f"projection mean length {len(proj.mean)} inconsistent with vocabulary size {self.vocab.d}")
            if self.representation.get("rank", proj.rank) != proj.rank:
                raise ModelDocumentError(f"'representation.rank' {self.representation['rank']} "
                                         f"inconsistent with projection rank {proj.rank}")

    def check_record(self, rec) -> None:
        """Raise ModelDocumentError unless rec is a stream record this model can featurize:
        an object with a `features` list of d numbers, or else a `text` (see
        dataset.record_text) when the model has a text representation."""
        if not isinstance(rec, dict):
            raise ModelDocumentError("record is not a JSON object")
        if "features" not in rec and self.representation["kind"] == "raw":
            raise ModelDocumentError("raw-representation model requires 'features' records")
        try:
            if "features" not in rec:
                record_text(rec)
                return
            check_features(rec["features"])
        except CorpusError as exc:
            raise ModelDocumentError(str(exc)) from None
        if len(rec["features"]) != self.d:
            raise ModelDocumentError(f"feature dimension {len(rec['features'])} != model d {self.d}")

    def featurize(self, records: list[dict]) -> np.ndarray:
        """Map stream records to an (n, d) array, choosing per record: its own
        `features` when it has them, else its `text` through the model's
        representation. Records are expected to pass check_record."""
        rows = [r["features"] for r in records if "features" in r]
        if len(rows) < len(records) and self.representation["kind"] == "raw":
            raise ModelDocumentError("raw-representation model requires 'features' records")
        try:
            F = np.array(rows, dtype=np.float64).reshape(len(rows), -1) if rows else np.empty((0, self.d))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelDocumentError(f"malformed 'features' record: {exc}") from exc
        if F.shape[1] != self.d:
            raise ModelDocumentError(f"feature dimension {F.shape[1]} != model d {self.d}")
        if len(rows) == len(records):
            return F
        is_text = np.array(["features" not in r for r in records])
        X = np.empty((len(records), self.d))
        X[~is_text] = F
        X[is_text] = self.text_features(count_terms([record_text(r) for r in records if "features" not in r]))
        return X

    def text_features(self, counts: TermCounts) -> np.ndarray:
        """The model's text representation (tf-idf, then the projection) of counted documents,
        each row projected on its own: the same bits in any chunk, where one BLAS product
        over the rows sums in an order that depends on the row count."""
        X, proj = tfidf_transform(counts, self.vocab), self.projection
        if proj is not None:
            X -= proj.mean
            X = (X[:, None, :] @ proj.components.T)[:, 0, :]
        return X


def predict_stream(model: ModelDocument, X: np.ndarray | list) -> tuple[list[Decision], StreamStats]:
    """Route each row of an (n, d) array, or of a list of equally long rows: one
    Decision per row, in order, plus counters over the rows. One GC product for
    all rows, SC scores only for the rows the GC does not filter out as majority
    (gc <= 0; a NaN score is not filtered), then argmax-with-reject over the SCs:
    a score at its threshold accepts, and ties go to the smallest subclass id."""
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
    ids, counts = np.unique(subclass[known], return_counts=True)
    stats = StreamStats(majority=len(X) - len(rows), known=dict(zip(ids.tolist(), counts.tolist())),
                        emerging=len(rows) - int(np.count_nonzero(known)), sc_evaluations=len(rows))
    return decisions, stats


# The model file is one JSON object, laid out by DOCUMENT_JSON below and
# written in its key order. Each key has a rule, a function (value, key) that
# reads the parsed JSON value into the model's value. It checks the value
# exactly (an int is not a bool or a float; a number is a finite int or float,
# never a bool) and refuses anything else with a ModelDocumentError naming the key.


def _refuse(key: str, problem: str, *got):
    raise ModelDocumentError(f"corrupt model document: {repr(key) if key else 'the document'} {problem}"
                             + (f" (got {repr(got[0])[:40]})" if got else ""))


def _leaf(problem: str, parse):
    """The rule for a value that parse turns into the model's value, or into None when it does not fit."""
    def read(value, key=""):
        parsed = parse(value)
        if parsed is None:
            _refuse(key, problem, value)
        return parsed
    return read


def _array(ndim: int):
    """The parse of a list of finite numbers (ndim 1), or of equally long such lists (ndim 2)."""
    def parse(value):
        # ValueError: check_features's CorpusError, or rows of unequal length
        with contextlib.suppress(ValueError):
            for row in (value if ndim == 2 and type(value) is list else [value]):
                check_features(row)
            array = np.array(value, dtype=np.float64)
            if array.ndim == ndim and np.isfinite(array).all():
                return array
    return parse


def _list(item):
    """The rule for a list whose items follow the item rule, read as a tuple."""
    def read(value, key=""):
        if type(value) is not list:
            _refuse(key, "is not a list", value)
        return tuple(item(v, f"{key}[{i}]") for i, v in enumerate(value))
    return read


class _Object:
    """The rule for an object with exactly the keys of `fields`, all present but
    the `optional` ones, read as cls(**values), or as None from null when
    `nullable`. A key whose rule is an int is a format version: it must hold
    that int, and it is written but not passed to cls."""

    def __init__(self, cls, fields: dict, optional=(), nullable=False, problem="is not an object"):
        self.cls, self.fields, self.optional = cls, fields, optional
        self.nullable, self.problem = nullable, problem

    def __call__(self, value, key=""):
        if value is None and self.nullable:
            return None
        if type(value) is not dict:
            _refuse(key, self.problem, value)
        path = f"{key}." if key else ""
        for name in sorted(value.keys() - self.fields.keys()):
            _refuse(path + name, "is not a key of the model file")
        values = {}
        for name, rule in self.fields.items():
            if name not in value:
                if name not in self.optional:
                    _refuse(path + name, "is missing")
            elif not isinstance(rule, int):
                values[name] = rule(value[name], path + name)
            elif type(value[name]) is not int or value[name] != rule:
                _refuse(path + name, f"is not version {rule}", value[name])
        return self.cls(**values)

    def encode(self, value) -> dict:
        return {name: rule if isinstance(rule, int) else getattr(value, name)
                for name, rule in self.fields.items()}


INT = _leaf("is not an int", lambda v: v if type(v) is int else None)
BOOL = _leaf("is not a bool", lambda v: v if type(v) is bool else None)
STRING = _leaf("is not a string", lambda v: v if type(v) is str else None)
# the bound is false for NaN, the infinities and ints beyond the float range
NUMBER = _leaf("is not a finite number",
               lambda v: float(v) if type(v) in (int, float) and abs(v) <= sys.float_info.max else None)
VECTOR = _leaf("is not a list of numbers, or has a non-finite one", _array(1))
MATRIX = _leaf("is not a list of equally long lists of numbers, or has a non-finite one", _array(2))

PARAMS_JSON = _Object(ModelParams, {"w0": VECTOR, "b0": NUMBER, "W": MATRIX, "b": VECTOR})
TAIL_FIT_JSON = _Object(TailFit, {"shape": NUMBER, "scale": NUMBER, "anchor": NUMBER}, nullable=True)
THRESHOLDS_JSON = _Object(RejectionThresholds, {
    "t": VECTOR,
    "method": _leaf(f"is not {EVT_POT!r} or {PERCENTILE!r}",
                    lambda v: v if v in (EVT_POT, PERCENTILE) else None),
    "q": NUMBER,
    "fitted_tail_params": _list(TAIL_FIT_JSON),
    "fallback": _list(BOOL)})
REPRESENTATION_JSON = _Object(dict, {
    "kind": _leaf("is an unknown representation", lambda v: v if v in ("raw", "tfidf", "pca") else None),
    "d": INT,                                    # raw
    "rank": INT,                                 # pca
}, optional=("d", "rank"), problem="is an unknown representation")
VOCABULARY_JSON = _Object(Vocabulary, {
    "version": 1, "terms": _list(STRING), "df": _list(INT), "n_docs_fitted": INT}, nullable=True)
PROJECTION_JSON = _Object(PcaProjection, {
    "version": 1, "mean": VECTOR, "components": MATRIX, "explained_variance": VECTOR,
    "truncated": BOOL}, nullable=True)
DOCUMENT_JSON = _Object(ModelDocument, {
    "version": MODEL_VERSION, "d": INT, "K": INT, "params": PARAMS_JSON, "thresholds": THRESHOLDS_JSON,
    "representation": REPRESENTATION_JSON, "subclass_names": _list(STRING),
    "vocab": VOCABULARY_JSON, "projection": PROJECTION_JSON})
_BY_CLASS = {rule.cls: rule for rule in (PARAMS_JSON, TAIL_FIT_JSON, THRESHOLDS_JSON, VOCABULARY_JSON,
                                         PROJECTION_JSON, DOCUMENT_JSON)}


def model_json(value) -> str:
    """The model file's JSON text of a ModelDocument or of one of its parts, each
    object laid out by its rule above. Floats round-trip bit-exactly via repr."""
    def default(part):               # what json cannot write itself
        if isinstance(part, MappingProxyType):
            return dict(part)
        return part.tolist() if isinstance(part, np.ndarray) else _BY_CLASS[type(part)].encode(part)
    try:
        return json.dumps(value, default=default, allow_nan=False)
    except ValueError as exc:
        raise ModelDocumentError(f"model document has a non-finite value: {exc}") from exc


def save(model: ModelDocument, path) -> None:
    """Write the model file, atomically."""
    atomic_write(path, model_json(model))


def load(path) -> ModelDocument:
    """Read a model file through DOCUMENT_JSON. A key that is missing, unknown,
    of another JSON type or shape, or inconsistent with the others is a
    ModelDocumentError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return DOCUMENT_JSON(decode_json(fh.read()))
    except ModelDocumentError:
        raise
    # not UTF-8 or JSON, a repeated key, or a check of ModelParams, RejectionThresholds, Vocabulary
    except ValueError as exc:
        raise ModelDocumentError(f"corrupt model document: {exc}") from exc
