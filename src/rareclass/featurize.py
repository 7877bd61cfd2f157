"""Text featurization: TF-IDF over a capped vocabulary, plus linear PCA projection."""

from __future__ import annotations

import re
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

_TOKEN_RE = re.compile(r"[^a-zÀ-ɏ]+")

SERIALIZATION_VERSION = 1


class FeaturizeError(ValueError):
    pass


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphabetic characters, keep tokens of length >= 2."""
    return [t for t in _TOKEN_RE.split(text.lower()) if len(t) >= 2]


@dataclass(frozen=True)
class Vocabulary:
    terms: tuple[str, ...]
    df: tuple[int, ...]              # per-term document frequency over the fitted docs
    n_docs_fitted: int

    def __post_init__(self):
        if len(set(self.terms)) != len(self.terms):
            raise FeaturizeError("duplicate terms in vocabulary")
        for t, f in zip(self.terms, self.df):
            if not 1 <= f <= self.n_docs_fitted:
                raise FeaturizeError(f"df out of range for term {t!r}")

    @property
    def d(self) -> int:
        return len(self.terms)

    def index(self) -> dict[str, int]:
        return {t: j for j, t in enumerate(self.terms)}

    def to_json(self) -> dict:
        return {
            "version": SERIALIZATION_VERSION,
            "terms": list(self.terms),
            "df": list(self.df),
            "n_docs_fitted": self.n_docs_fitted,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Vocabulary":
        if obj.get("version") != SERIALIZATION_VERSION:
            raise FeaturizeError(f"unsupported vocabulary version {obj.get('version')}")
        return cls(terms=tuple(obj["terms"]), df=tuple(obj["df"]),
                   n_docs_fitted=int(obj["n_docs_fitted"]))


@dataclass(frozen=True)
class PcaProjection:
    mean: np.ndarray                 # length d
    components: np.ndarray           # r x d, orthonormal rows
    explained_variance: np.ndarray   # length r, non-increasing
    truncated: bool = False          # rank request exceeded the data rank

    @property
    def rank(self) -> int:
        return self.components.shape[0]

    def to_json(self) -> dict:
        return {
            "version": SERIALIZATION_VERSION,
            "mean": self.mean.tolist(),
            "components": self.components.tolist(),
            "explained_variance": self.explained_variance.tolist(),
            "truncated": self.truncated,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PcaProjection":
        if obj.get("version") != SERIALIZATION_VERSION:
            raise FeaturizeError(f"unsupported projection version {obj.get('version')}")
        return cls(mean=np.asarray(obj["mean"], dtype=np.float64),
                   components=np.asarray(obj["components"], dtype=np.float64),
                   explained_variance=np.asarray(obj["explained_variance"], dtype=np.float64),
                   truncated=bool(obj.get("truncated", False)))


@dataclass(frozen=True)
class TermCounts:
    """A doc x term count table in CSR form over the sorted set of its terms:
    row i holds the ids of its distinct terms, indices[indptr[i]:indptr[i+1]],
    with their counts. Its length is its document count."""
    terms: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def rows(self, rows) -> "TermCounts":
        """The table of the given rows, in that order, over the same terms."""
        rows = np.asarray(rows, dtype=np.intp)
        starts, lengths = self.indptr[rows], np.diff(self.indptr)[rows]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        pos = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return TermCounts(self.terms, indptr, self.indices[pos], self.counts[pos])

    def entries(self, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, vocabulary column, count) of each entry whose term is in vocab."""
        idx = vocab.index()
        col = np.array([idx.get(t, -1) for t in self.terms], dtype=np.intp)[self.indices]
        row = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        keep = col >= 0
        return row[keep], col[keep], self.counts[keep]


def count_terms(texts) -> TermCounts:
    """Tokenize each text once into a TermCounts table. Each text's counts are
    appended as it is read, so the corpus's tokens are never all held at once."""
    ids: dict[str, int] = {}                     # term -> id in first-appearance order
    indices, counts, lengths = array("i"), array("i"), array("q")
    for text in texts:
        row = Counter(tokenize(text))
        indices.extend([ids.setdefault(t, len(ids)) for t in row])
        counts.extend(row.values())
        lengths.append(len(row))
    terms = sorted(ids)
    sorted_id = np.empty(len(terms), dtype=np.int32)
    sorted_id[[ids[t] for t in terms]] = np.arange(len(terms))
    return TermCounts(tuple(terms), np.concatenate(([0], np.cumsum(lengths))),
                      sorted_id[np.asarray(indices)], np.asarray(counts))


def _as_counts(docs) -> TermCounts:
    return docs if isinstance(docs, TermCounts) else count_terms(docs)


def build_vocab(docs, top_n: int = 1000) -> Vocabulary:
    """Fit a vocabulary on training texts (or their TermCounts): top_n terms by
    total corpus frequency, ties lexicographic."""
    if not len(docs):
        raise FeaturizeError("empty training set")
    if top_n < 1:
        raise FeaturizeError("top_n must be >= 1")
    table = _as_counts(docs)
    freq = np.bincount(table.indices, weights=table.counts, minlength=len(table.terms))
    # term ids are in sorted order, so a stable sort keeps ties lexicographic
    order = np.argsort(-freq, kind="stable")[:min(top_n, int(np.count_nonzero(freq)))]
    if not len(order):
        raise FeaturizeError("empty effective vocabulary")
    df = np.bincount(table.indices, minlength=len(table.terms))
    return Vocabulary(terms=tuple(table.terms[j] for j in order.tolist()),
                      df=tuple(df[order].tolist()), n_docs_fitted=len(table))


def tfidf_transform(docs, vocab: Vocabulary) -> np.ndarray:
    """tf * ln((1+n)/(1+df)) with L2 row normalization over texts (or their
    TermCounts); OOV terms contribute 0."""
    table = _as_counts(docs)
    idf = np.log((1.0 + vocab.n_docs_fitted) / (1.0 + np.asarray(vocab.df, dtype=np.float64)))
    X = np.zeros((len(table), vocab.d))
    row, col, cnt = table.entries(vocab)
    X[row, col] = cnt * idf[col]
    norms = np.array([np.linalg.norm(x) for x in X])
    X /= np.where(norms > 0, norms, 1.0)[:, None]
    return X


def pca_fit(X: np.ndarray, rank: int) -> PcaProjection:
    """Top-rank eigendirections of the centered covariance (d x d eigendecomposition)."""
    A = np.asarray(X, dtype=np.float64)
    n, d = A.shape
    if rank > min(n, d):
        raise FeaturizeError(f"rank {rank} exceeds min(n, d) = {min(n, d)}")
    mean = A.mean(axis=0)
    C = (A - mean).T @ (A - mean) / max(n - 1, 1)
    evals, evecs = np.linalg.eigh(C)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    data_rank = int(np.sum(evals > 1e-12 * max(evals.max(initial=0.0), 1.0)))
    truncated = rank > data_rank
    r = min(rank, data_rank) if truncated else rank
    r = max(r, 1)
    return PcaProjection(mean=mean, components=evecs[:, :r].T.copy(),
                         explained_variance=np.maximum(evals[:r], 0.0),
                         truncated=truncated)


def pca_transform(X: np.ndarray, proj: PcaProjection) -> np.ndarray:
    return (np.asarray(X, dtype=np.float64) - proj.mean) @ proj.components.T
