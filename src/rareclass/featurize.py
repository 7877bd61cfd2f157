"""Text featurization: TF-IDF over a capped vocabulary, plus linear PCA projection."""

from __future__ import annotations

import re
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


def build_vocab(texts: list[str], top_n: int = 1000) -> Vocabulary:
    """Fit a vocabulary on training texts: top_n terms by total corpus frequency, ties lexicographic."""
    if not texts:
        raise FeaturizeError("empty training set")
    if top_n < 1:
        raise FeaturizeError("top_n must be >= 1")
    freq: Counter[str] = Counter()
    df: Counter[str] = Counter()
    for text in texts:
        toks = tokenize(text)
        freq.update(toks)
        df.update(set(toks))
    if not freq:
        raise FeaturizeError("empty effective vocabulary")
    terms = tuple(sorted(freq, key=lambda t: (-freq[t], t))[:top_n])
    return Vocabulary(terms=terms, df=tuple(df[t] for t in terms), n_docs_fitted=len(texts))


def tfidf_transform(texts: list[str], vocab: Vocabulary) -> np.ndarray:
    """tf * ln((1+n)/(1+df)) with L2 row normalization; OOV terms contribute 0."""
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
