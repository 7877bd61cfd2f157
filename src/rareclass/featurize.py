"""Text featurization: TF-IDF over a capped vocabulary, plus linear PCA projection."""

from __future__ import annotations

import ctypes
import re
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError

_TOKEN_RE = re.compile(r"[a-zÀ-ɏ]{2,}")


class FeaturizeError(DataError):
    pass


def tokenize(text: str) -> list[str]:
    """Lowercase, then keep each maximal run of letters of length >= 2."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    terms: tuple[str, ...]
    df: tuple[int, ...]              # per-term document frequency over the fitted docs
    n_docs_fitted: int

    def __post_init__(self):
        if len(self.df) != len(self.terms):
            raise FeaturizeError(f"{len(self.df)} df counts for {len(self.terms)} terms")
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


@dataclass(frozen=True)
class PcaProjection:
    mean: np.ndarray                 # length d
    components: np.ndarray           # r x d, orthonormal rows
    explained_variance: np.ndarray   # length r, non-increasing
    truncated: bool = False          # rank request exceeded the data rank

    @property
    def rank(self) -> int:
        return self.components.shape[0]


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
    norms = np.sqrt((X[:, None, :] @ X[:, :, None]).ravel())   # each row's ddot, as np.linalg.norm
    X /= np.where(norms > 0, norms, 1.0)[:, None]
    return X


def _release_free_heap() -> None:
    """Return the heap's free pages to the OS with glibc's malloc_trim; a no-op
    on a C library without it."""
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return
    trim(ctypes.c_size_t(0))


# LAPACKE's dsyevr (int64 integers) from the scipy-openblas that numpy's linalg extension links,
# looked up through that extension so no library is loaded; None under another LAPACK
try:
    _DSYEVR = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_LAPACKE_dsyevr64_
    _DSYEVR.restype = ctypes.c_int64
    _DSYEVR.argtypes = [ctypes.c_int, *[ctypes.c_char] * 3, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                        *[ctypes.c_double] * 2, *[ctypes.c_int64] * 2, ctypes.c_double,
                        ctypes.POINTER(ctypes.c_int64), *[ctypes.c_void_p] * 2, ctypes.c_int64, ctypes.c_void_p]
except (OSError, AttributeError):
    _DSYEVR = None


def _top_eigh(C: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The r largest eigenvalues of the symmetric, C-contiguous C, ascending, and their eigenvectors
    as a d x r array's columns. dsyevr reads C column-major, so LAPACKE copies nothing, and overwrites it."""
    d = C.shape[0]
    if C.shape != (d, d) or C.dtype != np.float64 or not (C.flags.c_contiguous and C.flags.writeable):
        raise ValueError(f"not a square, writeable, C-contiguous float64 matrix: {C.dtype} {C.shape}")
    if _DSYEVR is None:
        evals, evecs = np.linalg.eigh(C)
        return evals[d - r:], evecs[:, d - r:]
    m, w, Z, isuppz = ctypes.c_int64(), np.empty(d), np.empty((d, r), order="F"), np.empty(2 * r, np.int64)
    info = _DSYEVR(102, b"V", b"I", b"L", d, C.ctypes.data, d, 0.0, 0.0, d - r + 1, d, 0.0,
                   ctypes.byref(m), w.ctypes.data, Z.ctypes.data, d, isuppz.ctypes.data)
    if info:
        raise np.linalg.LinAlgError(f"pca: dsyevr failed to converge (info={info})")
    return w[:m.value], Z


def pca_fit(X: np.ndarray, rank: int) -> PcaProjection:
    """pca_fit_in_place of a copy of X: X is left as it is."""
    return pca_fit_in_place(np.array(X, dtype=np.float64), rank)


def pca_fit_in_place(A: np.ndarray, rank: int) -> PcaProjection:
    """Top-rank eigendirections of the centered covariance (its top-rank eigenpairs only) of the
    writeable float64 A, which it centres in place. It holds no reference to A in the eigensolver,
    so an A passed as a temporary is freed by then, and its heap returned to the OS before it runs."""
    n, d = A.shape
    if rank < 1:
        raise FeaturizeError(f"rank {rank} is below 1")
    if rank > min(n, d):
        raise FeaturizeError(f"rank {rank} exceeds min(n, d) = {min(n, d)}")
    mean = A.mean(axis=0)
    C = np.empty((d, d))              # the one d x d buffer: dsyevr works in it in place
    A -= mean                         # the same bits as A - mean, with no n x d copy
    np.matmul(A.T, A, out=C)          # one buffer on both sides: BLAS's symmetric rank-k product
    C /= max(n - 1, 1)
    del A
    _release_free_heap()              # kept for the np.linalg.eigh fallback: evaluate peaks about 94 MB without it, 89 with
    evals, evecs = _top_eigh(C, rank)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    data_rank = int(np.sum(evals > 1e-12 * max(evals.max(initial=0.0), 1.0)))
    truncated = rank > data_rank
    r = max(min(rank, data_rank), 1)
    return PcaProjection(mean=mean, components=evecs[:, order[:r]].T.copy(),
                         explained_variance=np.maximum(evals[:r], 0.0),
                         truncated=truncated)


def pca_transform(X: np.ndarray, proj: PcaProjection) -> np.ndarray:
    return (np.asarray(X, dtype=np.float64) - proj.mean) @ proj.components.T

