import hashlib
import json
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import build_vocab_by_hand, tfidf_by_hand
from rareclass import featurize
from rareclass.featurize import (
    FeaturizeError, TermCounts, Vocabulary, build_vocab, count_terms, pca_fit,
    pca_transform, tfidf_transform, tokenize,
)
from rareclass.recognizer import PROJECTION_JSON, VOCABULARY_JSON, ModelDocumentError, model_json


class TestTokenize:
    def test_lowercase_split_minlen(self):
        assert tokenize("The Fire, a fire3 X!") == ["the", "fire", "fire"]

    def test_empty(self):
        assert tokenize("123 ! a") == []

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet=st.one_of(
        st.sampled_from("aZzÀÁÿĀɏɐ\u00bf\u00d7\u00f7İẞΣ9 -_.\u0307"), st.characters())))
    @example(text="KİLO İİ")      # "İ".lower() is "i" plus a combining dot, which ends a run
    def test_matches_split_and_filter(self, text):
        # the rule tokenize replaced: split on runs of non-letters, drop short pieces
        expected = [t for t in re.split(r"[^a-zÀ-ɏ]+", text.lower()) if len(t) >= 2]
        assert tokenize(text) == expected


class TestBuildVocab:
    def test_hand_countable_tie_break(self):
        vocab = build_vocab(["a bb bb cc", "cc dd"], top_n=2)
        assert vocab.terms == ("bb", "cc")
        assert vocab.df == (1, 2)

    def test_cap_exceeds_supply(self):
        texts = ["t" + chr(97 + i // 676 % 26) + chr(97 + i // 26 % 26) + chr(97 + i % 26)
                 for i in range(600)]
        vocab = build_vocab(texts, top_n=1000)
        assert vocab.d == 600

    def test_terms_only_from_train(self):
        rng = np.random.default_rng(0)
        words = ["w" + chr(97 + i // 26) + chr(97 + i % 26) for i in range(50)]
        for _ in range(20):
            texts = [" ".join(rng.choice(words, size=8)) for _ in range(10)]
            vocab = build_vocab(texts, top_n=30)
            present = set()
            for t in texts:
                present.update(tokenize(t))
            assert set(vocab.terms) <= present

    def test_empty_vocabulary_error(self):
        with pytest.raises(FeaturizeError, match="empty"):
            build_vocab(["123 !!!"])

    @pytest.mark.parametrize("docs, top_n, message", [
        ([], 10, "empty training set"),
        (["aa bb"], 0, "top_n must be >= 1"),
    ])
    def test_refuses_bad_arguments(self, docs, top_n, message):
        with pytest.raises(FeaturizeError, match=message):
            build_vocab(docs, top_n=top_n)


class TestVocabulary:
    @pytest.mark.parametrize("terms, df, message", [
        (("aa", "bb", "aa"), (1, 1, 1), "duplicate terms in vocabulary"),
        (("aa", "bb"), (0, 1), "df out of range for term 'aa'"),
        (("bb", "aa"), (1, 3), "df out of range for term 'aa'"),
    ])
    def test_refuses_inconsistent_fields(self, terms, df, message):
        with pytest.raises(FeaturizeError, match=re.escape(message)):
            Vocabulary(terms=terms, df=df, n_docs_fitted=2)


class TestTfidf:
    def test_oov_doc_zero_row(self):
        vocab = build_vocab(["aa bb", "bb cc"])
        X = tfidf_transform(["zz yy"], vocab)
        assert np.all(X == 0)

    def test_single_doc_fit_idf_degenerate(self):
        vocab = build_vocab(["xx xx yy"])
        X = tfidf_transform(["xx xx yy"], vocab)
        assert np.all(X == 0)     # idf = ln(2/2) = 0 for every term

    def test_rows_unit_or_zero(self):
        rng = np.random.default_rng(1)
        words = ["w" + chr(97 + i // 26) + chr(97 + i % 26) for i in range(30)]
        texts = [" ".join(rng.choice(words, size=12)) for _ in range(20)]
        vocab = build_vocab(texts, top_n=25)
        X = tfidf_transform(texts + ["unseenword"], vocab)
        norms = np.linalg.norm(X, axis=1)
        assert np.all((np.abs(norms - 1) < 1e-9) | (norms == 0))

    def test_transform_does_not_mutate_vocab(self):
        vocab = build_vocab(["aa bb cc", "bb cc dd"])
        digest = hashlib.sha256(model_json(vocab).encode()).hexdigest()
        tfidf_transform(["dd ee ff", "aa"], vocab)
        assert hashlib.sha256(model_json(vocab).encode()).hexdigest() == digest

    def test_weighting_formula(self):
        vocab = build_vocab(["aa bb", "aa cc", "aa dd"])
        X = tfidf_transform(["aa bb bb"], vocab)[0]
        idx = {t: j for j, t in enumerate(vocab.terms)}
        raw_aa = 1 * np.log(4 / 4)
        raw_bb = 2 * np.log(4 / 2)
        expected = np.zeros(vocab.d)
        expected[idx["aa"]] = raw_aa
        expected[idx["bb"]] = raw_bb
        expected /= np.linalg.norm(expected)
        assert np.allclose(X, expected)

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 17, 64, 255, 1000, 1025, 4097])
    def test_row_norms_same_bytes_as_per_row_norm(self, d):
        # the one batched product of each row with itself gives each row the
        # bits np.linalg.norm gives it alone, at every BLAS block boundary
        rng = np.random.default_rng(d)
        words = ["w" + "".join(chr(97 + (i // 26 ** k) % 26) for k in range(3)) for i in range(d)]
        texts = [" ".join(words)] + [" ".join(rng.choice(words, size=int(rng.integers(1, 3 * d))))
                                     for _ in range(30)]
        vocab = build_vocab(texts, top_n=d)
        assert vocab.d == d
        docs = texts + ["zz", " ".join(rng.choice(words, size=2 * d))]
        assert tfidf_transform(docs, vocab).tobytes() == tfidf_by_hand(docs, vocab).tobytes()


class TestPca:
    def test_axis_aligned(self):
        rng = np.random.default_rng(2)
        X = np.zeros((40, 3))
        X[:, 0] = rng.standard_normal(40) * 5
        X[:, 0] -= X[:, 0].mean()
        proj = pca_fit(X, rank=1)
        assert abs(proj.components[0, 0]) == pytest.approx(1.0, abs=1e-8)
        assert proj.explained_variance[0] == pytest.approx(np.var(X[:, 0], ddof=1))

    def test_full_rank_roundtrip(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 4))
        before = X.tobytes()
        proj = pca_fit(X, rank=4)
        Z = pca_transform(X, proj)
        assert X.tobytes() == before          # neither centres its caller's array
        back = Z @ proj.components + proj.mean
        assert np.allclose(back, X, atol=1e-6)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((25, 6))
        proj = pca_fit(X, rank=4)
        CCt = proj.components @ proj.components.T
        assert np.max(np.abs(CCt - np.eye(4))) < 1e-8

    def test_explained_variance_bounded_by_total(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X = rng.standard_normal((20, 5))
            proj = pca_fit(X, rank=3)
            total = sum(np.var(X[:, j], ddof=1) for j in range(5))
            assert proj.explained_variance.sum() <= total + 1e-9
            assert np.all(np.diff(proj.explained_variance) <= 1e-12)

    def test_rank_deficient_truncates_with_flag(self):
        X = np.zeros((10, 3))
        X[:, 0] = np.arange(10.0)
        proj = pca_fit(X, rank=3)
        assert proj.truncated
        assert proj.rank < 3

    def test_rank_exceeds_min_nd(self):
        with pytest.raises(FeaturizeError):
            pca_fit(np.zeros((3, 2)), rank=4)

    @pytest.mark.parametrize("rank", [0, -3])
    def test_rank_below_one(self, rank):
        X = np.random.default_rng(9).standard_normal((10, 4))
        with pytest.raises(FeaturizeError, match=f"rank {rank} is below 1"):
            pca_fit(X, rank=rank)

    @pytest.mark.parametrize("cdll", [
        lambda name: (_ for _ in ()).throw(OSError(f"{name}: cannot open shared object file")),
        lambda name: SimpleNamespace(),          # a C library with no malloc_trim
    ], ids=["no-glibc", "no-malloc-trim"])
    def test_same_bytes_without_malloc_trim(self, monkeypatch, cdll):
        X = np.random.default_rng(11).standard_normal((300, 40)) + np.arange(40)
        expected = pca_fit(X, rank=5)
        opened = []
        monkeypatch.setattr(featurize.ctypes, "CDLL", lambda name: opened.append(name) or cdll(name))
        proj = pca_fit(X, rank=5)
        assert opened == ["libc.so.6"]
        for field in ("mean", "components", "explained_variance"):
            assert getattr(proj, field).tobytes() == getattr(expected, field).tobytes()
        assert proj.truncated == expected.truncated

    def test_trims_the_heap_once_per_fit(self, monkeypatch):
        pads = []
        libc = SimpleNamespace(malloc_trim=lambda pad: pads.append(pad.value) or 1)
        monkeypatch.setattr(featurize.ctypes, "CDLL", lambda name: libc)
        pca_fit(np.random.default_rng(12).standard_normal((50, 6)), rank=2)
        assert pads == [0]

    def test_peak_memory_below_one_and_a_half_inputs(self):
        # the centred copy is made once and freed before eigh: the traced peak
        # is that copy plus the d x d covariance, not two n x d temporaries
        X = np.random.default_rng(10).standard_normal((2000, 300))
        tracemalloc.start()
        try:
            pca_fit(X, rank=30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * X.nbytes

    @staticmethod
    def _fit_centring_twice(X, rank):
        """pca_fit as it was written before it centred once: the covariance
        from two centred temporaries and every eigenvector reordered."""
        A = np.asarray(X, dtype=np.float64)
        n, d = A.shape
        mean = A.mean(axis=0)
        C = (A - mean).T @ (A - mean) / max(n - 1, 1)
        evals, evecs = np.linalg.eigh(C)
        order = np.argsort(evals)[::-1]
        evals, evecs = evals[order], evecs[:, order]
        data_rank = int(np.sum(evals > 1e-12 * max(evals.max(initial=0.0), 1.0)))
        truncated = rank > data_rank
        r = max(min(rank, data_rank) if truncated else rank, 1)
        return mean, evecs[:, :r].T, np.maximum(evals[:r], 0.0), truncated

    @pytest.mark.parametrize("n,d", [(60, 8), (200, 40), (500, 120)])
    def test_matches_centring_twice(self, n, d):
        # centred orthonormal scores times a geometric spectrum: the covariance
        # eigenvalues are 4**(-8i/d) / (n - 1), each well apart from the next
        rng = np.random.default_rng(n + d)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        Z = rng.standard_normal((n, d))
        U, _ = np.linalg.qr(Z - Z.mean(axis=0))
        X = U * 2.0 ** (-8 * np.arange(d) / d) @ Q.T + rng.standard_normal(d)
        rank = d // 2
        mean, comps, var, truncated = self._fit_centring_twice(X, rank)
        proj = pca_fit(X, rank)
        assert proj.mean.tobytes() == mean.tobytes()
        assert not proj.truncated and not truncated and proj.rank == rank
        np.testing.assert_allclose(proj.explained_variance, var, rtol=1e-12, atol=0)
        signs = np.sign(np.sum(proj.components * comps, axis=1))
        assert np.max(np.abs(proj.components * signs[:, None] - comps)) < 1e-10

    @staticmethod
    def _fit_covariance_by_expression(X, rank):
        """pca_fit's body as it was before it allocated the covariance ahead of
        the centred copy: the covariance as one expression, then the copy freed."""
        A = np.asarray(X, dtype=np.float64)
        n, d = A.shape
        mean = A.mean(axis=0)
        B = A - mean
        C = B.T @ B / max(n - 1, 1)
        del B
        evals, evecs = featurize._top_eigh(C, rank)
        order = np.argsort(evals)[::-1]
        evals = evals[order]
        data_rank = int(np.sum(evals > 1e-12 * max(evals.max(initial=0.0), 1.0)))
        r = max(min(rank, data_rank), 1)
        return mean, evecs[:, order[:r]].T.copy(), np.maximum(evals[:r], 0.0), rank > data_rank

    @pytest.mark.parametrize("n,d,rank", [(1, 4, 1), (7, 3, 2), (5, 12, 3), (2000, 300, 30)])
    @pytest.mark.parametrize("handed_over", [False, True])
    def test_same_bytes_as_covariance_by_expression(self, n, d, rank, handed_over):
        # the covariance written into a buffer allocated first is the same
        # symmetric rank-k product, whether the caller keeps X or passes a temporary
        X = np.random.default_rng(n + d).standard_normal((n, d)) + np.arange(d)
        mean, comps, var, truncated = self._fit_covariance_by_expression(X, rank)
        proj = pca_fit(X.copy() if handed_over else X, rank)
        assert proj.mean.tobytes() == mean.tobytes()
        assert proj.components.tobytes() == comps.tobytes()
        assert proj.explained_variance.tobytes() == var.tobytes()
        assert proj.truncated == truncated

    @pytest.mark.parametrize("data_rank,rank", [(0, 3), (1, 3), (3, 5), (3, 3), (4, 6)])
    def test_rank_deficient_matches_centring_twice(self, data_rank, rank):
        rng = np.random.default_rng(10 * data_rank + rank)
        X = rng.standard_normal((40, data_rank)) @ rng.standard_normal((data_rank, 8)) \
            + rng.standard_normal(8)
        _, comps, var, truncated = self._fit_centring_twice(X, rank)
        proj = pca_fit(X, rank)
        assert proj.truncated == truncated
        assert proj.rank == comps.shape[0] == len(var)

    def test_pca_features_have_diagonal_gram(self):
        # after projection, off-diagonal centered Gram entries vanish
        rng = np.random.default_rng(6)
        X = rng.standard_normal((50, 6)) @ rng.standard_normal((6, 6))
        proj = pca_fit(X, rank=4)
        Z = pca_transform(X, proj)
        G = (Z - Z.mean(axis=0)).T @ (Z - Z.mean(axis=0))
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 1e-6 * np.max(np.diag(G))


def _geometric_covariance(d, seed):
    """Q diag(2**(-8i/d)) Q^T for a random orthogonal Q: eigenvalues well apart from each other."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return Q * 2.0 ** (-8 * np.arange(d) / d) @ Q.T


class TestTopEigh:
    """_top_eigh (LAPACK's dsyevr for the top r eigenpairs) against the top r of
    np.linalg.eigh, and pca_fit with dsyevr against pca_fit without it."""

    @pytest.mark.parametrize("d,r", sorted({(d, r) for d in (1, 3, 8, 40, 120, 300)
                                            for r in (1, d // 2, d) if r >= 1}))
    def test_matches_top_of_full_eigh(self, d, r):
        C = _geometric_covariance(d, seed=d + r)
        evals, evecs = np.linalg.eigh(C)
        w, Z = featurize._top_eigh(C.copy(), r)
        assert w.shape == (r,) and Z.shape == (d, r) and Z.flags.f_contiguous
        np.testing.assert_allclose(w, evals[d - r:], rtol=1e-12, atol=0)
        signs = np.sign(np.sum(Z * evecs[:, d - r:], axis=0))
        assert np.max(np.abs(Z * signs - evecs[:, d - r:])) < 1e-10
        assert np.max(np.abs(Z.T @ Z - np.eye(r))) < 1e-12

    @pytest.mark.parametrize("C", [
        np.eye(4, dtype=np.float32), np.eye(4)[:, :3], np.eye(8)[::2, ::2],
        np.broadcast_to(np.eye(4), (4, 4)),
    ], ids=["float32", "not-square", "strided", "read-only"])
    def test_refuses_what_dsyevr_cannot_take(self, C):
        # dsyevr reads and overwrites d * d doubles from C's first address
        with pytest.raises(ValueError, match="not a square, writeable, C-contiguous float64 matrix"):
            featurize._top_eigh(C, 1)

    def test_fallback_is_top_of_full_eigh(self, monkeypatch):
        C = _geometric_covariance(12, seed=4)
        evals, evecs = np.linalg.eigh(C)
        monkeypatch.setattr(featurize, "_DSYEVR", None)
        w, Z = featurize._top_eigh(C.copy(), 5)
        assert w.tobytes() == evals[7:].tobytes() and Z.tobytes() == evecs[:, 7:].tobytes()

    @pytest.mark.parametrize("data_rank,rank", [(0, 3), (1, 3), (3, 5), (3, 3), (4, 6)])
    def test_pca_fit_without_dsyevr_agrees(self, monkeypatch, data_rank, rank):
        # the cases of TestPca.test_rank_deficient_matches_centring_twice, the zero covariance among them
        rng = np.random.default_rng(10 * data_rank + rank)
        X = rng.standard_normal((40, data_rank)) @ rng.standard_normal((data_rank, 8)) \
            + rng.standard_normal(8)
        fast = pca_fit(X, rank)
        monkeypatch.setattr(featurize, "_DSYEVR", None)
        slow = pca_fit(X, rank)
        assert (fast.rank, fast.truncated) == (slow.rank, slow.truncated)
        np.testing.assert_allclose(fast.explained_variance, slow.explained_variance, rtol=1e-12, atol=0)
        signs = np.sign(np.sum(fast.components * slow.components, axis=1))
        assert np.max(np.abs(fast.components * signs[:, None] - slow.components)) < 1e-10

    def test_same_bytes_on_a_second_fit(self):
        X = np.random.default_rng(13).standard_normal((300, 60)) + np.arange(60)
        first, second = pca_fit(X, rank=20), pca_fit(X, rank=20)
        for field in ("mean", "components", "explained_variance"):
            assert getattr(first, field).tobytes() == getattr(second, field).tobytes()


class TestSerialization:
    def test_vocab_roundtrip(self):
        vocab = build_vocab(["aa bb cc", "bb dd"])
        assert VOCABULARY_JSON(json.loads(model_json(vocab))) == vocab

    def test_projection_roundtrip(self):
        rng = np.random.default_rng(7)
        proj = pca_fit(rng.standard_normal((20, 4)), rank=2)
        back = PROJECTION_JSON(json.loads(model_json(proj)))
        assert np.array_equal(back.mean, proj.mean)
        assert np.array_equal(back.components, proj.components)

    def test_version_check(self):
        obj = json.loads('{"version": 99, "terms": [], "df": [], "n_docs_fitted": 0}')
        with pytest.raises(ModelDocumentError, match="version"):
            VOCABULARY_JSON(obj)


# few distinct words, so frequencies tie often; words with letters in the
# À-ɏ range, capitals, digits, punctuation and one-letter tokens; empty texts
_WORDS = ["aa", "bb", "cc", "dd", "Aa", "ée", "àß", "ɏɏ", "zé", "x", "q7q", "b-b", "ab.cd", "Ωmm"]
TEXTS = st.one_of(
    st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join),
    st.text(alphabet="abÀÿĀɏɐ Z9-", max_size=12))
# texts made only of words a vocabulary fitted on TEXTS can never hold
OOV_TEXTS = st.lists(st.sampled_from(["qq", "ww", "Ωa", "zz7z"]), max_size=4).map(" ".join)


class TestCountTable:
    """build_vocab and tfidf_transform over a TermCounts table against the
    per-text loops they replaced (conftest)."""

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(TEXTS, min_size=1, max_size=12),
           other=st.lists(st.one_of(TEXTS, OOV_TEXTS), max_size=5),
           top_n=st.integers(1, 40))
    def test_matches_per_text_reference(self, texts, other, top_n):
        try:
            expected = build_vocab_by_hand(texts, top_n)
        except FeaturizeError as exc:
            with pytest.raises(FeaturizeError, match=str(exc)):
                build_vocab(texts, top_n)
            return
        vocab = build_vocab(texts, top_n)
        assert vocab == expected
        for docs in (texts, other + texts, other):
            X = tfidf_transform(docs, vocab)
            assert X.shape == (len(docs), vocab.d)
            assert X.tobytes() == tfidf_by_hand(docs, vocab).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(texts=st.lists(TEXTS, min_size=1, max_size=12), data=st.data(),
           top_n=st.integers(1, 40))
    def test_row_subset_matches_reference(self, texts, data, top_n):
        rows = data.draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, max_size=12))
        subset = [texts[i] for i in rows]
        counts = count_terms(texts).rows(rows)
        assert len(counts) == len(rows)
        try:
            expected = build_vocab_by_hand(subset, top_n)
        except FeaturizeError:
            with pytest.raises(FeaturizeError):
                build_vocab(counts, top_n)
            return
        vocab = build_vocab(counts, top_n)
        assert vocab == expected
        assert tfidf_transform(counts, vocab).tobytes() == tfidf_by_hand(subset, vocab).tobytes()

    def test_table_layout(self):
        table = count_terms(["bb aa bb", "", "cc 1 aa"])
        assert isinstance(table, TermCounts) and len(table) == 3
        assert table.terms == ("aa", "bb", "cc")
        assert table.indptr.tolist() == [0, 2, 2, 4]
        rows = [dict(zip(table.indices[a:b].tolist(), table.counts[a:b].tolist()))
                for a, b in zip(table.indptr[:-1], table.indptr[1:])]
        assert rows == [{0: 1, 1: 2}, {}, {0: 1, 2: 1}]
        assert len(count_terms([])) == 0

    def test_top_n_above_term_count(self):
        vocab = build_vocab(["aa bb", "bb"], top_n=50)
        assert vocab.terms == ("bb", "aa") and vocab.df == (2, 1)
