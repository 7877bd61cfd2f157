import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_vocab_by_hand, tfidf_by_hand
from rareclass.featurize import (
    FeaturizeError, PcaProjection, TermCounts, Vocabulary, build_vocab, count_terms, pca_fit,
    pca_transform, tfidf_transform, tokenize,
)


class TestTokenize:
    def test_lowercase_split_minlen(self):
        assert tokenize("The Fire, a fire3 X!") == ["the", "fire", "fire"]

    def test_empty(self):
        assert tokenize("123 ! a") == []


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
        digest = hashlib.sha256(json.dumps(vocab.to_json()).encode()).hexdigest()
        tfidf_transform(["dd ee ff", "aa"], vocab)
        assert hashlib.sha256(json.dumps(vocab.to_json()).encode()).hexdigest() == digest

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
        proj = pca_fit(X, rank=4)
        Z = pca_transform(X, proj)
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

    def test_pca_features_have_diagonal_gram(self):
        # after projection, off-diagonal centered Gram entries vanish
        rng = np.random.default_rng(6)
        X = rng.standard_normal((50, 6)) @ rng.standard_normal((6, 6))
        proj = pca_fit(X, rank=4)
        Z = pca_transform(X, proj)
        G = (Z - Z.mean(axis=0)).T @ (Z - Z.mean(axis=0))
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 1e-6 * np.max(np.diag(G))


class TestSerialization:
    def test_vocab_roundtrip(self):
        vocab = build_vocab(["aa bb cc", "bb dd"])
        assert Vocabulary.from_json(json.loads(json.dumps(vocab.to_json()))) == vocab

    def test_projection_roundtrip(self):
        rng = np.random.default_rng(7)
        proj = pca_fit(rng.standard_normal((20, 4)), rank=2)
        back = PcaProjection.from_json(json.loads(json.dumps(proj.to_json())))
        assert np.array_equal(back.mean, proj.mean)
        assert np.array_equal(back.components, proj.components)

    def test_version_check(self):
        obj = json.loads('{"version": 99, "terms": [], "df": [], "n_docs_fitted": 0}')
        with pytest.raises(FeaturizeError, match="version"):
            Vocabulary.from_json(obj)


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
