import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import balanced_corpus
from rareclass.dataset import (
    CorpusError, Doc, LabeledCorpus, MAJORITY, RARE, SyntheticConfig,
    gen_synthetic, load_corpus, save_corpus, split_protocol,
)
from rareclass import dataset
from rareclass.dataset import parse_line


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


class TestLoadCorpus:
    def test_three_line_jsonl(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [
            {"text": "water", "label": "rare", "subclass": "flood"},
            {"text": "smoke", "label": "rare", "subclass": "fire"},
            {"text": "calm", "label": "majority"},
        ])
        corpus = load_corpus(f)
        assert corpus.K == 2
        assert corpus.n == 3
        assert corpus.n_rare == 2
        assert corpus.subclass_names == ("flood", "fire")

    def test_majority_with_subclass_rejected(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [
            {"text": "a", "label": "rare", "subclass": "x"},
            {"text": "b", "label": "majority", "subclass": "x"},
        ])
        with pytest.raises(CorpusError, match="majority doc carries subclass"):
            load_corpus(f)

    def test_rare_missing_subclass(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [{"text": "a", "label": "rare"}])
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(f)

    def test_parse_failure_reports_line(self, tmp_path):
        f = tmp_path / "c.jsonl"
        f.write_text('{"text": "ok", "label": "majority"}\n{broken\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(f)

    def test_empty_corpus(self, tmp_path):
        f = tmp_path / "c.jsonl"
        f.write_text("")
        with pytest.raises(CorpusError, match="empty"):
            load_corpus(f)

    def test_fifteen_subclasses(self, tmp_path):
        f = tmp_path / "c.jsonl"
        records = [{"text": f"doc {k}", "label": "rare", "subclass": f"risk-{k}"}
                   for k in range(15)]
        records.append({"text": "neutral", "label": "majority"})
        write_jsonl(f, records)
        assert load_corpus(f).K == 15

    def test_first_appearance_order(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [
            {"text": "a", "label": "rare", "subclass": "zeta"},
            {"text": "b", "label": "rare", "subclass": "alpha"},
        ])
        corpus = load_corpus(f)
        assert corpus.subclass_names == ("zeta", "alpha")
        assert corpus.docs[0].subclass == 1

    def test_save_load_roundtrip_with_features(self, tmp_path):
        cfg = SyntheticConfig(d=3, K_total=2, docs_per_subclass=4, majority_docs=4,
                              subclass_separation=2.0, seed=5)
        corpus = gen_synthetic(cfg)
        f = tmp_path / "synth.jsonl"
        save_corpus(corpus, f)
        back = load_corpus(f)
        assert back.K == corpus.K
        assert np.allclose(back.feature_matrix(), corpus.feature_matrix())

    def test_save_refuses_a_non_finite_feature(self, tmp_path):
        docs = (Doc("", RARE, 1, np.array([0.5, 2.0])), Doc("", MAJORITY, None, np.array([1.0, np.nan])))
        f = tmp_path / "c.jsonl"
        f.write_text("already here\n")
        with pytest.raises(CorpusError, match=r"doc 1: 'features' has a non-finite entry"):
            save_corpus(LabeledCorpus(docs=docs, K=1), f)
        assert f.read_text() == "already here\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]


class TestLineReader:
    def test_skips_blank_lines_and_keeps_their_numbers(self, tmp_path):
        f = tmp_path / "s.jsonl"
        f.write_text('\n{"a": 1}\n   \n\t\n{"b": [2]}\n\n')
        with open(f, encoding="utf-8") as fh:
            assert list(dataset._non_blank(fh, f)) == [(2, '{"a": 1}\n'), (5, '{"b": [2]}\n')]

    def test_invalid_json_names_its_line(self):
        with pytest.raises(CorpusError, match=r"^line 7: invalid json \("):
            parse_line(7, '{"a": ')

    # JSON values whose objects have unique keys; one record repeats a key of its own
    VALUES = st.recursive(st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
                          | st.text(max_size=5),
                          lambda inner: st.lists(inner, max_size=3)
                          | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(record=st.dictionaries(st.text(max_size=3), VALUES, min_size=1, max_size=4),
           value=VALUES, data=st.data())
    def test_repeated_key_is_refused_naming_it(self, record, value, data):
        assert parse_line(3, json.dumps(record)) == record
        key = data.draw(st.sampled_from(sorted(record)))
        text = json.dumps(record)[:-1] + ", " + json.dumps(key) + ": " + json.dumps(value) + "}"
        with pytest.raises(CorpusError, match=f"^line 3: repeated key {re.escape(repr(key))}$"):
            parse_line(3, text)

    def test_repeated_key_in_a_nested_object_is_refused(self):
        with pytest.raises(CorpusError, match=r"^line 2: repeated key 'x'$"):
            parse_line(2, '{"features": [1], "meta": {"x": 1, "x": 2}}')

    def test_non_utf8_file_names_it(self, tmp_path):
        f = tmp_path / "s.jsonl"
        f.write_bytes(b'{"a": 1}\n\xff\xfe\n')
        with open(f, encoding="utf-8") as fh, \
                pytest.raises(CorpusError, match=f"{f} is not UTF-8 text"):
            list(dataset._non_blank(fh, f))


class TestSplitProtocol:
    def test_fifteen_subclasses_ten_seen(self):
        corpus = balanced_corpus(K=15, per_subclass=5, majority=10)
        split = split_protocol(corpus, seed=3)
        assert len(split.seen_subclasses) == 10
        assert len(split.unseen_subclasses) == 5

    def test_size_arithmetic(self):
        corpus = balanced_corpus(K=3, per_subclass=10, majority=10)
        split = split_protocol(corpus, seed=1)
        assert len(split.seen_subclasses) == 2
        seen_train = [i for i in split.train if corpus.docs[i].label == RARE]
        assert len(seen_train) == 16          # 8 from each of 2 seen subclasses
        assert len(split.test_seen) == 4
        assert len(split.test_unseen) == 10

    def test_deterministic(self):
        corpus = balanced_corpus(K=4)
        assert split_protocol(corpus, seed=9) == split_protocol(corpus, seed=9)

    def test_partition_covers_all_docs(self):
        corpus = balanced_corpus(K=4, per_subclass=7, majority=13)
        split = split_protocol(corpus, seed=2)
        union = (set(split.train) | set(split.test_seen)
                 | set(split.test_unseen) | set(split.test_majority))
        assert union == set(range(corpus.n))
        total = (len(split.train) + len(split.test_seen)
                 + len(split.test_unseen) + len(split.test_majority))
        assert total == corpus.n

    def test_no_unseen_doc_in_train_over_seeds(self):
        corpus = balanced_corpus(K=5, per_subclass=6, majority=12)
        for seed in range(100):
            split = split_protocol(corpus, seed=seed)
            for i in split.train:
                assert corpus.docs[i].subclass not in split.unseen_subclasses
            for i in split.test_unseen:
                assert corpus.docs[i].subclass in split.unseen_subclasses

    def test_k1_rejected(self):
        docs = (Doc("a", RARE, 1), Doc("b", MAJORITY))
        corpus = LabeledCorpus(docs=docs, K=1)
        with pytest.raises(CorpusError, match="K < 2"):
            split_protocol(corpus, seed=0)

    def test_at_least_one_unseen_even_for_high_fraction(self):
        corpus = balanced_corpus(K=2, per_subclass=5, majority=5)
        split = split_protocol(corpus, seed=0)
        assert len(split.unseen_subclasses) >= 1


class TestGenSynthetic:
    def test_determinism(self):
        cfg = SyntheticConfig(d=4, K_total=2, docs_per_subclass=5, majority_docs=5,
                              subclass_separation=3.0, seed=11)
        a = gen_synthetic(cfg).feature_matrix()
        b = gen_synthetic(cfg).feature_matrix()
        assert a.tobytes() == b.tobytes()

    def test_zero_separation_centers_coincide(self):
        cfg = SyntheticConfig(d=3, K_total=2, docs_per_subclass=50, majority_docs=50,
                              subclass_separation=0.0, noise_scale=1.0, seed=1)
        corpus = gen_synthetic(cfg)
        X = corpus.feature_matrix()
        rare = np.array([d.label == RARE for d in corpus.docs])
        # rare and majority means both near the origin
        assert np.linalg.norm(X[rare].mean(axis=0)) < 0.5
        assert np.linalg.norm(X[~rare].mean(axis=0)) < 0.5

    def test_separable_instance_admits_perfect_linear_separator(self):
        cfg = SyntheticConfig(d=5, K_total=2, docs_per_subclass=30, majority_docs=30,
                              subclass_separation=10.0, noise_scale=0.1, seed=2)
        corpus = gen_synthetic(cfg)
        X = corpus.feature_matrix()
        y = np.array([1.0 if d.label == RARE else -1.0 for d in corpus.docs])
        # oracle: perceptron run to convergence certifies linear separability
        w = np.zeros(X.shape[1] + 1)
        Xb = np.column_stack([X, np.ones(len(X))])
        for _ in range(1000):
            wrong = y * (Xb @ w) <= 0
            if not wrong.any():
                break
            w += y[wrong][0] * Xb[wrong][0]
        pred = np.sign(Xb @ w)
        assert np.all(pred == y)      # training F1 = 1.0

    def test_center_distance(self):
        cfg = SyntheticConfig(d=6, K_total=3, docs_per_subclass=200, majority_docs=10,
                              subclass_separation=8.0, noise_scale=0.5, seed=3)
        corpus = gen_synthetic(cfg)
        X = corpus.feature_matrix()
        for k in range(1, 4):
            mean = X[corpus.subclass_indices(k)].mean(axis=0)
            assert np.linalg.norm(mean) == pytest.approx(8.0, rel=0.1)

    def test_collinearity_groups(self):
        cfg = SyntheticConfig(d=4, K_total=2, docs_per_subclass=250, majority_docs=500,
                              subclass_separation=3.0, noise_scale=1.0,
                              collinearity_groups=((0, 1),), seed=4)
        X = gen_synthetic(cfg).feature_matrix()
        assert len(X) == 1000
        assert abs(np.corrcoef(X[:, 0], X[:, 1])[0, 1]) > 0.95

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(d=1, K_total=2, docs_per_subclass=5, majority_docs=5,
                            subclass_separation=1.0)
        with pytest.raises(ValueError):
            SyntheticConfig(d=3, K_total=2, docs_per_subclass=3, majority_docs=5,
                            subclass_separation=1.0)

    @pytest.mark.parametrize("changes, message", [
        ({"K_total": 1}, "K_total must be >= 2"),
        ({"subclass_separation": -0.5}, "subclass_separation must be >= 0"),
        ({"noise_scale": 0.0}, "noise_scale must be > 0"),
    ], ids=["K_total", "subclass_separation", "noise_scale"])
    def test_config_refuses_each_bad_field(self, changes, message):
        # the synth command's flags refuse these first; a library caller meets these checks
        fields = dict(d=3, K_total=2, docs_per_subclass=5, majority_docs=5, subclass_separation=1.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            SyntheticConfig(**{**fields, **changes})


class TestLabeledCorpusChecks:
    """A corpus built in code meets the checks load_corpus's record rules make first for a file."""

    @pytest.mark.parametrize("doc, message", [
        (Doc("t", RARE), "doc 1: rare doc missing subclass"),
        (Doc("t", RARE, 3), "doc 1: subclass 3 outside 1..2"),
        (Doc("t", RARE, 0), "doc 1: subclass 0 outside 1..2"),
        (Doc("t", MAJORITY, 1), "doc 1: majority doc carries subclass"),
        (Doc("t", "other"), "doc 1: unknown label 'other'"),
    ], ids=["rare-without-subclass", "subclass-above-K", "subclass-0", "majority-with-subclass",
            "unknown-label"])
    def test_refuses_an_inconsistent_doc(self, doc, message):
        docs = (Doc("a", RARE, 1), doc, Doc("b", RARE, 2), Doc("c", MAJORITY))
        with pytest.raises(CorpusError, match=f"^{message}$"):
            LabeledCorpus(docs=docs, K=2)
