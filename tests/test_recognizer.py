import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import route_per_item
from rareclass.featurize import build_vocab, pca_fit
from rareclass.objective import ModelParams
from rareclass.recognizer import (
    EMERGING, KNOWN, MAJORITY, Decision, ModelDocument, ModelDocumentError,
    StreamStats, load, predict_stream, save,
)
from rareclass.rejection import PERCENTILE, RejectionThresholds


def make_model(w0, b0, W, b, thresholds, subclass_names=None, representation=None,
               vocab=None, projection=None):
    W = np.asarray(W, dtype=np.float64)
    K, d = W.shape
    names = subclass_names or tuple(f"sub{k}" for k in range(1, K + 1))
    return ModelDocument(
        d=d, K=K,
        params=ModelParams(w0=np.asarray(w0, float), b0=float(b0),
                           W=W, b=np.asarray(b, float)),
        thresholds=RejectionThresholds(t=np.asarray(thresholds, float),
                                       method=PERCENTILE, q=0.05),
        representation=representation or {"kind": "raw"},
        subclass_names=names, vocab=vocab, projection=projection)


@pytest.fixture
def gate_model():
    """d=2, K=2: gc = x0, sc1 = x1, sc2 = -x1; both thresholds at 0."""
    return make_model(w0=[1.0, 0.0], b0=0.0,
                      W=[[0.0, 1.0], [0.0, -1.0]], b=[0.0, 0.0],
                      thresholds=[0.0, 0.0])


class TestPredict:
    def test_majority_short_circuit(self, gate_model):
        (dec,), stats = predict_stream(gate_model, [np.array([-3.0, 99.0])])
        assert dec.verdict == MAJORITY
        assert dec.sc_scores is None and dec.subclass is None
        assert stats.sc_evaluations == 0

    def test_emerging_when_all_reject(self):
        model = make_model(w0=[1.0, 0.0], b0=0.0,
                           W=[[0.0, 1.0], [0.0, -1.0]], b=[0.0, 0.0],
                           thresholds=[5.0, 5.0])
        dec = predict_stream(model, [np.array([2.0, 1.0])])[0][0]
        assert dec.verdict == EMERGING
        assert dec.sc_scores is not None

    def test_known_argmax_over_accepting(self):
        # five SCs scoring (x1 .. x5); only 2 and 5 accept, 5 scores higher
        W = np.eye(6)[1:]
        model = make_model(w0=[1.0, 0, 0, 0, 0, 0], b0=0.0, W=W, b=np.zeros(5),
                           thresholds=[10.0, 0.0, 10.0, 10.0, 0.0])
        dec = predict_stream(model, [np.array([1.0, 0.5, 1.0, 2.0, 3.0, 4.0])])[0][0]
        assert dec.verdict == KNOWN
        assert dec.subclass == 5

    def test_argmax_brute_force(self):
        # every accept/score configuration at K = 4 against a brute-force oracle
        K = 4
        scores_pool = [-1.0, 0.5, 1.5, 2.5]
        for accept_mask in itertools.product([0, 1], repeat=K):
            thresholds = [0.0 if a else 10.0 for a in accept_mask]
            for perm in itertools.permutations(scores_pool):
                W = np.eye(K + 1)[1:]
                model = make_model(w0=np.eye(K + 1)[0], b0=0.0, W=W,
                                   b=np.zeros(K), thresholds=thresholds)
                x = np.array([1.0, *perm])
                dec = predict_stream(model, [x])[0][0]
                accepting = [k for k in range(1, K + 1)
                             if accept_mask[k - 1] and perm[k - 1] >= 0.0]
                if not accepting:
                    assert dec.verdict == EMERGING
                else:
                    expected = max(accepting, key=lambda k: (perm[k - 1], -k))
                    assert dec.verdict == KNOWN and dec.subclass == expected

    def test_tie_goes_to_smallest_id(self):
        model = make_model(w0=[1.0, 0.0], b0=0.0,
                           W=[[0.0, 1.0], [0.0, 1.0]], b=[0.0, 0.0],
                           thresholds=[0.0, 0.0])
        dec = predict_stream(model, [np.array([1.0, 2.0])])[0][0]
        assert dec.subclass == 1

    def test_zero_gc_score_is_majority(self, gate_model):
        assert predict_stream(gate_model, [np.array([0.0, 1.0])])[0][0].verdict == MAJORITY

    def test_dimension_mismatch(self, gate_model):
        with pytest.raises(ModelDocumentError, match="dimension"):
            predict_stream(gate_model, [np.ones(3)])

    def test_deterministic(self, gate_model):
        x = np.array([0.7, -0.2])
        a, b = predict_stream(gate_model, [x])[0][0], predict_stream(gate_model, [x])[0][0]
        assert a.verdict == b.verdict and a.subclass == b.subclass
        assert a.gc_score == b.gc_score
        assert np.array_equal(a.sc_scores, b.sc_scores)


class TestPredictStream:
    def test_all_majority_no_sc_work(self, gate_model):
        stream = [np.array([-1.0, v]) for v in np.linspace(-5, 5, 100)]
        decisions, stats = predict_stream(gate_model, stream)
        assert len(decisions) == 100
        assert stats.majority == 100
        assert stats.sc_evaluations == 0

    def test_empty_stream(self, gate_model):
        decisions, stats = predict_stream(gate_model, np.empty((0, 2)))
        assert decisions == [] and stats.total == 0

    def test_counts_reconcile(self, gate_model):
        rng = np.random.default_rng(0)
        stream = [rng.standard_normal(2) * 3 for _ in range(500)]
        decisions, stats = predict_stream(gate_model, stream)
        assert stats.total == 500
        recount = {MAJORITY: 0, KNOWN: 0, EMERGING: 0}
        for dec in decisions:
            recount[dec.verdict] += 1
        assert recount[MAJORITY] == stats.majority
        assert recount[KNOWN] == sum(stats.known.values())
        assert recount[EMERGING] == stats.emerging
        assert stats.sc_evaluations == 500 - stats.majority


def assert_same_routing(got, want):
    """Decision lists equal field by field, NaN equal to NaN."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.verdict, g.subclass) == (w.verdict, w.subclass)
        assert g.gc_score == w.gc_score or (math.isnan(g.gc_score) and math.isnan(w.gc_score))
        if w.sc_scores is None:
            assert g.sc_scores is None
        else:
            assert np.array_equal(g.sc_scores, w.sc_scores, equal_nan=True)


small_ints = st.integers(-3, 3).map(float)


@st.composite
def integer_instances(draw):
    """A model and a chunk whose entries are small integers: every score is
    then exact in float64, so a batched product must equal the per-item one
    bit for bit, and scores land exactly on thresholds, on ties and on 0."""
    d, K, n = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 80))
    model = make_model(w0=draw(arrays(np.float64, d, elements=small_ints)),
                       b0=draw(small_ints),
                       W=draw(arrays(np.float64, (K, d), elements=small_ints)),
                       b=draw(arrays(np.float64, K, elements=small_ints)),
                       thresholds=draw(arrays(np.float64, K, elements=st.integers(-4, 4).map(float))))
    return model, draw(arrays(np.float64, (n, d), elements=small_ints))


# (model, rows) for the boundary cases of the routing rule
EDGE_CASES = {
    "score exactly at threshold": (
        make_model(w0=[1.0, 0.0], b0=0.0, W=[[0.0, 1.0], [0.0, 2.0]], b=[0.0, 0.0],
                   thresholds=[2.0, 4.0]),
        [[1.0, 2.0], [1.0, 1.5], [1.0, 2.5], [1.0, 1.0]]),
    "tie between accepting SCs": (
        make_model(w0=[1.0, 0.0], b0=0.0, W=[[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
                   b=[0.0, 0.0, 0.0], thresholds=[5.0, 0.0, 0.0]),
        [[1.0, 3.0], [1.0, 7.0]]),
    "gc exactly 0": (
        make_model(w0=[1.0, -1.0], b0=0.0, W=[[0.0, 1.0]], b=[0.0], thresholds=[0.0]),
        [[2.0, 2.0], [0.0, 0.0], [3.0, 2.0]]),
    "K=1": (
        make_model(w0=[1.0], b0=-1.0, W=[[1.0]], b=[-2.0], thresholds=[0.0]),
        [[0.0], [1.0], [1.5], [2.0], [3.0]]),
    "all majority": (
        make_model(w0=[1.0, 1.0], b0=-100.0, W=[[1.0, 0.0], [0.0, 1.0]], b=[0.0, 0.0],
                   thresholds=[0.0, 0.0]),
        [[3.0, -2.0], [1.0, 1.0], [0.0, 0.0]]),
    "NaN row": (
        make_model(w0=[1.0, 0.0], b0=0.0, W=[[0.0, 1.0], [0.0, -1.0]], b=[0.0, 0.0],
                   thresholds=[0.0, 0.0]),
        [[1.0, 2.0], [math.nan, 1.0], [-1.0, 0.0]]),
}


class TestBatchedRouting:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(integer_instances(), st.integers(1, 80))
    def test_matches_per_item_loop(self, instance, cut):
        model, X = instance
        want, want_stats = route_per_item(model, X)
        got, got_stats = predict_stream(model, X)
        assert_same_routing(got, want)
        assert got_stats == want_stats
        # routing must not depend on where the stream is cut into chunks
        head, stats = predict_stream(model, X[:cut])
        tail, tail_stats = predict_stream(model, X[cut:])
        stats.merge(tail_stats)
        assert_same_routing(head + tail, want)
        assert stats == want_stats
        assert_same_routing([predict_stream(model, X[i:i + 1])[0][0] for i in range(len(X))], want)

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases_match_per_item_loop(self, case):
        model, rows = EDGE_CASES[case]
        X = np.array(rows)
        want, want_stats = route_per_item(model, X)
        got, got_stats = predict_stream(model, X)
        assert_same_routing(got, want)
        assert got_stats == want_stats
        assert got_stats.sc_evaluations == sum(d.verdict != MAJORITY for d in got)

    def test_nan_row_is_never_majority_or_known(self):
        model, rows = EDGE_CASES["NaN row"]
        dec = predict_stream(model, np.array(rows))[0][1]
        assert dec.verdict == EMERGING and math.isnan(dec.gc_score)

    def test_array_and_row_sources_agree(self, gate_model):
        X = np.random.default_rng(4).standard_normal((50, 2))
        by_rows, stats_rows = predict_stream(gate_model, list(X))
        by_array, stats_array = predict_stream(gate_model, X)
        assert_same_routing(by_array, by_rows)
        assert stats_array == stats_rows

    def test_array_of_wrong_width(self, gate_model):
        with pytest.raises(ModelDocumentError, match="dimension"):
            predict_stream(gate_model, np.ones((4, 3)))

    def test_stats_merge(self):
        a = StreamStats(majority=2, known={1: 1, 3: 2}, emerging=1, sc_evaluations=4)
        a.merge(StreamStats(majority=1, known={3: 1, 2: 5}, emerging=0, sc_evaluations=6))
        assert a == StreamStats(majority=3, known={1: 1, 2: 5, 3: 3}, emerging=1,
                                sc_evaluations=10)


class TestModelDocument:
    def test_consistency_errors_name_fields(self):
        params = ModelParams(w0=np.zeros(2), b0=0.0, W=np.zeros((3, 2)), b=np.zeros(3))
        th = RejectionThresholds(t=np.zeros(2), method=PERCENTILE, q=0.05)
        with pytest.raises(ModelDocumentError, match="thresholds.*K="):
            ModelDocument(d=2, K=3, params=params, thresholds=th,
                          representation={"kind": "raw"},
                          subclass_names=("a", "b", "c"))

    @pytest.mark.parametrize("representation", [{"kind": "bow"}, {}, "raw"],
                             ids=["kind", "no-kind", "string"])
    def test_unknown_representation(self, gate_model, representation):
        # a model file's field table refuses these first; a model built in code meets this check
        with pytest.raises(ModelDocumentError, match="^unknown representation "):
            ModelDocument(d=2, K=2, params=gate_model.params, thresholds=gate_model.thresholds,
                          representation=representation, subclass_names=("a", "b"))

    @pytest.mark.parametrize("representation, parts, message", [
        ({"kind": "tfidf"}, {}, "tfidf model document has no vocabulary"),
        ({"kind": "pca", "rank": 2}, {}, "pca model document has no vocabulary"),
        ({"kind": "pca", "rank": 2}, {"vocab": build_vocab(["aa"])}, "pca model document has no projection"),
    ], ids=["tfidf-vocab", "pca-vocab", "pca-projection"])
    def test_text_model_is_built_with_its_parts(self, representation, parts, message):
        # the message `load` gives a file without the part: save cannot write such a file
        with pytest.raises(ModelDocumentError, match=f"^{message}$"):
            make_model(w0=np.zeros(2), b0=0.0, W=np.zeros((1, 2)), b=[0.0], thresholds=[0.0],
                       representation=representation, **parts)

    @pytest.mark.parametrize("name, value", [("vocab", build_vocab(["aa"])), ("projection", None), ("d", 3)])
    def test_built_document_is_frozen(self, gate_model, name, value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(gate_model, name, value)
        assert gate_model.vocab is None and gate_model.d == 2

    def test_built_representation_is_read_only(self, tmp_path):
        representation = {"kind": "raw", "d": 2}
        doc = make_model(w0=[1.0, 0.0], b0=0.0, W=[[0.0, 1.0]], b=[0.0], thresholds=[0.0],
                         representation=representation)
        with pytest.raises(TypeError):
            doc.representation["d"] = 5
        representation["d"] = 5                 # the document holds its own copy
        assert dataclasses.replace(doc).representation == {"kind": "raw", "d": 2}
        f = tmp_path / "model.json"
        save(doc, f)
        assert load(f).representation == {"kind": "raw", "d": 2}

    def test_featurize_records(self):
        vocab = build_vocab(["flood water flood", "fire smoke", "calm day"])
        model = make_model(w0=np.zeros(vocab.d), b0=0.0,
                           W=np.zeros((1, vocab.d)), b=[0.0],
                           thresholds=[0.0],
                           representation={"kind": "tfidf"}, vocab=vocab)
        X = model.featurize([{"text": "flood water"}, {"text": "calm"}])
        assert X.shape == (2, vocab.d)
        Xf = model.featurize([{"features": [0.0] * vocab.d}])
        assert Xf.shape == (1, vocab.d)

    def test_featurize_refuses_ragged_features(self, gate_model):
        with pytest.raises(ModelDocumentError, match="malformed 'features' record"):
            gate_model.featurize([{"features": [1.0, 2.0]}, {"features": [1.0]}])

    def test_raw_model_requires_features(self, gate_model):
        with pytest.raises(ModelDocumentError, match="features"):
            gate_model.featurize([{"text": "hello"}])

    def test_featurize_chooses_per_record(self):
        vocab = build_vocab(["flood water flood", "fire smoke", "calm day"])
        model = make_model(w0=np.zeros(vocab.d), b0=0.0, W=np.zeros((1, vocab.d)), b=[0.0],
                           thresholds=[0.0], representation={"kind": "tfidf"}, vocab=vocab)
        features = [float(j) for j in range(vocab.d)]
        X = model.featurize([{"text": "flood water"}, {"features": features},
                             {"text": "fire", "features": features}])
        assert np.array_equal(X[0], model.featurize([{"text": "flood water"}])[0])
        assert np.array_equal(X[1], features) and np.array_equal(X[2], features)
        assert model.featurize([]).shape == (0, vocab.d)

    @pytest.mark.parametrize("rec, message", [
        ([1.0, 2.0], "not a JSON object"),
        ({"features": "1 2"}, "not a list"),
        ({"features": {"a": 1}}, "not a list"),
        ({"features": None}, "not a list"),
        ({"features": [1.0, 2.0, 3.0]}, "feature dimension 3 != model d 2"),
        ({"features": [1.0, [2.0]]}, "non-numeric"),
        ({"features": [1.0, "2"]}, "non-numeric"),
        ({"features": [1.0, None]}, "non-numeric"),
        ({"features": [True, 1.0]}, "non-numeric"),
        ({"features": [1, 10 ** 400]}, "float range"),
        ({"text": "hello"}, "requires 'features'"),
        ({}, "requires 'features'"),
    ])
    def test_check_record_rejects(self, gate_model, rec, message):
        with pytest.raises(ModelDocumentError, match=message):
            gate_model.check_record(rec)

    def test_check_record_accepts(self, gate_model):
        gate_model.check_record({"features": [1, -2.5]})
        gate_model.check_record({"features": [0.0, math.nan], "text": 3})
        text_model = make_model(w0=[0.0], b0=0.0, W=[[0.0]], b=[0.0], thresholds=[0.0],
                                representation={"kind": "tfidf"}, vocab=build_vocab(["aa"]))
        text_model.check_record({"text": "hello"})
        text_model.check_record({})
        with pytest.raises(ModelDocumentError, match="'text' is not a string"):
            text_model.check_record({"text": ["hello"]})


# each way a caller's input can miss the d = 2 of gate_model, and the exact message
INPUT_RULES = {
    "predict 0-d": (lambda m: predict_stream(m, [np.float64(1.0)]), "input dimension () != (2,)"),
    "predict length 3": (lambda m: predict_stream(m, [np.ones(3)]), "input dimension (3,) != (2,)"),
    "predict (1, 2)": (lambda m: predict_stream(m, [np.ones((1, 2))]), "input dimension (1, 2) != (2,)"),
    "predict (2, 2)": (lambda m: predict_stream(m, [np.ones((2, 2))]), "input dimension (2, 2) != (2,)"),
    "predict list": (lambda m: predict_stream(m, [[1.0]]), "input dimension (1,) != (2,)"),
    "stream (4, 3)": (lambda m: predict_stream(m, np.ones((4, 3))), "input dimension (3,) != (2,)"),
    "stream 1-D": (lambda m: predict_stream(m, np.ones(2)), "input dimension () != (2,)"),
    "featurize width 3": (lambda m: m.featurize([{"features": [1, 2, 3]}]),
                          "feature dimension 3 != model d 2"),
    "featurize text": (lambda m: m.featurize([{"text": "hello"}]),
                       "raw-representation model requires 'features' records"),
}


@pytest.mark.parametrize("case", INPUT_RULES)
def test_input_rule_messages(gate_model, case):
    call, message = INPUT_RULES[case]
    with pytest.raises(ModelDocumentError) as info:
        call(gate_model)
    assert str(info.value) == message
    assert predict_stream(gate_model, np.empty((0, 2)))[0] == []
    assert gate_model.featurize([]).shape == (0, 2)


WORDS = ["flood", "water", "fire", "smoke", "calm", "day", "unseen"]
VOCAB = build_vocab(["flood water flood", "fire smoke", "calm day"])


def featurize_model(kind):
    d = 2 if kind == "raw" else VOCAB.d
    return make_model(w0=np.zeros(d), b0=0.0, W=np.zeros((1, d)), b=[0.0], thresholds=[0.0],
                      representation={"kind": kind}, vocab=None if kind == "raw" else VOCAB)


def stream_records(d):
    """Records that pass check_record: d numbers under `features` (a `text`
    beside them is ignored), or else a `text` that is absent, null or a string."""
    text = st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)
    number = st.floats(width=64) | st.integers(-10 ** 6, 10 ** 6)
    features = st.fixed_dictionaries({"features": st.lists(number, min_size=d, max_size=d)},
                                      optional={"text": text})
    return st.lists(features | st.fixed_dictionaries({}, optional={"text": st.none() | text}),
                    max_size=8)


# pca is left out: its text rows depend on the other text records of their chunk
@pytest.mark.parametrize("kind", ["raw", "tfidf"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_featurize_row_is_its_record_alone(kind, data):
    model = featurize_model(kind)
    records = data.draw(stream_records(model.d))
    if kind == "raw" and any("features" not in r for r in records):
        with pytest.raises(ModelDocumentError, match="requires 'features'"):
            model.featurize(records)
        records = [r for r in records if "features" in r]
    X = model.featurize(records)
    assert X.shape == (len(records), model.d) and X.dtype == np.float64
    for row, rec in zip(X, records):
        assert row.tobytes() == model.featurize([rec])[0].tobytes()


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path, gate_model):
        rng = np.random.default_rng(1)
        model = make_model(w0=rng.standard_normal(4), b0=rng.standard_normal(),
                           W=rng.standard_normal((3, 4)), b=rng.standard_normal(3),
                           thresholds=rng.standard_normal(3))
        f = tmp_path / "model.json"
        save(model, f)
        back = load(f)
        assert back.params.w0.tobytes() == model.params.w0.tobytes()
        assert back.params.W.tobytes() == model.params.W.tobytes()
        assert back.params.b.tobytes() == model.params.b.tobytes()
        assert back.params.b0 == model.params.b0
        assert back.thresholds.t.tobytes() == model.thresholds.t.tobytes()
        assert back.subclass_names == model.subclass_names

    def test_roundtrip_with_projection(self, tmp_path):
        rng = np.random.default_rng(2)
        proj = pca_fit(rng.standard_normal((20, 5)), rank=2)
        model = make_model(w0=np.zeros(2), b0=0.0, W=np.zeros((1, 2)), b=[0.0],
                           thresholds=[0.0],
                           representation={"kind": "pca", "rank": 2}, projection=proj,
                           vocab=build_vocab(["aa bb cc dd ee"]))    # a pca model carries its vocabulary
        f = tmp_path / "model.json"
        save(model, f)
        back = load(f)
        assert back.projection.components.tobytes() == proj.components.tobytes()

    def test_non_finite_value_is_refused_and_nothing_written(self, tmp_path):
        # the constructors refuse non-finite parameters and thresholds; a projection is not checked
        proj = pca_fit(np.random.default_rng(2).standard_normal((20, 5)), rank=2)
        proj.mean[3] = math.nan
        model = make_model(w0=np.zeros(2), b0=0.0, W=np.zeros((1, 2)), b=[0.0], thresholds=[0.0],
                           representation={"kind": "pca", "rank": 2}, projection=proj,
                           vocab=build_vocab(["aa bb cc dd ee"]))
        f = tmp_path / "model.json"
        with pytest.raises(ModelDocumentError, match="^model document has a non-finite value: "):
            save(model, f)
        assert list(tmp_path.iterdir()) == []

    def test_truncated_file(self, tmp_path):
        f = tmp_path / "model.json"
        f.write_text('{"version": 1, "d": 2,')
        with pytest.raises(ModelDocumentError, match="corrupt"):
            load(f)

    def test_inconsistent_document(self, tmp_path, gate_model):
        f = tmp_path / "model.json"
        save(gate_model, f)
        doc = json.loads(f.read_text())
        doc["thresholds"]["t"] = [0.0]          # K=2 model, one threshold
        f.write_text(json.dumps(doc))
        with pytest.raises(ModelDocumentError, match="thresholds"):
            load(f)

    def test_size_independent_of_stream_length(self, tmp_path, gate_model):
        f1, f2 = tmp_path / "before.json", tmp_path / "after.json"
        save(gate_model, f1)
        rng = np.random.default_rng(3)
        predict_stream(gate_model, [rng.standard_normal(2) for _ in range(1000)])
        save(gate_model, f2)
        assert f1.read_bytes() == f2.read_bytes()
