"""The model file at the `predict` boundary: every field of a model written by
`train` is read through one field table, and a corrupted field is exit 2,
names its key and writes nothing."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import text_feature_corpus
from rareclass.cli import EXIT_DATA, EXIT_OK, main
from rareclass.dataset import save_corpus
from rareclass.recognizer import load, save

TRAIN_FLAGS = ["--iters", "40", "--step", "0.003", "--mu", "1e-4", "--q", "0.05"]
# (--rep flag, --reject flag): evt fits give tail objects, percentile gives nulls
REPS = {"raw": ("raw", "evt"), "tfidf": ("tfidf1k", "percentile"), "pca": ("pca:4", "evt")}
# positions where null is a valid value, and keys that may be absent
NULLABLE = {("vocab",), ("projection",)}
OPTIONAL = {("representation", "d"), ("representation", "rank")}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One model file per representation, with a one-record stream it can route."""
    root = tmp_path_factory.mktemp("model-file")
    corpus = root / "corpus.jsonl"
    save_corpus(text_feature_corpus(), corpus)
    models = {}
    for name, (rep, reject) in REPS.items():
        path = root / f"{name}.json"
        assert main(["train", "--input", str(corpus), "--rep", rep, "--reject", reject,
                     *TRAIN_FLAGS, "--out", str(path)]) == EXIT_OK
        doc = json.loads(path.read_text())
        stream = root / f"{name}.jsonl"
        record = {"features": [0.5] * doc["d"]} if name == "raw" else {"text": "baa bab tbb sbb"}
        stream.write_text(json.dumps(record) + "\n")
        models[name] = (path, doc, stream)
    return root, models


def predict_corrupted(root, stream, doc):
    """(exit code, stderr) of `predict` on a model file holding doc, and whether it wrote --out."""
    model, out = root / "corrupted.json", root / "decisions.jsonl"
    model.write_text(json.dumps(doc))                # NaN and Infinity as Python writes them
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["predict", "--model", str(model), "--input", str(stream), "--out", str(out)])
    wrote = out.exists()
    if wrote:
        out.unlink()
    return rc, err.getvalue(), wrote


def _set(path, value):
    def corrupt(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return corrupt


# each corruption that once loaded (or crashed), and the key its error names
CORRUPTIONS = [
    ("raw", _set(["version"], True), "'version'"),
    ("raw", _set(["subclass_names"], "abc"), "'subclass_names'"),
    ("raw", _set(["thresholds", "q"], "0.05"), "'thresholds.q'"),
    ("raw", _set(["thresholds", "fallback"], "yes"), "'thresholds.fallback'"),
    ("raw", _set(["thresholds", "method"], 5), "'thresholds.method'"),
    ("raw", _set(["thresholds", "method"], "bogus"), "'thresholds.method'"),
    ("raw", _set(["params", "b0"], "0.5"), "'params.b0'"),
    ("raw", _set(["params", "w0", 0], True), "'params.w0'"),
    ("tfidf", _set(["vocab", "terms"], "abcdefghijkl"), "'vocab.terms'"),
    ("tfidf", _set(["vocab", "df", 0], 1.5), "'vocab.df[0]'"),
    ("raw", _set(["representation", "d"], "zz"), "'representation.d'"),
    ("pca", _set(["projection"], 7), "'projection'"),
    # checked by the table alone: not by ModelParams, PcaProjection or any count
    ("raw", _set(["params", "w0", 1], math.inf), "'params.w0'"),
    ("pca", _set(["projection", "explained_variance", 0], math.nan), "'projection.explained_variance'"),
    ("tfidf", _set(["vocab", "note"], "x"), "'vocab.note'"),
    # a representation key that disagrees with the rest of the document
    ("pca", _set(["representation", "rank"], 9), "'representation.rank'"),
    ("raw", _set(["representation", "d"], 77), "'representation.d'"),
    ("pca", _set(["representation", "d"], 77), "'representation.d'"),
    # a pca key in another kind's representation
    ("raw", _set(["representation", "rank"], 4), "'representation.rank'"),
    ("tfidf", _set(["representation", "rank"], 9), "'representation.rank'"),
    # a size that disagrees with the parameters
    ("raw", _set(["d"], 99), "d=99"),
    ("raw", _set(["K"], 2), "K=2"),
    # an int version other than the one the field table reads
    ("raw", _set(["version"], 2), "'version'"),
]


@pytest.mark.parametrize("name, corrupt, key", CORRUPTIONS,
                         ids=[f"{name}-{key.strip(chr(39))}-{i}" for i, (name, _, key)
                              in enumerate(CORRUPTIONS)])
def test_corrupted_field_is_data_error_naming_its_key(trained, name, corrupt, key):
    root, models = trained
    _, doc, stream = models[name]
    doc = json.loads(json.dumps(doc))
    corrupt(doc)
    rc, err, wrote = predict_corrupted(root, stream, doc)
    assert rc == EXIT_DATA
    assert key in err and "Traceback" not in err
    assert not wrote


# (model, the model whose part is pasted in, the part): a part the model's kind would ignore
PASTED = [("tfidf", "pca", "projection"), ("raw", "tfidf", "vocab"), ("raw", "pca", "projection")]


@pytest.mark.parametrize("name, donor, key", PASTED, ids=[f"{key}-in-{name}" for name, _, key in PASTED])
def test_part_the_kind_ignores_is_data_error_naming_its_key(trained, name, donor, key):
    root, models = trained
    _, doc, stream = models[name]
    doc = dict(doc, **{key: models[donor][1][key]})
    rc, err, wrote = predict_corrupted(root, stream, doc)
    assert rc == EXIT_DATA
    assert f"'{key}'" in err and "Traceback" not in err
    assert not wrote


@pytest.mark.parametrize("content", [b'{"version": 1, "d": 2,', b"\xff\xfe{}"], ids=["truncated", "not-utf8"])
def test_unreadable_model_file_is_data_error(trained, content):
    root, models = trained
    model, out = root / "unreadable.json", root / "decisions.jsonl"
    model.write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["predict", "--model", str(model), "--input", str(models["raw"][2]), "--out", str(out)])
    assert rc == EXIT_DATA
    assert "corrupt model document" in err.getvalue() and not out.exists()


@pytest.mark.parametrize("name", sorted(REPS))
def test_load_then_save_is_byte_identical(trained, tmp_path, name):
    path = trained[1][name][0]
    save(load(path), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _fields(value, path=()):
    """(path, value) of every key of every object below value, and of the first
    and the last item of every list."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = [(i, value[i]) for i in sorted({0, len(value) - 1}) if value]
    else:
        return
    for key, item in items:
        yield path + (key,), item
        yield from _fields(item, path + (key,))


def _json_type(value):
    return type(value).__name__


OTHER_VALUES = [True, 7, 2.5, "x", [], [1.0], {}]


@st.composite
def corruptions(draw, docs):
    """(model name, corrupted document): one field of a trained model given a
    wrong JSON type, null, removed, made one item longer or shorter, or made
    non-finite."""
    name = draw(st.sampled_from(sorted(docs)))
    doc = json.loads(json.dumps(docs[name]))
    fields = list(_fields(doc))
    kind = draw(st.sampled_from(["type", "null", "missing", "length", "non-finite"]))
    if kind == "null":
        fields = [(path, value) for path, value in fields if value is not None
                  and path not in NULLABLE and path[-2:-1] != ("fitted_tail_params",)]
    elif kind == "missing":
        fields = [(path, value) for path, value in fields
                  if isinstance(path[-1], str) and path not in OPTIONAL]
    elif kind == "length":
        fields = [(path, value) for path, value in fields if isinstance(value, list) and value]
    path, value = draw(st.sampled_from(fields))
    *parents, last = path
    parent = doc
    for key in parents:
        parent = parent[key]
    if kind == "type":
        # an int where a float stands is the same JSON type, a number; a float where an int stands is not
        same = {_json_type(value)} | ({"int"} if type(value) is float else set())
        parent[last] = draw(st.sampled_from([v for v in OTHER_VALUES if _json_type(v) not in same]))
    elif kind == "null":
        parent[last] = None
    elif kind == "missing":
        del parent[last]
    elif kind == "length":
        if draw(st.booleans()):
            value.append(value[-1])
        else:
            value.pop()
    else:
        parent[last] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return name, doc


class TestBoundaryFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_corrupted_model_is_data_error(self, trained, data):
        root, models = trained
        name, doc = data.draw(corruptions({name: m[1] for name, m in models.items()}))
        rc, err, wrote = predict_corrupted(root, models[name][2], doc)
        assert rc == EXIT_DATA, err
        assert "Traceback" not in err and not wrote


# (model, key, where its repeat goes): the repeat comes first, so a reader that keeps the
# last value would read the file's own value and load it
REPEATS = [("raw", "version", ""), ("raw", "b0", "params"), ("tfidf", "df", "vocab")]


@pytest.mark.parametrize("name, key, parent", REPEATS, ids=[key for _, key, _ in REPEATS])
def test_repeated_key_is_data_error_naming_it(trained, name, key, parent):
    root, models = trained
    path, _, stream = models[name]
    text = path.read_text()
    at = text.index(f'"{parent}": {{') + len(parent) + 5 if parent else 1
    text = text[:at] + f'"{key}": 99, ' + text[at:]
    model = root / "repeated.json"
    model.write_text(text)
    err_out = io.StringIO()
    with contextlib.redirect_stderr(err_out):
        rc = main(["predict", "--model", str(model), "--input", str(stream)])
    assert rc == EXIT_DATA
    assert err_out.getvalue() == f"error: corrupt model document: repeated key {key!r}\n"
