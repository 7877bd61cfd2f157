"""A corpus record that breaks a rule is refused as it is read: exit 2 naming
its line, no traceback and no output file, whichever command reads it."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from rareclass.cli import EXIT_DATA, EXIT_OK, main
from rareclass.dataset import CorpusError, load_corpus

COMMANDS = {
    "train": ["train", "--rep", "raw", "--iters", "5", "--reject", "percentile"],
    "coverage": ["coverage", "--top-n", "5"],
}


def _records():
    """Two subclasses of eight and eight majority docs, each with text and three features."""
    records = []
    for i in range(24):
        kind = i % 3                                    # 0: majority, 1: "a", 2: "b"
        rec = {"text": f"word{kind} common{i % 4} other{i}",
               "label": "rare" if kind else "majority",
               "features": [[-1, 1, 1][kind], [0, 1, -1][kind], i / 10]}
        if kind:
            rec["subclass"] = "ab"[kind - 1]
        records.append(rec)
    return records


def _write(path, lines):
    path.write_text("\n" + "\n".join(lines) + "\n")     # record i is on line i + 2


def _run(command, corpus, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([COMMANDS[command][0], "--input", str(corpus), "--out", str(out),
                   *COMMANDS[command][1:]])
    return rc, err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unmutated_corpus_runs(tmp_path, command):
    corpus = tmp_path / "c.jsonl"
    _write(corpus, [json.dumps(rec) for rec in _records()])
    rc, err = _run(command, corpus, tmp_path / "out.json")
    assert rc == EXIT_OK, err
    assert (tmp_path / "out.json").exists()


class TestSubclassRule:
    @pytest.mark.parametrize("value", [["a"], 7, True, False, 0, 1.5, {"name": "a"}],
                             ids=["list", "int", "true", "false", "zero", "float", "object"])
    @pytest.mark.parametrize("label", ["rare", "majority"])
    def test_non_string_subclass_is_refused(self, tmp_path, label, value):
        records = _records()
        records[2]["label"], records[2]["subclass"] = label, value
        corpus = tmp_path / "c.jsonl"
        _write(corpus, [json.dumps(rec) for rec in records])
        with pytest.raises(CorpusError, match="^line 4: 'subclass' is not a string$"):
            load_corpus(corpus)

    @pytest.mark.parametrize("value", [None, ""], ids=["null", "empty"])
    def test_null_or_empty_subclass_reads_as_none(self, tmp_path, value):
        records = _records()
        records[0]["subclass"] = value                  # a majority record
        corpus = tmp_path / "c.jsonl"
        _write(corpus, [json.dumps(rec) for rec in records])
        assert load_corpus(corpus).docs[0].subclass is None

    def test_names_stay_strings(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        _write(corpus, [json.dumps(rec) for rec in _records()])
        assert load_corpus(corpus).subclass_names == ("a", "b")


class TestMissingFeatures:
    @pytest.mark.parametrize("missing", ["absent", "null"])
    def test_raw_train_names_the_line(self, tmp_path, missing):
        records = _records()
        if missing == "absent":
            del records[2]["features"]
        else:
            records[2]["features"] = None
        corpus = tmp_path / "c.jsonl"
        _write(corpus, [json.dumps(rec) for rec in records])
        rc, err = _run("train", corpus, tmp_path / "out.json")
        assert rc == EXIT_DATA
        assert "error: line 4: doc has no pre-built features" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]

    def test_a_generated_corpus_names_the_doc(self, tiny_corpus):
        with pytest.raises(CorpusError, match="^doc 0 has no pre-built features$"):
            tiny_corpus.feature_matrix()

    def test_only_the_rows_asked_for(self, tmp_path):
        records = _records()
        del records[2]["features"]
        corpus = tmp_path / "c.jsonl"
        _write(corpus, [json.dumps(rec) for rec in records])
        corpus = load_corpus(corpus)
        assert corpus.feature_matrix([1, 0, 3]).tolist() == [
            records[i]["features"] for i in (1, 0, 3)]
        with pytest.raises(CorpusError, match="^line 4: "):
            corpus.feature_matrix([0, 2])


def _mutant(draw, kind, rec):
    """`rec`, as a line, broken in the way `kind` names."""
    rec = dict(rec)
    features = list(rec["features"])
    if kind == "type":
        rec["features"] = draw(st.sampled_from([{}, "1,2,3", 3, 1.5, True]))
    elif kind in ("null", "bool", "string", "list"):
        features[draw(st.integers(0, 2))] = {"null": None, "bool": draw(st.booleans()),
                                             "string": "1", "list": [1]}[kind]
        rec["features"] = features
    elif kind == "length":
        rec["features"] = features + [0] if draw(st.booleans()) else features[:-1]
    elif kind == "non-finite":
        features[draw(st.integers(0, 2))] = draw(st.sampled_from(
            [float("nan"), float("inf"), -float("inf")]))
        rec["features"] = features
    elif kind == "truncated":
        line = json.dumps(rec)
        return line[:draw(st.integers(1, len(line) - 1))]
    elif kind == "non-object":
        return json.dumps(draw(st.sampled_from([[0, 0, 0], 3, "x", None, True])))
    else:                                               # a non-string text, subclass or label
        rec[kind] = draw(st.sampled_from([5, 1.5, True, [], ["a"], {}] + ([None] * (kind == "label"))))
    return json.dumps(rec)


KINDS = ["type", "null", "bool", "string", "list", "length", "non-finite", "truncated",
         "non-object", "text", "subclass", "label"]


class TestCorpusRecordFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mutated_record_is_refused_naming_its_line(self, tmp_path_factory, data):
        root = tmp_path_factory.mktemp("corpus-fuzz")
        kind = data.draw(st.sampled_from(KINDS))
        records = _records()
        # the first features row sets the dimension, so a wrong length is found after it
        at = data.draw(st.integers(1 if kind == "length" else 0, len(records) - 1))
        lines = [json.dumps(rec) for rec in records]
        lines[at] = _mutant(data.draw, kind, records[at])
        corpus = root / "c.jsonl"
        _write(corpus, lines)
        for command in COMMANDS:
            rc, err = _run(command, corpus, root / "out.json")
            assert rc == EXIT_DATA and f"error: line {at + 2}: " in err, (command, lines[at], err)
            assert "Traceback" not in err
            assert sorted(p.name for p in root.iterdir()) == ["c.jsonl"]
