import json
import math
import pickle
import re
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_single_by_hand, text_feature_corpus, train_by_hand, write_integer_model
from rareclass import cli, featurize, trainer
from rareclass.cli import (
    EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_WORKER, bench_timings, build_parser, main,
)
from rareclass.dataset import SyntheticConfig, gen_synthetic, load_corpus, save_corpus, split_protocol
from rareclass.recognizer import (
    EMERGING, KNOWN, MAJORITY, Decision, load, predict_stream, save,
)
from rareclass.rejection import EVT_POT, PERCENTILE
from rareclass.trainer import DivergenceError, TrainConfig


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture
def synth_file(tmp_path):
    corpus = gen_synthetic(SyntheticConfig(
        d=6, K_total=3, docs_per_subclass=30, majority_docs=120,
        subclass_separation=6.0, noise_scale=1.0, seed=0))
    f = tmp_path / "synth.jsonl"
    save_corpus(corpus, f)
    return str(f)


@pytest.fixture
def text_file(tmp_path):
    records = [
        {"text": "flood waters rising in town", "label": "rare", "subclass": "flood"},
        {"text": "flood damage reported downtown", "label": "rare", "subclass": "flood"},
        {"text": "flood warnings issued again", "label": "rare", "subclass": "flood"},
        {"text": "wild fire spreads through forest", "label": "rare", "subclass": "fire"},
        {"text": "fire crews battle the blaze", "label": "rare", "subclass": "fire"},
        {"text": "fire alarm raised overnight", "label": "rare", "subclass": "fire"},
        {"text": "stock market opens steady today", "label": "majority"},
        {"text": "concert tickets go on sale", "label": "majority"},
        {"text": "local team wins the derby", "label": "majority"},
        {"text": "new cafe opens on main street", "label": "majority"},
    ]
    f = tmp_path / "docs.jsonl"
    f.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(f)


class TestTrainPredict:
    def test_train_writes_loadable_model(self, tmp_path, text_file):
        out = str(tmp_path / "model.json")
        rc = main(["train", "--input", text_file, "--rep", "tfidf1k",
                   "--mu", "1", "--iters", "100", "--reject", "percentile",
                   "--out", out])
        assert rc == EXIT_OK
        model = load(out)
        assert model.K == 2
        assert model.subclass_names == ("flood", "fire")

    def test_train_raw_features(self, tmp_path, synth_file):
        out = str(tmp_path / "model.json")
        rc = main(["train", "--input", synth_file, "--rep", "raw",
                   "--iters", "100", "--reject", "percentile", "--out", out])
        assert rc == EXIT_OK
        assert load(out).d == 6

    def test_predict_all_majority_stream(self, tmp_path, synth_file, capsys):
        model_path = str(tmp_path / "model.json")
        assert main(["train", "--input", synth_file, "--rep", "raw",
                     "--iters", "150", "--reject", "percentile",
                     "--out", model_path]) == EXIT_OK
        # a stream far on the majority side of the separator
        model = load(model_path)
        rng = np.random.default_rng(1)
        stream = tmp_path / "stream.jsonl"
        with open(stream, "w") as fh:
            for _ in range(20):
                x = rng.standard_normal(6) * 0.1
                while model.params.w0 @ x + model.params.b0 > 0:
                    x = rng.standard_normal(6) * 0.1
                fh.write(json.dumps({"features": x.tolist()}) + "\n")
        rc = main(["predict", "--model", model_path, "--input", str(stream)])
        assert rc == EXIT_OK
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 20
        assert all(rec["verdict"] == "Majority" for rec in lines)
        assert [rec["index"] for rec in lines] == list(range(20))

    def test_predict_to_file(self, tmp_path, synth_file):
        model_path = str(tmp_path / "model.json")
        main(["train", "--input", synth_file, "--rep", "raw", "--iters", "50",
              "--reject", "percentile", "--out", model_path])
        stream = tmp_path / "stream.jsonl"
        stream.write_text(json.dumps({"features": [0.0] * 6}) + "\n")
        out = tmp_path / "decisions.jsonl"
        assert main(["predict", "--model", model_path, "--input", str(stream),
                     "--out", str(out)]) == EXIT_OK
        assert out.exists()
        assert json.loads(out.read_text())["verdict"]


    def test_non_finite_score_is_numeric_error(self, tmp_path, synth_file, capsys):
        # a NaN feature gives a NaN score, which strict JSON cannot carry
        model = str(tmp_path / "m.json")
        assert main(["train", "--input", synth_file, "--rep", "raw", "--iters", "20",
                     "--out", model]) == EXIT_OK
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"features": [0, 0, 0, 0, 0, 0]}\n'
                          '{"features": [0, NaN, 0, 0, 0, 0]}\n')
        out = tmp_path / "d.jsonl"
        rc = main(["predict", "--model", model, "--input", str(stream), "--out", str(out)])
        assert rc == EXIT_NUMERIC and not out.exists()
        assert "non-finite" in capsys.readouterr().err

    def test_overflowing_tail_fit_falls_back_to_percentile(self, tmp_path):
        # four of subclass a's 20 docs lie 1e-7 apart, far below the other 16, so the
        # tail's moment fit has a huge negative shape and its power overflows
        rng = np.random.default_rng(0)
        rows = [("a", x) for x in np.array([10.0, 0.0]) + 1e-3 * rng.standard_normal((16, 2))]
        rows += [("a", x) for x in np.array([3.0, 0.0]) + 1e-7 * rng.standard_normal((4, 2))]
        rows += [(None, x) for x in rng.standard_normal((40, 2)) - np.array([5.0, 0.0])]
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(json.dumps(
            {"label": "majority" if name is None else "rare", "subclass": name,
             "features": x.tolist()}) + "\n" for name, x in rows))
        out = tmp_path / "m.json"
        rc = main(["train", "--input", str(corpus), "--rep", "raw", "--q", "0.5",
                   "--step", "0.01", "--mu", "0", "--out", str(out)])
        assert rc == EXIT_OK
        thresholds = json.loads(out.read_text())["thresholds"]
        assert (thresholds["method"], thresholds["fallback"]) == ("evt_pot", [True])

    def test_failed_eigendecomposition_is_numeric_error(self, tmp_path, text_file, capsys, monkeypatch):
        # a dsyevr that reports no convergence ends train with one error line, not a traceback
        monkeypatch.setattr(featurize, "_DSYEVR", lambda *args: 3)
        out = tmp_path / "m.json"
        rc = main(["train", "--input", text_file, "--rep", "pca:4", "--iters", "5",
                   "--reject", "percentile", "--out", str(out)])
        assert rc == EXIT_NUMERIC and not out.exists()
        assert capsys.readouterr().err.splitlines() == ["error: pca: dsyevr failed to converge (info=3)"]


@pytest.fixture
def integer_model(tmp_path):
    return write_integer_model(tmp_path / "int_model.json")


def _features_stream(path, rows):
    path.write_text("".join(json.dumps({"features": r}) + "\n" for r in rows))
    return str(path)


def _stats_line(err):
    lines = [l for l in err.splitlines() if l.startswith("predict ")]
    assert len(lines) == 1
    return dict(field.split("=") for field in lines[0].split()[1:])


class TestDecisionLine:
    @pytest.mark.parametrize("gc", [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0, -3.0,
                                    1.0, 0.1, 1 / 3, 1e16, 1e-7, 123456789.0, 2.5e-310])
    @pytest.mark.parametrize("verdict, subclass", [(MAJORITY, None), (KNOWN, 3), (EMERGING, None)])
    def test_bytes_match_json_encoder(self, gc, verdict, subclass):
        d = Decision(verdict, subclass, gc, None)
        assert cli._decision_line(17, d) == cli._dumps(d.to_json(index=17)) + "\n"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 10 ** 9),
           st.integers(1, 50))
    def test_bytes_match_for_any_finite_score(self, gc, index, k):
        for d in (Decision(MAJORITY, None, gc, None), Decision(KNOWN, k, gc, None)):
            assert cli._decision_line(index, d) == cli._dumps(d.to_json(index=index)) + "\n"

    def test_numpy_float_score(self):
        d = Decision(KNOWN, 2, np.float64(0.25), None)
        assert cli._decision_line(0, d) == cli._dumps(d.to_json(index=0)) + "\n"

    @pytest.mark.parametrize("gc", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_refused(self, gc):
        with pytest.raises(FloatingPointError, match="non-finite"):
            cli._decision_line(0, Decision(EMERGING, None, gc, None))

    def test_dumps_refuses_a_non_finite_value(self):
        with pytest.raises(FloatingPointError, match="cannot write non-finite value as JSON"):
            cli._dumps({"x": float("nan")})


class TestPredictStreaming:
    @pytest.mark.parametrize("bad, message", [
        ('{"features": [1, 2]}', "feature dimension 2 != model d 3"),
        ('{"features": [1, [2, 3], 4]}', "non-numeric"),
        ('{"features": [1, "2", 3]}', "non-numeric"),
        ('{"features": [1, null, 3]}', "non-numeric"),
        ('{"features": [1, true, 3]}', "non-numeric"),
        ('{"features": 7}', "not a list"),
        ('{"features": "1,2,3"}', "not a list"),
        ('[1, 2, 3]', "not a JSON object"),
        ('{"text": "hello"}', "requires 'features'"),
        ('{"features": [1, 2, 3]', "invalid json"),
        ('{"features": [9, 9, 9], "features": [1, 2, 3]}', "repeated key 'features'"),
    ])
    def test_bad_record_is_data_error_naming_its_line(self, tmp_path, integer_model, capsys,
                                                      bad, message):
        stream = tmp_path / "s.jsonl"
        # blank lines count in line numbers: the bad record is on line 4
        stream.write_text('{"features": [1, 1, 1]}\n\n{"features": [2, 0, 0]}\n' + bad + "\n"
                          + '{"features": [0, 0, 0]}\n')
        out = tmp_path / "d.jsonl"
        rc = main(["predict", "--model", integer_model, "--input", str(stream),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert "line 4: " in err and message in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["int_model.json", "s.jsonl"]

    def test_all_majority_stream_across_chunks(self, tmp_path, integer_model, capsys,
                                               monkeypatch):
        rows = [[-i, 0, i] for i in range(8)]
        stream = _features_stream(tmp_path / "s.jsonl", rows)
        assert main(["predict", "--model", integer_model, "--input", stream]) == EXIT_OK
        whole = capsys.readouterr().out
        monkeypatch.setattr(cli, "PREDICT_CHUNK", 3)
        assert main(["predict", "--model", integer_model, "--input", stream]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == whole
        decisions = [json.loads(l) for l in whole.splitlines()]
        assert [d["index"] for d in decisions] == list(range(8))
        assert all(d["verdict"] == MAJORITY for d in decisions)
        assert _stats_line(captured.err)["sc_evaluations"] == "0"

    def test_mixed_stream_across_chunks(self, tmp_path, text_file, capsys, monkeypatch):
        model_path = str(tmp_path / "model.json")
        assert main(["train", "--input", text_file, "--rep", "tfidf1k", "--iters", "100",
                     "--reject", "percentile", "--out", model_path]) == EXIT_OK
        model = load(model_path)
        rng = np.random.default_rng(2)
        texts = [json.loads(l)["text"] for l in Path(text_file).read_text().splitlines()]
        records = []
        for i, text in enumerate(texts):
            records.append({"text": text})
            if i % 3 == 0:
                records.append({"features": (rng.standard_normal(model.d) * 0.5).tolist()})
        stream = tmp_path / "s.jsonl"
        stream.write_text("".join(json.dumps(r) + "\n" for r in records))

        outputs = []
        for chunk in (cli.PREDICT_CHUNK, 3):
            monkeypatch.setattr(cli, "PREDICT_CHUNK", chunk)
            assert main(["predict", "--model", model_path, "--input", str(stream)]) == EXIT_OK
            outputs.append(capsys.readouterr().out.splitlines(keepends=True))
        assert outputs[0] == outputs[1]
        # each record routed on its own: features when it has them, else its text
        expected = [predict_stream(model, model.featurize([r]))[0][0] for r in records]
        assert outputs[0] == [cli._dumps(d.to_json(index=i)) + "\n"
                              for i, d in enumerate(expected)]

    def test_stats_line_reconciles_with_decisions(self, tmp_path, integer_model, capsys,
                                                  monkeypatch):
        rng = np.random.default_rng(3)
        rows = rng.integers(-2, 4, size=(40, 3)).tolist()
        stream = _features_stream(tmp_path / "s.jsonl", rows)
        out = tmp_path / "d.jsonl"
        monkeypatch.setattr(cli, "PREDICT_CHUNK", 7)
        assert main(["predict", "--model", integer_model, "--input", stream,
                     "--out", str(out)]) == EXIT_OK
        stats = _stats_line(capsys.readouterr().err)
        decisions = [json.loads(l) for l in out.read_text().splitlines()]
        counts = {v: sum(d["verdict"] == v for d in decisions) for v in (MAJORITY, KNOWN, EMERGING)}
        assert int(stats["items"]) == len(decisions) == 40
        assert int(stats["majority"]) == counts[MAJORITY]
        assert int(stats["known"]) == counts[KNOWN]
        assert int(stats["emerging"]) == counts[EMERGING]
        assert int(stats["sc_evaluations"]) == counts[KNOWN] + counts[EMERGING]
        assert min(counts.values()) > 0
        assert float(stats["seconds"]) > 0 and float(stats["items_per_s"]) > 0

    def test_error_in_a_later_chunk(self, tmp_path, integer_model, capsys, monkeypatch):
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"features": [1, 1, 1]}\n' * 4 + '{"features": [1]}\n')
        monkeypatch.setattr(cli, "PREDICT_CHUNK", 2)
        out = tmp_path / "d.jsonl"
        assert main(["predict", "--model", integer_model, "--input", str(stream),
                     "--out", str(out)]) == EXIT_DATA
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))
        capsys.readouterr()
        # on stdout the chunks routed before the error are already written
        assert main(["predict", "--model", integer_model, "--input", str(stream)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 4
        assert "line 5: " in captured.err
        assert not re.search(r"^predict ", captured.err, re.M)


    def test_null_stream_text_reads_as_empty(self, tmp_path, text_file):
        model = str(tmp_path / "model.json")
        assert main(["train", "--input", text_file, "--rep", "tfidf1k", "--iters", "50",
                     "--reject", "percentile", "--out", model]) == EXIT_OK
        outputs = []
        for i, record in enumerate(['{"text": null}', '{"text": ""}', "{}"]):
            stream, out = tmp_path / f"s{i}.jsonl", tmp_path / f"d{i}.jsonl"
            stream.write_text(record + "\n")
            assert main(["predict", "--model", model, "--input", str(stream),
                         "--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_non_string_text_is_data_error(self, tmp_path, text_file, capsys):
        model = str(tmp_path / "model.json")
        assert main(["train", "--input", text_file, "--rep", "tfidf1k", "--iters", "50",
                     "--reject", "percentile", "--out", model]) == EXIT_OK
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"text": "flood"}\n{"text": 5}\n')
        out = tmp_path / "d.jsonl"
        capsys.readouterr()
        rc = main(["predict", "--model", model, "--input", str(stream), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert "line 2: 'text' is not a string" in err and "Traceback" not in err
        assert not out.exists()


class TestEvaluate:
    def test_deterministic_reports(self, tmp_path, synth_file):
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        args = ["evaluate", "--input", synth_file, "--rep", "raw",
                "--iters", "80", "--reps", "2", "--seed", "7",
                "--reject", "percentile"]
        assert main(args + ["--out", out1]) == EXIT_OK
        assert main(args + ["--out", out2]) == EXIT_OK
        r1, r2 = json.loads(Path(out1).read_text()), json.loads(Path(out2).read_text())
        r1["config"].pop("out"), r2["config"].pop("out")
        assert r1 == r2
        report = r1
        assert report["seeds"] == [7, 8]
        assert report["config"]["mu"] == 1.0      # provenance echo

    def test_config_file_merging(self, tmp_path, synth_file):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"reps": 1, "iters": 40, "rep": "raw",
                                    "reject": "percentile", "seed": 3}))
        out = str(tmp_path / "r.json")
        rc = main(["--config", str(conf), "evaluate", "--input", synth_file,
                   "--out", out])
        assert rc == EXIT_OK
        report = json.loads(Path(out).read_text())
        assert report["seeds"] == [3]
        assert report["config"]["iters"] == 40

    def test_flag_overrides_config(self, tmp_path, synth_file):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"reps": 3, "iters": 40, "rep": "raw",
                                    "reject": "percentile"}))
        out = str(tmp_path / "r.json")
        rc = main(["--config", str(conf), "evaluate", "--input", synth_file,
                   "--reps", "1", "--out", out])
        assert rc == EXIT_OK
        assert len(json.loads(Path(out).read_text())["per_seed"]) == 1

    def test_unknown_config_key_rejected(self, tmp_path, synth_file):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"bogus_key": 1}))
        rc = main(["--config", str(conf), "evaluate", "--input", synth_file])
        assert rc == EXIT_USAGE


# --rep flag, representation, pca rank: every representation `train` and `evaluate` take
REP_FLAGS = [("raw", "raw", 0), ("tfidf1k", "tfidf", 0), ("pca:4", "pca", 4)]
PIPELINE_FLAGS = ["--iters", "40", "--step", "0.003", "--mu", "1e-4", "--q", "0.05"]
PIPELINE_HP = {"lambda0": 1.0, "lambdak": 1.0, "mu": 1e-4}


@pytest.fixture
def text_feature_file(tmp_path):
    f = tmp_path / "corpus.jsonl"
    save_corpus(text_feature_corpus(), f)
    return str(f)


class TestPipelineCommands:
    """`train` and `evaluate` against the sequences they wrote out by hand before
    both went through evaluation.train_document."""

    @pytest.mark.parametrize("flag, rep, rank", REP_FLAGS)
    def test_train_writes_reference_bytes(self, tmp_path, text_feature_file, flag, rep, rank):
        out = tmp_path / "model.json"
        assert main(["train", "--input", text_feature_file, "--rep", flag, *PIPELINE_FLAGS,
                     "--reject", "percentile", "--out", str(out)]) == EXIT_OK
        hand = train_by_hand(load_corpus(text_feature_file), rep, rank, PIPELINE_HP,
                             TrainConfig(max_iters=40, step_size=0.003), PERCENTILE, 0.05)
        save(hand, tmp_path / "hand.json")
        assert out.read_bytes() == (tmp_path / "hand.json").read_bytes()

    @pytest.mark.parametrize("flag, rep, rank", REP_FLAGS)
    def test_evaluate_reports_reference_metrics(self, tmp_path, text_feature_file,
                                                flag, rep, rank):
        out = tmp_path / "report.json"
        assert main(["evaluate", "--input", text_feature_file, "--rep", flag, *PIPELINE_FLAGS,
                     "--reps", "2", "--seed", "5", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        corpus = load_corpus(text_feature_file)
        cfg = TrainConfig(max_iters=40, step_size=0.003, seed=5)
        assert not report["incomplete"]
        assert report["per_seed"] == [
            run_single_by_hand(corpus, PIPELINE_HP, cfg, seed, rep, rank, EVT_POT, 0.05)
            for seed in (5, 6)]

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--rep", "tfidf1k", *PIPELINE_FLAGS, "--reps", "3"],
        ["evaluate", "--rep", "pca:4", *PIPELINE_FLAGS, "--reps", "3"],
        ["coverage", "--solver", "greedy", "--top-n", "12"],
    ], ids=["evaluate-tfidf", "evaluate-pca", "coverage"])
    def test_each_document_tokenized_once(self, tmp_path, text_feature_file, monkeypatch,
                                          argv):
        calls = []
        tokenize = featurize.tokenize
        monkeypatch.setattr(featurize, "tokenize", lambda text: calls.append(text) or tokenize(text))
        assert main([argv[0], "--input", text_feature_file, "--out", str(tmp_path / "r.json"),
                     *argv[1:]]) == EXIT_OK
        assert len(calls) == load_corpus(text_feature_file).n


def _drop_last_term(vocab):
    vocab["terms"].pop()
    vocab["df"].pop()


class TestInputChecks:
    @pytest.mark.parametrize("bad, message", [
        ('{"label": "majority", "features": [1, 2]}', "feature dimension 2 != 3"),
        ('{"label": "majority", "features": [1, 2, 3, 4]}', "feature dimension 4 != 3"),
        ('{"label": "majority", "features": [1, [2, 3], 4]}', "non-numeric"),
        ('{"label": "majority", "features": ["x", 2.0, 0.5]}', "non-numeric"),
        ('{"label": "majority", "features": [1, null, 3]}', "non-numeric"),
        ('{"label": "majority", "features": [1, true, 3]}', "non-numeric"),
        ('{"label": "majority", "features": 5}', "not a list"),
        ('{"label": "majority", "features": [1, NaN, 3]}', "non-finite"),
        ('{"label": "majority", "features": [1, -Infinity, 3]}', "non-finite"),
        ('{"label": "majority", "features": [1, 1e400, 3]}', "non-finite"),
        ('{"label": "majority", "features": [1, 1' + "0" * 400 + ', 3]}', "float range"),
        ('[1, 2, 3]', "not a JSON object"),
        ('{"label": "rare", "subclass": "a", "label": "majority", "features": [1, 1, 1]}',
         "repeated key 'label'"),
    ], ids=["short", "long", "nested", "string", "null", "bool", "scalar", "nan", "-inf",
            "float-overflow", "int-overflow", "not-object", "repeated-key"])
    def test_bad_corpus_record_is_data_error_naming_its_line(self, tmp_path, capsys,
                                                             bad, message):
        corpus = tmp_path / "c.jsonl"
        # blank lines count in line numbers: the bad record is on line 4
        corpus.write_text('{"label": "rare", "subclass": "a", "features": [1, 1, 1]}\n\n'
                          '{"label": "majority", "features": [0, 0, 0]}\n' + bad + "\n"
                          '{"label": "rare", "subclass": "a", "features": [1, 0, 1]}\n')
        out = tmp_path / "m.json"
        rc = main(["train", "--input", str(corpus), "--rep", "raw", "--iters", "5",
                   "--reject", "percentile", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert "line 4: " in err and message in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]

    @pytest.mark.parametrize("argv", [
        ["train", "--rep", "tfidf1k", "--iters", "5", "--reject", "percentile"],
        ["coverage", "--top-n", "5"],
    ], ids=["train-tfidf", "coverage"])
    def test_non_string_text_is_data_error_naming_its_line(self, tmp_path, capsys, argv):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"text": "flood water", "label": "rare", "subclass": "a"}\n\n'
                          '{"text": "calm day", "label": "majority"}\n'
                          '{"text": 5, "label": "majority"}\n'
                          '{"text": "flood rain", "label": "rare", "subclass": "a"}\n')
        rc = main([argv[0], "--input", str(corpus), "--out", str(tmp_path / "o.json"), *argv[1:]])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert "line 4: 'text' is not a string" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]

    def test_null_text_reads_as_empty(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"text": null, "label": "rare", "subclass": "a", "features": [1, 1]}\n'
                          '{"label": "rare", "subclass": "a", "features": [1, 0]}\n'
                          '{"text": null, "label": "majority", "features": [0, 0]}\n'
                          '{"text": null, "label": "majority", "features": [0, 1]}\n')
        assert [d.text for d in load_corpus(corpus).docs] == ["", "", "", ""]
        assert main(["train", "--input", str(corpus), "--rep", "raw", "--iters", "5",
                     "--reject", "percentile", "--out", str(tmp_path / "m.json")]) == EXIT_OK

    @pytest.mark.parametrize("flag, key, message", [
        ("tfidf1k", "vocab", "tfidf model document has no vocabulary"),
        ("pca:4", "vocab", "pca model document has no vocabulary"),
        ("pca:4", "projection", "pca model document has no projection"),
    ], ids=["tfidf-vocab", "pca-vocab", "pca-projection"])
    def test_text_model_without_representation_is_data_error_at_load(
            self, tmp_path, text_feature_file, capsys, flag, key, message):
        model = tmp_path / "model.json"
        assert main(["train", "--input", text_feature_file, "--rep", flag, *PIPELINE_FLAGS,
                     "--reject", "percentile", "--out", str(model)]) == EXIT_OK
        doc = json.loads(model.read_text())
        doc[key] = None
        model.write_text(json.dumps(doc))
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"text": "baa bab tbb sbb"}\n')
        out = tmp_path / "d.jsonl"
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--input", str(stream), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, corrupt, message", [
        ("tfidf1k", lambda doc: _drop_last_term(doc["vocab"]), "vocabulary size"),
        ("pca:4", lambda doc: doc["projection"]["components"].pop(), "projection components"),
        ("pca:4", lambda doc: doc["projection"]["mean"].pop(), "projection components"),
        ("pca:4", lambda doc: _drop_last_term(doc["vocab"]), "inconsistent with vocabulary size"),
        ("pca:4", lambda doc: doc["projection"]["mean"].__setitem__(0, math.nan), "non-finite"),
        ("pca:4", lambda doc: doc["projection"]["components"][1].__setitem__(0, math.inf),
         "non-finite"),
        ("tfidf1k", lambda doc: doc.__setitem__("representation", {"kind": "lsa"}),
         "unknown representation"),
        ("tfidf1k", lambda doc: doc.__setitem__("representation", "tfidf"),
         "unknown representation"),
    ], ids=["tfidf-vocab-short", "pca-rank-short", "pca-mean-short", "pca-vocab-short",
            "pca-nan-mean", "pca-inf-component", "unknown-kind", "not-object"])
    def test_inconsistent_model_is_data_error_at_load(self, tmp_path, text_feature_file, capsys,
                                                      flag, corrupt, message):
        model = tmp_path / "model.json"
        assert main(["train", "--input", text_feature_file, "--rep", flag, *PIPELINE_FLAGS,
                     "--reject", "percentile", "--out", str(model)]) == EXIT_OK
        doc = json.loads(model.read_text())
        corrupt(doc)
        model.write_text(json.dumps(doc))               # NaN/Infinity as Python writes them
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"text": "baa bab tbb sbb"}\n')
        out = tmp_path / "d.jsonl"
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--input", str(stream), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert message in err and "Traceback" not in err
        assert not out.exists()


class TestCoverage:
    def test_greedy_report(self, tmp_path, text_file, capsys):
        out = str(tmp_path / "cov.json")
        csv_out = str(tmp_path / "words.csv")
        rc = main(["coverage", "--input", text_file, "--solver", "greedy",
                   "--top-n", "12", "--out", out, "--words-csv", csv_out])
        assert rc == EXIT_OK
        assert "objective=" in capsys.readouterr().out
        report = json.loads(Path(out).read_text())
        assert "general" in report and len(report["subclasses"]) == 2
        assert Path(csv_out).read_text().startswith("set,term")

    def test_no_cross_coverage_ratio_written_as_null(self, tmp_path, text_file):
        # "flood" and "fire" each occur in one subclass only: their ratio is infinite
        out = str(tmp_path / "cov.json")
        rc = main(["coverage", "--input", text_file, "--solver", "greedy",
                   "--top-n", "12", "--out", out])
        assert rc == EXIT_OK
        report = json.loads(Path(out).read_text(), parse_constant=_reject_constant)
        ratios = [e["ratio"] for sc in report["subclasses"] for e in sc["words"]]
        assert None in ratios

    def test_exact_solver(self, tmp_path, text_file):
        out = str(tmp_path / "cov.json")
        rc = main(["coverage", "--input", text_file, "--solver", "exact",
                   "--top-n", "10", "--out", out])
        assert rc == EXIT_OK
        assert json.loads(Path(out).read_text())["optimal"] is True


class TestSynthAndBench:
    def test_synth_roundtrip(self, tmp_path):
        out = str(tmp_path / "corpus.jsonl")
        rc = main(["synth", "--out", out, "--d", "4", "--k-total", "2",
                   "--docs-per-subclass", "5", "--majority-docs", "8",
                   "--separation", "3", "--seed", "1"])
        assert rc == EXIT_OK
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 2 * 5 + 8

    def test_synth_overflow_is_data_error_naming_the_scales(self, tmp_path, capsys):
        # numpy's overflow warning is an error under this suite's warning filter,
        # so a warning printed on the way to the message fails here
        out = tmp_path / "corpus.jsonl"
        assert main(["synth", "--out", str(out), "--noise", "1e308"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == "error: the features overflow: noise_scale=1e+308, subclass_separation=6\n"
        assert not out.exists()

    def test_bench_timings_structure(self):
        timings = bench_timings(n=80, d=10, K=2, iters=5, mu=1.0, seed=0)
        assert len(timings) == 3
        ns = [t["n"] for t in timings]
        assert ns[1] > ns[0] and ns[2] > ns[1]
        assert all(t["seconds"] > 0 for t in timings)

    def test_bench_command_output(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        rc = main(["bench", "--n", "80", "--d", "10", "--k", "2",
                   "--iters", "5", "--out", out])
        assert rc == EXIT_OK
        payload = json.loads(Path(out).read_text())
        assert len(payload["timings"]) == 3 and len(payload["ratios"]) == 2
        assert payload["config"]["d"] == 10

    @pytest.mark.parametrize("child, code, message", [
        # killed (say, for memory) before it wrote a result
        (subprocess.CompletedProcess([], -9, stdout=b""), EXIT_WORKER,
         "bench child exited with status -9"),
        # a documented error in a fit is pickled back and keeps its exit code
        (subprocess.CompletedProcess([], 0, stdout=pickle.dumps(DivergenceError("loss ran away"))),
         EXIT_NUMERIC, "loss ran away"),
    ], ids=["child-died", "child-error"])
    def test_bench_child_failure_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                   child, code, message):
        monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: child)
        out = tmp_path / "bench.json"
        assert main(["bench", "--n", "80", "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not out.exists()


class TestErrorsAndSeeds:
    def test_missing_input_is_data_error(self, tmp_path):
        rc = main(["train", "--input", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_DATA

    def test_malformed_corpus_is_data_error(self, tmp_path):
        f = tmp_path / "bad.jsonl"
        f.write_text("{not json\n")
        rc = main(["train", "--input", str(f), "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_DATA

    def test_majority_only_corpus_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "majority.jsonl"
        corpus.write_text('{"label": "majority", "text": "quiet day in town"}\n' * 3)
        out = tmp_path / "m.json"
        rc = main(["train", "--input", str(corpus), "--out", str(out)])
        assert rc == EXIT_DATA and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: corpus must contain at least one rare subclass"]

    def test_divergence_is_numeric_error(self, synth_file, tmp_path):
        rc = main(["train", "--input", synth_file, "--rep", "raw",
                   "--iters", "2000", "--step", "1e9",
                   "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_NUMERIC
        assert not (tmp_path / "m.json").exists()    # no partial output

    def test_nan_loss_is_numeric_error(self, synth_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(trainer, "_loss", lambda *args: math.nan)
        rc = main(["train", "--input", synth_file, "--rep", "raw", "--iters", "20",
                   "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_NUMERIC
        assert "non-finite loss nan at iter 0" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_non_finite_step_is_numeric_error(self, synth_file, tmp_path, monkeypatch, capsys):
        # an infinite gradient makes the iterate infinite before any loss is computed
        monkeypatch.setattr(trainer, "_grad", lambda theta, *args: np.full_like(theta, np.inf))
        rc = main(["train", "--input", synth_file, "--rep", "raw", "--iters", "20", "--step", "0.003",
                   "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == "error: non-finite parameter entries\n"
        assert not (tmp_path / "m.json").exists()

    def test_evaluate_with_every_repetition_failed(self, tmp_path, capsys):
        corpus = tmp_path / "k1.jsonl"           # K = 1: no subclass can be held out
        corpus.write_text('{"label": "rare", "subclass": "a", "features": [1, 1]}\n'
                          '{"label": "rare", "subclass": "a", "features": [1, 0]}\n'
                          '{"label": "majority", "features": [0, 0]}\n')
        out = tmp_path / "r.json"
        rc = main(["evaluate", "--input", str(corpus), "--rep", "raw", "--reps", "2",
                   "--seed", "4", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert "seed 4: K < 2: cannot hold out" in err and "seed 5: " in err
        assert "Traceback" not in err and not out.exists()

    def test_evaluate_names_a_seen_subclass_without_training_docs(self, tmp_path, capsys):
        # one document per rare subclass: 80% of the seen one floors to no training document
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"label": "rare", "subclass": "a", "features": [1, 0]}\n'
                          '{"label": "rare", "subclass": "b", "features": [0, 1]}\n'
                          + '{"label": "majority", "features": [0, 0]}\n' * 3)
        loaded = load_corpus(corpus)
        rc = main(["evaluate", "--input", str(corpus), "--rep", "raw", "--reps", "2"])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA and "Traceback" not in err
        for seed in (0, 1):
            (seen,) = split_protocol(loaded, seed=seed).seen_subclasses
            name = loaded.subclass_names[seen - 1]
            assert f"seed {seed}: no training document of seen subclass {name!r}" in err

    def test_evaluate_with_one_repetition_failed(self, tmp_path, capsys):
        # seed 2 keeps subclass a seen; seed 3 keeps b, whose 4 training docs are
        # too few for an EVT fit, so that repetition alone fails
        rng = np.random.default_rng(0)
        records = [{"label": "rare", "subclass": name, "features": (rng.standard_normal(3) + shift).tolist()}
                   for name, count, shift in (("a", 30, [3, 0, 0]), ("b", 5, [3, 2, 0])) for _ in range(count)]
        records += [{"label": "majority", "features": rng.standard_normal(3).tolist()} for _ in range(60)]
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "r.json"
        rc = main(["evaluate", "--input", str(corpus), "--rep", "raw", "--reps", "2", "--seed", "2",
                   "--iters", "40", "--step", "0.003", "--mu", "1e-4", "--out", str(out)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.endswith("\n(incomplete: one or more repetitions failed)\n")
        report = json.loads(out.read_text())
        assert report["incomplete"] and len(report["per_seed"]) == 1
        assert report["errors"] == ["seed 3: subclass 1: 4 samples < 8 required for evt_pot"]

    def test_evaluate_lets_a_bug_in_one_repetition_through(self, synth_file, tmp_path, second_fit_fails):
        # a TypeError is no documented failure: no report, and the error itself, not exit 0
        out = tmp_path / "r.json"
        with pytest.raises(TypeError, match="a bug, not bad data"):
            main(["evaluate", "--input", synth_file, "--rep", "raw", "--reps", "3", "--iters", "40",
                  "--reject", "percentile", "--out", str(out)])
        assert len(second_fit_fails) == 2 and not out.exists()

    def test_bad_rep_is_usage_error(self, synth_file, tmp_path):
        rc = main(["train", "--input", synth_file, "--rep", "wavelet",
                   "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_USAGE

    def test_rare_seed_env(self, tmp_path, synth_file, monkeypatch):
        monkeypatch.setenv("RARE_SEED", "11")
        out = str(tmp_path / "r.json")
        rc = main(["evaluate", "--input", synth_file, "--rep", "raw",
                   "--iters", "40", "--reps", "1", "--reject", "percentile",
                   "--out", out])
        assert rc == EXIT_OK
        assert json.loads(Path(out).read_text())["seeds"] == [11]

    @pytest.mark.parametrize("argv", [
        ["train", "--input", "{dir}", "--rep", "raw", "--out", "{out}"],
        ["evaluate", "--input", "{dir}", "--rep", "raw", "--out", "{out}"],
        ["coverage", "--input", "{dir}", "--out", "{out}"],
        ["predict", "--model", "{model}", "--input", "{dir}", "--out", "{out}"],
        ["predict", "--model", "{dir}", "--input", "{synth}", "--out", "{out}"],
    ], ids=["train-input", "evaluate-input", "coverage-input", "predict-input", "predict-model"])
    def test_directory_path_is_data_error(self, tmp_path, synth_file, capsys, argv):
        model = tmp_path / "m.json"
        assert main(["train", "--input", synth_file, "--rep", "raw", "--iters", "5",
                     "--reject", "percentile", "--out", str(model)]) == EXIT_OK
        (tmp_path / "d").mkdir()
        out = tmp_path / "o.json"
        names = {"dir": str(tmp_path / "d"), "out": str(out), "model": str(model), "synth": synth_file}
        capsys.readouterr()
        rc = main([arg.format(**names) for arg in argv])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert "Is a directory" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("train", "--input"), ("train", "--out"), ("predict", "--input"), ("predict", "--model"),
        ("predict", "--out"), ("evaluate", "--input"), ("evaluate", "--out"),
        ("coverage", "--input"), ("coverage", "--out"),
    ])
    @pytest.mark.parametrize("parent, message", [
        ("f", "Not a directory"),                    # f is a regular file
        ("nodir", "No such file or directory"),
    ], ids=["under-a-file", "missing-dir"])
    def test_unusable_path_is_data_error_naming_it(self, tmp_path, monkeypatch, capsys, synth_file,
                                                   text_file, integer_model, command, flag,
                                                   parent, message):
        monkeypatch.chdir(tmp_path)
        Path("f").write_text("")
        stream = _features_stream(tmp_path / "s.jsonl", [[1, 0, 2]])
        quick = ["--rep", "raw", "--iters", "5", "--reject", "percentile"]
        argv = {"train": ["train", "--input", synth_file, "--out", "o.json", *quick],
                "predict": ["predict", "--model", integer_model, "--input", stream, "--out", "o.json"],
                "evaluate": ["evaluate", "--input", synth_file, "--out", "o.json", "--reps", "1", *quick],
                "coverage": ["coverage", "--input", text_file, "--out", "o.json"]}[command]
        given = f"{parent}/x"
        argv[argv.index(flag) + 1] = given
        before = sorted(p.name for p in tmp_path.iterdir())
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert err == f"error: [Errno {20 if parent == 'f' else 2}] {message}: {given!r}\n", err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("content, message", [
        (None, "No such file"),
        ('{"reps": 1,', "Expecting"),
        ('[1, 2]', "is not a JSON object"),
        ('"raw"', "is not a JSON object"),
        ('{"iters": 0, "iters": 3}', "repeated key 'iters'"),
    ], ids=["missing", "not-json", "array", "string", "repeated-key"])
    def test_bad_config_file_is_usage_error_naming_it(self, tmp_path, synth_file, capsys,
                                                      content, message):
        conf = tmp_path / "conf.json"
        if content is not None:
            conf.write_text(content)
        out = tmp_path / "r.json"
        rc = main(["--config", str(conf), "evaluate", "--input", synth_file, "--rep", "raw",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert str(conf) in err and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_evaluate_needs_one_repetition(self, tmp_path, synth_file, capsys, reps):
        out = tmp_path / "r.json"
        rc = main(["evaluate", "--input", synth_file, "--rep", "raw", "--reps", reps,
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_USAGE
        assert f"argument --reps: '{reps}' is not a positive int" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists() and captured.out == ""

    def test_parser_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestDefaultStep:
    """README's `train` and `evaluate` train text with the default step: a fit whose
    default step runs away starts again from zero at half the step."""

    @pytest.fixture(params=[5, 7], ids=["d5", "d7"])
    def corpus_file(self, request, tmp_path):
        f = tmp_path / "corpus.jsonl"
        save_corpus(text_feature_corpus(d=request.param), f)
        return str(f)

    RESTART = re.compile(r"^restart step=\S+ iter=\d+ next_step=\S+$", re.M)

    def test_readme_train(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "model.json"
        rc = main(["train", "--input", corpus_file, "--rep", "tfidf1k", "--mu", "1",
                   "--reject", "evt", "--out", str(out)])
        assert rc == EXIT_OK and load(str(out)).representation["kind"] == "tfidf"
        assert self.RESTART.search(capsys.readouterr().err)

    def test_readme_evaluate(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["evaluate", "--input", corpus_file, "--reps", "5", "--seed", "0",
                   "--out", str(out)])
        report = json.loads(out.read_text())
        assert rc == EXIT_OK and len(report["per_seed"]) == 5 and report["errors"] == []
        assert self.RESTART.search(capsys.readouterr().err)

    def test_explicit_step_that_runs_away_is_exit_3_without_restart(self, corpus_file,
                                                                     tmp_path, capsys):
        out = tmp_path / "model.json"
        rc = main(["train", "--input", corpus_file, "--step", "1e9", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_NUMERIC and not out.exists()
        assert err.startswith("error: ") and "restart" not in err

    def test_gives_up_after_the_last_halving(self, synth_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(trainer, "_grad", lambda theta, *args: np.full_like(theta, np.inf))
        out = tmp_path / "m.json"
        rc = main(["train", "--input", synth_file, "--rep", "raw", "--iters", "20",
                   "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == EXIT_NUMERIC and not out.exists()
        assert len(lines) == trainer.MAX_RESTARTS + 1 == 31
        assert all(re.fullmatch(r"restart step=\S+ iter=0 next_step=\S+", line)
                   for line in lines[:-1])
        assert lines[-1] == "error: non-finite parameter entries"


class TestNonUtf8Input:
    @pytest.mark.parametrize("command", ["train", "evaluate", "coverage", "predict"])
    def test_is_data_error_naming_the_file(self, tmp_path, integer_model, capsys, command):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe" + '{"features": [1, 1, 1]}\n'.encode("utf-16-le"))
        out = tmp_path / "out.json"
        flags = ["--input", str(bad), "--out", str(out)]
        argv = {"train": ["train", *flags, "--rep", "raw"],
                "evaluate": ["evaluate", *flags, "--rep", "raw"],
                "coverage": ["coverage", *flags],
                "predict": ["predict", "--model", integer_model, *flags]}[command]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == EXIT_DATA
        assert f"{bad} is not UTF-8 text" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "int_model.json"]


# nested deeper than the interpreter's recursion limit, which json.loads meets as a RecursionError
DEEP = "[" * 100_000 + "]" * 100_000


class TestDeepNesting:
    """JSON nested too deeply to decode is refused as any other bad JSON: the error
    names the line or the file, with the reader's exit code and no traceback."""

    def test_corpus_record(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"label": "rare", "subclass": "a", "features": [1, 1, 1]}\n'
                          '{"label": "majority", "features": [0, 0, 0], "meta": ' + DEEP + '}\n')
        rc = main(["train", "--input", str(corpus), "--rep", "raw", "--iters", "5",
                   "--out", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert "error: line 2: JSON nested too deeply" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]

    def test_stream_record(self, tmp_path, integer_model, capsys):
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"features": [1, 1, 1]}\n' + DEEP + "\n")
        out = tmp_path / "d.jsonl"
        rc = main(["predict", "--model", integer_model, "--input", str(stream), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert "error: line 2: JSON nested too deeply" in err and "Traceback" not in err
        assert not out.exists()

    def test_model_file(self, tmp_path, capsys):
        model, stream, out = tmp_path / "m.json", tmp_path / "s.jsonl", tmp_path / "d.jsonl"
        model.write_text(DEEP)
        stream.write_text('{"features": [1, 1, 1]}\n')
        rc = main(["predict", "--model", str(model), "--input", str(stream), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert "error: corrupt model document: JSON nested too deeply" in err
        assert "Traceback" not in err and not out.exists()

    def test_config_file(self, tmp_path, synth_file, capsys):
        conf, out = tmp_path / "conf.json", tmp_path / "r.json"
        conf.write_text('{"iters": ' + DEEP + "}")
        rc = main(["--config", str(conf), "evaluate", "--input", synth_file, "--rep", "raw",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert f"error: cannot read config file {conf}: JSON nested too deeply" in err
        assert "Traceback" not in err and not out.exists()
