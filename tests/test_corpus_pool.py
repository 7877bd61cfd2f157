"""A jsonl corpus of more than one chunk is parsed and checked on every CPU the
process may use, through the fork pool `predict` uses, and in this process for
one chunk or one CPU. Either way `load_corpus` gives the same docs, the commands
that read a corpus write the same bytes, and an error is the first one in the
file, named by its line."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import test_corpus_records as records
from conftest import text_feature_corpus
from rareclass import dataset, evaluation, objective, pool, trainer
from rareclass.cli import EXIT_DATA, EXIT_OK, EXIT_WORKER, main
from rareclass.dataset import CorpusError, load_corpus, save_corpus

TRAIN_FLAGS = ["--iters", "40", "--step", "0.003", "--mu", "1e-4", "--q", "0.05",
               "--reject", "percentile"]
SRC = str(Path(dataset.__file__).resolve().parent.parent)


def _cpus(mp, n):
    """Make the process's affinity mask n CPUs wide: 1 forces the in-process path."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(dataset, "CORPUS_CHUNK", 3000)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    """144 docs with text and five features, about ten chunks of 3000 characters."""
    path = tmp_path_factory.mktemp("corpus-pool") / "corpus.jsonl"
    save_corpus(text_feature_corpus(), path)
    return path


def _both(monkeypatch, run):
    """run() in this process (one CPU) and through the pool (two CPUs)."""
    results = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        results.append(run())
        assert multiprocessing.active_children() == []
    return results


def _load_error(path):
    with pytest.raises(CorpusError) as info:
        load_corpus(path)
    return str(info.value)


class TestSameCorpus:
    def test_docs_and_subclasses(self, corpus_file, small_chunks, monkeypatch):
        with open(corpus_file, encoding="utf-8") as fh:
            assert len(list(pool.chunked(dataset._non_blank(fh, corpus_file), 3000,
                                         weight=lambda pair: len(pair[1])))) >= 5
        serial, pooled = _both(monkeypatch, lambda: load_corpus(corpus_file))
        assert (pooled.K, pooled.subclass_names, pooled.lines) == \
               (serial.K, serial.subclass_names, serial.lines)
        assert pooled.lines == tuple(range(1, serial.n + 1))
        assert len(pooled.docs) == len(serial.docs) == 144
        for a, b in zip(serial.docs, pooled.docs):
            assert (a.text, a.label, a.subclass) == (b.text, b.label, b.subclass)
            assert a.features.dtype == b.features.dtype == np.float64
            assert a.features.tobytes() == b.features.tobytes()

    def test_same_as_one_chunk(self, corpus_file, monkeypatch):
        _cpus(monkeypatch, 2)
        whole = load_corpus(corpus_file)
        monkeypatch.setattr(dataset, "CORPUS_CHUNK", 3000)
        chunked = load_corpus(corpus_file)
        assert whole.feature_matrix().tobytes() == chunked.feature_matrix().tobytes()
        assert [d.subclass for d in whole.docs] == [d.subclass for d in chunked.docs]


class TestOneFeatureMatrix:
    """A numeric corpus read through the pool holds its features once: one read-only
    matrix, whose rows are the docs' features, and which `train` trains on in place."""

    @pytest.fixture
    def pooled(self, corpus_file, small_chunks, monkeypatch):
        _cpus(monkeypatch, 2)
        corpus = load_corpus(corpus_file)
        assert multiprocessing.active_children() == []
        return corpus

    def test_read_only_and_shared_with_every_doc(self, pooled):
        X = pooled.feature_matrix()
        assert X.shape == (144, 5) and X.dtype == np.float64
        assert not X.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            X[0, 0] = 1.0
        assert pooled.feature_matrix() is X and pooled.feature_matrix(range(pooled.n)) is X
        for i, doc in enumerate(pooled.docs):
            assert np.shares_memory(doc.features, X[i])
            assert not doc.features.flags.writeable

    def test_equals_the_per_doc_stack(self, pooled):
        stack = np.array([doc.features for doc in pooled.docs], dtype=np.float64)
        assert pooled.feature_matrix().tobytes() == stack.tobytes()
        rows = [100, 3, 57, 3, 0, 143]
        subset = pooled.feature_matrix(rows)
        assert subset.tobytes() == stack[rows].tobytes()
        assert subset.flags.writeable and not np.shares_memory(subset, pooled.feature_matrix())
        backwards = pooled.feature_matrix(range(pooled.n - 1, -1, -1))
        assert backwards.tobytes() == stack[::-1].tobytes()
        assert pooled.feature_matrix([]).shape == (0, 5)

    def test_train_binds_the_matrix_without_a_copy(self, pooled, monkeypatch):
        bound = []

        def bind_data(X, *args):
            bound.append(X)
            return objective.bind_data(X, *args)
        monkeypatch.setattr(evaluation, "bind_data", bind_data)
        evaluation.train_document(pooled, range(pooled.n), range(1, pooled.K + 1), {"mu": 1e-4},
                                  trainer.TrainConfig(max_iters=5, step_size=0.003))
        assert len(bound) == 1 and bound[0] is pooled.feature_matrix()

    def test_a_row_without_features_keeps_the_per_doc_stack(self, tmp_path, monkeypatch):
        lines = _lines(40)
        lines[30] = json.dumps({"label": "majority"})
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(dataset, "CORPUS_CHUNK", 1000)
        _cpus(monkeypatch, 2)
        corpus = load_corpus(path)
        assert corpus.features is None
        assert corpus.feature_matrix([0, 1]).tolist() == [json.loads(lines[i])["features"]
                                                          for i in (0, 1)]
        with pytest.raises(CorpusError, match="^line 31: doc has no pre-built features$"):
            corpus.feature_matrix()

    def test_a_generated_corpus_hands_over_its_matrix(self):
        corpus = dataset.gen_synthetic(dataset.SyntheticConfig(
            d=4, K_total=2, docs_per_subclass=5, majority_docs=5, subclass_separation=3.0, seed=1))
        X = corpus.feature_matrix()
        assert not X.flags.writeable and X.shape == (15, 4)
        assert all(np.shares_memory(doc.features, X[i]) for i, doc in enumerate(corpus.docs))


class TestSameBytes:
    @pytest.mark.parametrize("flags", [["--rep", "raw"], ["--rep", "raw", "--batch", "16"],
                                       ["--rep", "tfidf1k"], ["--rep", "pca:5"]],
                             ids=["raw", "batch", "tfidf1k", "pca5"])
    def test_train_model_file(self, tmp_path, corpus_file, small_chunks, monkeypatch, flags):
        def train():
            out = tmp_path / "model.json"
            assert main(["train", "--input", str(corpus_file), "--out", str(out),
                         *flags, *TRAIN_FLAGS]) == EXIT_OK
            return out.read_bytes()
        serial, pooled = _both(monkeypatch, train)
        assert pooled == serial

    @pytest.mark.parametrize("rep", ["raw", "pca:4"])
    def test_evaluate_report(self, tmp_path, corpus_file, small_chunks, monkeypatch, capsys, rep):
        def evaluate():
            out = tmp_path / "report.json"
            assert main(["evaluate", "--input", str(corpus_file), "--out", str(out),
                         "--rep", rep, "--reps", "2", *TRAIN_FLAGS]) == EXIT_OK
            return out.read_bytes(), capsys.readouterr().out
        serial, pooled = _both(monkeypatch, evaluate)
        assert pooled == serial

    def test_coverage_report(self, tmp_path, corpus_file, small_chunks, monkeypatch, capsys):
        def coverage():
            out = tmp_path / "cover.json"
            assert main(["coverage", "--input", str(corpus_file), "--out", str(out),
                         "--top-n", "8"]) == EXIT_OK
            return out.read_bytes(), capsys.readouterr().out
        serial, pooled = _both(monkeypatch, coverage)
        assert pooled == serial


def _lines(n):
    return [json.dumps(rec) for rec in (records._records() * 4)[:n]]


class TestFirstErrorInTheFile:
    @pytest.mark.parametrize("bad, message", [
        ("{", "line 70: invalid json"),
        ('{"label": "rare", "subclass": "a", "features": [1, 2, NaN]}',
         "line 70: 'features' has a non-finite entry"),
        ('{"label": "other", "features": [1, 2, 3]}', "line 70: label must be 'rare' or"),
        ('{"label": "majority", "features": [1, 2]}',
         "line 70: feature dimension 2 != 3 of the first features row"),
    ], ids=["json", "non-finite", "label", "length"])
    def test_error_in_a_later_chunk_names_its_line(self, tmp_path, monkeypatch, bad, message):
        lines = _lines(90)
        lines[69] = bad
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(dataset, "CORPUS_CHUNK", 1000)            # line 70 is in chunk 6 of 8
        serial, pooled = _both(monkeypatch, lambda: _load_error(path))
        assert pooled == serial and serial.startswith(message), serial

    @pytest.mark.parametrize("same_chunk", [False, True])
    def test_length_before_a_later_json_error(self, tmp_path, monkeypatch, same_chunk):
        # the length is checked in this process and the JSON in a worker: the earlier line wins
        lines = _lines(40)
        lines[14] = json.dumps({"label": "majority", "features": [1, 2, 3, 4]})
        lines[16 if same_chunk else 26] = '{"label": "majority", "features": [1, 2'
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(dataset, "CORPUS_CHUNK", 1000)             # lines 1-12, 13-24, 25-36, ...
        serial, pooled = _both(monkeypatch, lambda: _load_error(path))
        assert pooled == serial == "line 15: feature dimension 4 != 3 of the first features row"

    def test_non_utf8_after_later_chunks(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        path.write_bytes(("\n".join(_lines(30)) + "\n").encode() + b"\xff\xfe{}\n")
        monkeypatch.setattr(dataset, "CORPUS_CHUNK", 1000)
        serial, pooled = _both(monkeypatch, lambda: _load_error(path))
        assert pooled == serial == f"{path} is not UTF-8 text (invalid start byte)"


def _child(code, timeout=60):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=timeout)


class TestWorkers:
    def test_worker_killed_mid_load_is_exit_4(self, tmp_path, corpus_file):
        # in a child interpreter with a time limit: the failure this guards against is a hang
        model = tmp_path / "model.json"
        proc = _child(
            "import multiprocessing, os, signal\n"
            "from rareclass import cli, dataset\n"
            "check = dataset._check_chunk\n"
            "def dies_on_line_70(chunk):\n"
            "    if 70 in dict(chunk):\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return check(chunk)\n"
            "dataset._check_chunk = dies_on_line_70\n"
            "dataset.CORPUS_CHUNK = 3000\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            f"rc = cli.main(['train', '--input', {str(corpus_file)!r}, '--out', {str(model)!r},"
            " '--rep', 'raw'])\n"
            "print('exit', rc, len(multiprocessing.active_children()))\n")
        assert proc.stdout.splitlines()[-1] == f"exit {EXIT_WORKER} 0", proc.stderr
        assert "ended before returning its chunk (exit status -9)" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not model.exists()

    def test_one_chunk_does_not_import_multiprocessing(self, tmp_path, corpus_file):
        proc = _child(
            "import os, sys\nfrom rareclass.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            f"rc = main(['train', '--input', {str(corpus_file)!r}, '--rep', 'raw', "
            f"'--iters', '5', '--out', {str(tmp_path / 'model.json')!r}])\n"
            "print(rc, 'multiprocessing' in sys.modules)\n")
        assert proc.stdout.split() == ["0", "False"], proc.stderr

    def test_one_cpu_does_not_import_multiprocessing(self, tmp_path, corpus_file):
        proc = _child(
            "import os, sys\nfrom rareclass import dataset\n"
            "dataset.CORPUS_CHUNK = 3000\n"
            "os.sched_getaffinity = lambda pid: {0}\n"
            f"corpus = dataset.load_corpus({str(corpus_file)!r})\n"
            "print(corpus.n, 'multiprocessing' in sys.modules)\n")
        assert proc.stdout.split() == ["144", "False"], proc.stderr


class TestPooledCorpusRecordFuzz:
    """tests/test_corpus_records.py's fuzz, with the corpus in chunks of about
    three records: the pool gives the exit code and message this process gives."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_same_exit_and_message(self, tmp_path_factory, data):
        root = tmp_path_factory.mktemp("corpus-pool-fuzz")
        kind = data.draw(st.sampled_from(records.KINDS))
        recs = records._records()
        at = data.draw(st.integers(1 if kind == "length" else 0, len(recs) - 1))
        lines = [json.dumps(rec) for rec in recs]
        lines[at] = records._mutant(data.draw, kind, recs[at])
        corpus = root / "c.jsonl"
        records._write(corpus, lines)
        for command in records.COMMANDS:
            outcomes = []
            for cpus in (1, 2):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(dataset, "CORPUS_CHUNK", 250)
                    _cpus(mp, cpus)
                    outcomes.append(records._run(command, corpus, root / "out.json"))
                assert multiprocessing.active_children() == []
            (rc, err), pooled = outcomes
            assert pooled == (rc, err), (command, lines[at])
            assert rc == EXIT_DATA and f"error: line {at + 2}: " in err and "Traceback" not in err
            assert sorted(p.name for p in root.iterdir()) == ["c.jsonl"]
