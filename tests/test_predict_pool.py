"""`predict` parses, checks and featurizes its chunks on every CPU the process
may use, through a fork pool, and in this process for a one-chunk stream; it
routes and writes them in this process. Either way it writes the same bytes,
names the same line in an error, and leaves the same earlier chunks on stdout."""

import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import text_feature_corpus, write_integer_model
from rareclass import cli, evaluation, pool, recognizer
from rareclass.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_WORKER, main
from rareclass.dataset import save_corpus
from rareclass.trainer import TrainConfig

TRAIN_FLAGS = ["--iters", "40", "--step", "0.003", "--mu", "1e-4", "--q", "0.05"]
SRC = str(Path(cli.__file__).resolve().parent.parent)


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    """A tfidf and a pca model, each with a stream of `features` and `text`
    records and blank lines."""
    root = tmp_path_factory.mktemp("predict-pool")
    corpus = text_feature_corpus()
    corpus_path = root / "corpus.jsonl"
    save_corpus(corpus, corpus_path)
    rng = np.random.default_rng(5)
    cases = {}
    for rep in ("tfidf1k", "pca:4"):
        model = root / f"{rep.replace(':', '')}.json"
        assert main(["train", "--input", str(corpus_path), "--rep", rep, "--reject", "percentile",
                     *TRAIN_FLAGS, "--out", str(model)]) == EXIT_OK
        d = json.loads(model.read_text())["d"]
        lines = []
        for i, doc in enumerate(corpus.docs[::2]):
            record = {"text": doc.text} if i % 2 else {"features": rng.standard_normal(d).tolist()}
            lines.append(json.dumps(record) + "\n" + ("\n" if i % 9 == 4 else ""))
        stream = root / f"{rep.replace(':', '')}.jsonl"
        stream.write_text("\n" + "".join(lines))
        cases[rep] = (str(model), str(stream), len(lines))
    return cases


@pytest.fixture
def int_model(tmp_path):
    return write_integer_model(tmp_path / "int_model.json")


def _cpus(monkeypatch, n):
    """Make the process's affinity mask n CPUs wide: 1 forces the in-process path."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _predict(capsys, model, stream, *flags):
    rc = main(["predict", "--model", model, "--input", stream, *flags])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert multiprocessing.active_children() == []
    return rc, captured.out, captured.err


def _workers(err):
    (line,) = [l for l in err.splitlines() if l.startswith("predict ")]
    return int(dict(f.split("=") for f in line.split()[1:])["workers"])


class TestPoolMatchesSerial:
    @pytest.mark.parametrize("rep", ["tfidf1k", "pca:4"])
    @pytest.mark.parametrize("chunk", [2, 7, 50, 4096])
    def test_same_bytes(self, mixed, capsys, monkeypatch, rep, chunk):
        model, stream, n = mixed[rep]
        monkeypatch.setattr(cli, "PREDICT_CHUNK", chunk)
        _cpus(monkeypatch, 1)
        rc, serial, err = _predict(capsys, model, stream)
        assert rc == EXIT_OK and _workers(err) == 1 and len(serial.splitlines()) == n
        for cpus in (2, 3):
            _cpus(monkeypatch, cpus)
            rc, pooled, err = _predict(capsys, model, stream)
            assert rc == EXIT_OK and _workers(err) == (cpus if chunk < n else 1)
            assert pooled == serial


class TestChunkFreeDecisions:
    """A record's decision does not depend on the records that share its chunk."""

    def test_pca_text_stream_same_bytes_in_any_chunk(self, mixed, tmp_path, capsys, monkeypatch):
        model, docs = mixed["pca:4"][0], text_feature_corpus().docs
        stream = tmp_path / "texts.jsonl"
        stream.write_text("".join(json.dumps({"text": doc.text}) + "\n" for doc in docs))
        outputs = {}
        for chunk in (1, 2, 7, 50, 1024, 4096):
            monkeypatch.setattr(cli, "PREDICT_CHUNK", chunk)
            for cpus in (1, 2):           # 1: the line path; 2: the span path, past one chunk
                _cpus(monkeypatch, cpus)
                rc, outputs[chunk, cpus], _ = _predict(capsys, model, str(stream))
                assert rc == EXIT_OK
        assert len(outputs[1, 1].splitlines()) == len(docs)
        assert [key for key, out in outputs.items() if out != outputs[1, 1]] == []

    @pytest.mark.parametrize("rep, rank", [("tfidf", 0), ("pca", 4)])
    def test_evaluate_decides_as_predict(self, tmp_path, capsys, monkeypatch, rep, rank):
        corpus = text_feature_corpus()
        routed, route = [], recognizer.predict_stream
        monkeypatch.setattr(recognizer, "predict_stream",
                            lambda model, X: routed.append(route(model, X)) or routed[-1])
        _, doc, split = evaluation.run_single(
            corpus, {"lambda0": 1.0, "lambdak": 1.0, "mu": 1e-4},
            TrainConfig(max_iters=40, step_size=0.003, seed=5), seed=5,
            representation=rep, pca_rank=rank, q=0.05)
        monkeypatch.setattr(recognizer, "predict_stream", route)
        ((decisions, _),) = routed
        recognizer.save(doc, tmp_path / "model.json")
        stream = tmp_path / "test.jsonl"
        stream.write_text("".join(json.dumps({"text": corpus.docs[i].text}) + "\n"
                                  for i in (*split.test_seen, *split.test_unseen, *split.test_majority)))
        monkeypatch.setattr(cli, "PREDICT_CHUNK", 1)
        _cpus(monkeypatch, 2)
        rc, out, _ = _predict(capsys, str(tmp_path / "model.json"), str(stream))
        assert rc == EXIT_OK
        assert out == "".join(cli._decision_line(i, d) for i, d in enumerate(decisions))


class TestMemoryFlatInStreamLength:
    def test_traced_peak_of_8_chunks_is_that_of_2(self, mixed, tmp_path, capsys, monkeypatch):
        model = mixed["pca:4"][0]
        texts = [doc.text for doc in text_feature_corpus().docs]
        _cpus(monkeypatch, 1)
        peaks = {}
        for chunks in (2, 2, 8):          # the first run also loads what predict loads lazily
            stream = tmp_path / f"s{chunks}.jsonl"
            stream.write_text("".join(json.dumps({"text": texts[i % len(texts)]}) + "\n"
                                      for i in range(chunks * cli.PREDICT_CHUNK)))
            tracemalloc.start()
            try:
                rc, _, _ = _predict(capsys, model, str(stream), "--out", str(tmp_path / "d.jsonl"))
                peaks[chunks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == EXIT_OK
        assert abs(peaks[8] - peaks[2]) <= 0.1 * peaks[2], peaks


def _good(n):
    return "".join(f'{{"features": [{i % 3}, {i % 2}, {i % 4}]}}\n' for i in range(n))


# (stream text after 7 good records, exit code, what the error names)
LATER_ERRORS = {
    "json": ('{"features": [1, 2, 3]\n', EXIT_DATA, "line 8: invalid json"),
    "record": ('{"features": [1, 2]}\n', EXIT_DATA, "line 8: feature dimension 2 != model d 3"),
    "nan": ('{"features": [NaN, 0, 0]}\n', EXIT_NUMERIC, "at index 7"),
}


class TestErrorInALaterChunk:
    @pytest.mark.parametrize("kind", sorted(LATER_ERRORS))
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_same_error_and_earlier_chunks(self, tmp_path, int_model, capsys, monkeypatch,
                                           kind, cpus):
        bad, code, names = LATER_ERRORS[kind]
        stream = tmp_path / "s.jsonl"
        stream.write_text(_good(7) + bad + _good(5))
        monkeypatch.setattr(cli, "PREDICT_CHUNK", 2)
        _cpus(monkeypatch, cpus)
        out = tmp_path / "d.jsonl"
        rc, _, err = _predict(capsys, int_model, str(stream), "--out", str(out))
        assert rc == code and names in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["int_model.json", "s.jsonl"]
        rc, lines, err = _predict(capsys, int_model, str(stream))
        assert rc == code and names in err and "predict items" not in err
        # chunks 1-3 (records 0-5) are written; chunk 4 holds the bad record
        assert [json.loads(l)["index"] for l in lines.splitlines()] == list(range(6))

    @pytest.mark.parametrize("good", [2, 6])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_non_utf8_after_earlier_chunks(self, tmp_path, int_model, capsys, monkeypatch,
                                           good, cpus):
        # the reader decodes 8 KiB at a time: the bad bytes sit beyond the first block
        stream = tmp_path / "s.jsonl"
        stream.write_bytes(_good(good).encode() + b"\n" * 9000 + b"\xff\xfe{}\n")
        monkeypatch.setattr(cli, "PREDICT_CHUNK", 2)
        _cpus(monkeypatch, cpus)
        rc, lines, err = _predict(capsys, int_model, str(stream))
        assert rc == EXIT_DATA and f"{stream} is not UTF-8" in err
        assert len(lines.splitlines()) == good


class TestWorkers:
    def test_one_chunk_runs_in_process(self, tmp_path, int_model, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk stream started a pool")
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        stream = tmp_path / "s.jsonl"
        stream.write_text(_good(5))
        monkeypatch.setattr(cli, "PREDICT_CHUNK", 5)
        rc, lines, err = _predict(capsys, int_model, str(stream))
        assert rc == EXIT_OK and len(lines.splitlines()) == 5 and _workers(err) == 1

    def test_multi_chunk_uses_the_affinity_mask(self, tmp_path, int_model, capsys, monkeypatch):
        stream = tmp_path / "s.jsonl"
        stream.write_text(_good(6))
        monkeypatch.setattr(cli, "PREDICT_CHUNK", 5)
        rc, lines, err = _predict(capsys, int_model, str(stream))
        assert rc == EXIT_OK and len(lines.splitlines()) == 6
        assert _workers(err) == len(os.sched_getaffinity(0))

    def test_one_chunk_does_not_import_multiprocessing(self, tmp_path, int_model):
        stream = tmp_path / "s.jsonl"
        stream.write_text(_good(5))
        code = ("import sys\nfrom rareclass.cli import main\n"
                f"rc = main(['predict', '--model', {int_model!r}, '--input', {str(stream)!r},"
                f" '--out', {str(tmp_path / 'd.jsonl')!r}])\n"
                "print(rc, 'multiprocessing' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.stdout.split() == ["0", "False"], proc.stderr


class TestRoutingStaysInThisProcess:
    def test_every_chunk_is_routed_here(self, tmp_path, int_model, capsys, monkeypatch):
        # a wrapper of recognizer.predict_stream in this process, such as a
        # tracing span, sees every chunk and its counters
        calls = []
        route = recognizer.predict_stream

        def recorded(model, X):
            decisions, stats = route(model, X)
            calls.append((os.getpid(), len(decisions), stats.sc_evaluations,
                          sum(stats.known.values()) + stats.emerging))
            return decisions, stats
        monkeypatch.setattr(recognizer, "predict_stream", recorded)
        stream = tmp_path / "s.jsonl"
        stream.write_text(_good(12))
        monkeypatch.setattr(cli, "PREDICT_CHUNK", 2)
        _cpus(monkeypatch, 2)
        rc, lines, err = _predict(capsys, int_model, str(stream))
        assert rc == EXIT_OK and _workers(err) == 2 and len(lines.splitlines()) == 12
        assert [pid for pid, *_ in calls] == [os.getpid()] * 6
        assert sum(n for _, n, _, _ in calls) == 12
        assert all(sc == routed for _, _, sc, routed in calls)
        assert sum(sc for _, _, sc, _ in calls) > 0


class TestWorkerDies:
    @pytest.mark.parametrize("to_file", [False, True])
    def test_exit_4_after_earlier_chunks(self, tmp_path, int_model, to_file):
        # in a child interpreter with a time limit: the failure this guards against is a hang
        stream = tmp_path / "s.jsonl"
        stream.write_text(_good(12))
        flags = ["--out", str(tmp_path / "d.jsonl")] if to_file else []
        code = ("import multiprocessing, os, signal\n"
                "from rareclass import cli\n"
                "features = cli._chunk_features\n"
                "def dies_on_line_7(model, chunk):\n"
                "    if 7 in dict(chunk):\n"
                "        os.kill(os.getpid(), signal.SIGKILL)\n"
                "    return features(model, chunk)\n"
                "cli._chunk_features = dies_on_line_7\n"
                "cli.PREDICT_CHUNK = 2\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                f"rc = cli.main(['predict', '--model', {int_model!r}, '--input', {str(stream)!r}, *{flags!r}])\n"
                "print('exit', rc, len(multiprocessing.active_children()))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.stdout.splitlines()[-1] == f"exit {EXIT_WORKER} 0", proc.stderr
        assert "ended before returning its chunk (exit status -9)" in proc.stderr
        assert "Traceback" not in proc.stderr
        if to_file:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["int_model.json", "s.jsonl"]
        else:
            # chunks 1-3 (records 0-5) are written; chunk 4, on the second worker, holds line 7
            lines = proc.stdout.splitlines()[:-1]
            assert [json.loads(l)["index"] for l in lines] == list(range(6))


class TestInterrupted:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_ctrl_c_is_exit_130_with_one_line(self, tmp_path, int_model, cpus):
        # in a child interpreter: SIGINT while line 7's chunk is featurized, by this process
        # with one CPU, and by a worker, to the main process, with two
        stream = tmp_path / "s.jsonl"
        stream.write_text(_good(12))
        code = ("import multiprocessing, os, signal\n"
                "from rareclass import cli\n"
                "main_pid = os.getpid()\n"
                "features = cli._chunk_features\n"
                "def interrupted_on_line_7(model, chunk):\n"
                "    if 7 in dict(chunk):\n"
                "        os.kill(main_pid, signal.SIGINT)\n"
                "    return features(model, chunk)\n"
                "cli._chunk_features = interrupted_on_line_7\n"
                "cli.PREDICT_CHUNK = 2\n"
                f"os.sched_getaffinity = lambda pid: set(range({cpus}))\n"
                f"rc = cli.main(['predict', '--model', {int_model!r}, '--input', {str(stream)!r}, "
                f"'--out', {str(tmp_path / 'd.jsonl')!r}])\n"
                "print('exit', rc, len(multiprocessing.active_children()))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.stdout.splitlines() == [f"exit {cli.EXIT_INTERRUPT} 0"], proc.stderr
        assert proc.stderr.splitlines() == ["error: interrupted"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["int_model.json", "s.jsonl"]


def _processes_naming(marker: str) -> list[int]:
    """The live processes whose command line holds `marker` (a zombie's is empty)."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        with contextlib.suppress(OSError), open(f"/proc/{entry}/cmdline", "rb") as fh:
            if marker.encode() in fh.read():
                pids.append(int(entry))
    return pids


class TestReaderGoesAway:
    @pytest.mark.skipif(not os.path.isdir("/proc") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs /proc and two CPUs, for the pool to run")
    def test_closed_stdout_is_exit_141_without_traceback(self, tmp_path, int_model):
        # `predict ... | head -1`: the reader takes one line and closes the pipe
        stream = tmp_path / "s.jsonl"
        stream.write_text(_good(5 * cli.PREDICT_CHUNK))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "rareclass.cli", "predict", "--model", int_model,
                                 "--input", str(stream)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
        finally:
            proc.kill()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert json.loads(first)["index"] == 0
        assert "Traceback" not in err and "Exception ignored" not in err, err
        assert _processes_naming(str(stream)) == []


class TestReadingKeepsPace:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_one_job_out_per_worker(self, workers):
        read = []

        def jobs():
            for i in range(10):
                read.append(i)
                yield i
        results = []
        with pool._chunk_mapper(workers) as mapper:
            for result in mapper(lambda job: 10 * job, jobs()):
                results.append(result)
                assert len(read) - len(results) <= workers
        assert results == [10 * i for i in range(10)]
        assert multiprocessing.active_children() == []


class TestOneItemLookAhead:
    """map_chunks reads one item past the first chunk to decide whether to fork."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """[(items read, workers started)] when each fork pool reads its first job."""
        _cpus(monkeypatch, 2)
        self.read, seen, fork_map = [], [], pool._fork_map

        def spy(fn, jobs, *, workers, started):
            def jobs_seen():                      # _fork_map starts its workers, then reads
                seen.append((len(self.read), len(started)))
                yield from jobs
            return fork_map(fn, jobs_seen(), workers=workers, started=started)
        monkeypatch.setattr(pool, "_fork_map", spy)
        return seen

    def items(self, n, error=None):
        """0 to n - 1, each noted in self.read as it is read, then `error` raised."""
        for i in range(n):
            self.read.append(i)
            yield i
        if error is not None:
            raise error

    def test_workers_start_one_item_past_the_first_chunk(self, forks):
        with pool.map_chunks(sum, self.items(20), 5) as (results, workers):
            assert list(results) == [sum(range(i, i + 5)) for i in range(0, 20, 5)]
        assert workers == 2 and forks == [(5 + 1, 2)]

    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 15])
    def test_same_chunks_as_chunked(self, forks, size, n):
        weight = lambda i: i % 3                  # zero-weight items too
        with pool.map_chunks(list, range(n), size, weight=weight) as (results, _):
            assert list(results) == list(pool.chunked(range(n), size, weight=weight))

    def test_one_full_chunk_runs_in_process(self, forks, tmp_path, int_model, capsys, monkeypatch):
        stream = tmp_path / "s.jsonl"
        stream.write_text(_good(5))
        monkeypatch.setattr(cli, "PREDICT_CHUNK", 5)
        rc, lines, err = _predict(capsys, int_model, str(stream))
        assert rc == EXIT_OK and len(lines.splitlines()) == 5
        assert _workers(err) == 1 and forks == []

    def test_error_reading_the_next_item_comes_after_the_first_chunk(self, forks):
        with pool.map_chunks(sum, self.items(5, ValueError("item 6")), 5) as (results, workers):
            assert next(results) == sum(range(5))
            with pytest.raises(ValueError, match="item 6"):
                next(results)
        assert workers == 1 and forks == []


def _record(draw, kind, d):
    """One stream record, as a line, that `predict` must refuse."""
    good = [draw(st.integers(-3, 3)) for _ in range(d)]
    if kind == "type":
        return json.dumps({"features": draw(st.sampled_from([{}, "1,2,3", 3, 1.5, True]))})
    if kind in ("null", "bool", "string"):
        good[draw(st.integers(0, d - 1))] = {"null": None, "bool": draw(st.booleans()),
                                             "string": "1"}[kind]
        return json.dumps({"features": good})
    if kind == "length":
        return json.dumps({"features": good + [0] if draw(st.booleans()) else good[:-1]})
    if kind == "non-finite":
        good[draw(st.integers(0, d - 1))] = draw(st.sampled_from([float("nan"), float("inf")]))
        return json.dumps({"features": good})
    if kind == "truncated":
        line = json.dumps({"features": good})
        return line[:draw(st.integers(1, len(line) - 1))]
    if kind == "non-object":
        return json.dumps(draw(st.sampled_from([[0, 0, 0], 3, "x", None, True])))
    return json.dumps({"text": draw(st.text(max_size=20))})          # text to a raw model


class TestStreamRecordFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mutated_record_is_refused_naming_its_line(self, tmp_path_factory, data):
        root = tmp_path_factory.mktemp("fuzz")
        model = write_integer_model(root / "int_model.json")
        kind = data.draw(st.sampled_from(["type", "null", "bool", "string", "length",
                                          "non-finite", "truncated", "non-object", "text"]))
        at = data.draw(st.integers(0, 11))
        lines = _good(12).splitlines()
        lines[at] = _record(data.draw, kind, 3)
        stream, out = root / "s.jsonl", root / "d.jsonl"
        stream.write_text("\n" + "\n".join(lines) + "\n")      # record i is on line i + 2
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
            mp.setattr(cli, "PREDICT_CHUNK", 3)
            rc = main(["predict", "--model", model, "--input", str(stream),
                       "--out", str(out)])
        err = err.getvalue()
        if kind == "non-finite":
            assert rc == EXIT_NUMERIC and f"at index {at}" in err, err
        else:
            assert rc == EXIT_DATA and f"line {at + 2}: " in err, err
        assert "Traceback" not in err and not out.exists()
        assert sorted(p.name for p in root.iterdir()) == ["int_model.json", "s.jsonl"]
        assert multiprocessing.active_children() == []
