"""A regular file read by more than one CPU takes the span path: the main process
reads each non-blank line's (line number, byte offset, byte length) and each
chunk's lines are read from the file by the process that parses them. A pipe,
or a process allowed one CPU, takes the line path. Both give the same lines,
so `predict` writes the same bytes and `load_corpus` the same docs, and both
raise the same error at the same point, whatever the line endings, blank lines
or encoding of the file."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import test_corpus_records as records
from conftest import text_feature_corpus, write_integer_model
from rareclass import cli, dataset, pool
from rareclass.cli import EXIT_OK, main
from rareclass.dataset import CorpusError, load_corpus, save_corpus

SRC = str(Path(cli.__file__).resolve().parent.parent)
BLOCK = 8192                            # bytes a text file decodes at a time
NOTES = ["", "caf\u00e9", "\u65e5\u672c\u8a9e", "\U0001f600 ok", "tab\there",
         "nel\x85 ls\u2028 ps\u2029 fs\x1c"]


def _cpus(mp, n):
    """Make the process's affinity mask n CPUs wide: 1 forces the line path."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _stream_records(n):
    """n predict records with three integer features and a note, some of it not ASCII."""
    return [json.dumps({"features": [i % 3, i % 2, i % 4], "note": NOTES[i % len(NOTES)]},
                       ensure_ascii=False) for i in range(n)]


def _corpus_records():
    """tests/test_corpus_records.py's 24 records, with text that is not all ASCII."""
    recs = records._records()
    for i, rec in enumerate(recs):
        rec["text"] += " " + NOTES[i % len(NOTES)]
    return [json.dumps(rec, ensure_ascii=False) for rec in recs]


def _long(line: str, length: int, tail: str = "") -> str:
    """line with a last key "pad" of x's then `tail`, `length` bytes long."""
    rec = json.loads(line)
    rec["pad"] = ""
    short = len(json.dumps(rec, ensure_ascii=False).encode())
    rec["pad"] = "x" * (length - short - len(tail.encode())) + tail
    return json.dumps(rec, ensure_ascii=False)


def _cases(lines):
    """name -> file bytes, for a list of record lines."""
    def join(ending, blanks=(), lines=lines):
        out = []
        for i, line in enumerate(lines):
            out.append(line + ending)
            if blanks and i % 4 == 1:
                out.append(blanks[i // 4 % len(blanks)] + ending)
        return "".join(out)
    endings = ["\n", "\r\n", "\r"]
    cases = {
        "lf": join("\n"),
        "crlf": join("\r\n", ["", "  "]),
        "cr": join("\r", ["", "\t"]),
        "mixed": "".join(line + endings[i % 3] for i, line in enumerate(lines)),
        "blank-ends": "\n \n\t\r\n" + join("\n") + "\n  \r\n\r\n\n",
        "unicode-blanks": join("\n", ["\x1c", "\x85", "\u3000", " \u3000\x85\x1c\t"]),
        "bom": "\ufeff" + join("\n"),
        "no-final-newline": join("\n").rstrip("\n"),
        # the reader decodes a block at a time: a CRLF, and a two-byte character, split
        # across the first two blocks
        "crlf-at-block-edge": _long(lines[0], BLOCK - 1) + "\r\n" + join("\r\n", lines=lines[1:]),
        "char-at-block-edge": _long(lines[0], BLOCK + 3, "é") + "\n" + join("\n", lines=lines[1:]),
    }
    data = {name: text.encode() for name, text in cases.items()}
    # bad bytes past the first block, after a few chunks of good records
    data["bad-utf8"] = join("\n").encode() + b"\n" * BLOCK + b"\xff\xfe{}\n" + join("\n").encode()
    data["bad-utf8-crlf"] = join("\r\n").encode() + b"\r\n" * BLOCK + b"\x80\r\n" + join("\r\n").encode()
    return data


def test_the_edge_cases_sit_where_they_should():
    data = _cases(_stream_records(30))
    assert data["crlf-at-block-edge"][BLOCK - 1:BLOCK + 1] == b"\r\n"
    edge = data["char-at-block-edge"]
    assert edge[BLOCK - 1:BLOCK + 1] == "é".encode()
    assert b"\x85" in data["unicode-blanks"] and "\u3000".encode() in data["unicode-blanks"]


STREAM_CASES = _cases(_stream_records(30))
CORPUS_CASES = _cases(_corpus_records())


@pytest.fixture
def spans_read(monkeypatch):
    """The paths `dataset._spans` is called for: the span path's reader."""
    called, spans = [], dataset._spans

    def spy(fh, path):
        called.append(str(path))
        return spans(fh, path)
    monkeypatch.setattr(dataset, "_spans", spy)
    return called


@pytest.fixture(scope="module")
def int_model(tmp_path_factory):
    return write_integer_model(tmp_path_factory.mktemp("span-model") / "int_model.json")


def _predict(capsys, model, stream):
    rc = main(["predict", "--model", model, "--input", str(stream)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert multiprocessing.active_children() == []
    return rc, captured.out, [l for l in captured.err.splitlines() if not l.startswith("predict ")]


def _mapped(path, size, weigh):
    """(every pair `dataset.map_lines` hands its mapper, in order, the error it ends with or None)."""
    pairs = []
    try:
        with dataset.map_lines(list, path, size, weigh) as (chunks, _):
            for chunk in chunks:
                pairs += chunk
    except CorpusError as exc:
        return pairs, str(exc)
    return pairs, None


class TestSpanPathMatchesLinePath:
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    @pytest.mark.parametrize("size, weigh", [(3, False), (250, True)])
    def test_the_mapper_gets_the_same_pairs(self, tmp_path, monkeypatch, spans_read, case, size, weigh):
        path = tmp_path / "s.jsonl"
        path.write_bytes(STREAM_CASES[case])
        _cpus(monkeypatch, 1)
        lines = _mapped(path, size, weigh)
        _cpus(monkeypatch, 2)
        assert _mapped(path, size, weigh) == lines and spans_read == [str(path)]
        assert multiprocessing.active_children() == []
        assert len(lines[0]) == 30 if lines[1] is None else lines[1].endswith("(invalid start byte)")

    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    @pytest.mark.parametrize("chunk", [1, 2, 7, 4096])
    def test_predict_same_bytes_and_error(self, tmp_path, int_model, capsys, monkeypatch,
                                          spans_read, case, chunk):
        stream = tmp_path / "s.jsonl"
        stream.write_bytes(STREAM_CASES[case])
        monkeypatch.setattr(cli, "PREDICT_CHUNK", chunk)
        outcomes = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            outcomes.append(_predict(capsys, int_model, stream))
            assert spans_read == [str(stream)] * (cpus - 1)
        lines, pooled = outcomes
        assert pooled == lines
        rc, out, errors = lines
        if case == "bom":
            assert errors == ["error: line 1: invalid json (Unexpected UTF-8 BOM "
                              "(decode using utf-8-sig))"] and out == ""
        elif case.startswith("bad-utf8"):
            assert len(errors) == 1 and errors[0].startswith(f"error: {stream} is not UTF-8 text")
            assert len(out.splitlines()) == 30 // chunk * chunk        # the chunks before it
        else:
            assert rc == EXIT_OK and errors == [] and len(out.splitlines()) == 30

    @pytest.mark.parametrize("case", sorted(CORPUS_CASES))
    @pytest.mark.parametrize("size", [250, 1000])
    def test_load_corpus_same_docs_and_error(self, tmp_path, monkeypatch, spans_read, case, size):
        path = tmp_path / "c.jsonl"
        path.write_bytes(CORPUS_CASES[case])
        monkeypatch.setattr(dataset, "CORPUS_CHUNK", size)
        outcomes = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            try:
                corpus = load_corpus(path)
            except CorpusError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append((corpus.lines, corpus.subclass_names, corpus.feature_matrix().tobytes(),
                                 [(d.text, d.label, d.subclass) for d in corpus.docs]))
            assert multiprocessing.active_children() == []
            assert spans_read == [str(path)] * (cpus - 1)
        lines, pooled = outcomes
        assert pooled == lines
        if case == "bom":
            assert lines.startswith("line 1: invalid json (Unexpected UTF-8 BOM")
        elif case.startswith("bad-utf8"):
            assert lines.startswith(f"{path} is not UTF-8 text")
        else:
            assert len(lines[0]) == 24 and lines[3][2][0].endswith(NOTES[2])


class TestWhichPath:
    def test_the_main_process_sends_spans_not_lines(self, tmp_path, int_model, capsys, monkeypatch):
        jobs, fork_map = [], pool._fork_map

        def spy(fn, chunks, *, workers, started):
            def seen():
                for job in chunks:
                    jobs.append(list(job))
                    yield job
            return fork_map(fn, seen(), workers=workers, started=started)
        monkeypatch.setattr(pool, "_fork_map", spy)
        stream = tmp_path / "s.jsonl"
        stream.write_bytes(STREAM_CASES["unicode-blanks"])
        monkeypatch.setattr(cli, "PREDICT_CHUNK", 4)
        _cpus(monkeypatch, 2)
        rc, out, _ = _predict(capsys, int_model, stream)
        assert rc == EXIT_OK and len(out.splitlines()) == 30
        spans = [span for job in jobs for span in job]
        assert all(type(v) is int for span in spans for v in span)
        assert [len(job) for job in jobs] == [4] * 7 + [2]
        text = STREAM_CASES["unicode-blanks"]
        lines = text.decode().split("\n")
        assert [text[at:at + length].decode() for _, at, length in spans] == \
               [lines[n - 1] + "\n" for n, _, _ in spans]

    def test_one_cpu_reads_lines(self, tmp_path, int_model, capsys, monkeypatch, spans_read):
        def no_pread(*args):
            raise AssertionError("a one-CPU process read a span")
        monkeypatch.setattr(os, "pread", no_pread)
        stream = tmp_path / "s.jsonl"
        stream.write_bytes(STREAM_CASES["crlf"])
        monkeypatch.setattr(cli, "PREDICT_CHUNK", 4)
        _cpus(monkeypatch, 1)
        rc, out, _ = _predict(capsys, int_model, stream)
        assert rc == EXIT_OK and len(out.splitlines()) == 30 and spans_read == []

    def test_a_corpus_of_one_chunk_reads_lines(self, tmp_path, monkeypatch, spans_read):
        # a file no larger than one chunk cannot hold two: this process parses it as it reads
        path = tmp_path / "c.jsonl"
        path.write_bytes(CORPUS_CASES["lf"])
        monkeypatch.setattr(dataset, "CORPUS_CHUNK", len(CORPUS_CASES["lf"]))
        _cpus(monkeypatch, 2)
        assert load_corpus(path).n == 24 and spans_read == []
        monkeypatch.setattr(dataset, "CORPUS_CHUNK", len(CORPUS_CASES["lf"]) - 1)
        assert load_corpus(path).n == 24 and spans_read == [str(path)]


def _child(argv, code, timeout=60, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv, "-c", code], capture_output=True, env=env,
                          timeout=timeout, **kwargs)


def _command(command, source, out):
    """Child code: `command` on two CPUs in chunks small enough for the pool, then its exit code."""
    return ("import os\nfrom rareclass import cli, dataset\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "cli.PREDICT_CHUNK = 7\ndataset.CORPUS_CHUNK = 3000\n"
            f"rc = cli.main([{command!r}, '--input', {source!r}, '--out', {out!r}, *ARGS])\n"
            "print('exit', rc)\n")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """{command: (input file, the command's other flags)} for `predict` and `train`."""
    root = tmp_path_factory.mktemp("not-regular")
    corpus = root / "corpus.jsonl"
    save_corpus(text_feature_corpus(), corpus)
    model = write_integer_model(root / "int_model.json")
    stream = root / "stream.jsonl"
    stream.write_bytes(STREAM_CASES["mixed"])
    return {"predict": (stream, ["--model", model]),
            "train": (corpus, ["--rep", "raw", "--iters", "20", "--step", "0.003", "--mu", "1e-4"])}


def _run(command, inputs, source, out, **kwargs):
    path, flags = inputs[command]
    proc = _child([], f"ARGS = {flags!r}\n" + _command(command, source, str(out)), **kwargs)
    err = proc.stderr.decode()
    assert proc.stdout.decode().splitlines() == ["exit 0"], err
    assert "Traceback" not in err
    if command == "predict":
        assert " workers=2 " in err, err
    return out.read_bytes()


class TestNotARegularFile:
    """A pipe cannot be read twice: its lines are read and sent, as they were before spans."""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("command", ["predict", "train"])
    def test_fifo_same_bytes_as_the_file(self, tmp_path, inputs, command):
        path = inputs[command][0]
        expected = _run(command, inputs, str(path), tmp_path / "file.out")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = subprocess.Popen([sys.executable, "-c",
                                   "import shutil, sys\n"
                                   "with open(sys.argv[1], 'rb') as src, open(sys.argv[2], 'wb') as dst:\n"
                                   "    shutil.copyfileobj(src, dst)\n", str(path), str(fifo)])
        try:
            # in a child interpreter with a time limit: the failure this guards against is a hang
            assert _run(command, inputs, str(fifo), tmp_path / "fifo.out") == expected
            assert writer.wait(timeout=60) == 0
        finally:
            writer.kill()
            writer.wait()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("command", ["predict", "train"])
    def test_stdin_pipe_same_bytes_as_the_file(self, tmp_path, inputs, command):
        path = inputs[command][0]
        expected = _run(command, inputs, str(path), tmp_path / "file.out")
        piped = _run(command, inputs, "/dev/stdin", tmp_path / "pipe.out", input=path.read_bytes())
        assert piped == expected


class TestNoUnclosedFiles:
    def test_workers_leave_no_file_open(self, tmp_path, inputs):
        # pytest's warning filter sees only this process: the workers run in a child
        # interpreter in development mode, with a ResourceWarning made an error
        stream, (_, model) = inputs["predict"][0], inputs["predict"][1]
        code = ("import multiprocessing, os\nfrom rareclass import cli, dataset\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "cli.PREDICT_CHUNK = 2\ndataset.CORPUS_CHUNK = 3000\n"
                f"rc = cli.main(['predict', '--model', {model!r}, '--input', {str(stream)!r},"
                f" '--out', {str(tmp_path / 'd.jsonl')!r}])\n"
                f"corpus = dataset.load_corpus({str(inputs['train'][0])!r})\n"
                "print('exit', rc, corpus.n, len(multiprocessing.active_children()))\n")
        proc = _child(["-X", "dev", "-W", "error::ResourceWarning"], code)
        err = proc.stderr.decode()
        assert proc.stdout.decode().splitlines() == ["exit 0 144 0"], err
        assert " workers=2 " in err
        assert "ResourceWarning" not in err and "Exception ignored" not in err, err
