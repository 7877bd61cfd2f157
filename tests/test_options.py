"""Every option value reaches a command through one parser. Flags, `--config`
entries and `RARE_SEED` are checked by the same rules; a bad value is exit 1
naming its flag or key, with no traceback and no output file."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rareclass import cli
from rareclass.cli import EXIT_OK, EXIT_USAGE, main
from rareclass.dataset import SyntheticConfig, gen_synthetic, save_corpus

SRC = str(Path(cli.__file__).resolve().parent.parent)


@pytest.fixture
def corpus_file(tmp_path):
    corpus = gen_synthetic(SyntheticConfig(
        d=6, K_total=3, docs_per_subclass=30, majority_docs=120,
        subclass_separation=6.0, noise_scale=1.0, seed=0))
    f = tmp_path / "synth.jsonl"
    save_corpus(corpus, f)
    return str(f)


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return rc, captured.err


def _recorded(monkeypatch):
    """Replace every command with one that keeps the args it is given."""
    seen = []
    for name in cli.COMMANDS:
        monkeypatch.setitem(cli.COMMANDS, name, lambda args: seen.append(args) or EXIT_OK)
    return seen


class TestUsageErrors:
    """Each case ends with exit 1, a message naming the flag or config key, no
    traceback and no output file."""

    @pytest.mark.parametrize("conf, message", [
        ({"command": "predict"}, "unrecognized arguments: --command=predict"),
        ({"iters": "abc"}, "argument --iters: invalid int value: 'abc'"),
        ({"iters": True}, "config key 'iters' in {conf} is true, not a string or a number"),
        ({"reject": "bogus"}, "argument --reject: invalid choice: 'bogus'"),
        ({"step": None}, "config key 'step' in {conf} is null, not a string or a number"),
        ({"batch": [8]}, "config key 'batch' in {conf} is [8]"),
        ({"mu": {"value": 1}}, "config key 'mu' in {conf} is {{\"value\": 1}}"),
        ({"iters": 0}, "argument --iters: '0' is not a positive int"),
        ({"iters": 40.0}, "argument --iters: invalid int value: '40.0'"),
        ({"iter": 40}, "unrecognized arguments: --iter=40"),      # no abbreviations
        ({"q": 1e400}, "argument --q: 'Infinity' is not a float in (0, 1)"),
    ], ids=["command", "iters-text", "iters-bool", "reject", "step-null", "batch-list",
            "mu-object", "iters-0", "iters-float", "abbreviated", "q-infinite"])
    def test_bad_config_entry(self, tmp_path, corpus_file, capsys, conf, message):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        out = tmp_path / "m.json"
        rc, err = _run(capsys, ["--config", str(path), "train", "--input", corpus_file,
                                "--rep", "raw", "--iters", "5", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert message.format(conf=path) in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--iters", "abc"], "argument --iters: invalid int value: 'abc'"),
        (["--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["--ite", "5"], "unrecognized arguments: --ite 5"),
        (["--iters", "0"], "argument --iters: '0' is not a positive int"),
        (["--momentum", "1"], "argument --momentum: '1' is not a float in [0, 1)"),
        (["--batch", "0"], "argument --batch: '0' is not a positive int"),
        (["--mu", "-1"], "argument --mu: '-1' is not a finite non-negative float"),
        (["--mu", "nan"], "argument --mu: 'nan' is not a finite non-negative float"),
        (["--q", "2"], "argument --q: '2' is not a float in (0, 1)"),
        (["--log-every", "-1"], "argument --log-every: '-1' is not a non-negative int"),
        (["--step", "-1"], "argument --step: '-1' is not a finite positive float"),
        (["--step", "inf"], "argument --step: 'inf' is not a finite positive float"),
        (["--batch", "100000"], "batch size 100000 outside 1..210"),
        (["--seed", "-1"], "argument --seed: '-1' is not a non-negative int"),
        (["--batch", "8", "--seed", "-1"], "argument --seed: '-1' is not a non-negative int"),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else None)
    def test_bad_train_flag(self, tmp_path, corpus_file, capsys, flags, message):
        out = tmp_path / "m.json"
        rc, err = _run(capsys, ["train", "--input", corpus_file, "--rep", "raw", "--iters", "5",
                                "--out", str(out), *flags])
        assert rc == EXIT_USAGE
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("rep", ["pca:0", "pca:-3", "pca:", "pca:x", "pca", "tfidf2k", ""])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
    def test_bad_rep(self, tmp_path, corpus_file, capsys, rep, command, by_config):
        out = tmp_path / "o.json"
        argv = [command, "--input", corpus_file, "--iters", "5", "--out", str(out)]
        if by_config:
            (tmp_path / "conf.json").write_text(json.dumps({"rep": rep}))
            argv = ["--config", str(tmp_path / "conf.json"), *argv]
        else:
            argv += [f"--rep={rep}"]
        rc, err = _run(capsys, argv)
        assert rc == EXIT_USAGE
        assert (f"argument --rep: {rep!r} is not tfidf1k, raw or pca:<rank> with a rank >= 1"
                in err)
        assert not out.exists()

    @pytest.mark.parametrize("rep", ["raw", "pca:1", "pca:3", "tfidf1k"])
    def test_good_rep_is_kept_as_written(self, monkeypatch, rep):
        seen = _recorded(monkeypatch)
        assert main(["evaluate", "--input", "i", "--rep", rep]) == EXIT_OK
        assert seen[0].rep == rep

    def test_batch_larger_than_every_training_set(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "r.json"
        rc, err = _run(capsys, ["evaluate", "--input", corpus_file, "--rep", "raw", "--iters", "5",
                                "--reps", "2", "--batch", "100000", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "every repetition failed: seed 0: batch size 100000 outside 1.." in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["synth", "--d", "1"], "argument --d: '1' is not an int >= 2"),
        (["synth", "--k-total", "1"], "argument --k-total: '1' is not an int >= 2"),
        (["synth", "--docs-per-subclass", "3"], "argument --docs-per-subclass: '3' is not an int >= 4"),
        (["synth", "--majority-docs", "-1"], "argument --majority-docs: '-1' is not a non-negative int"),
        (["synth", "--separation", "-1"], "argument --separation: '-1' is not a finite non-negative float"),
        (["synth", "--noise", "0"], "argument --noise: '0' is not a finite positive float"),
        (["bench", "--n", "0"], "argument --n: '0' is not a positive int"),
        (["bench", "--k", "0"], "argument --k: '0' is not a positive int"),
        (["bench", "--iters", "0"], "argument --iters: '0' is not a positive int"),
        (["coverage", "--input", "x", "--top-n", "0"], "argument --top-n: '0' is not a positive int"),
        (["coverage", "--input", "x", "--time-cap", "-1"],
         "argument --time-cap: '-1' is not a finite non-negative float"),
        (["synth", "--seed", "-1"], "argument --seed: '-1' is not a non-negative int"),
        (["bench", "--seed", "-1"], "argument --seed: '-1' is not a non-negative int"),
        (["evaluate", "--input", "x", "--seed", "-1"], "argument --seed: '-1' is not a non-negative int"),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else None)
    def test_bad_flag_of_other_commands(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o.json"
        if argv and argv[0] in ("synth", "bench", "coverage"):
            argv = [*argv, "--out", str(out)]
        rc, err = _run(capsys, argv)
        assert rc == EXIT_USAGE
        assert message in err
        assert not out.exists()

    def test_bad_rare_seed(self, tmp_path, corpus_file, capsys, monkeypatch):
        monkeypatch.setenv("RARE_SEED", "abc")
        out = tmp_path / "m.json"
        rc, err = _run(capsys, ["train", "--input", corpus_file, "--rep", "raw", "--iters", "5",
                                "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "argument --seed: invalid int value: 'abc'" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["synth"], ["train", "--input", "{corpus}", "--rep", "raw", "--iters", "5", "--batch", "8"],
        ["evaluate", "--input", "{corpus}", "--rep", "raw", "--iters", "5"], ["bench"],
    ], ids=["synth", "train-batch", "evaluate", "bench"])
    def test_negative_rare_seed(self, tmp_path, corpus_file, capsys, monkeypatch, argv):
        monkeypatch.setenv("RARE_SEED", "-1")
        out = tmp_path / "o.json"
        rc, err = _run(capsys, [a.format(corpus=corpus_file) for a in argv] + ["--out", str(out)])
        assert rc == EXIT_USAGE
        assert "argument --seed: '-1' is not a non-negative int" in err
        assert not out.exists()

    def test_help_is_still_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "-h"])
        assert exc.value.code == 0
        assert "--iters" in capsys.readouterr().out


class TestConfigValuesAreFlags:
    @pytest.mark.parametrize("conf, flags", [
        ({"mu": "1"}, ["--mu", "1"]),
        ({"seed": "7"}, ["--seed", "7"]),
        ({"lambda0": 0.5, "seed": 7, "step": 1e-5, "q": "0.05", "log_every": 0},
         ["--lambda0", "0.5", "--seed", "7", "--step", "1e-5", "--q", "0.05", "--log-every", "0"]),
    ], ids=["mu-text", "seed-text", "numbers"])
    def test_same_model_file_as_the_flags(self, tmp_path, corpus_file, conf, flags):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        common = ["--input", corpus_file, "--rep", "raw", "--iters", "20"]
        by_conf, by_flags = tmp_path / "conf_model.json", tmp_path / "flag_model.json"
        assert main(["--config", str(path), "train", *common, "--out", str(by_conf)]) == EXIT_OK
        assert main(["train", *common, *flags, "--out", str(by_flags)]) == EXIT_OK
        assert by_conf.read_bytes() == by_flags.read_bytes()

    @pytest.mark.parametrize("env, conf, flags, seed", [
        (None, None, [], 0),
        ("", None, [], 0),
        ("5", None, [], 5),
        ("5", {"seed": 6}, [], 6),
        ("5", {"seed": 6}, ["--seed", "7"], 7),
        (None, {"seed": 6}, ["--seed=7"], 7),
        ("abc", None, ["--seed", "7"], 7),        # a flag replaces a bad RARE_SEED
        ("abc", {"seed": 6}, [], 6),              # and so does the config file
    ])
    def test_precedence(self, tmp_path, monkeypatch, env, conf, flags, seed):
        seen = _recorded(monkeypatch)
        if env is None:
            monkeypatch.delenv("RARE_SEED", raising=False)
        else:
            monkeypatch.setenv("RARE_SEED", env)
        head = []
        if conf is not None:
            (tmp_path / "conf.json").write_text(json.dumps(conf))
            head = ["--config", str(tmp_path / "conf.json")]
        assert main([*head, "synth", "--out", "x", *flags]) == EXIT_OK
        assert seen[0].seed == seed

    @pytest.mark.parametrize("argv, conf, attr, value", [
        (["train", "--input", "i", "--out", "o"], {"log_every": 3}, "log_every", 3),
        (["train", "--input", "i", "--out", "o"], {"log-every": 3}, "log_every", 3),
        (["synth", "--out", "o"], {"k_total": 4}, "k_total", 4),
        (["synth", "--out", "o"], {"k-total": 4}, "k_total", 4),
        (["coverage", "--input", "i"], {"top_n": "5"}, "top_n", 5),
        (["coverage", "--input", "i"], {"time-cap": 0.5}, "time_cap", 0.5),
    ])
    def test_key_spelled_with_either_separator(self, tmp_path, monkeypatch, argv, conf, attr,
                                               value):
        seen = _recorded(monkeypatch)
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        assert main([f"--config={path}", *argv]) == EXIT_OK
        assert getattr(seen[0], attr) == value

    def test_command_found_by_position(self, tmp_path, monkeypatch):
        """A config file named like the command does not move the entries."""
        seen = _recorded(monkeypatch)
        monkeypatch.chdir(tmp_path)
        Path("train").write_text(json.dumps({"iters": 7, "out": "from-config"}))
        assert main(["--config", "train", "train", "--input", "train", "--out", "o"]) == EXIT_OK
        assert (seen[0].iters, seen[0].input, seen[0].out) == (7, "train", "o")

    def test_input_must_be_on_the_command_line(self, tmp_path, capsys):
        (tmp_path / "conf.json").write_text(json.dumps({"input": "x", "out": "y"}))
        rc, err = _run(capsys, ["--config", str(tmp_path / "conf.json"), "train"])
        assert rc == EXIT_USAGE
        assert "the following arguments are required: --input, --out" in err


def test_real_process_exit_codes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    bad = subprocess.run([sys.executable, "-m", "rareclass.cli", "train", "--input", "i",
                          "--out", str(tmp_path / "m.json"), "--iters", "abc"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert bad.returncode == EXIT_USAGE
    assert "argument --iters: invalid int value: 'abc'" in bad.stderr
    assert "Traceback" not in bad.stderr and not (tmp_path / "m.json").exists()
    ok = subprocess.run([sys.executable, "-m", "rareclass.cli", "-h"],
                        capture_output=True, text=True, env=env, timeout=60)
    assert ok.returncode == 0 and "usage: rareclass" in ok.stdout


# --- the config/flag fuzz --------------------------------------------------

def _int(low):
    return lambda v: type(v) is int and v >= low


def _float(ok):
    return lambda v: type(v) is float and math.isfinite(v) and ok(v)


def _optional(rule):
    return lambda v: v is None or rule(v)


def _text(v):
    return v is None or type(v) is str


def _rep(v):
    kind, _, rank = v.partition(":")
    return v in ("tfidf1k", "raw") or (kind == "pca" and int(rank) >= 1)


# the rule each recorded value must satisfy, and the cast that reads its text
RULES = {
    "seed": (int, _int(0)), "reps": (int, _int(1)),
    "iters": (int, _int(1)), "n": (int, _int(1)), "k": (int, _int(1)), "top_n": (int, _int(1)),
    "batch": (int, _optional(_int(1))),
    "log_every": (int, _int(0)), "majority_docs": (int, _int(0)),
    "d": (int, _int(2)), "k_total": (int, _int(2)), "docs_per_subclass": (int, _int(4)),
    "lambda0": (float, _float(lambda v: v >= 0)), "lambdak": (float, _float(lambda v: v >= 0)),
    "mu": (float, _float(lambda v: v >= 0)), "separation": (float, _float(lambda v: v >= 0)),
    "time_cap": (float, _optional(_float(lambda v: v >= 0))),
    "step": (float, _optional(_float(lambda v: v > 0))), "noise": (float, _float(lambda v: v > 0)),
    "momentum": (float, _float(lambda v: 0 <= v < 1)), "q": (float, _float(lambda v: 0 < v < 1)),
    "reject": (str, lambda v: v in ("evt", "percentile")),
    "solver": (str, lambda v: v in ("exact", "greedy")),
    "rep": (str, _rep), "input": (str, _text), "out": (str, _text), "model": (str, _text),
    "words_csv": (str, _text),
}
TRAIN_KEYS = ["rep", "lambda0", "lambdak", "mu", "iters", "step", "momentum", "batch", "reject",
              "q", "log_every", "seed"]
COMMAND_KEYS = {
    "train": ["input", "out", *TRAIN_KEYS],
    "predict": ["model", "input", "out", "seed"],
    "evaluate": ["input", "out", "reps", *TRAIN_KEYS],
    "coverage": ["input", "out", "top_n", "solver", "time_cap", "words_csv", "seed"],
    "bench": ["out", "n", "d", "k", "iters", "mu", "seed"],
    "synth": ["out", "d", "k_total", "docs_per_subclass", "majority_docs", "separation", "noise",
              "seed"],
}
REQUIRED = {"train": ["input", "out"], "predict": ["model", "input"], "evaluate": ["input"],
            "coverage": ["input"], "bench": [], "synth": ["out"]}
# flag values; a value starting with "-" that is not a number would read as a flag
WORDS = st.sampled_from(["0", "1", "2", "3", "4", "7", "-1", "-0.0", "0.5", "0.999", "1.0",
                         "1e-4", "1e400", "nan", "inf", "", "abc", "1_000", " 3", "evt",
                         "percentile", "exact", "greedy", "raw", "pca:3"])
JSON_VALUES = st.one_of(WORDS, st.just("-x"), st.integers(-3, 10), st.floats(),
                        st.sampled_from([None, True, False, [], [1], {}, {"a": 1}]))
NON_OBJECTS = st.one_of(st.lists(st.integers(), max_size=2), st.integers(), st.text(max_size=3),
                        st.none(), st.booleans(), st.floats())


def _as_text(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _accepts(key, text) -> bool:
    cast, holds = RULES[key]
    try:
        return holds(cast(text))
    except ValueError:
        return False


class TestConfigAndFlagFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_every_value_checked_or_refused(self, tmp_path_factory, data):
        command = data.draw(st.sampled_from(sorted(COMMAND_KEYS)))
        keys = COMMAND_KEYS[command]
        if data.draw(st.integers(0, 4)):
            conf = data.draw(st.dictionaries(
                st.sampled_from(keys + ["bogus", "config", "command", "ite"]), JSON_VALUES,
                max_size=4))
            conf = {(k.replace("_", "-") if data.draw(st.booleans()) else k): v
                    for k, v in conf.items()}
        else:
            conf = data.draw(NON_OBJECTS)
        flags = data.draw(st.dictionaries(st.sampled_from(keys), WORDS, max_size=3))
        flags.update({k: f"{k}-given" for k in REQUIRED[command]})
        argv = [command]
        for key, text in flags.items():
            flag = "--" + key.replace("_", "-")
            argv += [f"{flag}={text}"] if data.draw(st.booleans()) else [flag, text]
        path = tmp_path_factory.mktemp("conf") / "conf.json"
        path.write_text(json.dumps(conf))
        seen, err = [], io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
            mp.delenv("RARE_SEED", raising=False)
            for name in cli.COMMANDS:
                mp.setitem(cli.COMMANDS, name, lambda args: seen.append(args) or EXIT_OK)
            rc = main(["--config", str(path), *argv])
        err = err.getvalue()
        assert "Traceback" not in err
        entries = ({k.replace("-", "_"): v for k, v in conf.items()}
                   if isinstance(conf, dict) else None)
        valid = (entries is not None and set(entries) <= set(keys)
                 and all(type(v) in (str, int, float) for v in entries.values())
                 and all(_accepts(k, _as_text(v)) for k, v in entries.items())
                 and all(_accepts(k, text) for k, text in flags.items()))
        assert rc == (EXIT_OK if valid else EXIT_USAGE), (conf, argv, err)
        if not valid:
            assert "error:" in err
            return
        (args,) = seen
        for key in keys:
            cast, holds = RULES[key]
            value = getattr(args, key)
            assert holds(value), (key, value)
            if key in flags:                       # a flag wins over the config file
                assert value == cast(flags[key]), (key, value)
            elif key in entries:
                assert value == cast(_as_text(entries[key])), (key, value)
