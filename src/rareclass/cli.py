"""Command-line surface: train, predict, evaluate, coverage, bench, synth."""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import pickle
import sys
import time

import numpy as np

from . import coverage as cov
from . import evaluation, featurize, pool, recognizer, rejection, trainer
from .dataset import (CorpusError, RARE, SyntheticConfig, atomic_open, atomic_write, decode_json,
                      gen_synthetic, load_corpus, map_lines, parse_line, save_corpus)
from .errors import DataError, NumericError, UsageError
from .objective import Hyperparams, bind_data
from .recognizer import KNOWN, Decision, ModelDocument, ModelDocumentError
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_WORKER = 4
EXIT_INTERRUPT = 130    # 128 + SIGINT, what a shell reports for a program Ctrl-C ends
EXIT_PIPE = 141         # 128 + SIGPIPE, what a shell reports for a program the signal ends


def _dumps(obj, **kwargs) -> str:
    """Strict JSON: a non-finite number is a numeric failure, never a bare NaN or Infinity."""
    try:
        return json.JSONEncoder(allow_nan=False, **kwargs).encode(obj)
    except ValueError as exc:
        raise FloatingPointError(f"cannot write non-finite value as JSON: {exc}") from exc


def _decision_line(index: int, d: Decision) -> str:
    """`_dumps(d.to_json(index=index)) + "\n"`, byte for byte, without building a dict."""
    gc = d.gc_score
    if not math.isfinite(gc):
        raise FloatingPointError(f"cannot write non-finite value as JSON: gc_score {gc} at index {index}")
    line = f'{{"index": {index}, "verdict": "{d.verdict}", "gc_score": {float.__repr__(gc)}'
    return line + (f', "subclass": {d.subclass}}}\n' if d.verdict == KNOWN else "}\n")


def _rule(cast, holds, what: str):
    """An argparse `type=`: `cast` the text, then refuse a value `holds` rejects. It
    bears `cast`'s name, so text that does not parse reads `invalid int value: 'abc'`."""
    def convert(text: str):
        value = cast(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    convert.__name__ = cast.__name__
    return convert


_POSITIVE_INT = _rule(int, lambda v: v >= 1, "a positive int")
_NON_NEGATIVE_INT = _rule(int, lambda v: v >= 0, "a non-negative int")
_AT_LEAST_2 = _rule(int, lambda v: v >= 2, "an int >= 2")
_AT_LEAST_4 = _rule(int, lambda v: v >= 4, "an int >= 4")
_NON_NEGATIVE = _rule(float, lambda v: 0 <= v < math.inf, "a finite non-negative float")
_POSITIVE = _rule(float, lambda v: 0 < v < math.inf, "a finite positive float")
_MOMENTUM = _rule(float, lambda v: 0 <= v < 1, "a float in [0, 1)")
_PROBABILITY = _rule(float, lambda v: 0 < v < 1, "a float in (0, 1)")


def _parse_rep(rep: str) -> tuple[str, int] | None:
    """(representation, pca rank) of a --rep value, or None for a value that names none."""
    if rep in ("tfidf1k", "raw"):
        return ("tfidf" if rep == "tfidf1k" else "raw"), 0
    kind, _, rank = rep.partition(":")
    with contextlib.suppress(ValueError):
        if kind == "pca" and int(rank) >= 1:
            return "pca", int(rank)
    return None


# kept as written, so that a report's config echo reads "pca:30"
_REP = _rule(str, lambda v: _parse_rep(v) is not None, "tfidf1k, raw or pca:<rank> with a rank >= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rareclass", allow_abbrev=False)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    # no abbreviated flags, so a config key is taken only when spelled like its flag
    sub = parser.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, allow_abbrev=False))

    def add_common(p):
        # argparse passes a string default through type= too: a bad RARE_SEED is a usage error
        p.add_argument("--seed", type=int, default=os.environ.get("RARE_SEED") or "0",
                       help="default: RARE_SEED, else 0")

    def add_train_flags(p):
        p.add_argument("--rep", type=_REP, default="tfidf1k", help="tfidf1k | pca:<rank> | raw")
        p.add_argument("--lambda0", type=_NON_NEGATIVE, default=1.0)
        p.add_argument("--lambdak", type=_NON_NEGATIVE, default=1.0)
        p.add_argument("--mu", type=_NON_NEGATIVE, default=1.0)
        p.add_argument("--iters", type=_POSITIVE_INT, default=500)
        p.add_argument("--step", type=_POSITIVE, default=None)
        p.add_argument("--momentum", type=_MOMENTUM, default=0.9)
        p.add_argument("--batch", type=_POSITIVE_INT, default=None)
        p.add_argument("--reject", choices=["evt", "percentile"], default="evt")
        p.add_argument("--q", type=_PROBABILITY, default=0.01)
        p.add_argument("--log-every", type=_NON_NEGATIVE_INT, default=0)

    p = sub.add_parser("train", help="fit a model and write a model document")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    add_train_flags(p)
    add_common(p)

    p = sub.add_parser("predict", help="stream jsonl in, decisions jsonl out")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None, help="default: stdout")
    add_common(p)

    p = sub.add_parser("evaluate", help="repeated split/train/test protocol")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--reps", type=int, default=5)
    add_train_flags(p)
    add_common(p)

    p = sub.add_parser("coverage", help="build and solve the word-cover program")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--top-n", type=_POSITIVE_INT, default=20)
    p.add_argument("--solver", choices=["exact", "greedy"], default="greedy")
    p.add_argument("--time-cap", type=_NON_NEGATIVE, default=None)
    p.add_argument("--words-csv", default=None, help="also export ranked word lists as CSV")
    add_common(p)

    p = sub.add_parser("bench", help="time fit at n, 2n, 4n on one BLAS thread")
    p.add_argument("--out", default=None)
    p.add_argument("--n", type=_POSITIVE_INT, default=1000)
    p.add_argument("--d", type=_AT_LEAST_2, default=200)
    p.add_argument("--k", type=_POSITIVE_INT, default=4)
    p.add_argument("--iters", type=_POSITIVE_INT, default=200)
    p.add_argument("--mu", type=_NON_NEGATIVE, default=1.0)
    add_common(p)

    p = sub.add_parser("synth", help="write a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--d", type=_AT_LEAST_2, default=20)
    p.add_argument("--k-total", type=_AT_LEAST_2, default=6)
    p.add_argument("--docs-per-subclass", type=_AT_LEAST_4, default=100)
    p.add_argument("--majority-docs", type=_NON_NEGATIVE_INT, default=600)
    p.add_argument("--separation", type=_NON_NEGATIVE, default=6.0)
    p.add_argument("--noise", type=_POSITIVE, default=1.0)
    add_common(p)
    return parser


def _config_tokens(path: str) -> list[str]:
    """The config file's entries as `--key=value` flags, for the parser to check like any other."""
    try:
        with open(path, encoding="utf-8") as fh:
            conf = decode_json(fh.read())
    except (OSError, ValueError) as exc:            # unreadable, not JSON, or a repeated key
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(conf, dict):
        raise UsageError(f"config file {path} is not a JSON object")
    tokens = []
    for key, value in conf.items():
        if type(value) not in (str, int, float):              # null, a bool, a list or an object
            raise UsageError(f"config key {key!r} in {path} is {json.dumps(value)}, "
                             "not a string or a number")
        tokens.append(f"--{key.replace('_', '-')}={value if type(value) is str else json.dumps(value)}")
    return tokens


def _effective_config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "config"}


def _training(args) -> dict:
    """The `train_document` keywords `train` and `evaluate` share."""
    representation, pca_rank = _parse_rep(args.rep)
    return {"hp_template": {"lambda0": args.lambda0, "lambdak": args.lambdak, "mu": args.mu},
            "cfg": TrainConfig(max_iters=args.iters, step_size=args.step, momentum=args.momentum,
                               batch=args.batch, seed=args.seed, log_every=args.log_every),
            "representation": representation, "pca_rank": pca_rank,
            "reject_method": rejection.EVT_POT if args.reject == "evt" else rejection.PERCENTILE,
            "q": args.q}


def cmd_train(args) -> int:
    corpus = load_corpus(args.input)
    # the whole input corpus is the training set for `train`
    doc = evaluation.train_document(corpus, range(corpus.n), range(1, corpus.K + 1),
                                    **_training(args))
    recognizer.save(doc, args.out)
    return EXIT_OK


# records read, featurized, routed and written at a time: memory stays flat in the stream length
PREDICT_CHUNK = 1024


def _chunk_features(model: ModelDocument, chunk: list[tuple[int, str]]) -> np.ndarray:
    """Parse, check and featurize one chunk: the (n, d) array predict routes.
    A bad record is an error naming its line in the input file."""
    records = []
    for lineno, line in chunk:
        rec = parse_line(lineno, line)
        try:
            model.check_record(rec)
        except ModelDocumentError as exc:
            raise CorpusError(f"line {lineno}: {exc}") from exc
        records.append(rec)
    return model.featurize(records)


def cmd_predict(args) -> int:
    model = recognizer.load(args.model)
    start = time.perf_counter()
    totals = recognizer.StreamStats()
    output = atomic_open(args.out) if args.out else contextlib.nullcontext(sys.stdout)
    with output as out:
        # a regular file is read here as line spans, each chunk's lines by the process that
        # featurizes it; a pipe's lines, or a one-CPU process's, are read here (map_lines)
        with map_lines(functools.partial(_chunk_features, model), args.input,
                       PREDICT_CHUNK) as (features, workers):
            # routed here, not in a worker, so that a wrapper of recognizer.predict_stream in
            # this process, such as a tracing span, sees every chunk
            for X in features:
                decisions, stats = recognizer.predict_stream(model, X)
                offset = totals.total
                out.write("".join(_decision_line(offset + j, d) for j, d in enumerate(decisions)))
                totals.merge(stats)
    seconds = time.perf_counter() - start
    print(f"predict items={totals.total} majority={totals.majority} "
          f"known={sum(totals.known.values())} emerging={totals.emerging} "
          f"sc_evaluations={totals.sc_evaluations} workers={workers} seconds={seconds:.3f} "
          f"items_per_s={totals.total / seconds:.0f}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.reps < 1:
        raise UsageError(f"--reps must be at least 1, got {args.reps}")
    corpus = load_corpus(args.input)
    report = evaluation.run_experiment(corpus, repetitions=args.reps, base_seed=args.seed,
                                       config_echo=_effective_config(args), **_training(args))
    if report.first_error is not None and not report.per_seed:
        # every repetition failed: no report, and the first failure's exit code
        print(f"error: every repetition failed: {'; '.join(report.errors)}", file=sys.stderr)
        return _exit_code(report.first_error)
    payload = _dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    if args.out:
        atomic_write(args.out, payload)
    sys.stdout.write(report.to_text())
    return EXIT_OK


def cmd_coverage(args) -> int:
    corpus = load_corpus(args.input)
    vocab = featurize.build_vocab(corpus.term_counts, top_n=args.top_n)
    program = cov.build_program(corpus, vocab)
    if args.solver == "exact":
        sol = cov.solve_exact(program, time_cap=args.time_cap)
    else:
        sol = cov.solve_greedy(program)
    report = cov.coverage_report(sol, program)
    report["config"] = _effective_config(args)
    if args.out:
        atomic_write(args.out, _dumps(cov.report_for_json(report), indent=2, sort_keys=True) + "\n")
    if args.words_csv:
        atomic_write(args.words_csv, cov.report_words_csv(report))
    sys.stdout.write(cov.report_text(report))
    return EXIT_OK


_SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BENCH_CHILD = """
import pickle, sys
from rareclass.cli import _bench_fits
try:
    result = _bench_fits(*pickle.load(sys.stdin.buffer))
except Exception as exc:
    result = exc
pickle.dump(result, sys.stdout.buffer)
"""


def _bench_fits(n: int, d: int, K: int, iters: int, mu: float, seed: int) -> list[dict]:
    timings = []
    for mult in (1, 2, 4):
        cfg = SyntheticConfig(d=d, K_total=K + 1, docs_per_subclass=max(n * mult // (2 * K), 4),
                              majority_docs=n * mult // 2, subclass_separation=4.0,
                              noise_scale=1.0, seed=seed)
        corpus = gen_synthetic(cfg)
        X = corpus.feature_matrix()
        rare_mask = np.array([doc.label == RARE for doc in corpus.docs])
        subs = np.array([doc.subclass or 0 for doc in corpus.docs])
        data = bind_data(X, rare_mask, subs)
        hp = Hyperparams.uniform(data.K, mu=mu)
        tcfg = TrainConfig(max_iters=iters, tol=1e-15, seed=seed)
        start = time.perf_counter()
        trainer.fit(data, hp, tcfg)
        timings.append({"n": data.n, "seconds": time.perf_counter() - start})
    return timings


def bench_timings(n: int, d: int, K: int, iters: int, mu: float, seed: int) -> list[dict]:
    """Wall time of fit at n, 2n, 4n with d, K, iteration count fixed.

    The three fits run in one child interpreter with a single BLAS/OpenMP
    thread, so the ratios between sizes measure how the fit scales rather than
    the point at which a multithreaded BLAS starts a second thread.
    """
    import subprocess                    # only bench starts a child; other commands skip the import

    env = dict(os.environ, **{name: "1" for name in _SINGLE_THREAD})
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _BENCH_CHILD],
                          input=pickle.dumps((n, d, K, iters, mu, seed)),
                          stdout=subprocess.PIPE, env=env)
    if proc.returncode != 0:                        # killed, say, for memory: exit 4, as a pool worker
        raise pool.WorkerDied(f"bench child exited with status {proc.returncode}")
    # the child pickles its timings, or the exception it raised, for this process
    result = pickle.loads(proc.stdout)
    if isinstance(result, Exception):
        raise result
    return result


def cmd_bench(args) -> int:
    timings = bench_timings(args.n, args.d, args.k, args.iters, args.mu, args.seed)
    ratios = [timings[i + 1]["seconds"] / timings[i]["seconds"] for i in range(len(timings) - 1)]
    payload = {"timings": timings, "ratios": ratios, "config": _effective_config(args)}
    text = _dumps(payload, indent=2) + "\n"
    if args.out:
        atomic_write(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = SyntheticConfig(d=args.d, K_total=args.k_total,
                          docs_per_subclass=args.docs_per_subclass,
                          majority_docs=args.majority_docs,
                          subclass_separation=args.separation,
                          noise_scale=args.noise, seed=args.seed)
    corpus = gen_synthetic(cfg)
    save_corpus(corpus, args.out)
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "coverage": cmd_coverage,
    "bench": cmd_bench,
    "synth": cmd_synth,
}


def _exit_code(exc: Exception) -> int | None:
    """The documented exit code of an error, or None for an unexpected one."""
    if isinstance(exc, UsageError):
        return EXIT_USAGE
    if isinstance(exc, DataError) or isinstance(exc, OSError) and exc.filename is not None:
        return EXIT_DATA                    # an OSError with a file name: a path that cannot be used
    if isinstance(exc, (NumericError, FloatingPointError, np.linalg.LinAlgError)):
        return EXIT_NUMERIC
    if isinstance(exc, pool.WorkerDied):
        return EXIT_WORKER
    return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        # the first parse finds the command and the config file; its --seed keeps it from
        # converting the default, so that only the final parse reads RARE_SEED, below the file
        args = parser.parse_args(argv + ["--seed=0"])
        # the entries go right after the command name, so that flags (after it too) win
        at = 0
        while argv[at].startswith("--config"):              # only --config may precede the command
            at += 1 if "=" in argv[at] else 2
        tokens = _config_tokens(args.config) if args.config else []
        args = parser.parse_args(argv[:at + 1] + tokens + argv[at + 1:])
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        # stdout's reader went away (`predict ... | head -1`): stdout now goes to devnull,
        # so that the interpreter's final flush of what is left cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except KeyboardInterrupt:               # Ctrl-C: the workers and any temporary file are gone by now
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except SystemExit as exc:               # argparse's own exit: 2 for a usage error, 0 for -h
        if exc.code != 2:
            raise
        return EXIT_USAGE
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
