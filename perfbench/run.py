"""rareclass benchmark: runs the commands users run on inputs generated from a
seed, checks what they wrote, and prints every metric by name with its unit.

    python3 perfbench/run.py --workload train-raw --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

--trace 0 times untraced commands and reports the end-to-end metrics.
--trace 1 runs every command once untraced and once under perfbench/tracing.py
per round and reports the per-layer metrics, including tracing overhead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import (ROOT, SRC, CmdResult, environment, probe, rareclass_argv, run_child,
                     strict_load, summarize)
from tracing import self_times
from workloads import WORKLOADS, Op, Problem, Sizes, Workload

HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_probes": "probes", "peak_rss_mb": "MB", "f1": "ratio"}

# Per-command metric names, printed as `named` lines for every run.
NAMED = {"train": ("train_s", "s"), "train_batch": ("train_minibatch_s", "s"),
         "predict": ("predict_items_per_s", "items/s"), "evaluate": ("evaluate_s", "s"),
         "coverage_greedy": ("coverage_greedy_s", "s"), "coverage_exact": ("coverage_exact_s", "s")}

COMMANDS = tuple(NAMED)
PER_LAYER = {
    "dataset.load_corpus_s": "s", "dataset.split_protocol_s": "s", "dataset.docs": "count",
    "featurize.build_vocab_s": "s", "featurize.tfidf_transform_s": "s", "featurize.pca_fit_s": "s",
    "featurize.docs": "count", "featurize.docs_per_s": "docs/s",
    "objective.gram_build_s": "s", "objective.gram_check_calls": "count",
    "objective.gram_check_s": "s", "objective.gram_check_ms": "ms", "objective.grad_ms": "ms",
    "objective.loss_ms": "ms",
    "trainer.fit_s": "s", "trainer.iters_run": "count", "trainer.converged": "count",
    "trainer.s_per_iter": "s", "trainer.iter_overhead_ms": "ms",
    "rejection.calibrate_s": "s", "rejection.evt_fallbacks": "count",
    "recognizer.load_s": "s", "recognizer.save_s": "s", "recognizer.featurize_s": "s",
    "recognizer.predict_stream_s": "s", "recognizer.items_per_s": "items/s",
    "recognizer.sc_evaluations": "count", "recognizer.sc_eval_ratio": "ratio",
    "recognizer.verdicts.majority": "count", "recognizer.verdicts.known": "count",
    "recognizer.verdicts.emerging": "count",
    "coverage.build_program_s": "s", "coverage.solve_greedy_s": "s",
    "coverage.solve_exact_s": "s", "coverage.report_s": "s", "coverage.exact_optimal": "count",
    "evaluation.run_single_s": "s", "evaluation.seeds_failed": "count",
    **{f"cli.{c}.{m}": "s" for c in COMMANDS
       for m in ("wall_s", "cpu_s", "self_s", "trace_overhead_s")},
}

# span name -> per-layer time metric (self time: the span minus its child spans)
SPAN_METRICS = {
    "dataset.load_corpus": "dataset.load_corpus_s", "dataset.split_protocol": "dataset.split_protocol_s",
    "featurize.build_vocab": "featurize.build_vocab_s",
    "featurize.tfidf_transform": "featurize.tfidf_transform_s", "featurize.pca_fit": "featurize.pca_fit_s",
    "objective.gram_build": "objective.gram_build_s", "trainer.fit": "trainer.fit_s",
    "rejection.calibrate": "rejection.calibrate_s", "recognizer.load": "recognizer.load_s",
    "recognizer.save": "recognizer.save_s", "recognizer.featurize": "recognizer.featurize_s",
    "recognizer.predict_stream": "recognizer.predict_stream_s",
    "coverage.build_program": "coverage.build_program_s", "coverage.solve_greedy": "coverage.solve_greedy_s",
    "coverage.solve_exact": "coverage.solve_exact_s", "coverage.report": "coverage.report_s",
    "evaluation.run_single": "evaluation.run_single_s",
}
# (span name, span attribute) -> per-layer count metric, summed over spans
SPAN_COUNTS = {
    ("dataset.load_corpus", "docs"): "dataset.docs",
    ("featurize.tfidf_transform", "docs"): "featurize.docs",
    ("trainer.fit", "iters_run"): "trainer.iters_run", ("trainer.fit", "converged"): "trainer.converged",
    ("rejection.calibrate", "evt_fallbacks"): "rejection.evt_fallbacks",
    ("recognizer.predict_stream", "sc_evaluations"): "recognizer.sc_evaluations",
    ("recognizer.predict_stream", "majority"): "recognizer.verdicts.majority",
    ("recognizer.predict_stream", "known"): "recognizer.verdicts.known",
    ("recognizer.predict_stream", "emerging"): "recognizer.verdicts.emerging",
    ("coverage.solve_exact", "optimal"): "coverage.exact_optimal",
    ("evaluation.run_experiment", "seeds_failed"): "evaluation.seeds_failed",
}


@dataclass
class Tally:
    """Operations attempted and failed, and why."""
    attempted: int = 0
    problems: list[Problem] = field(default_factory=list)
    failed_ops: int = 0

    def record(self, problems: list[Problem]) -> None:
        self.attempted += 1
        if problems:
            self.failed_ops += 1
            self.problems.extend(problems)

    @property
    def correct(self) -> bool:
        return not any(p.kind == "wrong" for p in self.problems)


def execute(op: Op, wl: Workload, tally: Tally, traced: bool = False,
            tag: str = "") -> tuple[CmdResult, dict | None]:
    """Run one command as a child process and check what it wrote."""
    name = f"{op.name}{tag}"
    if traced:
        spans = wl.workdir / f"{name}.spans.json"
        argv = [sys.executable, str(HERE / "tracing.py"), str(spans), op.name, "--", *op.args]
    else:
        argv = rareclass_argv(op.args)
    before = probe()
    res = run_child(name, argv, wl.workdir)
    res.probe_s = (before + probe()) / 2
    res.name = op.name
    problems = op.check(res, wl.workdir)
    trace = None
    if traced:
        try:
            trace = strict_load(spans)
        except (OSError, ValueError) as exc:
            problems.append(Problem(op.name, "wrong", f"no spans written: {exc}"))
        if trace and op.name == "predict":
            problems.extend(_economy(trace))
    tally.record(problems)
    return res, trace


def _economy(trace: dict) -> list[Problem]:
    """Criterion-10 economy: specialized classifiers run only for non-Majority verdicts."""
    out = []
    for s in trace["spans"]:
        if (s["name"] == "recognizer.predict_stream" and "sc_evaluations" in s
                and s["sc_evaluations"] != s["known"] + s["emerging"]):
            out.append(Problem("predict", "wrong",
                               f"{s['sc_evaluations']} SC evaluations for "
                               f"{s['known'] + s['emerging']} non-Majority verdicts"))
    return out


def run_setup(wl: Workload) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - start)
    return times


def end_to_end(wl: Workload, seconds: float, tally: Tally) -> tuple[dict, dict, dict]:
    setups = run_setup(wl)
    rounds: list[list[CmdResult]] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append([execute(op, wl, tally)[0] for op in wl.round_ops()])
    for op in wl.final_ops():
        execute(op, wl, tally)
    try:
        quality = wl.quality()
    except (OSError, KeyError, TypeError, ValueError) as exc:
        tally.problems.append(Problem("quality", "wrong", f"no model or report to score: {exc}"))
        quality = {"f1": 0.0}
    metrics = {
        "setup_s": statistics.median(setups),
        # raw wall time in units of the run's typical probe time: see harness.probe
        "wall_probes": (statistics.median(sum(r.wall_s for r in rnd) for rnd in rounds)
                        / statistics.median(r.probe_s for rnd in rounds for r in rnd)),
        "peak_rss_mb": statistics.median(max(r.peak_rss_mb for r in rnd) for rnd in rounds),
        "f1": quality["f1"],
    }
    named: dict[str, dict] = {"setup_s": {"unit": "s", **summarize(setups)}}
    items = {op.name: op.items for op in wl.round_ops()}
    for name in sorted({r.name for rnd in rounds for r in rnd}):
        runs = [r for rnd in rounds for r in rnd if r.name == name]
        label, unit = NAMED[name]
        values = ([items[name] / r.wall_s for r in runs] if unit == "items/s"
                  else [r.wall_s for r in runs])
        named[label] = {"unit": unit, **summarize(values)}
        named[f"{label}.cpu_s"] = {"unit": "s", **summarize([r.cpu_s for r in runs])}
        named[f"{label}.peak_rss_mb"] = {"unit": "MB", **summarize([r.peak_rss_mb for r in runs])}
    named["peak_rss_mb"] = {"unit": "MB", "median": metrics["peak_rss_mb"], "n": len(rounds)}
    named["wall_s"] = {"unit": "s", **summarize([sum(r.wall_s for r in rnd) for rnd in rounds])}
    named["probe_s"] = {"unit": "s", **summarize([r.probe_s for rnd in rounds for r in rnd])}
    for key, value in quality.items():
        if key != "f1":
            named[key] = {"unit": "ratio", "median": value, "n": 1}
    detail = {"setup_s": setups,
              "rounds": [[{"name": r.name, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "probe_s": r.probe_s,
                           "peak_rss_mb": r.peak_rss_mb} for r in rnd] for rnd in rounds]}
    return metrics, named, detail


def _kernels(wl: Workload, tally: Tally) -> dict:
    """Unit timings; a failure here is the harness's, so it is reported but is
    not a failed operation of the program."""
    res = run_child("kernels", [sys.executable, str(HERE / "kernels.py"), str(wl.seed)], wl.workdir)
    try:
        if res.returncode != 0:
            raise ValueError(f"exit {res.returncode}: {res.stderr.strip()[-300:]}")
        return json.loads(res.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        tally.problems.append(Problem("kernels", "unmeasured", f"unit timings failed: {exc}"))
        return {}


def layer_metrics(traced: list[tuple[str, CmdResult, CmdResult, dict]],
                  kernels: dict) -> dict[str, float]:
    """Per-layer values for one round of traced commands."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    fit_full_s = fit_full_iters = 0.0
    for cmd, plain, trace_res, trace in traced:
        spans = trace["spans"] if trace else []
        root = 0.0
        for span, own in zip(spans, self_times(spans)):
            dur = span["end"] - span["start"]
            if span["parent"] is None:
                root += dur
            if span["name"] in SPAN_METRICS:
                m[SPAN_METRICS[span["name"]]] += own
            for (name, attr), metric in SPAN_COUNTS.items():
                if span["name"] == name:
                    m[metric] += span.get(attr, 0)
            if span["name"] == "trainer.fit" and span.get("full_batch"):
                fit_full_s += dur
                fit_full_iters += span.get("iters_run", 0)
            if span["name"] == "recognizer.predict_stream":
                m["recognizer.items_per_s"] += span.get("items", 0)     # divided below
        for key, value in (trace or {}).get("counters", {}).items():
            m[key] += value
        m[f"cli.{cmd}.wall_s"] = plain.wall_s
        m[f"cli.{cmd}.cpu_s"] = plain.cpu_s
        m[f"cli.{cmd}.self_s"] = trace_res.wall_s - root
        m[f"cli.{cmd}.trace_overhead_s"] = trace_res.wall_s - plain.wall_s
    items = m["recognizer.items_per_s"]
    m["recognizer.items_per_s"] = items / m["recognizer.predict_stream_s"] if items else 0.0
    m["recognizer.sc_eval_ratio"] = m["recognizer.sc_evaluations"] / items if items else 0.0
    tf_s = m["featurize.tfidf_transform_s"]
    m["featurize.docs_per_s"] = m["featurize.docs"] / tf_s if tf_s else 0.0
    for key in ("objective.gram_check_ms", "objective.grad_ms", "objective.loss_ms",
                "trainer.iter_overhead_ms"):
        m[key] = kernels.get(key, 0.0)
    if fit_full_iters:
        m["trainer.s_per_iter"] = fit_full_s / fit_full_iters
    return m


def per_layer(wl: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    wl.setup()
    kernels = _kernels(wl, tally)
    rounds, spans = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        traced = []
        for op in wl.round_ops():
            plain, _ = execute(op, wl, tally)
            res, trace = execute(op, wl, tally, traced=True, tag=".traced")
            traced.append((op.name, plain, res, trace))
            if trace:
                spans.append(trace)
        rounds.append(layer_metrics(traced, kernels))
    for op in wl.final_ops():
        execute(op, wl, tally)
    metrics = {k: statistics.median(r[k] for r in rounds) for k in PER_LAYER}
    return metrics, {"kernels": kernels, "rounds": rounds, "traces": spans}


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> dict:
    workdir = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](name=name, seed=seed, workdir=workdir, sizes=sizes)
    tally = Tally()
    try:
        if trace:
            values, detail = per_layer(wl, seconds, tally)
            units, named = PER_LAYER, {}
        else:
            values, named, detail = end_to_end(wl, seconds, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    named["failed_frac"] = {"unit": "ratio", "median": tally.failed_ops / tally.attempted,
                            "n": tally.attempted}
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed_ops,
            "problems": [vars(p) for p in tally.problems],
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            "named": named, "detail": detail}


def print_report(result: dict) -> None:
    wl = result["workload"]
    for key, m in result["metrics"].items():
        print(f"metric workload={wl} name={key} value={m['value']:.6g} unit={m['unit']}")
    for key, m in result["named"].items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in m.items() if k.startswith("p"))
        print(f"named workload={wl} name={key} median={m['median']:.6g} unit={m['unit']} "
              f"n={m['n']} {extra}".rstrip())
    for p in result["problems"]:
        print(f"problem workload={wl} op={p['op']} kind={p['kind']} {p['message']}")
    print(f"ops workload={wl} attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running command is stopped with the benchmark
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "rareclass" / "cli.py").is_file():
        print(f"error: no rareclass sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except RuntimeError as exc:                      # set-up failed: nothing was measured
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    for res in results:
        res["env"] = env
        print_report(res)
        path = OUT_DIR / "results" / f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1, allow_nan=False) + "\n", encoding="utf-8")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
