"""Traced child entry point and span aggregation.

Run as a script, it installs span wrappers around rareclass's public layer
functions, then calls ``rareclass.cli.main(argv)`` exactly as the console
script does, and writes the spans it kept in memory when the command ends:

    python perfbench/tracing.py SPANS.json CMD_ID -- train --input ...

Functions that run once per item (predict, accepts, tokenize,
Decision.to_json) are not wrapped; their cost is self time of the span that
encloses them. GramCache.check runs K+2 times per iteration, so it is counted
and timed, not recorded as spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


def _docs_arg(a, kw, result):
    return {"docs": len(a[0]) if a else len(kw.get("texts", ()))}


def _fit_attrs(a, kw, result):
    cfg = a[2] if len(a) > 2 else kw.get("cfg")
    return {"iters_run": result.iters_run, "converged": bool(result.converged),
            "full_batch": getattr(cfg, "batch", None) is None}


def _stream_attrs(a, kw, result):
    decisions, stats = result
    return {"items": len(decisions), "sc_evaluations": stats.sc_evaluations,
            "majority": stats.majority, "known": sum(stats.known.values()),
            "emerging": stats.emerging}


# (module, attribute, span name, attributes taken from the call); each is
# patched wherever a rareclass module holds it, so names imported with
# `from .x import f` are traced too.
TARGETS = (
    ("rareclass.dataset", "load_corpus", "dataset.load_corpus", lambda a, kw, r: {"docs": r.n}),
    ("rareclass.dataset", "split_protocol", "dataset.split_protocol", None),
    ("rareclass.featurize", "build_vocab", "featurize.build_vocab", _docs_arg),
    ("rareclass.featurize", "tfidf_transform", "featurize.tfidf_transform", _docs_arg),
    ("rareclass.featurize", "pca_fit", "featurize.pca_fit", None),
    ("rareclass.objective", "gram_squared", "objective.gram_build", None),
    ("rareclass.objective", "identity_gram", "objective.gram_build", None),
    ("rareclass.trainer", "fit", "trainer.fit", _fit_attrs),
    ("rareclass.rejection", "calibrate", "rejection.calibrate",
     lambda a, kw, r: {"evt_fallbacks": sum(bool(f) for f in r.fallback)}),
    ("rareclass.recognizer", "load", "recognizer.load", None),
    ("rareclass.recognizer", "save", "recognizer.save", None),
    ("rareclass.recognizer", "predict_stream", "recognizer.predict_stream", _stream_attrs),
    ("rareclass.coverage", "build_program", "coverage.build_program", None),
    ("rareclass.coverage", "solve_greedy", "coverage.solve_greedy", None),
    ("rareclass.coverage", "solve_exact", "coverage.solve_exact",
     lambda a, kw, r: {"optimal": bool(r.optimal)}),
    ("rareclass.coverage", "coverage_report", "coverage.report", None),
    ("rareclass.evaluation", "run_experiment", "evaluation.run_experiment",
     lambda a, kw, r: {"seeds_failed": len(r.errors)}),
    ("rareclass.evaluation", "run_single", "evaluation.run_single", None),
)


class Tracer:
    """Spans (name, start, end, parent, command id) kept in memory until exit."""

    def __init__(self, cmd_id: str):
        self.cmd_id = cmd_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.check_calls = 0
        self.check_s = 0.0

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*a, **kw):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self.stack[-1] if self.stack else None, "cmd": self.cmd_id}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*a, **kw)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if attrs is not None:
                try:
                    span.update(attrs(a, kw, result))
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    # a changed signature or return type loses the counts, not the command
                    span["attr_error"] = repr(exc)
            return result
        return traced

    def install(self) -> None:
        import importlib
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("rareclass")]
        for mod_name, attr, name, attrs in TARGETS:
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        from rareclass.recognizer import ModelDocument
        ModelDocument.featurize = self.wrap("recognizer.featurize", ModelDocument.featurize)
        from rareclass.objective import GramCache
        check = GramCache.check

        def counted_check(cache, X):
            start = time.perf_counter()
            try:
                return check(cache, X)
            finally:
                self.check_calls += 1
                self.check_s += time.perf_counter() - start
        GramCache.check = counted_check

    def dump(self, path: Path) -> None:
        doc = {"cmd": self.cmd_id, "spans": self.spans,
               "counters": {"objective.gram_check_calls": self.check_calls,
                            "objective.gram_check_s": self.check_s}}
        Path(path).write_text(json.dumps(doc, allow_nan=False), encoding="utf-8")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def main(argv: list[str]) -> int:
    spans_path, cmd_id, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json CMD_ID -- rareclass-args...")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import rareclass.cli
    tracer = Tracer(cmd_id)
    tracer.install()
    try:
        return rareclass.cli.main(args)
    finally:
        tracer.dump(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
