"""Fast self-test of the benchmark harness at tiny input sizes:

    python3 perfbench/selftest.py

It checks that every metric BENCHMARK.json names is emitted with its unit by
every workload in both modes, that the reference routing flags a flipped
verdict, that the strict-JSON check flags Infinity, and that the economy
check flags SC evaluations for Majority items. Exit code 0 means all passed.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

import run
from harness import ROOT, Model, StrictJSONError, check_decisions, reference_route, strict_loads
from workloads import WORKLOADS, Sizes, _load_json

NAMED_BY_WORKLOAD = {
    "train-raw": {"train_s", "train_minibatch_s", "train_holdout_f1"},
    "stream-burst": {"predict_items_per_s"},
    "text-evaluate": {"evaluate_s", "evaluate_f1", "evaluate_acc_rare", "coverage_greedy_s",
                      "coverage_exact_s"},
}


def check_spec(bench: dict) -> None:
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    expected = json.loads((Path(__file__).parent / "expectations.json").read_text())
    listed = [m for layer in expected["layers"].values() for m in layer["metrics"]]
    cli = [f"cli.{c}.{m.split('.')[-1]}" for c in expected["layers"]["cli"]["commands"]
           for m in expected["layers"]["cli"]["metrics"]]
    covered = [m for m in listed if not m.startswith("cli.")] + cli
    assert sorted(covered) == sorted(run.PER_LAYER), "expectations.json must cover every per-layer metric"


def check_emitted(bench: dict) -> None:
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = run.run_workload(name, seed=0, seconds=0, trace=trace, sizes=Sizes.tiny())
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, f"{name} trace={trace}: {set(got) ^ set(want)}"
            assert all(isinstance(v["value"], float) and math.isfinite(v["value"])
                       for v in res["metrics"].values())
            assert not [p for p in res["problems"] if p["kind"] == "wrong"], res["problems"]
            assert res["attempted"] >= 1
            if not trace:
                assert all(res["metrics"][k]["value"] > 0 for k in want), res["metrics"]
                missing = NAMED_BY_WORKLOAD[name] | {"setup_s", "peak_rss_mb", "failed_frac"}
                assert missing <= set(res["named"]), missing - set(res["named"])
            print(f"selftest: {name} trace={int(trace)} emits {len(got)} metrics")


def check_reference_flags_flip() -> None:
    rng = np.random.default_rng(7)
    model = Model(w0=rng.standard_normal(4), b0=0.1, W=rng.standard_normal((3, 4)),
                  b=np.zeros(3), t=np.array([-0.5, 0.0, 0.5]))
    X = rng.standard_normal((300, 4))
    ref = reference_route(model, X)
    decisions = [{"index": i, "verdict": str(v), "gc_score": float(g),
                  **({"subclass": int(k)} if v == "Known" else {})}
                 for i, (v, g, k) in enumerate(zip(ref.verdicts, ref.gc, ref.subclass))]
    assert check_decisions(decisions, ref).mismatches == 0
    assert {"Majority", "Known", "Emerging"} <= set(ref.verdicts.tolist())
    i = next(i for i, v in enumerate(ref.verdicts) if v == "Majority" and not ref.ambiguous[i])
    decisions[i]["verdict"] = "Emerging"
    assert check_decisions(decisions, ref).mismatches == 1
    print("selftest: reference routing flags a flipped verdict")


def check_strict_json() -> None:
    try:
        strict_loads('{"ratio": Infinity}')
    except StrictJSONError:
        pass
    else:
        raise AssertionError("Infinity parsed as JSON")
    tmp = run.OUT_DIR / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        path = tmp / "cover.json"
        path.write_text('{"words": [{"ratio": Infinity}], "x": NaN}')
        problems = []
        report = _load_json("coverage_greedy", path, problems)
        assert report["words"][0]["ratio"] == float("inf")
        assert [p.kind for p in problems] == ["format"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest: strict JSON flags Infinity")


def check_economy() -> None:
    span = {"name": "recognizer.predict_stream", "sc_evaluations": 5, "known": 3, "emerging": 1}
    assert len(run._economy({"spans": [span]})) == 1
    assert run._economy({"spans": [dict(span, sc_evaluations=4)]}) == []
    print("selftest: economy check flags extra SC evaluations")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(bench)
    check_reference_flags_flip()
    check_strict_json()
    check_economy()
    check_emitted(bench)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
