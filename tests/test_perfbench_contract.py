"""The parts of rareclass that perfbench's traced path reads still work: its kernel
timings and a traced `train` run as child processes, as `perfbench/run.py --trace 1`
starts them. A src change that breaks either fails here, not only in a traced benchmark."""

import json
import subprocess
import sys
from pathlib import Path

from rareclass.dataset import SyntheticConfig, gen_synthetic, save_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _run(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_kernels_print_their_timings(tmp_path):
    proc = _run([str(PERFBENCH / "kernels.py"), "0"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    timings = json.loads(proc.stdout)
    assert {"objective.gram_check_ms", "objective.grad_ms", "objective.loss_ms",
            "trainer.iter_ms", "trainer.iter_overhead_ms"} <= set(timings)


def test_traced_train_records_the_fit_and_the_gram_checks(tmp_path):
    corpus = tmp_path / "synth.jsonl"
    save_corpus(gen_synthetic(SyntheticConfig(
        d=6, K_total=3, docs_per_subclass=30, majority_docs=120,
        subclass_separation=3.0, noise_scale=1.0, seed=0)), corpus)
    spans = tmp_path / "spans.json"
    proc = _run([str(PERFBENCH / "tracing.py"), str(spans), "t", "--", "train", "--input",
                 str(corpus), "--rep", "raw", "--step", "0.003", "--mu", "1e-4",
                 "--out", str(tmp_path / "m.json")],
                tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    fits = [s for s in doc["spans"] if s["name"] == "trainer.fit"]
    assert len(fits) == 1 and fits[0]["iters_run"] >= 1 and "attr_error" not in fits[0]
    assert "objective.gram_check_calls" in doc["counters"]
