"""What a command loads. `predict` and `coverage` never hash a feature matrix,
so they never load the hashing library (`_hashlib`, which maps OpenSSL's
libcrypto); `train` does, where it fingerprints X for the Gram cache. A
full-batch `train` never samples, so it never loads `numpy.random`. Neither
`train` nor `evaluate` loads `numpy.ma`, which `np.quantile` would. `pca_fit`'s
LAPACK solver comes from the OpenBLAS numpy already maps, so it maps no new
library. Each command runs in a fresh interpreter, so that the test runner's
own imports cannot hide a load."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import text_feature_corpus, write_integer_model
from rareclass import cli
from rareclass.cli import EXIT_OK
from rareclass.dataset import save_corpus

SRC = str(Path(cli.__file__).resolve().parent.parent)
TRAIN_FLAGS = ["--iters", "5", "--step", "0.003", "--mu", "1e-4"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    corpus = root / "corpus.jsonl"
    save_corpus(text_feature_corpus(), corpus)
    stream = root / "stream.jsonl"
    stream.write_text("".join(f'{{"features": [{i % 3}, {i % 2}, {i % 4}]}}\n' for i in range(6)))
    return root, str(corpus), write_integer_model(root / "int_model.json"), str(stream)


def _run(argv, setup="", module="_hashlib"):
    """(exit code, whether `module` was loaded) of cli.main(argv) in a fresh interpreter."""
    code = ("import os, sys\nfrom rareclass import cli\n" + setup +
            f"rc = cli.main({argv!r})\n"
            f"print('\\nexit', rc, {module!r} in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    _, rc, loaded = proc.stdout.splitlines()[-1].split()
    return int(rc), loaded == "True"


class TestHashingLibrary:
    @pytest.mark.parametrize("setup", [
        "",
        # two chunks on two CPUs: the fork pool runs too
        "cli.PREDICT_CHUNK = 3\nos.sched_getaffinity = lambda pid: {0, 1}\n",
    ], ids=["in-process", "pool"])
    def test_predict_does_not_load_it(self, inputs, setup):
        root, _, model, stream = inputs
        argv = ["predict", "--model", model, "--input", stream, "--out", str(root / "d.jsonl")]
        assert _run(argv, setup) == (EXIT_OK, False)

    def test_coverage_does_not_load_it(self, inputs):
        _, corpus, _, _ = inputs
        assert _run(["coverage", "--input", corpus]) == (EXIT_OK, False)

    def test_train_loads_it_to_hash_x(self, inputs):
        root, corpus, _, _ = inputs
        argv = ["train", "--input", corpus, "--rep", "raw", *TRAIN_FLAGS,
                "--out", str(root / "model.json")]
        assert _run(argv) == (EXIT_OK, True)


class TestNumpyRandom:
    def test_full_batch_train_does_not_load_it(self, inputs):
        root, corpus, _, _ = inputs
        argv = ["train", "--input", corpus, "--rep", "raw", *TRAIN_FLAGS,
                "--out", str(root / "full.json")]
        assert _run(argv, module="numpy.random") == (EXIT_OK, False)

    def test_minibatch_train_loads_it_to_sample(self, inputs):
        root, corpus, _, _ = inputs
        argv = ["train", "--input", corpus, "--rep", "raw", *TRAIN_FLAGS, "--batch", "16",
                "--out", str(root / "batch.json")]
        assert _run(argv, module="numpy.random") == (EXIT_OK, True)


class TestNumpyMa:
    @pytest.mark.parametrize("batch", [[], ["--batch", "16"]], ids=["full-batch", "minibatch"])
    def test_train_does_not_load_it(self, inputs, batch):
        root, corpus, _, _ = inputs
        argv = ["train", "--input", corpus, "--rep", "raw", *TRAIN_FLAGS, *batch,
                "--out", str(root / "ma.json")]
        assert _run(argv, module="numpy.ma") == (EXIT_OK, False)

    def test_evaluate_does_not_load_it(self, inputs):
        root, corpus, _, _ = inputs
        out = root / "report.json"
        argv = ["evaluate", "--input", corpus, "--rep", "pca:4", "--reps", "2", "--iters", "40",
                "--step", "0.003", "--mu", "1e-4", "--q", "0.05", "--out", str(out)]
        assert _run(argv, module="numpy.ma") == (EXIT_OK, False)
        assert not json.loads(out.read_text())["incomplete"]        # every repetition calibrated


_MAPPED_LIBRARIES = """
import sys
import numpy as np

def mapped():
    with open("/proc/self/maps") as fh:
        return {line.split()[-1] for line in fh if ".so" in line}

X = np.random.default_rng(0).standard_normal((300, 40))
before_import = mapped()
from rareclass import featurize
before_fit = mapped()
featurize.pca_fit(X, rank=5)
modules = {getattr(m, "__file__", None) for m in list(sys.modules.values())}
print(sorted(before_fit - before_import - modules), sorted(mapped() - before_fit))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")
def test_pca_fit_maps_no_new_library():
    # importing rareclass maps only Python extension modules (its LAPACK lookup goes
    # through numpy's linalg extension), and a fit maps nothing at all
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _MAPPED_LIBRARIES], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.split() == ["[]", "[]"]
