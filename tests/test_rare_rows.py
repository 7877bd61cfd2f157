"""bind_data takes the rare rows as a view of X when they form one run, and copies
them otherwise. Training and calibration give the same bytes either way."""

import dataclasses

import numpy as np
import pytest

from rareclass import rejection, trainer
from rareclass.dataset import RARE, SyntheticConfig, gen_synthetic
from rareclass.objective import Hyperparams, bind_data
from rareclass.trainer import TrainConfig

N, N0, K = 60, 30, 2


def block_instance(start, d, seed=0):
    """X with one run of N0 rare rows at `start` (two subclasses, interleaved inside it)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, d))
    rare = np.zeros(N, dtype=bool)
    rare[start:start + N0] = True
    subs = np.zeros(N, dtype=int)
    subs[start:start + N0] = np.arange(N0) % K + 1
    X[rare & (subs == 1), 0] += 3.0
    X[rare & (subs == 2), 1] += 3.0
    return X, rare, subs


def copied(data, rare):
    """The same BoundData with R forced to today's X[rare_mask] copy."""
    forced = dataclasses.replace(data, R=data.X[rare])
    assert not np.shares_memory(forced.R, forced.X)
    return forced


POSITIONS = {"start": 0, "middle": 13, "end": N - N0}


class TestWhenAView:
    @pytest.mark.parametrize("where", POSITIONS)
    def test_one_run_is_a_view(self, where):
        X, rare, subs = block_instance(POSITIONS[where], d=5)
        data = bind_data(X, rare, subs)
        assert np.shares_memory(data.R, X)
        assert np.array_equal(data.R, X[rare])

    def test_interleaved_rows_are_copied(self):
        X, rare, subs = block_instance(0, d=5)
        order = np.random.default_rng(1).permutation(N)
        data = bind_data(X[order], rare[order], subs[order])
        assert not np.shares_memory(data.R, data.X)
        assert np.array_equal(data.R, data.X[rare[order]])

    def test_no_rare_rows_copy_an_empty_matrix(self):
        X = np.ones((4, 3))
        data = bind_data(X, np.zeros(4, dtype=bool), np.zeros(4, dtype=int))
        assert data.R.shape == (0, 3)
        assert not np.shares_memory(data.R, X)

    def test_a_mask_of_another_length_is_refused_as_before(self):
        X, rare, subs = block_instance(0, d=5)
        with pytest.raises(IndexError):
            bind_data(X[:-1], rare, subs)


class TestSameBytesAsACopy:
    @pytest.mark.parametrize("batch", [None, "n", 16], ids=["full", "batch=n", "batch=16"])
    @pytest.mark.parametrize("d", [4, 7])
    @pytest.mark.parametrize("where", POSITIONS)
    def test_fit_and_calibrate(self, where, d, batch):
        X, rare, subs = block_instance(POSITIONS[where], d, seed=d)
        view = bind_data(X, rare, subs)
        assert np.shares_memory(view.R, X)
        cfg = TrainConfig(max_iters=30, tol=1e-15, seed=3, track_iterates=True,
                          batch=N if batch == "n" else batch)
        hp = Hyperparams.uniform(K, mu=0.5)
        models = [trainer.fit(data, hp, cfg) for data in (view, copied(view, rare))]
        for a, b in zip(models[0].iterates, models[1].iterates, strict=True):
            assert a.flat().tobytes() == b.flat().tobytes()
        assert models[0].params.flat().tobytes() == models[1].params.flat().tobytes()
        assert models[0].loss_trace == models[1].loss_trace
        for method in (rejection.EVT_POT, rejection.PERCENTILE):
            t = [rejection.calibrate(m, data, method=method, q=0.05).t.tobytes()
                 for m, data in zip(models, (view, copied(view, rare)))]
            assert t[0] == t[1]

    @pytest.mark.parametrize("d", [4, 7])
    def test_batch_n_matches_full_batch_on_a_view(self, d):
        X, rare, subs = block_instance(POSITIONS["middle"], d)
        data = bind_data(X, rare, subs)
        hp = Hyperparams.uniform(K, mu=0.5)
        full, batched = (trainer.fit(data, hp, TrainConfig(max_iters=30, tol=1e-15, seed=9,
                                                           batch=m, track_iterates=True))
                         for m in (None, N))
        for a, b in zip(full.iterates, batched.iterates, strict=True):
            assert a.flat().tobytes() == b.flat().tobytes()


class TestReadOnlyCorpus:
    def test_view_of_the_corpus_matrix_stays_read_only_and_unwritten(self):
        corpus = gen_synthetic(SyntheticConfig(d=6, K_total=3, docs_per_subclass=12,
                                               majority_docs=40, subclass_separation=4.0, seed=2))
        X = corpus.feature_matrix()
        assert not X.flags.writeable
        before = X.tobytes()
        data = bind_data(X, np.array([doc.label == RARE for doc in corpus.docs]),
                         np.array([doc.subclass or 0 for doc in corpus.docs]))
        assert np.shares_memory(data.R, X) and not data.R.flags.writeable
        for batch in (None, 8):
            model = trainer.fit(data, Hyperparams.uniform(data.K, mu=0.5),
                                TrainConfig(max_iters=20, seed=4, batch=batch))
            rejection.calibrate(model, data, method=rejection.EVT_POT, q=0.05)
        assert X.tobytes() == before
