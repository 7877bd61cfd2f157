import numpy as np
import pytest

from conftest import (
    decorrelation_instance, joint_grad_flat, make_instance, mean_abs_cosine, numeric_grad,
    params_off_kink,
)
from rareclass.dataset import RARE, SyntheticConfig, gen_synthetic
from rareclass.objective import (
    BoundData, GramCache, Hyperparams, ModelParams, StaleCacheError, _grad, bind_data,
    gram_squared, hinge, penalty_only, total_loss,
)
from rareclass.trainer import DivergenceError, TrainConfig, _batch_view, fit


def synthetic_bound_data(seed=0, d=2, K=2, per=20, majority=40, sep=8.0, noise=0.5):
    corpus = gen_synthetic(SyntheticConfig(
        d=d, K_total=K, docs_per_subclass=per, majority_docs=majority,
        subclass_separation=sep, noise_scale=noise, seed=seed))
    X = corpus.feature_matrix()
    rare = np.array([doc.label == RARE for doc in corpus.docs])
    subs = np.array([doc.subclass or 0 for doc in corpus.docs])
    return bind_data(X, rare, subs)


class TestFit:
    def test_separable_reaches_perfect_top_level_accuracy(self):
        data = synthetic_bound_data(seed=1, d=2, sep=10.0, noise=0.3)
        hp = Hyperparams.uniform(2, lambda0=0.01, lambdak=0.01, mu=0.0)
        model = fit(data, hp, TrainConfig(max_iters=500, step_size=0.01, seed=1))
        pred = np.sign(data.X @ model.params.w0 + model.params.b0)
        assert np.all(pred == data.y_all)

    def test_mu_zero_joint_equals_independent_fits(self):
        data = synthetic_bound_data(seed=2, d=3, K=2)
        cfg = TrainConfig(max_iters=80, step_size=0.01, tol=1e-15,
                          momentum=0.9, seed=7, track_iterates=True)
        hp = Hyperparams.uniform(2, lambda0=1.0, lambdak=1.0, mu=0.0)
        joint = fit(data, hp, cfg)

        # GC alone: same data, K=0 emulated by an empty-subclass view
        gc_data = bind_data(data.X, data.y_all > 0,
                            np.where(data.y_all > 0, 0, 0))
        gc_fit = fit(gc_data, Hyperparams.uniform(0, lambda0=1.0, mu=0.0), cfg)
        for it_j, it_g in zip(joint.iterates, gc_fit.iterates):
            assert np.max(np.abs(it_j.w0 - it_g.w0)) < 1e-12
            assert abs(it_j.b0 - it_g.b0) < 1e-12

        # each SC alone: hinge problem over the rare rows only
        for k in range(2):
            sc_data = bind_data(data.R, data.Yk[k] > 0,
                                np.where(data.Yk[k] > 0, 0, 0))
            sc_fit = fit(sc_data, Hyperparams.uniform(0, lambda0=1.0, mu=0.0), cfg)
            for it_j, it_s in zip(joint.iterates, sc_fit.iterates):
                assert np.max(np.abs(it_j.W[k] - it_s.w0)) < 1e-12
                assert abs(it_j.b[k] - it_s.b0) < 1e-12

    def test_huge_ridge_shrinks_w0(self):
        data = synthetic_bound_data(seed=3)
        hp = Hyperparams.uniform(2, lambda0=1e6, lambdak=1.0, mu=0.0)
        model = fit(data, hp, TrainConfig(max_iters=300, seed=3))
        assert np.linalg.norm(model.params.w0) < 1e-3

    def test_best_iterate_monotone_in_budget(self):
        data = synthetic_bound_data(seed=4)
        hp = Hyperparams.uniform(2, mu=1.0)
        cfg100 = TrainConfig(max_iters=100, tol=1e-15, seed=5)
        cfg200 = TrainConfig(max_iters=200, tol=1e-15, seed=5)
        l100 = min(fit(data, hp, cfg100).loss_trace)
        l200 = min(fit(data, hp, cfg200).loss_trace)
        assert l200 <= l100 + 1e-12

    def test_loss_trace_and_bounds(self):
        data = synthetic_bound_data(seed=5)
        model = fit(data, Hyperparams.uniform(2), TrainConfig(max_iters=50, tol=1e-15))
        assert len(model.loss_trace) == model.iters_run
        assert model.iters_run <= 50
        assert np.all(np.isfinite(model.loss_trace))
        assert min(model.loss_trace) == total_loss(model.params, data, model.hp, model.gram)

    def test_divergence_guard(self):
        data = synthetic_bound_data(seed=6)
        hp = Hyperparams.uniform(2, mu=0.0)
        with pytest.raises(DivergenceError):
            fit(data, hp, TrainConfig(max_iters=2000, step_size=1e4, step_decay="fixed"))

    @pytest.mark.parametrize("at", [0, 3])
    def test_nan_loss_is_divergence(self, monkeypatch, at):
        # NaN fails every comparison, so a NaN loss must be caught as such,
        # whether it is the first loss or a later one
        import rareclass.trainer as trainer_module
        real_loss, calls = trainer_module._loss, []

        def loss(*args):
            calls.append(None)
            return float("nan") if len(calls) > at else real_loss(*args)
        monkeypatch.setattr(trainer_module, "_loss", loss)
        data = synthetic_bound_data(seed=6)
        with pytest.raises(DivergenceError, match=f"non-finite loss nan at iter {at}"):
            fit(data, Hyperparams.uniform(2), TrainConfig(max_iters=20, tol=1e-15))

    def test_progress_lines(self, capsys):
        data = synthetic_bound_data(seed=7)
        fit(data, Hyperparams.uniform(2), TrainConfig(max_iters=20, log_every=10, tol=1e-15))
        err = capsys.readouterr().err
        assert "iter=10 loss=" in err and "grad_norm=" in err

    def test_decorrelation_reduces_cosine(self):
        # with a feature shared between the rare boundary and a subclass,
        # mu > 0 should push w0 away from the w_k's
        cos_mu0, cos_mu5 = [], []
        for seed in range(5):
            data = decorrelation_instance(seed)
            cfg = TrainConfig(max_iters=5000, seed=seed, tol=1e-12)
            for mu, out in ((0.0, cos_mu0), (5.0, cos_mu5)):
                model = fit(data, Hyperparams.uniform(2, mu=mu), cfg)
                out.append(mean_abs_cosine(model.params))
        assert np.mean(cos_mu5) < 0.95 * np.mean(cos_mu0)


class TestMinibatch:
    def test_full_batch_degenerate(self):
        data = synthetic_bound_data(seed=8)
        hp = Hyperparams.uniform(2, mu=0.5)
        cfg_full = TrainConfig(max_iters=40, seed=9, tol=1e-15, track_iterates=True)
        cfg_batch = TrainConfig(max_iters=40, seed=9, tol=1e-15, batch=data.n,
                                track_iterates=True)
        full = fit(data, hp, cfg_full)
        batched = fit(data, hp, cfg_batch)
        for a, b in zip(full.iterates, batched.iterates):
            assert np.array_equal(a.flat(), b.flat())

    def test_batch_determinism(self):
        data = synthetic_bound_data(seed=9)
        hp = Hyperparams.uniform(2, mu=0.5)
        cfg = TrainConfig(max_iters=30, seed=11, tol=1e-15, batch=16)
        a = fit(data, hp, cfg)
        b = fit(data, hp, cfg)
        assert np.array_equal(a.params.flat(), b.params.flat())
        assert a.loss_trace == b.loss_trace

    def test_batch32_close_to_full_batch(self):
        data = synthetic_bound_data(seed=10, d=2, sep=10.0, noise=0.3)
        hp = Hyperparams.uniform(2, lambda0=0.1, lambdak=0.1, mu=0.0)
        full = fit(data, hp, TrainConfig(max_iters=400, seed=12, tol=1e-15,
                                         step_size=0.01))
        mini = fit(data, hp, TrainConfig(max_iters=400, seed=12,
                                         tol=1e-15, step_size=0.01, batch=32))
        l_full = total_loss(full.params, data, hp, full.gram)
        l_mini = total_loss(mini.params, data, hp, full.gram)
        assert l_mini <= 1.25 * l_full

    def test_bad_batch_size(self):
        data = synthetic_bound_data(seed=11)
        with pytest.raises(ValueError):
            fit(data, Hyperparams.uniform(2), TrainConfig(batch=0))


def hinge_only_grad(p, data):
    """Reference hinge subgradient alone: every ridge and penalty weight zero."""
    zero = Hyperparams(lambda0=0.0, lambdaK=np.zeros(data.K), mu=0.0)
    return joint_grad_flat(p, data, zero, gram_squared(data.X)).reshape(data.K + 1, -1)


def batch_of(view):
    Xb, yb, Rb, Ykb, _, _ = view
    return BoundData(X=Xb, y_all=yb, R=Rb, Yk=Ykb)


class TestMinibatchGradient:
    """The minibatch estimate is the fused kernel on the batch rows with scale factors."""

    def _check_against_reference(self, data, hp, view):
        gram = gram_squared(data.X)
        rng = np.random.default_rng(1)
        p = ModelParams(w0=rng.standard_normal(data.d), b0=0.3,
                        W=rng.standard_normal((data.K, data.d)), b=rng.standard_normal(data.K))
        *rows, gc_scale, sc_scale = view
        scales = np.array([gc_scale] + [sc_scale] * data.K)[:, None]
        exact = (joint_grad_flat(p, data, hp, gram).reshape(data.K + 1, -1)
                 - hinge_only_grad(p, data))
        expected = scales * hinge_only_grad(p, batch_of(view)) + exact
        got = _grad(p.theta, hp, gram.g2, *rows, gc_scale, sc_scale)
        err = float(np.max(np.abs(got - expected))) / float(np.max(np.abs(expected)))
        assert err <= 1e-12

    def test_matches_scaled_reference(self):
        rng = np.random.default_rng(40)
        data = make_instance(rng, n=30, d=5, K=3)
        rare_pos = np.cumsum(data.y_all > 0) - 1
        view = _batch_view(data, np.random.default_rng(2), 12, rare_pos)
        assert view[4] == 30 / 12 and view[5] == data.n0 / len(view[2])
        self._check_against_reference(data, Hyperparams.uniform(3, mu=0.8), view)

    def test_batch_without_rare_rows(self):
        rng = np.random.default_rng(41)
        data = make_instance(rng, n=40, d=4, K=2, rare_frac=0.05)
        rare_pos = np.cumsum(data.y_all > 0) - 1
        batch_rng = np.random.default_rng(3)
        for _ in range(200):
            view = _batch_view(data, batch_rng, 3, rare_pos)
            if len(view[2]) == 0:
                break
        assert len(view[2]) == 0 and view[5] == 0.0
        self._check_against_reference(data, Hyperparams.uniform(2, mu=1.2), view)

    def test_finite_differences_of_batch_loss(self):
        rng = np.random.default_rng(43)
        data = make_instance(rng, n=30, d=5, K=2)
        gram = gram_squared(data.X)
        hp = Hyperparams.uniform(2, lambda0=0.7, lambdak=1.3, mu=0.5)
        view = _batch_view(data, np.random.default_rng(4), 12,
                           np.cumsum(data.y_all > 0) - 1)
        Xb, yb, Rb, Ykb, gc_scale, sc_scale = view
        assert len(Rb) and sc_scale > 0
        p = params_off_kink(rng, batch_of(view))

        def batch_loss(t):
            q = ModelParams.from_flat(t, data.d, data.K)
            loss = gc_scale * hinge(Xb @ q.w0 + q.b0, yb) + 0.5 * hp.lambda0 * q.w0 @ q.w0
            for k in range(data.K):
                loss += sc_scale * hinge(Rb @ q.W[k] + q.b[k], Ykb[k])
                loss += 0.5 * hp.lambdaK[k] * q.W[k] @ q.W[k]
            return loss + penalty_only(q, hp.mu, gram)

        ana = _grad(p.theta, hp, gram.g2, *view)
        assert np.all(ana[:, -1] != 0)       # every scale factor reaches a bias
        ana = ana.ravel()
        num = numeric_grad(batch_loss, p.flat())
        scale = np.maximum(np.abs(num), 1e-3 * np.abs(num).max())
        assert np.max(np.abs(ana - num) / scale) < 1e-5


class TestCacheCheck:
    @pytest.mark.parametrize("batch", [None, 8])
    def test_one_check_per_fit(self, monkeypatch, batch):
        data = synthetic_bound_data(seed=12)
        gram = gram_squared(data.X)
        calls = []
        check = GramCache.check
        monkeypatch.setattr(GramCache, "check",
                            lambda cache, X: calls.append(1) or check(cache, X))
        fit(data, Hyperparams.uniform(2), TrainConfig(max_iters=25, tol=1e-15, batch=batch),
            gram=gram)
        assert len(calls) == 1

    def test_stale_cache_rejected_before_training(self):
        data = synthetic_bound_data(seed=13)
        with pytest.raises(StaleCacheError):
            fit(data, Hyperparams.uniform(2), TrainConfig(max_iters=5),
                gram=gram_squared(data.X + 1.0))


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(max_iters=0)
        with pytest.raises(ValueError):
            TrainConfig(tol=0.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(step_decay="linear")
