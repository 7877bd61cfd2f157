import numpy as np
import pytest

from conftest import joint_grad_flat, make_instance, numeric_grad, params_off_kink
from rareclass.objective import (
    BoundData, GramCache, Hyperparams, ModelParams, ObjectiveError, _grad, bind_data,
    grad_bias, grad_w0, grad_wk, gram_squared, hinge, identity_gram, penalty_hessian,
    penalty_only, total_loss,
)


class TestHinge:
    def test_zero_score(self):
        assert hinge(np.array([0.0]), np.array([1.0])) == 1.0

    def test_satisfied_margins(self):
        assert hinge(np.array([2.0, -2.0]), np.array([1.0, -1.0])) == 0.0

    def test_direct_formula(self):
        assert hinge(np.array([0.5]), np.array([-1.0])) == pytest.approx(1.5)

    def test_length_mismatch(self):
        with pytest.raises(ObjectiveError):
            hinge(np.array([1.0, 2.0]), np.array([1.0]))


class TestGramSquared:
    def test_identity_columns(self):
        gram = gram_squared(np.eye(2))
        assert np.allclose(gram.g2, np.eye(2))

    def test_duplicated_column_cauchy_schwarz_equality(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(5)
        X = np.column_stack([x, x])
        g2 = gram_squared(X).g2
        assert g2[0, 1] == pytest.approx(g2[0, 0] * g2[1, 1] / g2[0, 1])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((7, 5))
        g2 = gram_squared(X).g2
        for p in range(5):
            for q in range(5):
                assert g2[p, q] == pytest.approx((X[:, p] @ X[:, q]) ** 2)

    def test_nonnegative_symmetric(self):
        rng = np.random.default_rng(3)
        g2 = gram_squared(rng.standard_normal((6, 4))).g2
        assert np.all(g2 >= 0)
        assert np.allclose(g2, g2.T)

    def test_stale_cache_detected(self):
        rng = np.random.default_rng(4)
        data = make_instance(rng)
        gram = gram_squared(data.X + 1.0)
        p = ModelParams.zeros(data.d, data.K)
        with pytest.raises(ObjectiveError, match="gram cache does not match"):
            total_loss(p, data, Hyperparams.uniform(data.K), gram)


class TestTotalLoss:
    def test_zero_params_analytic(self):
        rng = np.random.default_rng(5)
        data = make_instance(rng, n=14, d=3, K=2)
        gram = gram_squared(data.X)
        loss = total_loss(ModelParams.zeros(data.d, data.K), data,
                          Hyperparams.uniform(data.K, mu=2.0), gram)
        assert loss == pytest.approx(data.n + data.K * data.n0)

    def test_mu_zero_decouples_into_per_model_losses(self):
        rng = np.random.default_rng(6)
        data = make_instance(rng, n=16, d=4, K=3)
        gram = gram_squared(data.X)
        hp = Hyperparams.uniform(data.K, lambda0=0.7, lambdak=1.3, mu=0.0)
        p = params_off_kink(rng, data)
        loss = total_loss(p, data, hp, gram)
        parts = hinge(data.X @ p.w0 + p.b0, data.y_all) + 0.5 * 0.7 * p.w0 @ p.w0
        for k in range(data.K):
            parts += hinge(data.R @ p.W[k] + p.b[k], data.Yk[k]) + 0.5 * 1.3 * p.W[k] @ p.W[k]
        assert loss == pytest.approx(parts)

    def test_boxed_form_matches_four_index_summation(self):
        rng = np.random.default_rng(7)
        data = make_instance(rng, n=12, d=4, K=2)
        gram = gram_squared(data.X)
        hp = Hyperparams.uniform(data.K, mu=0.9)
        p = params_off_kink(rng, data)
        G = data.X.T @ data.X
        pen = 0.0
        for pp in range(data.d):
            for q in range(data.d):
                g2 = G[pp, q] ** 2
                pen += 0.5 * p.w0[pp] ** 2 * p.w0[q] ** 2 * g2
                for k in range(data.K):
                    pen += 0.5 * p.W[k, pp] ** 2 * p.W[k, q] ** 2 * g2
                pen += p.w0[pp] ** 2 * (p.W[:, q] ** 2).sum() * g2
        pen *= hp.mu / 2
        hinges = hinge(data.X @ p.w0 + p.b0, data.y_all) + 0.5 * p.w0 @ p.w0
        for k in range(data.K):
            hinges += hinge(data.R @ p.W[k] + p.b[k], data.Yk[k]) + 0.5 * p.W[k] @ p.W[k]
        assert total_loss(p, data, hp, gram) == pytest.approx(hinges + pen, rel=1e-12)

    def test_cross_penalty_frobenius_identity(self):
        # four-index summation equals ||(X^T X) . (w0 wk^T)||_F^2
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = 5
            X = rng.standard_normal((9, d))
            w0 = rng.standard_normal(d)
            wk = rng.standard_normal(d)
            G = X.T @ X
            direct = sum((w0[p] * wk[q] * G[p, q]) ** 2
                         for p in range(d) for q in range(d))
            frob = np.linalg.norm(G * np.outer(w0, wk), ord="fro") ** 2
            assert direct == pytest.approx(frob, rel=1e-10)

    def test_subclass_permutation_symmetry(self):
        rng = np.random.default_rng(9)
        data = make_instance(rng, n=15, d=4, K=3)
        gram = gram_squared(data.X)
        p = params_off_kink(rng, data)
        hp = Hyperparams(lambda0=1.0, lambdaK=np.array([0.5, 1.5, 2.5]), mu=0.8)
        base = total_loss(p, data, hp, gram)
        perm = [2, 0, 1]
        data_p = BoundData(X=data.X, y_all=data.y_all, R=data.R, Yk=data.Yk[perm])
        p_p = ModelParams(w0=p.w0, b0=p.b0, W=p.W[perm], b=p.b[perm])
        hp_p = Hyperparams(lambda0=1.0, lambdaK=hp.lambdaK[perm], mu=0.8)
        assert total_loss(p_p, data_p, hp_p, gram) == pytest.approx(base, rel=1e-12)

    def test_convexity_along_segments(self):
        rng = np.random.default_rng(10)
        data = make_instance(rng, n=10, d=3, K=2)
        gram = gram_squared(data.X)
        hp = Hyperparams.uniform(data.K, mu=1.5)
        for _ in range(100):
            t1 = rng.standard_normal((data.d + 1) * (data.K + 1))
            t2 = rng.standard_normal((data.d + 1) * (data.K + 1))
            l1 = total_loss(ModelParams.from_flat(t1, data.d, data.K), data, hp, gram)
            l2 = total_loss(ModelParams.from_flat(t2, data.d, data.K), data, hp, gram)
            for t in (0.25, 0.5, 0.75):
                mid = total_loss(ModelParams.from_flat(t * t1 + (1 - t) * t2, data.d, data.K),
                                 data, hp, gram)
                assert mid <= t * l1 + (1 - t) * l2 + 1e-9


class TestGradients:
    def test_single_violated_hinge(self):
        data = bind_data(np.array([[1.0, 0.0]]), np.array([True]), np.array([1]))
        gram = gram_squared(data.X)
        hp = Hyperparams.uniform(1, lambda0=1.0, mu=0.0)
        g = grad_w0(ModelParams.zeros(2, 1), data, hp, gram)
        assert np.allclose(g, [-1.0, 0.0])

    def test_ridge_only_when_margins_satisfied(self):
        rng = np.random.default_rng(11)
        data = make_instance(rng, n=8, d=3, K=1)
        gram = gram_squared(data.X)
        hp = Hyperparams.uniform(1, lambda0=2.0, mu=0.0)
        # big margin: scale a separating direction enough to satisfy every hinge
        w = data.y_all @ data.X
        w = w / np.linalg.norm(w)
        scale = 2.0 / min(np.abs(data.X @ w))
        p = ModelParams(w0=scale * w * np.sign(data.y_all * (data.X @ w)).min(initial=1),
                        b0=0.0, W=np.zeros((1, 3)), b=np.zeros(1))
        margins = data.y_all * (data.X @ p.w0)
        if np.all(margins > 1):
            g = grad_w0(p, data, hp, gram)
            assert np.allclose(g, 2.0 * p.w0)

    def test_grad_wk_all_hinges_active_at_zero(self):
        rng = np.random.default_rng(12)
        data = make_instance(rng, n=12, d=4, K=2)
        gram = gram_squared(data.X)
        hp = Hyperparams.uniform(2, lambdak=0.0, mu=0.0)
        g = grad_wk(1, ModelParams.zeros(data.d, data.K), data, hp, gram)
        members = data.Yk[0] > 0
        expected = -data.R[members].sum(axis=0) + data.R[~members].sum(axis=0)
        assert np.allclose(g, expected)

    def test_grad_wk_penalty_reduces_when_w0_zero(self):
        rng = np.random.default_rng(13)
        data = make_instance(rng, n=10, d=3, K=2)
        gram = gram_squared(data.X)
        hp = Hyperparams.uniform(2, lambdak=0.5, mu=2.0)
        p = params_off_kink(rng, data)
        p0 = ModelParams(w0=np.zeros(data.d), b0=p.b0, W=p.W, b=p.b)
        g = grad_wk(1, p0, data, hp, gram)
        wk = p0.W[0]
        hinge_part = g - wk * (0.5 + 2.0 * (gram.g2 @ wk ** 2))
        active = (1.0 - data.Yk[0] * (data.R @ wk + p0.b[0])) > 0
        assert np.allclose(hinge_part, data.R.T @ (-data.Yk[0] * active))

    def test_grad_bias_counting(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((10, 3))
        rare = np.zeros(10, dtype=bool)
        rare[:4] = True
        subs = np.array([1, 1, 2, 2] + [0] * 6)
        data = bind_data(X, rare, subs)
        assert grad_bias(0, ModelParams.zeros(3, 2), data) == pytest.approx(2.0)

    def test_grad_bias_zero_when_satisfied(self):
        data = bind_data(np.array([[1.0], [-1.0]]), np.array([True, False]), np.array([1, 0]))
        p = ModelParams(w0=np.array([5.0]), b0=0.0, W=np.array([[5.0]]), b=np.zeros(1))
        assert grad_bias(0, p, data) == 0.0

    @pytest.mark.parametrize("mu", [0.0, 0.5, 2.0])
    def test_finite_difference_agreement(self, mu):
        rng = np.random.default_rng(15)
        data = make_instance(rng, n=20, d=8, K=3)
        gram = gram_squared(data.X)
        hp = Hyperparams.uniform(3, mu=mu)
        p = params_off_kink(rng, data)
        theta = p.flat()
        num = numeric_grad(
            lambda t: total_loss(ModelParams.from_flat(t, data.d, data.K), data, hp, gram),
            theta, eps=1e-6 * max(np.abs(theta).max(), 1.0))
        ana = joint_grad_flat(p, data, hp, gram)
        scale = np.maximum(np.abs(num), 1e-3 * np.abs(num).max())
        assert np.max(np.abs(ana - num) / scale) < 1e-5

    def test_invalid_subclass_id(self):
        rng = np.random.default_rng(16)
        data = make_instance(rng, K=2)
        gram = gram_squared(data.X)
        with pytest.raises(ObjectiveError):
            grad_wk(3, ModelParams.zeros(data.d, 2), data, Hyperparams.uniform(2), gram)

    @pytest.mark.parametrize("which", [-1, 3])
    def test_invalid_bias_id(self, which):
        data = make_instance(np.random.default_rng(16), K=2)
        with pytest.raises(ObjectiveError, match=f"^invalid subclass id {which}$"):
            grad_bias(which, ModelParams.zeros(data.d, 2), data)


class TestInputChecks:
    """The checks a library caller meets: the command line refuses these first."""

    @pytest.mark.parametrize("lambda0, lambdak, mu", [(-1.0, 1.0, 1.0), (1.0, -1.0, 1.0),
                                                      (1.0, 1.0, -1e-9)],
                             ids=["lambda0", "lambdak", "mu"])
    def test_negative_hyperparameter_refused(self, lambda0, lambdak, mu):
        with pytest.raises(ObjectiveError, match="^hyperparameters must be non-negative$"):
            Hyperparams.uniform(2, lambda0=lambda0, lambdak=lambdak, mu=mu)

    def test_labels_that_disagree_with_the_rare_rows_refused(self):
        data = make_instance(np.random.default_rng(17), K=2)
        with pytest.raises(ObjectiveError, match="^y_all positives must match rare row count$"):
            BoundData(X=data.X, y_all=np.full_like(data.y_all, -1.0), R=data.R, Yk=data.Yk)
        with pytest.raises(ObjectiveError, match="^per-subclass labels must cover the rare rows$"):
            BoundData(X=data.X, y_all=data.y_all, R=data.R, Yk=data.Yk[:, 1:])


def kernel_flat(p, data, hp, gram):
    return _grad(p.theta, hp, gram.g2, data.X, data.y_all, data.R, data.Yk, 1.0, 1.0).ravel()


def rel_err(a, b):
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-300)


class TestFusedKernel:
    """The trainer's one-pass gradient against the per-block reference."""

    @pytest.mark.parametrize("K", [0, 1, 3])
    @pytest.mark.parametrize("mu", [0.0, 0.7, 3.0])
    def test_matches_reference_on_random_instances(self, K, mu):
        rng = np.random.default_rng(30 + K)
        for _ in range(10):
            n, d = int(rng.integers(K + 2, 30)), int(rng.integers(1, 9))
            if K == 0:
                data = bind_data(rng.standard_normal((n, d)), rng.random(n) < 0.4,
                                 np.zeros(n, dtype=int))
            else:
                data = make_instance(rng, n=n, d=d, K=K)
            hp = Hyperparams(lambda0=float(rng.uniform(0, 2)),
                             lambdaK=rng.uniform(0, 2, K), mu=mu)
            gram = gram_squared(data.X)
            p = ModelParams(w0=rng.standard_normal(d), b0=float(rng.standard_normal()),
                            W=rng.standard_normal((K, d)), b=rng.standard_normal(K))
            assert data.K == K
            assert rel_err(kernel_flat(p, data, hp, gram),
                           joint_grad_flat(p, data, hp, gram)) <= 1e-12

    def test_rows_on_the_hinge_kink(self):
        # integer features and weights keep every margin exact; each bias puts
        # the first row of its hinge exactly at margin 1, where ">" is inactive
        rng = np.random.default_rng(33)
        X = rng.integers(-3, 4, size=(16, 4)).astype(float)
        rare = np.arange(16) < 8
        data = bind_data(X, rare, np.where(rare, 1 + np.arange(16) % 2, 0))
        w = rng.integers(-2, 3, size=(3, 4)).astype(float)
        b0 = data.y_all[0] - X[0] @ w[0]
        b = [data.Yk[k, 0] - data.R[0] @ w[k + 1] for k in range(2)]
        p = ModelParams(w0=w[0], b0=b0, W=w[1:], b=b)
        assert data.y_all[0] * (X[0] @ p.w0 + p.b0) == 1.0
        assert all(data.Yk[k, 0] * (data.R[0] @ p.W[k] + p.b[k]) == 1.0 for k in range(2))
        gram = gram_squared(X)
        for mu in (0.0, 1.5):
            hp = Hyperparams.uniform(2, lambda0=0.3, lambdak=0.8, mu=mu)
            assert rel_err(kernel_flat(p, data, hp, gram),
                           joint_grad_flat(p, data, hp, gram)) <= 1e-12

    def test_flat_layout_is_row_major_parameter_array(self):
        rng = np.random.default_rng(34)
        p = ModelParams(w0=rng.standard_normal(3), b0=0.5,
                        W=rng.standard_normal((2, 3)), b=np.array([1.5, 2.5]))
        expected = np.concatenate([p.w0, [p.b0], p.W[0], [p.b[0]], p.W[1], [p.b[1]]])
        assert np.array_equal(p.flat(), expected)
        assert np.array_equal(p.theta.ravel(), expected)
        back = ModelParams.from_flat(expected, 3, 2)
        assert np.array_equal(back.theta, p.theta) and back.theta is not p.theta

    def test_bad_shapes_and_non_finite_entries_rejected(self):
        with pytest.raises(ObjectiveError):
            ModelParams(w0=np.zeros(3), b0=0.0, W=np.zeros((2, 3)), b=np.zeros(1))
        with pytest.raises(ObjectiveError):
            ModelParams(w0=np.zeros(3), b0=np.nan, W=np.zeros((1, 3)), b=np.zeros(1))
        with pytest.raises(ObjectiveError):
            ModelParams.from_flat(np.full(8, np.inf), 3, 1)


class TestPenaltyHessian:
    def test_zero_params_zero_hessian(self):
        rng = np.random.default_rng(17)
        data = make_instance(rng, d=3, K=2)
        gram = gram_squared(data.X)
        H = penalty_hessian(ModelParams.zeros(3, 2), 1.0, gram)
        assert np.allclose(H, 0.0)

    def test_psd_on_random_instances(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            data = make_instance(rng, n=9, d=3, K=2)
            gram = gram_squared(data.X)
            p = ModelParams(w0=rng.standard_normal(3), b0=0.0,
                            W=rng.standard_normal((2, 3)), b=np.zeros(2))
            H = penalty_hessian(p, 1.3, gram)
            assert np.linalg.eigvalsh(H).min() >= -1e-9 * np.linalg.norm(H)

    def test_matches_second_differences(self):
        rng = np.random.default_rng(19)
        data = make_instance(rng, n=10, d=3, K=2)
        gram = gram_squared(data.X)
        mu = 0.7
        p = ModelParams(w0=rng.standard_normal(3), b0=0.1,
                        W=rng.standard_normal((2, 3)), b=rng.standard_normal(2))
        H = penalty_hessian(p, mu, gram)
        d, K = 3, 2
        theta = p.flat()

        def pen(t):
            return penalty_only(ModelParams.from_flat(t, d, K), mu, gram)

        h = 1e-4
        m = d * (K + 1)
        idx = [j * (d + 1) + t for j in range(K + 1) for t in range(d)]
        Hn = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                ei = np.zeros_like(theta); ei[idx[i]] = h
                ej = np.zeros_like(theta); ej[idx[j]] = h
                Hn[i, j] = (pen(theta + ei + ej) - pen(theta + ei - ej)
                            - pen(theta - ei + ej) + pen(theta - ei - ej)) / (4 * h * h)
        scale = np.maximum(np.abs(Hn), 1e-3 * np.abs(Hn).max())
        assert np.max(np.abs(H - Hn) / scale) < 1e-4

    def test_size_cap(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((5, 51))
        data = bind_data(X, np.array([True] * 3 + [False] * 2), np.array([1, 2, 3, 0, 0]))
        gram = gram_squared(X)
        with pytest.raises(ObjectiveError):
            penalty_hessian(ModelParams.zeros(51, 3), 1.0, gram)


class TestIdentityGram:
    def test_pca_features_drop_feature_correlation(self):
        rng = np.random.default_rng(21)
        data = make_instance(rng, n=10, d=4, K=2)
        gram = identity_gram(data.X)
        hp = Hyperparams.uniform(2, mu=1.0)
        p = params_off_kink(rng, data)
        # with identity in place of G2 the penalty reduces to sums of squared products
        a0, A = p.w0 ** 2, p.W ** 2
        pen = 0.5 * (0.5 * a0 @ a0 + 0.5 * np.sum(A * A) + a0 @ A.sum(axis=0))
        assert penalty_only(p, 1.0, gram) == pytest.approx(pen)


class TestGramReuse:
    def test_one_build_per_fit(self, monkeypatch):
        import rareclass.trainer as trainer
        from rareclass.trainer import TrainConfig, fit
        rng = np.random.default_rng(22)
        data = make_instance(rng, n=20, d=5, K=2)
        builds = []
        build = trainer.gram_squared
        monkeypatch.setattr(trainer, "gram_squared", lambda X: builds.append(1) or build(X))
        fit(data, Hyperparams.uniform(2), TrainConfig(max_iters=30))
        assert len(builds) == 1
