import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from bayescfl import (ClientDataset, ConfigError, ContractError,
                      GaussianDensity, LocalModelSpec, assoc_log_weight_at_mean,
                      assoc_log_weight_sampled, posterior_update)
from bayescfl import models
from bayescfl.config import plan_from_dict
from bayescfl.errors import SingularModelError
from helpers import (binary_dataset, empty_dataset, gaussian_mean_dataset,
                     grid_posterior_moments, reference_assoc_log_weight_sampled,
                     reference_data_log_likelihood, reference_laplace_logistic_update,
                     regression_dataset)


def g1(mean, var):
    return GaussianDensity(np.array([mean]), np.array([[var]]))


GM1 = LocalModelSpec("gaussian-mean", feature_dim=1, noise_variance=1.0)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            LocalModelSpec("poisson", feature_dim=1)

    def test_noise_variance_required(self):
        with pytest.raises(ContractError):
            LocalModelSpec("gaussian-mean", feature_dim=1)

    def test_logistic_is_binary(self):
        raw = {"K": 2, "T": 1, "groups": 2, "clients_per_group": 1,
               "scheme": "label-skew", "model_kind": "laplace-logistic"}
        for label_count in (3, 10):
            with pytest.raises(ConfigError, match="label_count=2"):
                plan_from_dict(dict(raw, label_count=label_count))
        plan = plan_from_dict(dict(raw, label_count=2))
        assert plan.round_config.model.kind == "laplace-logistic"


class TestPosteriorUpdate:
    def test_empty_dataset_returns_prior(self):
        prior = g1(0.3, 2.0)
        assert posterior_update(prior, empty_dataset(1), GM1) is prior

    def test_scalar_conjugate_update(self):
        # prior N(0,1), unit noise, one observation y=2 -> N(1, 0.5)
        post = posterior_update(g1(0.0, 1.0), gaussian_mean_dataset([2.0]), GM1)
        np.testing.assert_allclose(post.mean, [1.0], atol=1e-12)
        np.testing.assert_allclose(post.covariance, [[0.5]], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            posterior_update(GaussianDensity(np.zeros(2), np.eye(2)),
                             gaussian_mean_dataset([2.0]), GM1)

    @pytest.mark.parametrize("kind", ["gaussian-mean", "bayes-linear"])
    def test_conjugate_update_adds_information(self, kind):
        # the posterior keeps the pair it was built from: prior's plus data's
        rng = np.random.default_rng(31)
        d, v = 3, 0.7
        spec = LocalModelSpec(kind, feature_dim=d, noise_variance=v)
        low = np.tril(rng.standard_normal((d, d)))
        prior = GaussianDensity(rng.standard_normal(d), low @ low.T + np.eye(d))
        x = rng.standard_normal((7, d))
        if kind == "gaussian-mean":
            data = gaussian_mean_dataset(x)
            lam, eta = (7 / v) * np.eye(d), x.sum(axis=0) / v
        else:
            y = rng.standard_normal(7)
            data = regression_dataset(x, y)
            lam, eta = (x.T @ x) / v, (x.T @ y) / v
        lam0, eta0 = prior.info_form()
        got_lam, got_eta = posterior_update(prior, data, spec).info_form()
        assert np.array_equal(got_lam, lam0 + lam)
        assert np.array_equal(got_eta, eta0 + eta)

    @pytest.mark.parametrize("trial", range(5))
    def test_gaussian_mean_grid_oracle_1d(self, trial):
        rng = np.random.default_rng(100 + trial)
        prior = g1(rng.normal(), float(rng.uniform(0.5, 2.0)))
        spec = LocalModelSpec("gaussian-mean", feature_dim=1,
                              noise_variance=float(rng.uniform(0.5, 2.0)))
        data = gaussian_mean_dataset(rng.normal(size=4))
        post = posterior_update(prior, data, spec)

        mean, cov = grid_posterior_moments(
            prior, lambda ws: models.data_log_likelihoods(ws, data, spec), -10, 10, 4001)
        np.testing.assert_allclose(post.mean, mean, rtol=1e-3, atol=1e-4)
        np.testing.assert_allclose(post.covariance, cov, rtol=1e-3, atol=1e-4)

    def test_bayes_linear_grid_oracle_2d(self):
        rng = np.random.default_rng(7)
        prior = GaussianDensity(np.zeros(2), np.eye(2))
        spec = LocalModelSpec("bayes-linear", feature_dim=2, noise_variance=1.0)
        x = rng.standard_normal((6, 2))
        y = x @ np.array([0.5, -1.0]) + rng.standard_normal(6)
        data = regression_dataset(x, y)
        post = posterior_update(prior, data, spec)

        mean, cov = grid_posterior_moments(
            prior, lambda ws: models.data_log_likelihoods(ws, data, spec), -8, 8, 401)
        np.testing.assert_allclose(post.mean, mean, rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(post.covariance, cov, rtol=1e-3, atol=1e-3)

    def test_bayes_linear_consistency(self):
        rng = np.random.default_rng(21)
        dim, n = 3, 4000
        w_true = rng.standard_normal(dim)
        spec = LocalModelSpec("bayes-linear", feature_dim=dim, noise_variance=1.0)
        x = rng.standard_normal((n, dim))
        y = x @ w_true + rng.standard_normal(n)
        post = posterior_update(GaussianDensity(np.zeros(dim), 10 * np.eye(dim)),
                                regression_dataset(x, y), spec)
        sds = np.sqrt(np.diag(post.covariance))
        assert np.all(np.abs(post.mean - w_true) < 3 * sds)


class TestLaplaceLogistic:
    def test_separable_data_converges(self):
        rng = np.random.default_rng(3)
        spec = LocalModelSpec("laplace-logistic", feature_dim=2)
        x = np.vstack([rng.normal([-2, -2], 0.3, size=(20, 2)),
                       rng.normal([2, 2], 0.3, size=(20, 2))])
        y = np.array([0] * 20 + [1] * 20)
        prior = GaussianDensity(np.zeros(2), 4 * np.eye(2))
        post = posterior_update(prior, binary_dataset(x, y), spec)
        np.linalg.cholesky(post.covariance)  # positive-definite
        # the mode must point from class 0 toward class 1
        assert post.mean @ np.ones(2) > 0

        # gradient at the mode is ~0: mode condition of the Newton solve
        p = 1 / (1 + np.exp(-(x @ post.mean)))
        grad = x.T @ (p - y) + prior.precision @ (post.mean - prior.mean)
        assert np.linalg.norm(grad) < 1e-6

    def test_grid_oracle_close(self):
        rng = np.random.default_rng(5)
        spec = LocalModelSpec("laplace-logistic", feature_dim=1)
        x = rng.standard_normal((30, 1))
        y = (rng.random(30) < 1 / (1 + np.exp(-1.5 * x[:, 0]))).astype(int)
        prior = g1(0.0, 4.0)
        data = binary_dataset(x, y)
        post = posterior_update(prior, data, spec)

        mean, cov = grid_posterior_moments(
            prior, lambda ws: models.data_log_likelihoods(ws, data, spec), -10, 10, 4001)
        # Laplace is an approximation: generous tolerance
        np.testing.assert_allclose(post.mean, mean, atol=0.1)
        np.testing.assert_allclose(post.covariance, cov, rtol=0.25)

    def test_bad_labels(self):
        spec = LocalModelSpec("laplace-logistic", feature_dim=1)
        with pytest.raises(ContractError):
            posterior_update(g1(0, 1), binary_dataset(np.ones((2, 1)), [0, 2]), spec)


class TestAssociationWeights:
    def test_empty_dataset_gives_zero(self):
        got = assoc_log_weight_at_mean([g1(0, 1), g1(2, 1)], [empty_dataset(1)], GM1)[0]
        assert np.array_equal(got, [0.0, 0.0])

    def test_standard_normal_at_mode(self):
        got = assoc_log_weight_at_mean([g1(0.0, 1.0)], [gaussian_mean_dataset([0.0])], GM1)[0]
        assert got.shape == (1,)
        np.testing.assert_allclose(got[0], -0.5 * np.log(2 * np.pi), atol=1e-12)

    def test_closer_cluster_wins(self):
        rng = np.random.default_rng(9)
        data = gaussian_mean_dataset(rng.standard_normal(20))
        near, far = assoc_log_weight_at_mean([g1(0.0, 1.0), g1(5.0, 1.0)], [data], GM1)[0]
        assert near > far

    def test_sampled_collapses_to_mean(self):
        cluster = GaussianDensity(np.array([0.7]), np.array([[1e-12]]))
        data = gaussian_mean_dataset([0.0, 1.0, 0.5])
        (at_mean,) = assoc_log_weight_at_mean([cluster], [data], GM1)[0]
        (sampled,) = assoc_log_weight_sampled([cluster], data, GM1, n_samples=1, seeds=[4])
        assert abs(at_mean - sampled) < 1e-6

    def test_sampled_deterministic(self):
        cluster = g1(0.0, 2.0)
        data = gaussian_mean_dataset([0.3, -0.2])
        a = assoc_log_weight_sampled([cluster], data, GM1, n_samples=64, seeds=[77])
        b = assoc_log_weight_sampled([cluster], data, GM1, n_samples=64, seeds=[77])
        assert a == b

    def test_sampled_matches_closed_form_marginal(self):
        # log integral p(D|w) N(w; m0, s0^2) dw has closed form: the data are
        # jointly normal with mean m0*1 and covariance v*I + s0^2 * 1 1^T
        rng = np.random.default_rng(15)
        m0, s0sq, v = 0.5, 2.0, 1.0
        y = rng.normal(0.0, 1.0, size=5)
        exact = multivariate_normal(
            np.full(5, m0), v * np.eye(5) + s0sq * np.ones((5, 5))).logpdf(y)
        spec = LocalModelSpec("gaussian-mean", feature_dim=1, noise_variance=v)
        (got,) = assoc_log_weight_sampled([g1(m0, s0sq)], gaussian_mean_dataset(y),
                                          spec, n_samples=10_000, seeds=[123])
        assert abs(got - exact) < np.log(1.02)  # 2% relative on the likelihood


@st.composite
def likelihood_cases(draw):
    """A model spec, a dataset of n >= 0 rows and S parameter rows, at scales
    from 1e-2 to 1e2 so that the sums carry rounding."""
    kind = draw(st.sampled_from(models.KINDS))
    d, n, s = draw(st.integers(1, 5)), draw(st.integers(0, 60)), draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x_scale, w_scale = 10.0 ** draw(st.integers(-2, 2)), 10.0 ** draw(st.integers(-2, 2))
    x = x_scale * rng.standard_normal((n, d))
    omegas = w_scale * rng.standard_normal((s, d)) + rng.standard_normal(d)
    if kind == "laplace-logistic":
        spec = LocalModelSpec(kind, feature_dim=d)
        labels = rng.integers(0, 2, n)
    else:
        spec = LocalModelSpec(kind, feature_dim=d, noise_variance=float(rng.uniform(0.1, 3.0)))
        labels = None if kind == "gaussian-mean" else x_scale * rng.standard_normal(n)
    return spec, ClientDataset(0, 0, x, labels), omegas


def rng_features(seed, n, d, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal((n, d))


def logistic_case(features, separable, seed=0, prior_scale=1.0, mean_scale=0.0):
    """A laplace-logistic spec, dataset and prior; separable labels drive the
    mode far out, so the line search halves."""
    rng = np.random.default_rng(seed)
    n, d = features.shape
    direction = rng.standard_normal(d)
    labels = ((features @ direction > 0) if separable else rng.integers(0, 2, n)).astype(int)
    low = np.tril(rng.standard_normal((d, d)))
    prior = GaussianDensity(mean_scale * rng.standard_normal(d),
                            prior_scale * (low @ low.T + 0.1 * np.eye(d)))
    return LocalModelSpec("laplace-logistic", feature_dim=d), binary_dataset(features, labels), prior


@st.composite
def newton_cases(draw):
    """Laplace-logistic updates from well-posed to nearly separable data, with
    tight to diffuse priors, so that line searches halve from 0 to a dozen
    times."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    features = rng_features(seed, n, d, 10.0 ** draw(st.integers(-1, 1)))
    return logistic_case(features, draw(st.booleans()), seed,
                         prior_scale=10.0 ** draw(st.integers(-2, 3)),
                         mean_scale=draw(st.sampled_from([0.0, 1.0, 10.0])))


@st.composite
def at_mean_rounds(draw):
    """A model spec, 1-20 cluster posteriors and a round of 1-6 clients of
    unequal sizes, one of them empty."""
    kind = draw(st.sampled_from(models.KINDS))
    d, u = draw(st.integers(1, 5)), draw(st.integers(1, 20))
    sizes = draw(st.lists(st.integers(1, 40), max_size=5, unique=True))
    sizes.insert(draw(st.integers(0, len(sizes))), 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-2, 2))
    if kind == "laplace-logistic":
        spec = LocalModelSpec(kind, feature_dim=d)
    else:
        spec = LocalModelSpec(kind, feature_dim=d, noise_variance=float(rng.uniform(0.1, 3.0)))
    clients = []
    for n in sizes:
        x = scale * rng.standard_normal((n, d))
        labels = (rng.integers(0, 2, n) if kind == "laplace-logistic"
                  else None if kind == "gaussian-mean" else scale * rng.standard_normal(n))
        clients.append(ClientDataset(0, 0, x, labels))
    clusters = [GaussianDensity(rng.standard_normal(d), np.eye(d)) for _ in range(u)]
    return spec, clusters, clients


class TestBatchedLikelihood:
    """The batched kernel and every caller of it give the bits of the one-row
    formulas and of the per-draw loop."""

    @given(case=likelihood_cases())
    def test_kernel_matches_one_row_formulas(self, case):
        spec, data, omegas = case
        want = np.array([reference_data_log_likelihood(w, data, spec) for w in omegas])
        assert np.array_equal(models._log_likelihoods(omegas, data, spec), want)
        assert np.array_equal(models.data_log_likelihoods(omegas, data, spec), want)

    @given(case=likelihood_cases())
    def test_at_mean_matches_one_row_formulas(self, case):
        spec, data, omegas = case
        clusters = [GaussianDensity(w, np.eye(spec.param_dim)) for w in omegas]
        want = [reference_data_log_likelihood(c.mean, data, spec) for c in clusters]
        assert np.array_equal(assoc_log_weight_at_mean(clusters, [data], spec)[0], want)

    @given(case=at_mean_rounds())
    def test_at_mean_round_table_rows_match_kernel(self, case):
        """One call over a round gives a C x U table whose row j is the
        kernel's bits for client j against every cluster mean."""
        spec, clusters, clients = case
        means = np.array([c.mean for c in clusters])
        table = assoc_log_weight_at_mean(clusters, clients, spec)
        assert table.shape == (len(clients), len(clusters))
        for row, client in zip(table, clients, strict=True):
            assert np.array_equal(row, models._log_likelihoods(means, client, spec))

    @given(case=likelihood_cases(),
           seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6))
    def test_sampled_matches_per_draw_loop(self, case, seeds):
        """One call over 1-6 (cluster, seed) pairs gives, pair by pair, the
        bits of the per-draw loop."""
        spec, data, omegas = case
        d = spec.param_dim
        clusters = []
        for k, seed in enumerate(seeds):
            low = np.tril(np.random.default_rng(seed % 2**32).standard_normal((d, d)))
            clusters.append(GaussianDensity(omegas[k % len(omegas)],
                                            low @ low.T + 0.1 * np.eye(d)))
        s = omegas.shape[0]
        want = [reference_assoc_log_weight_sampled(c, data, spec, s, seed)
                for c, seed in zip(clusters, seeds)]
        assert np.array_equal(assoc_log_weight_sampled(clusters, data, spec, s, seeds), want)

    def test_softplus_within_4_ulp_of_logaddexp(self):
        rng = np.random.default_rng(12)
        z = np.concatenate([
            [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-17, -1e-17,
             36.0, -36.0, 709.0, -709.0, 745.0, -745.0],
            rng.uniform(-745.0, 745.0, 200_000),
            rng.standard_normal(200_000) * 10.0 ** rng.uniform(-20.0, 2.8, 200_000)])
        got, want = models._softplus(z), np.logaddexp(0.0, z)
        assert np.all(got >= 0) and np.all(want >= 0)
        # both are non-negative, so their bit patterns order like their values
        assert np.max(np.abs(got.view(np.int64) - want.view(np.int64))) <= 4

    @given(case=newton_cases())
    def test_newton_matches_one_step_at_a_time_loop(self, case):
        spec, data, prior = case
        try:
            got = models._laplace_logistic_update(prior, data, spec)
        except SingularModelError:
            return    # the reference does not check the Hessian
        mode, hess = reference_laplace_logistic_update(prior, data, spec)
        assert np.array_equal(got[0], mode) and np.array_equal(got[1], hess)

    def test_newton_objective_does_not_recheck_data(self, monkeypatch):
        checks = []
        check = models._check_data

        def counted(*args):
            checks.append(args)
            check(*args)

        monkeypatch.setattr(models, "_check_data", counted)
        spec = LocalModelSpec("laplace-logistic", feature_dim=2)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 2))
        data = binary_dataset(x, (x @ [2.0, -1.0] > 0).astype(int))
        prior = GaussianDensity(np.zeros(2), np.eye(2))
        posterior_update(prior, data, spec)
        assert len(checks) == 1    # posterior_update's own check only

    def test_newton_stops_at_float_precision(self, monkeypatch):
        # Near this mode the objective cannot resolve a gradient norm of
        # 1e-8: an absolute gradient test ran all NEWTON_MAX_ITER steps here,
        # halving most of them 20+ times, and stopped at a norm of 5e-8.
        x = np.random.default_rng(10).normal([1, 1], 1, (30, 2))
        spec = LocalModelSpec("laplace-logistic", feature_dim=2)
        prior = GaussianDensity(np.zeros(2), 10.0 * np.eye(2))
        calls = []
        kernel = models._log_likelihoods

        def counted(omegas, *args):
            calls.append(omegas.shape[0])
            return kernel(omegas, *args)

        monkeypatch.setattr(models, "_log_likelihoods", counted)
        post = posterior_update(prior, binary_dataset(x, np.ones(30, dtype=int)), spec)
        assert 0 < len(calls) <= 10 and set(calls) == {1}
        p = 1 / (1 + np.exp(-(x @ post.mean)))
        grad = x.T @ (p - 1) + prior.precision @ (post.mean - prior.mean)
        assert np.linalg.norm(grad) < 1e-12

    def test_wrong_parameter_shapes_rejected(self):
        data = gaussian_mean_dataset([0.0, 1.0])
        with pytest.raises(ContractError):
            models.data_log_likelihoods(np.zeros(1), data, GM1)
        with pytest.raises(ContractError):
            models.data_log_likelihoods(np.zeros((3, 2)), data, GM1)
        with pytest.raises(ContractError):
            assoc_log_weight_at_mean([g1(0, 1), GaussianDensity(np.zeros(2), np.eye(2))],
                                     [data], GM1)
        with pytest.raises(ContractError):
            assoc_log_weight_sampled([GaussianDensity(np.zeros(2), np.eye(2))], data,
                                     GM1, 4, [1])
        with pytest.raises(ContractError):    # one seed per cluster
            assoc_log_weight_sampled([g1(0, 1), g1(1, 1)], data, GM1, 4, [1])
