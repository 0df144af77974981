import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from bayescfl import (ClientDataset, ConfigError, ContractError,
                      GaussianDensity, LocalModelSpec, assoc_log_weight_at_mean,
                      assoc_log_weight_sampled, posterior_update)
from bayescfl import models
from bayescfl.cli import cli_run
from bayescfl.config import plan_from_dict
from bayescfl.density import SPD_JITTER, spd_cholesky
from bayescfl.errors import SingularModelError
from helpers import (binary_dataset, empty_dataset, gaussian_mean_dataset,
                     grid_posterior_moments, reference_assoc_log_weight_sampled,
                     reference_data_log_likelihood, reference_laplace_logistic_update,
                     regression_dataset)


def g1(mean, var):
    return GaussianDensity(np.array([mean]), np.array([[var]]))


GM1 = LocalModelSpec("gaussian-mean", feature_dim=1, noise_variance=1.0)
REPO = Path(__file__).resolve().parents[1]
SRC = str(REPO / "src")


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
        """Every entry point rejects labels {0, 2}, also on a second call,
        which reads the dataset's cached flag."""
        spec = LocalModelSpec("laplace-logistic", feature_dim=1)
        data = binary_dataset(np.ones((2, 1)), [0, 2])
        calls = (lambda: posterior_update(g1(0, 1), data, spec),
                 lambda: assoc_log_weight_at_mean([g1(0, 1)], [data], spec),
                 lambda: assoc_log_weight_sampled([g1(0, 1)], [data], spec,
                                                  np.zeros((1, 3, 1))),
                 lambda: models.data_log_likelihoods(np.zeros((1, 1)), data, spec))
        for call in calls * 2:
            with pytest.raises(ContractError, match="labels must be 0 or 1"):
                call()


class TestLabelScan:
    """A dataset's labels are scanned for 0/1 once, by the first
    laplace-logistic check that reads ``binary_labels``."""

    def test_once_per_dataset_over_a_run(self, monkeypatch, tmp_path):
        scanned = []
        scan = ClientDataset.binary_labels.func

        def counted(data):
            scanned.append(data)
            return scan(data)

        prop = functools.cached_property(counted)
        prop.__set_name__(ClientDataset, "binary_labels")
        monkeypatch.setattr(ClientDataset, "binary_labels", prop)
        raw = json.loads((REPO / "perfbench" / "workloads" / "logistic_sampled.json").read_text())
        raw.update(T=3, clients_per_group=3, samples_per_round=12, weight_samples=10,
                   test_samples=20)
        (tmp_path / "config.json").write_text(json.dumps(raw))
        assert cli_run(["run", "--config", str(tmp_path / "config.json"), "--seed", "7",
                        "--out", str(tmp_path / "out")]) == 0
        clients = raw["groups"] * raw["clients_per_group"]
        # every round's datasets and one held-out set per client, each once
        assert len({id(data) for data in scanned}) == len(scanned) == (raw["T"] + 1) * clients

    @pytest.mark.parametrize("kind", ["gaussian-mean", "bayes-linear"])
    def test_conjugate_kinds_never_scan(self, kind):
        spec = LocalModelSpec(kind, feature_dim=2, noise_variance=1.0)
        rng = np.random.default_rng(0)
        data = ClientDataset(0, 0, rng.standard_normal((6, 2)), [0, 1, 2, 0, 1, 2])
        prior = GaussianDensity(np.zeros(2), np.eye(2))
        posterior_update(prior, data, spec)
        assoc_log_weight_at_mean([prior], [data], spec)
        assoc_log_weight_sampled([prior], [data], spec, np.zeros((1, 3, 2)))
        models.data_log_likelihoods(np.zeros((1, 2)), data, spec)
        assert "binary_labels" not in vars(data)


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
        normals = np.random.default_rng(4).standard_normal((1, 1, 1))
        (sampled,) = assoc_log_weight_sampled([cluster], [data], GM1, normals)[0]
        assert abs(at_mean - sampled) < 1e-6

    def test_sampled_deterministic(self):
        cluster = g1(0.0, 2.0)
        data = gaussian_mean_dataset([0.3, -0.2])
        normals = np.random.default_rng(77).standard_normal((1, 64, 1))
        a = assoc_log_weight_sampled([cluster], [data], GM1, normals)[0]
        b = assoc_log_weight_sampled([cluster], [data], GM1, normals)[0]
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
        normals = np.random.default_rng(123).standard_normal((1, 10_000, 1))
        (got,) = assoc_log_weight_sampled([g1(m0, s0sq)], [gaussian_mean_dataset(y)],
                                          spec, normals)[0]
        assert abs(got - exact) < np.log(1.02)  # 2% relative on the likelihood


class TestTableSeededStreams:
    """The models module draws nothing: sampled weights take their standard
    normals as a table, and importing the package loads no numpy.random."""

    def test_importing_the_package_leaves_numpy_random_unloaded(self):
        code = "import sys, bayescfl.cli; print('numpy.random' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "False"


class TestHessianTest:
    def test_matches_spd_cholesky_per_matrix(self):
        stack = np.stack([2.0 * np.eye(2), np.ones((2, 2)), np.eye(2)])
        got = models._test_hessians(stack)
        for a, want in zip(stack, got):
            assert np.array_equal(want, spd_cholesky(a)[0])
        assert np.array_equal(got[1], np.ones((2, 2)) + SPD_JITTER * np.eye(2))

    @pytest.mark.parametrize("bad", [-np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]]),
                                     np.array([[1.0, np.inf], [np.inf, 1.0]])])
    def test_raises_singular_model_error(self, bad):
        stack = np.stack([np.eye(2), bad])
        with pytest.raises(SingularModelError, match="at the mode"):
            models._test_hessians(stack, "Hessian not positive-definite at the mode")
        with pytest.raises(SingularModelError, match="Hessian not positive-definite"):
            models._test_hessians(stack)


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
def laplace_batches(draw):
    """1-8 laplace-logistic problems of one dimension d (1-5): mixed sizes,
    some shared and some empty, well-posed to nearly separable data and tight
    to diffuse priors, so that problems stop after different numbers of steps
    and halve 0 to a dozen times. About one in ten is so ill-posed (n < d,
    large features, a diffuse prior) that its Hessian may fail the Cholesky
    test."""
    d = draw(st.integers(1, 5))
    spec, priors, datasets = LocalModelSpec("laplace-logistic", feature_dim=d), [], []
    for _ in range(draw(st.integers(1, 8))):
        seed = draw(st.integers(0, 2**32 - 1))
        if draw(st.integers(0, 9)) == 0:
            n, scale, prior_scale = draw(st.integers(1, d)), 1e6, 1e16
        else:
            n = draw(st.sampled_from([0, 1, 12, 30]) | st.integers(0, 40))
            scale = 10.0 ** draw(st.integers(-1, 1))
            prior_scale = 10.0 ** draw(st.integers(-2, 3))
        _, data, prior = logistic_case(rng_features(seed, n, d, scale), draw(st.booleans()),
                                       seed, prior_scale=prior_scale,
                                       mean_scale=draw(st.sampled_from([0.0, 1.0, 10.0])))
        priors.append(prior)
        datasets.append(data)
    return spec, priors, datasets


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


@st.composite
def stacked_likelihood_cases(draw):
    """A model spec, 1-20 datasets of at most three sizes (some maybe empty),
    so that a size can fill more than one chunk, and S parameter rows, shared
    (S, d) or one block per dataset (C, S, d)."""
    kind = draw(st.sampled_from(models.KINDS))
    d, s = draw(st.integers(1, 3)), draw(st.integers(1, 29))
    pool = draw(st.lists(st.integers(0, 39), min_size=1, max_size=3, unique=True))
    sizes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-2, 2))
    if kind == "laplace-logistic":
        spec = LocalModelSpec(kind, feature_dim=d)
    else:
        spec = LocalModelSpec(kind, feature_dim=d, noise_variance=float(rng.uniform(0.1, 3.0)))
    datasets = []
    for n in sizes:
        x = scale * rng.standard_normal((n, d))
        labels = (rng.integers(0, 2, n) if kind == "laplace-logistic"
                  else None if kind == "gaussian-mean" else scale * rng.standard_normal(n))
        datasets.append(ClientDataset(0, 0, x, labels))
    shape = (s, d) if draw(st.booleans()) else (len(sizes), s, d)
    return spec, datasets, rng.standard_normal(shape) + rng.standard_normal(d)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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

    @given(case=stacked_likelihood_cases())
    def test_stacked_kernel_matches_one_row_formulas(self, case):
        """One call over datasets of mixed sizes, empty ones among them,
        gives every dataset's row the bits of the one-row formulas, against
        shared rows or its own block of rows."""
        spec, datasets, omegas = case
        table = models.data_log_likelihoods(omegas, datasets, spec)
        assert table.shape == (len(datasets), omegas.shape[-2])
        for k, data in enumerate(datasets):
            rows = omegas if omegas.ndim == 2 else omegas[k]
            want = [reference_data_log_likelihood(w, data, spec) for w in rows]
            assert same_bits(table[k], np.array(want))
            assert same_bits(table[k], models.data_log_likelihoods(rows, data, spec))

    def test_at_mean_takes_one_kernel_call_per_chunk(self, monkeypatch):
        """Clients are scored by size in chunks that fit KERNEL_ENTRIES: at
        80 entries, 17 clients of 5 samples against 2 means go 8 per call,
        and 3 empty ones in one call."""
        rng = np.random.default_rng(8)
        clients = [gaussian_mean_dataset(rng.standard_normal((5, 1)) if j % 7 else
                                         np.zeros((0, 1))) for j in range(20)]
        assert sum(c.is_empty() for c in clients) == 3
        monkeypatch.setattr(models, "KERNEL_ENTRIES", 80)
        calls = []
        kernel = models._log_likelihoods

        def counted(omegas, data, spec):
            calls.append(len(data))
            return kernel(omegas, data, spec)

        monkeypatch.setattr(models, "_log_likelihoods", counted)
        table = assoc_log_weight_at_mean([g1(0, 1), g1(1, 2)], clients, GM1)
        assert sorted(calls) == [1, 3, 8, 8]
        assert not table[[0, 7, 14]].any()
        calls.clear()    # a dataset larger than the budget goes alone
        assoc_log_weight_at_mean([g1(0, 1)] * 9, clients[1:4], GM1)
        assert calls == [1, 1, 1]

    @given(case=likelihood_cases(),
           seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6))
    def test_sampled_matches_per_draw_loop(self, case, seeds):
        """One call over 1-6 clusters gives, cluster by cluster, the bits of
        the per-draw loop on the client's block of the table of normals."""
        spec, data, omegas = case
        d = spec.param_dim
        clusters = []
        for k, seed in enumerate(seeds):
            low = np.tril(np.random.default_rng(seed % 2**32).standard_normal((d, d)))
            clusters.append(GaussianDensity(omegas[k % len(omegas)],
                                            low @ low.T + 0.1 * np.eye(d)))
        s = omegas.shape[0]
        normals = np.random.default_rng(seeds[0]).standard_normal((1, s, d))
        want = [reference_assoc_log_weight_sampled(c, data, spec, normals[0])
                for c in clusters]
        assert np.array_equal(assoc_log_weight_sampled(clusters, [data], spec, normals)[0],
                              want)

    @staticmethod
    def _sampled_reference(clusters, clients, spec, normals):
        return [[reference_assoc_log_weight_sampled(cluster, data, spec, block)
                 for cluster in clusters] for data, block in zip(clients, normals)]

    @given(case=at_mean_rounds(), n_clusters=st.integers(1, 4),
           n_samples=st.sampled_from([1, 2]) | st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_sampled_round_table_matches_per_draw_loop(self, case, n_clusters, n_samples,
                                                       seed):
        """One call over a round of clients of unequal sizes, one of them
        empty, gives a C x U table whose entry (j, u) is the bits of the
        per-draw loop for client j and cluster u on block j of the
        normals."""
        spec, clusters, clients = case
        d = spec.param_dim
        rng = np.random.default_rng(seed)
        low = np.tril(rng.standard_normal((n_clusters, d, d)))
        clusters = [GaussianDensity(c.mean, m @ m.T + 0.1 * np.eye(d))
                    for c, m in zip(clusters, low)]
        normals = rng.standard_normal((len(clients), n_samples, d))
        got = assoc_log_weight_sampled(clusters, clients, spec, normals)
        assert got.shape == (len(clients), len(clusters))
        assert np.array_equal(got, self._sampled_reference(clusters, clients, spec, normals))

    @pytest.mark.parametrize("kind", models.KINDS)
    @pytest.mark.parametrize("n_samples, n_clusters", [(1, 1), (1, 3), (6, 1)])
    def test_sampled_round_table_edge_cases(self, kind, n_samples, n_clusters):
        """An empty client, unequal n, one draw and one cluster each give the
        per-draw loop's bits."""
        rng = np.random.default_rng(n_samples * 10 + n_clusters)
        spec = (LocalModelSpec(kind, feature_dim=2) if kind == "laplace-logistic"
                else LocalModelSpec(kind, feature_dim=2, noise_variance=0.7))
        clients = []
        for n in (5, 0, 12):
            labels = (rng.integers(0, 2, n) if kind == "laplace-logistic"
                      else None if kind == "gaussian-mean" else rng.standard_normal(n))
            clients.append(ClientDataset(0, 0, rng.standard_normal((n, 2)), labels))
        clusters = [GaussianDensity(rng.standard_normal(2), (1.0 + i) * np.eye(2))
                    for i in range(n_clusters)]
        normals = rng.standard_normal((3, n_samples, 2))
        got = assoc_log_weight_sampled(clusters, clients, spec, normals)
        want = self._sampled_reference(clusters, clients, spec, normals)
        assert np.array_equal(got, want)
        np.testing.assert_allclose(got[1], 0.0, atol=1e-15)    # log 1 for no data

    @pytest.mark.parametrize("seeds", [
        (1, 2, 4, 1), (2, 1, 4, 1), (3, 2, 4, 1), (2, 2, 0, 1), (2, 2, 4, 2), (2, 2, 4)])
    def test_sampled_rejects_a_seed_table_that_is_not_c_by_p(self, seeds):
        """The table of normals must be C x S x d with S >= 1, whatever the
        number of clusters: here C = 2 and d = 1, and no ``seeds`` shape is
        such a table (the first five have a cluster axis)."""
        clients = [gaussian_mean_dataset([0.0, 1.0]), gaussian_mean_dataset([2.0])]
        with pytest.raises(ContractError, match="table of standard normals"):
            assoc_log_weight_sampled([g1(0, 1), g1(1, 1)], clients, GM1, np.zeros(seeds))

    @pytest.mark.parametrize("shape", [(1, 4, 1), (3, 4, 1), (2, 0, 1), (2, 4, 2), (2, 4)])
    def test_sampled_rejects_a_table_that_is_not_c_by_s_by_d(self, shape):
        """A table of one client too few or too many, of no draws, of the
        wrong d or without the draw axis is rejected: C = 2 and d = 1."""
        clients = [gaussian_mean_dataset([0.0, 1.0]), gaussian_mean_dataset([2.0])]
        with pytest.raises(ContractError, match="table of standard normals"):
            assoc_log_weight_sampled([g1(0, 1), g1(1, 1)], clients, GM1, np.zeros(shape))

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
            (got,) = models._laplace_logistic_modes([prior], [data])
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
        kernel = models._logistic_log_likelihoods

        def counted(x, y, omegas):
            calls.append(omegas.shape[0])
            return kernel(x, y, omegas)

        # one objective evaluation per start and per tried step
        monkeypatch.setattr(models, "_logistic_log_likelihoods", counted)
        post = posterior_update(prior, binary_dataset(x, np.ones(30, dtype=int)), spec)
        assert 0 < len(calls) <= 10 and set(calls) == {1}
        p = 1 / (1 + np.exp(-(x @ post.mean)))
        grad = x.T @ (p - 1) + prior.precision @ (post.mean - prior.mean)
        assert np.linalg.norm(grad) < 1e-12

    @given(case=laplace_batches())
    def test_sequence_form_matches_one_problem_loop(self, case):
        """Each problem of a batch gets the mode and Hessian of the one-step-
        at-a-time reference, whatever the other problems do; an empty dataset
        keeps its prior; the batch raises exactly when one problem alone does."""
        spec, priors, datasets = case
        alone_raises = False
        for prior, data in zip(priors, datasets):
            try:
                posterior_update(prior, data, spec)
            except SingularModelError:
                alone_raises = True
        fits = {}
        modes = models._laplace_logistic_modes

        def recorded(priors_, datasets_):
            out = modes(priors_, datasets_)
            fits.update(zip(map(id, datasets_), out))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "_laplace_logistic_modes", recorded)
            if alone_raises:
                with pytest.raises(SingularModelError):
                    posterior_update(priors, datasets, spec)
                return
            posts = posterior_update(priors, datasets, spec)
        assert len(posts) == len(priors)
        for prior, data, post in zip(priors, datasets, posts):
            if data.is_empty():
                assert post is prior
                continue
            mode, hess = reference_laplace_logistic_update(prior, data, spec)
            got_mode, got_hess = fits[id(data)]
            assert np.array_equal(got_mode, mode) and np.array_equal(got_hess, hess)
            assert np.array_equal(post.precision, hess)
            assert np.array_equal(post.info_form()[1], hess @ mode)

    @given(kind=st.sampled_from(["gaussian-mean", "bayes-linear"]),
           d=st.integers(1, 5), sizes=st.lists(st.integers(0, 20), min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_sequence_form_matches_single_form_for_conjugate_kinds(self, kind, d, sizes,
                                                                   seed):
        rng = np.random.default_rng(seed)
        spec = LocalModelSpec(kind, feature_dim=d, noise_variance=float(rng.uniform(0.1, 3.0)))
        priors, datasets = [], []
        for n in sizes:
            low = np.tril(rng.standard_normal((d, d)))
            priors.append(GaussianDensity(rng.standard_normal(d), low @ low.T + 0.1 * np.eye(d)))
            labels = None if kind == "gaussian-mean" else rng.standard_normal(n)
            datasets.append(ClientDataset(0, 0, rng.standard_normal((n, d)), labels))
        posts = posterior_update(priors, datasets, spec)
        assert len(posts) == len(priors)
        for prior, data, post in zip(priors, datasets, posts):
            want = posterior_update(prior, data, spec)
            if data.is_empty():
                assert post is prior and want is prior
                continue
            for got_part, want_part in zip(post.info_form(), want.info_form()):
                assert np.array_equal(got_part, want_part)
            assert np.array_equal(post.mean, want.mean)
            assert np.array_equal(post.covariance, want.covariance)

    def test_batch_stops_and_halves_each_problem_on_its_own(self, monkeypatch):
        """A batch whose problems stop after different numbers of steps, some
        after halvings: one objective call per pending set, each problem
        with its reference bits."""
        x = np.random.default_rng(10).normal([1, 1], 1, (30, 2))
        spec = LocalModelSpec("laplace-logistic", feature_dim=2)
        cases = [logistic_case(rng_features(seed, 30, 2), separable, seed, prior_scale,
                               mean_scale)
                 for seed, separable, prior_scale, mean_scale in
                 [(1, False, 1.0, 0.0), (2, True, 1e3, 10.0), (3, True, 10.0, 1.0)]]
        priors = [GaussianDensity(np.zeros(2), 10.0 * np.eye(2))] + [c[2] for c in cases]
        datasets = [binary_dataset(x, np.ones(30, dtype=int))] + [c[1] for c in cases]
        events = []
        objective, hessians = models._laplace_objective, models._hessians

        def logged_objective(x_, *args):
            events.append(("objective", x_.shape[0]))
            return objective(x_, *args)

        def logged_hessians(x_, *args):
            events.append(("hessians", x_.shape[0]))
            return hessians(x_, *args)

        monkeypatch.setattr(models, "_laplace_objective", logged_objective)
        monkeypatch.setattr(models, "_hessians", logged_hessians)
        posts = posterior_update(priors, datasets, spec)
        steps = [rows for kind, rows in events[:-1] if kind == "hessians"]
        assert steps[0] == len(priors) and len(set(steps)) > 1    # stops differ
        assert events[-1] == ("hessians", len(priors))    # the Hessians at the modes
        # a halving re-evaluates the pending set before the next step
        assert any(a[0] == b[0] == "objective" for a, b in zip(events[1:], events[2:]))
        for prior, data, post in zip(priors, datasets, posts):
            mode, hess = reference_laplace_logistic_update(prior, data, spec)
            assert np.array_equal(post.precision, hess)
            assert np.array_equal(post.info_form()[1], hess @ mode)

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
            assoc_log_weight_sampled([GaussianDensity(np.zeros(2), np.eye(2))], [data],
                                     GM1, np.zeros((1, 4, 1)))
        with pytest.raises(ContractError):    # one block of normals per client
            assoc_log_weight_sampled([g1(0, 1), g1(1, 1)], [data], GM1, np.zeros((2, 4, 1)))
