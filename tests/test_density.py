import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given
from hypothesis import strategies as st

from bayescfl import (ClientDataset, ContractError, FusionDegenerateError,
                      GaussianDensity, LocalModelSpec, density, fuse_local_posteriors,
                      merge_mixture, posterior_update)
from bayescfl.density import SPD_JITTER, logsumexp, spd_gaussian
from bayescfl.simulation import LOG_WEIGHT_FLOOR
from helpers import gaussian_mean_dataset, regression_dataset


def g1(mean, var):
    return GaussianDensity(np.array([mean]), np.array([[var]]))


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim))
    cov = a @ a.T + dim * np.eye(dim)
    return GaussianDensity(rng.standard_normal(dim), cov)


class TestGaussianDensity:
    def test_shape_validation(self):
        with pytest.raises(ContractError):
            GaussianDensity(np.zeros(2), np.eye(3))

    def test_symmetry_validation(self):
        cov = np.array([[1.0, 0.3], [0.2, 1.0]])
        with pytest.raises(ContractError):
            GaussianDensity(np.zeros(2), cov)

    def test_positive_definite_validation(self):
        with pytest.raises(ContractError):
            GaussianDensity(np.zeros(2), -np.eye(2))

    def test_log_pdf_matches_scipy(self):
        from scipy.stats import multivariate_normal
        rng = np.random.default_rng(0)
        d = random_density(rng, 3)
        x = rng.standard_normal((5, 3))
        want = multivariate_normal(d.mean, d.covariance).logpdf(x)
        np.testing.assert_allclose(d.log_pdf(x), want, rtol=1e-12)

    def test_immutable_arrays(self):
        d = g1(0.0, 1.0)
        with pytest.raises(ValueError):
            d.mean[0] = 5.0


class TestMergeMixture:
    def test_identical_components(self):
        c = g1(2.0, 3.0)
        out = merge_mixture([0.25, 0.75], [c, c])
        np.testing.assert_allclose(out.mean, c.mean, atol=1e-15)
        np.testing.assert_allclose(out.covariance, c.covariance, atol=1e-12)

    def test_two_component_spread(self):
        out = merge_mixture([0.5, 0.5], [g1(-1.0, 1.0), g1(1.0, 1.0)])
        np.testing.assert_allclose(out.mean, [0.0], atol=1e-15)
        np.testing.assert_allclose(out.covariance, [[2.0]], atol=1e-12)

    def test_degenerate_weight(self):
        a, b = g1(-3.0, 0.5), g1(7.0, 2.0)
        out = merge_mixture([1.0, 0.0], [a, b])
        np.testing.assert_allclose(out.mean, a.mean, atol=1e-15)
        np.testing.assert_allclose(out.covariance, a.covariance, atol=1e-12)

    def test_weight_sum_contract(self):
        with pytest.raises(ContractError):
            merge_mixture([0.6, 0.5], [g1(0, 1), g1(1, 1)])

    def test_moment_preservation(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            dim = int(rng.integers(1, 9))
            m = int(rng.integers(1, 7))
            comps = [random_density(rng, dim) for _ in range(m)]
            w = rng.dirichlet(np.ones(m))
            merged = merge_mixture(w, comps)
            mean = sum(wi * c.mean for wi, c in zip(w, comps))
            second = sum(wi * (c.covariance + np.outer(c.mean, c.mean))
                         for wi, c in zip(w, comps))
            np.testing.assert_allclose(merged.mean, mean, atol=1e-10)
            got_second = merged.covariance + np.outer(merged.mean, merged.mean)
            np.testing.assert_allclose(got_second, second, atol=1e-10)

    @given(dim=st.integers(1, 4), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           raw=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
    def test_moment_preservation_property(self, dim, m, seed, raw):
        rng = np.random.default_rng(seed)
        comps = [random_density(rng, dim) for _ in range(m)]
        assume(sum(raw[:m]) > 0.01)
        w = np.array(raw[:m]) / sum(raw[:m])
        merged = merge_mixture(w, comps)
        mean = sum(wi * c.mean for wi, c in zip(w, comps))
        second = sum(wi * (c.covariance + np.outer(c.mean, c.mean))
                     for wi, c in zip(w, comps))
        np.testing.assert_allclose(merged.mean, mean, atol=1e-10)
        got_second = merged.covariance + np.outer(merged.mean, merged.mean)
        np.testing.assert_allclose(got_second, second, atol=1e-10)

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        comps = [random_density(rng, 3) for _ in range(4)]
        w = rng.dirichlet(np.ones(4))
        a = merge_mixture(w, comps)
        perm = [2, 0, 3, 1]
        b = merge_mixture(w[perm], [comps[i] for i in perm])
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-10)
        np.testing.assert_allclose(a.covariance, b.covariance, atol=1e-10)


@st.composite
def fusion_cases(draw):
    """A conjugate spec, a prior and 2-5 client datasets of 1-6 rows each."""
    kind = draw(st.sampled_from(["gaussian-mean", "bayes-linear"]))
    d, clients = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = LocalModelSpec(kind, feature_dim=d, noise_variance=float(rng.uniform(0.1, 3.0)))
    chunks = []
    for _ in range(clients):
        x = rng.standard_normal((int(rng.integers(1, 7)), d))
        y = None if kind == "gaussian-mean" else rng.standard_normal(x.shape[0])
        chunks.append(ClientDataset(0, 0, x, y))
    return spec, random_density(rng, d), chunks


class TestFusion:
    def test_single_local_identity(self):
        rng = np.random.default_rng(5)
        local = random_density(rng, 2)
        prior = random_density(rng, 2)
        for mode in ("naive-product", "prior-corrected"):
            out = fuse_local_posteriors([local], prior, mode)
            np.testing.assert_allclose(out.mean, local.mean, atol=1e-12)
            np.testing.assert_allclose(out.covariance, local.covariance, atol=1e-12)

    def test_naive_product_standard_normals(self):
        out = fuse_local_posteriors([g1(0, 1), g1(0, 1)], g1(0, 1), "naive-product")
        np.testing.assert_allclose(out.mean, [0.0], atol=1e-15)
        np.testing.assert_allclose(out.covariance, [[0.5]], atol=1e-12)

    def test_prior_corrected_equals_joint_update(self):
        # per-client conjugate posteriors fused == one update on pooled data
        rng = np.random.default_rng(11)
        spec = LocalModelSpec("gaussian-mean", feature_dim=2, noise_variance=0.7)
        prior = random_density(rng, 2)
        chunks = [rng.standard_normal((int(rng.integers(1, 6)), 2)) for _ in range(4)]
        locs = [posterior_update(prior, gaussian_mean_dataset(c), spec) for c in chunks]
        fused = fuse_local_posteriors(locs, prior, "prior-corrected")
        joint = posterior_update(prior, gaussian_mean_dataset(np.vstack(chunks)), spec)
        np.testing.assert_allclose(fused.mean, joint.mean, atol=1e-9)
        np.testing.assert_allclose(fused.covariance, joint.covariance, atol=1e-9)

    def test_prior_corrected_bayes_linear(self):
        rng = np.random.default_rng(13)
        spec = LocalModelSpec("bayes-linear", feature_dim=3, noise_variance=0.5)
        prior = random_density(rng, 3)
        w_true = rng.standard_normal(3)
        chunks = []
        for _ in range(3):
            x = rng.standard_normal((4, 3))
            y = x @ w_true + 0.5 * rng.standard_normal(4)
            chunks.append((x, y))
        locs = [posterior_update(prior, regression_dataset(x, y), spec)
                for x, y in chunks]
        fused = fuse_local_posteriors(locs, prior, "prior-corrected")
        joint = posterior_update(
            prior,
            regression_dataset(np.vstack([x for x, _ in chunks]),
                               np.concatenate([y for _, y in chunks])),
            spec)
        np.testing.assert_allclose(fused.mean, joint.mean, atol=1e-9)
        np.testing.assert_allclose(fused.covariance, joint.covariance, atol=1e-9)

    def test_fusing_local_updates_inverts_nothing(self, monkeypatch):
        # local posteriors keep their information pair, so fusion only adds;
        # the one inverse left is from_info's, which turns the sum into moments
        rng = np.random.default_rng(19)
        spec = LocalModelSpec("gaussian-mean", feature_dim=2, noise_variance=0.7)
        prior = random_density(rng, 2)
        locs = [posterior_update(prior, gaussian_mean_dataset(rng.standard_normal((3, 2))),
                                 spec) for _ in range(4)]
        inverted, fused = [], []
        inv = np.linalg.inv

        def counted(a):
            inverted.append(a)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        monkeypatch.setattr(density, "from_info", lambda *pair: fused.append(pair))
        fuse_local_posteriors(locs, prior, "naive-product")
        assert not inverted
        lam, eta = fused[0]
        assert np.array_equal(lam, sum(g.info_form()[0] for g in locs))
        assert np.array_equal(eta, sum(g.info_form()[1] for g in locs))

    @given(case=fusion_cases())
    def test_prior_corrected_equals_union_update(self, case):
        spec, prior, chunks = case
        locs = [posterior_update(prior, chunk, spec) for chunk in chunks]
        fused = fuse_local_posteriors(locs, prior, "prior-corrected")
        union = ClientDataset(0, 0, np.vstack([c.features for c in chunks]),
                              None if spec.kind == "gaussian-mean"
                              else np.concatenate([c.labels for c in chunks]))
        joint = posterior_update(prior, union, spec)
        np.testing.assert_allclose(fused.mean, joint.mean, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(fused.covariance, joint.covariance, rtol=1e-9, atol=1e-9)

    def test_order_invariance(self):
        rng = np.random.default_rng(17)
        prior = random_density(rng, 2)
        locs = [random_density(rng, 2) for _ in range(4)]
        for mode in ("naive-product", "prior-corrected"):
            a = fuse_local_posteriors(locs, prior, mode)
            b = fuse_local_posteriors(locs[::-1], prior, mode)
            np.testing.assert_allclose(a.mean, b.mean, atol=1e-10)
            np.testing.assert_allclose(a.covariance, b.covariance, atol=1e-10)

    def test_degenerate_fusion_raises(self):
        # locals much tighter than they should be given a huge prior precision
        tight = g1(0.0, 1e-6)
        sharp_prior = g1(0.0, 1e-9)
        with pytest.raises(FusionDegenerateError):
            fuse_local_posteriors([tight, tight, tight], sharp_prior,
                                  "prior-corrected")

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            fuse_local_posteriors([g1(0, 1)],
                                  GaussianDensity(np.zeros(2), np.eye(2)),
                                  "naive-product")


class TestSpdGaussian:
    def test_one_factorization_per_density(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(a)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        g = spd_gaussian(np.ones(2), cov)
        assert len(calls) == 1
        assert np.array_equal(g.chol, cholesky(cov))
        assert np.array_equal(g.covariance, cov)
        assert not g.chol.flags.writeable

    def test_jitter_makes_a_singular_covariance_usable(self):
        cov = np.ones((2, 2))
        with pytest.raises(ContractError):
            GaussianDensity(np.zeros(2), cov)
        g = spd_gaussian(np.zeros(2), cov)
        assert np.array_equal(g.covariance, cov + SPD_JITTER * np.eye(2))
        assert np.array_equal(g.chol, np.linalg.cholesky(g.covariance))

    def test_not_positive_definite_after_jitter_raises(self):
        with pytest.raises(ContractError):
            spd_gaussian(np.zeros(2), -np.eye(2))


@st.composite
def logsumexp_inputs(draw):
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3, 4))
    a = draw(st.floats(-1e3, 1e3)) + scale * rng.standard_normal(n)
    shape = draw(st.sampled_from(["plain", "ties", "some -inf", "all -inf", "floor"]))
    if shape == "ties":
        a[rng.integers(0, n, size=int(rng.integers(1, n + 1)))] = a.max()
    elif shape == "some -inf":
        a[rng.integers(0, n, size=int(rng.integers(1, n + 1)))] = -np.inf
    elif shape == "all -inf":
        a[:] = -np.inf
    elif shape == "floor":
        a[:] = LOG_WEIGHT_FLOOR
    b = np.full(n, 1.0 / n) if draw(st.booleans()) else None
    return a, b


class TestLogsumexp:
    """The numpy logsumexp must give scipy's bits, so that the weights,
    held-out likelihoods and sampled association weights do not move."""

    @given(inputs=logsumexp_inputs())
    def test_matches_scipy_bit_for_bit(self, inputs):
        a, b = inputs
        with np.errstate(divide="ignore"):
            want = scipy.special.logsumexp(a, b=b)
        assert np.array_equal(logsumexp(a, b), want)

    @given(rows=st.integers(1, 8), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from(["plain", "ties", "zeros in b", "all -inf", "floor"]),
           weights=st.sampled_from(["none", "shared", "per row"]))
    def test_rows_match_the_one_row_call(self, rows, n, seed, shape, weights):
        """Along the last axis of a 2-D input, every row gets the bits of the
        1-D call on that row."""
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1e3, 1e3, (rows, 1)) + 10.0 ** rng.uniform(-3, 4) * \
            rng.standard_normal((rows, n))
        b = {"none": None, "shared": np.full(n, 1.0 / n),
             "per row": rng.uniform(0.0, 2.0, (rows, n))}[weights]
        r = int(rng.integers(rows))
        if shape == "ties":
            a[r, rng.integers(0, n, size=int(rng.integers(1, n + 1)))] = a[r].max()
        elif shape == "zeros in b":
            b = rng.uniform(0.0, 2.0, a.shape) if b is None else np.broadcast_to(b, a.shape).copy()
            b[r, rng.integers(0, n, size=int(rng.integers(1, n + 1)))] = 0.0
        elif shape == "all -inf":
            a[r] = -np.inf
        elif shape == "floor":
            a[r] = LOG_WEIGHT_FLOOR
        got = logsumexp(a, b)
        assert got.shape == (rows,)
        want = [logsumexp(a[k], None if b is None else np.broadcast_to(b, a.shape)[k])
                for k in range(rows)]
        # a row whose weights are all 0 gives NaN in both (0 * exp(a) with exp(a) = inf)
        assert np.array_equal(got, want, equal_nan=True)
