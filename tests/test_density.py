import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given
from hypothesis import strategies as st

from bayescfl import (ClientDataset, ContractError, FusionDegenerateError,
                      GaussianDensity, LocalModelSpec, density, fuse_local_posteriors,
                      merge_mixture, posterior_update)
from bayescfl.density import (SPD_JITTER, from_info, logsumexp, spd_cholesky,
                              spd_cholesky_stack, spd_gaussian)
from bayescfl.errors import SingularModelError
from bayescfl.simulation import LOG_WEIGHT_FLOOR
from helpers import gaussian_mean_dataset, reference_fusion, regression_dataset


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
        # the one inverse left is from_infos', which turns the sums into moments
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
        monkeypatch.setattr(density, "from_infos", lambda *pair: fused.append(pair) or [None])
        fuse_local_posteriors(locs, prior, "naive-product")
        assert not inverted
        (lams, etas), = fused
        assert np.array_equal(lams, [sum(g.info_form()[0] for g in locs)])
        assert np.array_equal(etas, [sum(g.info_form()[1] for g in locs)])

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


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def fusion_batches(draw):
    """1-8 member lists of 1-12 conjugate-style locals each (a prior's pair
    plus a random PSD data pair, at scales 1e-2 to 1e2), all of one dim 1-4,
    with each list's own prior."""
    d, lists = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups, priors = [], []
    for _ in range(lists):
        prior = random_density(rng, d)
        lam0, eta0 = prior.info_form()
        members = []
        for _ in range(int(rng.integers(1, 13))):
            x = 10.0 ** float(rng.integers(-2, 3)) * rng.standard_normal((3, d))
            members.append(from_info(lam0 + x.T @ x, eta0 + rng.standard_normal(d)))
        groups.append(members)
        priors.append(prior)
    return groups, priors


class TestBatchedFusion:
    """A batch of member lists gives each list the bits of its one-list sum
    and build, and raises what one of its lists raises alone."""

    @given(case=fusion_batches(), mode=st.sampled_from(["naive-product", "prior-corrected"]))
    def test_matches_one_list_calls(self, case, mode):
        groups, priors = case
        got = fuse_local_posteriors(groups, priors, mode)
        assert len(got) == len(groups)
        for g, members, prior in zip(got, groups, priors):
            for want in (reference_fusion(members, prior, mode),
                         fuse_local_posteriors(members, prior, mode)):
                for name in ("mean", "covariance", "chol"):
                    assert same_bits(getattr(g, name), getattr(want, name)), name
                    assert not getattr(g, name).flags.writeable, name
                for a, b in zip(g.info_form(), want.info_form()):
                    assert same_bits(a, b) and not a.flags.writeable

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_a_non_pd_list_anywhere_raises_its_one_list_error(self, at):
        # locals much tighter than they should be given a huge prior precision
        tight, sharp_prior = g1(0.0, 1e-6), g1(0.0, 1e-9)
        with pytest.raises(FusionDegenerateError) as alone:
            reference_fusion([tight] * 3, sharp_prior, "prior-corrected")
        groups = [[g1(0.0, 1.0), g1(1.0, 2.0)] for _ in range(3)]
        priors = [g1(0.0, 10.0)] * 3
        groups[at], priors[at] = [tight] * 3, sharp_prior
        with pytest.raises(FusionDegenerateError) as batch:
            fuse_local_posteriors(groups, priors, "prior-corrected")
        assert str(batch.value) == str(alone.value) == "precision matrix is not positive-definite"

    def test_a_precision_that_cannot_be_inverted(self):
        """A stacked build raises FusionDegenerateError, not the Laplace
        path's SingularModelError, for the precision of
        ``TestNonFinite.test_a_tested_precision_that_cannot_be_inverted``."""
        precision = np.array([[0.8768303134637059, -0.3286318835031764],
                              [-0.3286318835031764, 0.12316968653629429]])
        with pytest.raises(FusionDegenerateError, match="^precision matrix is singular$"):
            density.from_infos(np.stack([np.eye(2), precision]), np.zeros((2, 2)))

    def test_batch_shapes_are_checked(self):
        with pytest.raises(ContractError, match="member lists"):
            fuse_local_posteriors([[g1(0, 1)]], [g1(0, 1), g1(0, 1)])
        with pytest.raises(ContractError, match="at least one"):
            fuse_local_posteriors([[g1(0, 1)], []], [g1(0, 1), g1(0, 1)])
        with pytest.raises(ContractError, match="same dimension"):
            fuse_local_posteriors([[g1(0, 1)], [GaussianDensity(np.zeros(2), np.eye(2))]],
                                  [g1(0, 1), GaussianDensity(np.zeros(2), np.eye(2))])
        assert fuse_local_posteriors([], [], "naive-product") == []


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


# a precision that passes the Cholesky test whose symmetrized inverse needs
# the jitter
JITTER_PRECISION = np.array([[2.062781143009524e+16, 3.570359469415864e+16],
                             [3.570359469415864e+16, 6.1797475626762e+16]])


def random_precisions(rng, b, d):
    low = np.tril(rng.standard_normal((b, d, d)))
    lam = low @ low.transpose(0, 2, 1) + 0.1 * np.eye(d)
    return (lam + lam.transpose(0, 2, 1)) / 2.0


class TestStackedBuild:
    """``_from_tested_infos`` and ``spd_cholesky_stack`` give, for every
    matrix of a stack, the bits of their one-matrix forms."""

    @staticmethod
    def assert_builds_match(precisions, shifts):
        got = density._from_tested_infos(precisions, shifts)
        assert len(got) == len(precisions)
        for g, precision, shift in zip(got, precisions, shifts):
            want = density._from_tested_info(precision, shift)
            for name in ("mean", "covariance", "chol", "precision"):
                assert np.array_equal(getattr(g, name), getattr(want, name)), name
                assert not getattr(g, name).flags.writeable, name
            for a, b in zip(g.info_form(), want.info_form()):
                assert np.array_equal(a, b) and not a.flags.writeable

    @given(b=st.integers(1, 8), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           scale=st.integers(-3, 6), jitter_at=st.none() | st.integers(0, 8))
    def test_matches_one_pair_builds(self, b, d, seed, scale, jitter_at):
        """Random SPD precision stacks; with jitter_at, one more precision
        whose covariance needs the jitter (JITTER_PRECISION in its leading
        block, d >= 2) goes in at that row."""
        rng = np.random.default_rng(seed)
        precisions = 10.0 ** scale * random_precisions(rng, b, d)
        if jitter_at is not None and d >= 2:
            needs_jitter = np.eye(d)
            needs_jitter[:2, :2] = JITTER_PRECISION
            precisions = np.insert(precisions, min(jitter_at, b), needs_jitter, axis=0)
        self.assert_builds_match(precisions, rng.standard_normal((len(precisions), d)))

    def test_a_covariance_that_needs_the_jitter(self):
        inv = np.linalg.inv(JITTER_PRECISION)
        with pytest.raises(ContractError):
            GaussianDensity(np.zeros(2), density.symmetrize(inv))
        rng = np.random.default_rng(3)
        precisions = np.concatenate([random_precisions(rng, 1, 2), JITTER_PRECISION[None],
                                     random_precisions(rng, 2, 2)])
        self.assert_builds_match(precisions, rng.standard_normal((4, 2)))
        jittered = density._from_tested_infos(precisions, np.zeros((4, 2)))[1]
        assert np.array_equal(jittered.covariance,
                              density.symmetrize(inv) + SPD_JITTER * np.eye(2))

    def test_cholesky_stack_matches_per_matrix(self):
        rng = np.random.default_rng(4)
        stack = np.concatenate([random_precisions(rng, 2, 2), np.ones((1, 2, 2))])
        mats, chols = spd_cholesky_stack(stack)
        for a, mat, chol in zip(stack, mats, chols):
            want_mat, want_chol = spd_cholesky(a)
            assert np.array_equal(mat, want_mat) and np.array_equal(chol, want_chol)
        assert np.array_equal(mats[2], np.ones((2, 2)) + SPD_JITTER * np.eye(2))
        mats, chols = spd_cholesky_stack(stack[:2])
        assert np.array_equal(chols, np.linalg.cholesky(stack[:2]))

    @pytest.mark.parametrize("bad", [-np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])])
    def test_cholesky_stack_raises_when_one_matrix_fails(self, bad):
        stack = np.stack([np.eye(2), bad, np.eye(2)])
        with pytest.raises(ContractError, match="not positive-definite"):
            spd_cholesky_stack(stack)


def _bad_moments(case):
    """A mean and covariance that ``GaussianDensity`` may reject, by name."""
    mean, cov = np.zeros(2), np.array([[2.0, 0.5], [0.5, 1.0]])
    what, _, value = case.partition(" ")
    bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}.get(value)
    if what == "mean":
        mean[1] = bad
    elif what == "diagonal":
        cov[1, 1] = bad
    elif what == "off-diagonal":
        cov[0, 1] = cov[1, 0] = bad
    elif what == "one-side":
        cov[1, 0] = bad
    elif what == "asymmetric":    # value: the asymmetry relative to max(1, max |cov|)
        cov = 1e3 * cov
        cov[0, 1] += float(value) * 1e3 * 2.0
    return mean, cov


MOMENT_CASES = [f"{what} {value}" for what in ("mean", "diagonal", "off-diagonal", "one-side")
                for value in ("nan", "inf", "-inf")] + [
    "asymmetric 2e-12", "asymmetric 1.1e-12", "asymmetric 0.9e-12", "asymmetric 0", "valid"]


class TestStackCheck:
    """``_check_moments`` rejects, with the same ContractError, exactly the
    means and covariances that ``GaussianDensity`` rejects, and in a stack it
    raises the error of the first density that fails."""

    @staticmethod
    def error_of(build):
        try:
            build()
        except ContractError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("case", MOMENT_CASES)
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_same_verdict_as_gaussian_density(self, case, row):
        mean, cov = _bad_moments(case)
        want = self.error_of(lambda: GaussianDensity(mean, cov))
        assert (want is None) == (case.endswith(("0.9e-12", " 0")) or case == "valid")
        means = np.zeros((3, 2))
        covs = np.stack([np.eye(2)] * 3)
        means[row], covs[row] = mean, cov
        assert self.error_of(lambda: density._check_moments(means, covs)) == want

    def test_first_failing_density_sets_the_error(self):
        means, covs = np.zeros((3, 2)), np.stack([np.eye(2)] * 3)
        covs[1, 0, 1] = 1e-6
        means[2, 0] = np.nan
        with pytest.raises(ContractError, match="not symmetric"):
            density._check_moments(means, covs)
        with pytest.raises(ContractError, match="mean must be finite"):
            density._check_moments(means[::-1], covs[::-1])

    def test_a_stacked_build_with_an_infinite_mean(self):
        shifts = np.array([[0.0, 1.0], [np.inf, 0.0]])
        with np.errstate(invalid="ignore"):    # inf * 0 in cov @ shift
            with pytest.raises(ContractError, match="mean must be finite"):
                density._from_tested_info(np.eye(2), shifts[1])
            with pytest.raises(ContractError, match="mean must be finite"):
                density._from_tested_infos(np.stack([np.eye(2)] * 2), shifts)


class TestNonFinite:
    """numpy's Cholesky returns a NaN or infinite factor, without raising, for
    a matrix that holds NaN or +-inf; no such matrix passes a Cholesky test."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal", "one side"])
    def test_density_rejects_a_non_finite_covariance(self, bad, where):
        cov = np.eye(2)
        if where == "diagonal":
            cov[0, 0] = bad
        else:
            cov[1, 0] = bad
            if where == "off-diagonal":
                cov[0, 1] = bad
        with pytest.raises(ContractError, match="covariance must be finite"):
            GaussianDensity(np.zeros(2), cov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_density_rejects_a_non_finite_mean(self, bad):
        with pytest.raises(ContractError, match="mean must be finite"):
            GaussianDensity(np.array([0.0, bad]), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_spd_cholesky_raises(self, bad):
        with pytest.raises(ContractError, match="not positive-definite"):
            spd_cholesky(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ContractError, match="not positive-definite"):
            spd_cholesky(np.array([[1.0, bad], [bad, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_from_info_raises(self, bad):
        with pytest.raises(FusionDegenerateError):
            from_info(np.array([[bad, 0.0], [0.0, 1.0]]), np.zeros(2))

    def test_a_tested_precision_that_cannot_be_inverted(self):
        """This precision (eigenvalues 1 and ~1e-17) has a Cholesky factor,
        but the LU inside ``np.linalg.inv`` meets an exact zero pivot: the
        fusion path raises FusionDegenerateError and the Laplace path
        SingularModelError, not numpy's LinAlgError."""
        precision = np.array([[0.8768303134637059, -0.3286318835031764],
                              [-0.3286318835031764, 0.12316968653629429]])
        assert np.linalg.cholesky(precision).shape == (2, 2)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(precision)
        with pytest.raises(FusionDegenerateError, match="singular"):
            from_info(precision, np.zeros(2))
        with pytest.raises(SingularModelError, match="singular"):
            density._from_tested_infos(np.stack([np.eye(2), precision]), np.zeros((2, 2)))


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
    weights = draw(st.sampled_from(["none", "equal", "some 0", "all 0"]))
    b = {"none": None, "equal": np.full(n, 1.0 / n), "some 0": rng.uniform(0.0, 2.0, n),
         "all 0": np.zeros(n)}[weights]
    if weights == "some 0":
        b[rng.integers(0, n, size=int(rng.integers(1, n + 1)))] = 0.0
    return a, b


class TestLogsumexp:
    """The numpy logsumexp must give scipy's bits, so that the weights,
    held-out likelihoods and sampled association weights do not move."""

    @given(inputs=logsumexp_inputs())
    def test_matches_scipy_bit_for_bit(self, inputs):
        a, b = inputs
        if b is not None and not np.any(b):
            # an empty sum; scipy gives NaN here when some exp(a) overflows
            assert logsumexp(a, b) == -np.inf
            return
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
        assert np.array_equal(got, want)
        if b is not None:
            empty = ~np.any(np.broadcast_to(b, a.shape), axis=1)
            assert np.all(got[empty] == -np.inf)
