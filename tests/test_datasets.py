import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bayescfl import (ClientDataset, ContractError, SkewConfig, gen_feature_skew,
                      gen_label_skew)
from bayescfl import datasets
from bayescfl.datasets import (_draw_labels, _label_cdfs, draw_client_distributions,
                               gen_heldout, gen_scenario, label_skew_distributions,
                               separated_centers)
from helpers import reference_heldout, reference_scenario_rounds


def feature_cfg(**kw):
    base = dict(scheme="feature-skew", groups=5, clients_per_group=2,
                samples_per_client_per_round=10, separation=10.0, seed=1)
    base.update(kw)
    return SkewConfig(**base)


def label_cfg(**kw):
    base = dict(scheme="label-skew", groups=4, clients_per_group=10,
                samples_per_client_per_round=10, alpha_group=0.1,
                alpha_within=10.0, separation=2.0, label_count=10, seed=1)
    base.update(kw)
    return SkewConfig(**base)


def tv(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


class TestSeparatedCenters:
    @pytest.mark.parametrize("count,dim", [(2, 1), (5, 2), (10, 3), (4, 2)])
    def test_pairwise_distance(self, count, dim):
        rng = np.random.default_rng(0)
        pts = separated_centers(count, dim, 3.5, rng)
        for i in range(count):
            for j in range(i + 1, count):
                assert np.linalg.norm(pts[i] - pts[j]) >= 3.5 - 1e-9

    def test_seed_dependence(self):
        a = separated_centers(3, 2, 1.0, np.random.default_rng(1))
        b = separated_centers(3, 2, 1.0, np.random.default_rng(2))
        assert not np.allclose(a, b)


class TestSkewConfigValidation:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["noise_variance", "separation", "alpha_group",
                                       "alpha_within"])
    def test_non_finite_value_names_its_field(self, field, value):
        with pytest.raises(ContractError, match=f"{field} must be positive and finite"):
            label_cfg(**{field: value})


class TestFeatureSkew:
    def test_determinism(self):
        a = gen_feature_skew(feature_cfg(), 3)
        b = gen_feature_skew(feature_cfg(), 3)
        for ra, rb in zip(a.rounds, b.rounds):
            for da, db in zip(ra, rb):
                assert np.array_equal(da.features, db.features)
        assert np.array_equal(a.group_params, b.group_params)

    def test_layout_five_groups_two_clients(self):
        scen = gen_feature_skew(feature_cfg(), 2)
        assert len(scen.rounds) == 2 and len(scen.rounds[0]) == 10
        groups = [d.true_group for d in scen.rounds[0]]
        assert groups == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_true_group_constant_across_rounds(self):
        scen = gen_feature_skew(feature_cfg(), 4)
        for row in scen.rounds:
            assert [d.true_group for d in row] == [d.true_group
                                                   for d in scen.rounds[0]]

    def test_single_group_is_iid(self):
        scen = gen_feature_skew(feature_cfg(groups=1, clients_per_group=6), 1)
        assert all(d.true_group == 0 for d in scen.rounds[0])

    def test_between_group_separation(self):
        # empirical between-group mean distance stays near the configured 10 sigma
        hits = 0
        for seed in range(20):
            cfg = feature_cfg(seed=seed, samples_per_client_per_round=50)
            scen = gen_feature_skew(cfg, 1)
            means = []
            for g in range(cfg.groups):
                feats = np.vstack([d.features for d in scen.rounds[0]
                                   if d.true_group == g])
                means.append(feats.mean(axis=0))
            dmin = min(np.linalg.norm(means[i] - means[j])
                       for i in range(5) for j in range(i + 1, 5))
            hits += dmin >= 8.0
        assert hits == 20

    def test_bayes_linear_scheme(self):
        scen = gen_feature_skew(feature_cfg(model_kind="bayes-linear"), 1)
        d = scen.rounds[0][0]
        assert d.labels is not None and d.labels.dtype.kind == "f"

    def test_repeated_data_mode(self):
        scen = gen_feature_skew(feature_cfg(fresh_each_round=False), 3)
        for row in scen.rounds[1:]:
            for d0, dt in zip(scen.rounds[0], row):
                assert np.array_equal(d0.features, dt.features)

    def test_scheme_guard(self):
        with pytest.raises(ContractError):
            gen_label_skew(feature_cfg(), 1)


class TestLabelSkew:
    def test_layout_header(self):
        scen = gen_label_skew(label_cfg(), 1)
        assert len(scen.rounds[0]) == 40
        assert scen.group_label_dists.shape == (4, 10)
        groups = sorted({d.true_group for d in scen.rounds[0]})
        assert groups == [0, 1, 2, 3]

    def test_near_uniform_at_huge_alpha(self):
        cfg = label_cfg(alpha_group=1e6, groups=4)
        dists, _ = label_skew_distributions(cfg)
        for row in dists:
            assert tv(row, np.full(10, 0.1)) < 0.01

    def test_empirical_histogram_matches_distribution(self):
        cfg = label_cfg(clients_per_group=1, samples_per_client_per_round=100_000)
        scen = gen_label_skew(cfg, 1)
        for d in scen.rounds[0]:
            hist = np.bincount(d.labels, minlength=10) / d.n_samples
            assert tv(hist, scen.client_label_dists[d.client_id]) < 0.02

    def test_stage2_mean_converges_to_group_dist(self):
        rng = np.random.default_rng(5)
        group = rng.dirichlet(np.full(10, 0.1))
        draws = draw_client_distributions(group, 10.0, 10_000, rng)
        assert tv(draws.mean(axis=0), group) < 0.05

    def test_determinism(self):
        a = gen_label_skew(label_cfg(), 2)
        b = gen_label_skew(label_cfg(), 2)
        for ra, rb in zip(a.rounds, b.rounds):
            for da, db in zip(ra, rb):
                assert np.array_equal(da.features, db.features)
                assert np.array_equal(da.labels, db.labels)


class TestHeldout:
    def test_sizes_and_determinism(self):
        cfg = feature_cfg()
        a = gen_heldout(cfg, 17)
        b = gen_heldout(cfg, 17)
        assert len(a) == cfg.client_count
        assert all(d.n_samples == 17 for d in a)
        for da, db in zip(a, b):
            assert np.array_equal(da.features, db.features)

    def test_differs_from_training_rounds(self):
        cfg = feature_cfg()
        train = gen_feature_skew(cfg, 1)
        held = gen_heldout(cfg, cfg.samples_per_client_per_round)
        assert not np.array_equal(train.rounds[0][0].features, held[0].features)


class TestClientDatasetValidation:
    def test_rejects_nan(self):
        with pytest.raises(ContractError, match="client 3 round 4: features"):
            ClientDataset(client_id=3, round=4, features=[[0.0], [np.nan]], labels=None)
        with pytest.raises(ContractError, match="client 3 round 4: labels"):
            ClientDataset(client_id=3, round=4, features=[[0.0], [1.0]],
                          labels=[0.5, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ContractError, match="client 5 round 1: features"):
            ClientDataset(client_id=5, round=1, features=[[np.inf, 0.0]], labels=None)
        with pytest.raises(ContractError, match="client 5 round 1: labels"):
            ClientDataset(client_id=5, round=1, features=[[1.0, 0.0]], labels=[-np.inf])


def _generated_sets(cfg, T, n_heldout):
    scen = gen_scenario(cfg, T)
    return [*scen.rounds, gen_heldout(cfg, n_heldout)]


# a noise sigma of sqrt(2), not 1, so that rounding tells the orders of
# scaling and shifting apart
GENERATED_CFGS = {
    "label-skew": lambda **kw: label_cfg(clients_per_group=3, noise_variance=2.0, **kw),
    "feature-skew": lambda **kw: feature_cfg(noise_variance=2.0, **kw),
    "bayes-linear": lambda **kw: feature_cfg(model_kind="bayes-linear", feature_dim=3,
                                             noise_variance=2.0, **kw),
}


class TestGeneratorAgainstReference:
    """Every dataset's bytes, dtypes and ids equal those of the per-client
    generator (``rng.choice`` labels, ``ClientDataset(...)`` builds)."""

    @pytest.mark.parametrize("seed", [1, 7, 1000])
    @pytest.mark.parametrize("fresh", [True, False])
    @pytest.mark.parametrize("kind", sorted(GENERATED_CFGS))
    def test_scenario_and_heldout_bytes(self, kind, fresh, seed):
        cfg = GENERATED_CFGS[kind](seed=seed, fresh_each_round=fresh)
        got = _generated_sets(cfg, 3, 13)
        want = [*reference_scenario_rounds(cfg, 3), reference_heldout(cfg, 13)]
        assert len(got) == len(want)
        for row_got, row_want in zip(got, want):
            assert len(row_got) == len(row_want) == cfg.client_count
            for a, b in zip(row_got, row_want):
                assert (a.client_id, a.round, a.true_group) == (b.client_id, b.round,
                                                                b.true_group)
                assert a.features.dtype == b.features.dtype
                assert a.features.shape == b.features.shape
                assert a.features.tobytes() == b.features.tobytes()
                if b.labels is None:
                    assert a.labels is None
                else:
                    assert a.labels.dtype == b.labels.dtype
                    assert a.labels.tobytes() == b.labels.tobytes()

    @given(weights=st.lists(st.one_of(st.just(0.0),
                                      st.floats(1e-6, 1.0, allow_subnormal=False)),
                            min_size=2, max_size=10),
           zero_last=st.booleans(), n=st.integers(1, 300), seed=st.integers(0, 2**32))
    @example(weights=[0.3, 0.7, 0.0], zero_last=True, n=1, seed=0)
    @example(weights=[0.0, 1.0], zero_last=False, n=1, seed=5)
    def test_inverse_cdf_draw_is_choice(self, weights, zero_last, n, seed):
        p = np.array(weights)
        if zero_last:
            p[-1] = 0.0
        if not p.sum() > 0:
            p[0] = 1.0
        p /= p.sum()
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        want = a.choice(len(p), size=n, p=p)
        got = _draw_labels(b, _label_cdfs(p[None])[0], n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert b.standard_normal(4).tobytes() == a.standard_normal(4).tobytes()

    @given(keys=st.lists(st.one_of(st.integers(0, 2**32 + 1), st.integers(-2**70, 2**70)),
                         min_size=1, max_size=6))
    @example(keys=[0])
    @example(keys=[2**32, 0, 2**63 - 1, -1])
    def test_rng_is_the_seed_sequence_of_the_masked_keys(self, keys):
        want = np.random.default_rng(np.random.SeedSequence(
            [k & datasets._SEED_MASK for k in keys]))
        assert datasets._rng(*keys).bit_generator.state == want.bit_generator.state

    def test_label_cdfs_reject_bad_distributions(self):
        for bad in ([[0.5, 0.6]], [[1.5, -0.5]], [[np.nan, 1.0]]):
            with pytest.raises(ContractError, match="client label distributions"):
                _label_cdfs(np.array(bad))


class TestGeneratedDatasets:
    @pytest.mark.parametrize("fresh", [True, False])
    @pytest.mark.parametrize("kind", sorted(GENERATED_CFGS))
    def test_immutable_and_independent(self, kind, fresh):
        cfg = GENERATED_CFGS[kind](fresh_each_round=fresh)
        arrays = [arr for row in _generated_sets(cfg, 3, 7) for d in row
                  for arr in (d.features, d.labels) if arr is not None]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        for x, y in itertools.combinations(arrays, 2):
            assert not np.shares_memory(x, y)

    def test_non_finite_generated_features_raise(self, monkeypatch):
        with pytest.raises(ContractError, match="client 3 round 4: features"):
            datasets._generated(3, 4, np.array([[0.0], [np.inf]]), None, 0)
        with pytest.raises(ContractError, match="client 3 round 4: labels"):
            datasets._generated(3, 4, np.zeros((2, 1)), np.array([0.5, np.nan]), 0)
        # through generation: every class mean at +inf makes client 0's first
        # dataset non-finite
        monkeypatch.setattr(datasets, "_centers",
                            lambda cfg, count: np.full((count, cfg.feature_dim), np.inf))
        with pytest.raises(ContractError, match="client 0 round 0: features"):
            gen_label_skew(label_cfg(), 1)

    @pytest.mark.parametrize("kind", sorted(GENERATED_CFGS))
    def test_overflowing_separation_names_it(self, kind):
        cfg = GENERATED_CFGS[kind](separation=1.7e308)
        with pytest.raises(ContractError, match="separation"):
            gen_scenario(cfg, 1)
        with pytest.raises(ContractError, match="separation"):
            gen_heldout(cfg, 3)
