import numpy as np
import pytest

from bayescfl import (ClientDataset, ContractError, SkewConfig, gen_feature_skew,
                      gen_label_skew)
from bayescfl.datasets import (draw_client_distributions, gen_heldout,
                               label_skew_distributions, separated_centers)


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
