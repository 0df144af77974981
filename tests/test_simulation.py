from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayescfl import (ConfigError, ContractError, GaussianDensity, LocalModelSpec,
                      RoundConfig, SkewConfig, WeightEstimator, gen_scenario,
                      initialize, posterior_update, run_training, simulation, warm_up)
from bayescfl.cli import cli_run
from bayescfl.config import plan_from_dict
from bayescfl.reports import trajectories
from helpers import (gaussian_mean_dataset, uncached_client_log_weights,
                     uncached_update_posteriors)

REPO = Path(__file__).resolve().parents[1]
GM2 = LocalModelSpec("gaussian-mean", feature_dim=2, noise_variance=1.0)


def scenario(groups=2, cpg=2, n=15, sep=10.0, seed=3, T=3, **kw):
    cfg = SkewConfig(scheme="feature-skew", groups=groups, clients_per_group=cpg,
                     samples_per_client_per_round=n, separation=sep, seed=seed, **kw)
    return cfg, gen_scenario(cfg, T)


def round_config(**kw):
    base = dict(K=2, C=4, T=3, m_max=2, mode="multi-hypothesis", model=GM2, seed=3)
    base.update(kw)
    return RoundConfig(**base)


class TestConfigValidation:
    def test_conceptual_guard(self):
        with pytest.raises(ContractError):
            RoundConfig(K=4, C=10, T=5, mode="conceptual", model=GM2)

    def test_unknown_mode(self):
        with pytest.raises(ContractError):
            round_config(mode="pruned")

    def test_estimator_validation(self):
        with pytest.raises(ContractError):
            WeightEstimator(kind="mode")

    @pytest.mark.parametrize("kw", [{"prune_log_gap": -1.0},
                                    {"prune_log_gap": float("nan")},
                                    {"warm_up_rounds": 3}])
    def test_out_of_range_values_name_their_key(self, kw):
        (key,) = kw
        with pytest.raises(ContractError, match=key):
            round_config(**kw)
        # the config file reaches the same check, and exits 1
        with pytest.raises(ConfigError, match=key):
            plan_from_dict({"K": 2, "T": 1, "groups": 2, "clients_per_group": 1,
                            "scheme": "feature-skew", **kw})


class TestInitialize:
    def test_distinct_seeded_means(self):
        state = initialize(round_config(K=3, C=4))
        means = [h for h in state.hypothesis_set.hypotheses[0].cluster_posteriors]
        assert len({tuple(m.mean) for m in means}) == 3

    def test_same_seed_identical(self):
        a = initialize(round_config())
        b = initialize(round_config())
        for pa, pb in zip(a.hypothesis_set.hypotheses[0].cluster_posteriors,
                          b.hypothesis_set.hypotheses[0].cluster_posteriors):
            assert np.array_equal(pa.mean, pb.mean)

    def test_root_weight_is_one(self):
        state = initialize(round_config())
        np.testing.assert_allclose(state.hypothesis_set.normalized_weights, [1.0])

    def test_prior_scale(self):
        state = initialize(round_config())
        for prior in state.hypothesis_set.hypotheses[0].cluster_posteriors:
            np.testing.assert_allclose(prior.covariance, 10.0 * np.eye(2))

    def test_priors_match_one_draw_per_cluster_on_one_factor(self):
        # one (K, dim) draw gives the bits of K draws of dim, and the priors
        # share one factor that equals each covariance's own Cholesky factor
        model = LocalModelSpec("gaussian-mean", feature_dim=3, noise_variance=1.0)
        cfg = round_config(K=5, model=model, prior_sigma2=2.5, seed=11)
        priors = initialize(cfg).hypothesis_set.hypotheses[0].cluster_posteriors
        rng = simulation._rng(cfg.seed, simulation._INIT)
        scale = simulation.MEAN_PERTURB_SCALE * float(np.sqrt(2.5))
        for prior in priors:
            want = GaussianDensity(scale * rng.standard_normal(3), 2.5 * np.eye(3))
            assert np.array_equal(prior.mean, want.mean)
            assert np.array_equal(prior.covariance, want.covariance)
            assert np.array_equal(prior.chol, want.chol)
            assert prior.chol is priors[0].chol


class TestDeterminismAndSchedule:
    def test_repeat_runs_identical(self):
        _, scen = scenario()
        cfg = round_config()
        a = run_training(cfg, scen.rounds)
        b = run_training(cfg, scen.rounds)
        assert a == b

    def test_sampled_estimator_deterministic(self):
        _, scen = scenario()
        cfg = round_config(weight_estimator=WeightEstimator("sampled", n_samples=32))
        a = run_training(cfg, scen.rounds)
        b = run_training(cfg, scen.rounds)
        assert a == b


class TestModeHierarchy:
    def test_m1_modes_agree_with_greedy(self):
        _, scen = scenario(T=4)
        trajs = {}
        for mode in ("greedy", "consensus", "multi-hypothesis"):
            cfg = round_config(mode=mode, m_max=1, T=4)
            reps = run_training(cfg, scen.rounds)
            trajs[mode] = [rep.assignments for rep in reps]
        assert trajs["greedy"] == trajs["consensus"] == trajs["multi-hypothesis"]

    def test_consensus_collapses_state_but_reports_m(self):
        _, scen = scenario(T=2)
        cfg = round_config(mode="consensus", m_max=2, T=2)
        reps, state = run_training(cfg, scen.rounds, return_state=True)
        assert len(state.hypothesis_set) == 1
        assert all(len(rep.assignments) <= 2 for rep in reps)


class TestConceptualOracle:
    def test_full_width_mh_matches_conceptual(self):
        _, scen = scenario(groups=2, cpg=1, T=2, n=8)
        conc = run_training(round_config(K=2, C=2, T=2, mode="conceptual"),
                            scen.rounds)
        mh = run_training(round_config(K=2, C=2, T=2, mode="multi-hypothesis",
                                       m_max=64), scen.rounds)
        assert len(conc[-1].assignments) == 16
        tr_a, tr_b = trajectories(conc), trajectories(mh)
        for rep_a, rep_b, ta, tb in zip(conc, mh, tr_a, tr_b):
            ka = sorted(ta, key=ta.get)
            kb = sorted(tb, key=tb.get)
            assert [ta[i] for i in ka] == [tb[i] for i in kb]
            for ia, ib in zip(ka, kb):
                assert abs(rep_a.weights[ia] - rep_b.weights[ib]) < 1e-9
                np.testing.assert_allclose(rep_a.cluster_means[ia],
                                           rep_b.cluster_means[ib], atol=1e-9)


class TestSingleClusterEqualsPooledBayes:
    def test_k1_prior_corrected_matches_joint_update(self):
        cfg_data, scen = scenario(groups=1, cpg=4, T=3)
        cfg = round_config(K=1, C=4, T=3, mode="greedy", m_max=1)
        reps, state = run_training(cfg, scen.rounds, return_state=True)
        assert all(len(rep.assignments) == 1 for rep in reps)

        prior = initialize(cfg).hypothesis_set.hypotheses[0].cluster_posteriors[0]
        all_feats = np.vstack([d.features for row in scen.rounds for d in row])
        joint = posterior_update(prior, gaussian_mean_dataset(all_feats), GM2)
        got = state.hypothesis_set.hypotheses[0].cluster_posteriors[0]
        np.testing.assert_allclose(got.mean, joint.mean, atol=1e-9)
        np.testing.assert_allclose(got.covariance, joint.covariance, atol=1e-9)


class TestCommLedger:
    @pytest.mark.parametrize("mode,weights_per_round", [
        ("greedy", 0),
        ("consensus", 2 * 4),
        ("multi-hypothesis", 2 * 4 * 3),
    ])
    def test_weight_counters(self, mode, weights_per_round):
        _, scen = scenario(T=3)
        cfg = round_config(mode=mode, m_max=3, T=3)
        reps = run_training(cfg, scen.rounds)
        for t, rep in enumerate(reps, start=1):
            assert rep.comm["weights_sent"] == t * weights_per_round
            assert rep.comm["rounds_logged"] == t

    def test_param_counters_monotone(self):
        _, scen = scenario(T=3)
        reps = run_training(round_config(T=3), scen.rounds)
        sent = [rep.comm["model_params_sent"] for rep in reps]
        assert sent == sorted(sent) and sent[0] > 0


class TestWarmUp:
    def test_identical_clients_give_identical_priors(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((30, 2))
        clients = [gaussian_mean_dataset(feats, client_id=j) for j in range(4)]
        cfg = round_config(K=3, C=4, warm_up_rounds=1)
        warmed = warm_up(clients, cfg)
        assert len(warmed) == 3
        base = warmed[0].mean
        for g in warmed[1:]:
            np.testing.assert_allclose(g.mean, base, atol=1e-6)

    def test_two_separated_groups_recovered(self):
        cfg_data, scen = scenario(groups=2, cpg=3, n=40, sep=10.0, T=1)
        cfg = round_config(K=2, C=6, warm_up_rounds=1)
        warmed = warm_up(list(scen.rounds[0]), cfg)
        found = np.stack([g.mean for g in warmed])
        truth = scen.group_params
        # each warmed prior lands within one noise sigma of one true parameter
        for p in truth:
            assert np.min(np.linalg.norm(found - p, axis=1)) < 1.0

    def test_disabled_warm_up_not_invoked(self):
        cfg = round_config(warm_up_rounds=0)
        with pytest.raises(ContractError):
            warm_up([], cfg)

    def test_training_with_warm_up_runs(self):
        _, scen = scenario(T=2)
        cfg = round_config(warm_up_rounds=1, T=2)
        reps = run_training(cfg, scen.rounds)
        assert len(reps) == 2

    def test_empty_group_keeps_its_initialize_prior(self):
        _, scen = scenario(groups=1, cpg=2, T=1)
        cfg = round_config(K=3, C=2, T=1, warm_up_rounds=1)
        warmed = warm_up(list(scen.rounds[0]), cfg)
        assert sum(g is None for g in warmed) == 1
        starts = []
        run_round = simulation.run_round

        def first_state(server, *args, **kwargs):
            starts.append(server.hypothesis_set.hypotheses[0].cluster_posteriors)
            return run_round(server, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "run_round", first_state)
            run_training(cfg, scen.rounds)
        fallback = initialize(cfg).hypothesis_set.hypotheses[0].cluster_posteriors
        for got, w, prior in zip(starts[0], warmed, fallback, strict=True):
            want = prior if w is None else w
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.covariance, want.covariance)

    def test_one_initialize_per_run(self, monkeypatch, tmp_path):
        calls = []
        initialize_ = simulation.initialize

        def counted(cfg):
            calls.append(cfg)
            return initialize_(cfg)

        monkeypatch.setattr(simulation, "initialize", counted)
        assert cli_run(["run", "--config", str(REPO / "configs" / "demo.json"),
                        "--out", str(tmp_path)]) == 0
        assert len(calls) == 1


class TestGreedyDecision:
    def test_greedy_matches_per_client_argmax(self):
        from bayescfl import assoc_log_weight_at_mean, run_round
        _, scen = scenario(T=1)
        cfg = round_config(mode="greedy", m_max=1, T=1)
        state = initialize(cfg)
        clusters = state.hypothesis_set.hypotheses[0].cluster_posteriors
        clients = list(scen.rounds[0])
        want = tuple(
            int(np.argmax(assoc_log_weight_at_mean(clusters, [d], GM2)[0]))
            for d in clients)
        _, rep = run_round(state, clients, cfg)
        assert rep.assignments == (want,)


class TestAssociationInvariants:
    def test_every_client_assigned_each_round(self):
        _, scen = scenario(T=3)
        for mode in ("greedy", "consensus", "multi-hypothesis"):
            reps = run_training(round_config(mode=mode, m_max=2, T=3), scen.rounds)
            for rep in reps:
                for labels in rep.assignments:
                    assert len(labels) == 4
                    assert all(0 <= v < 2 for v in labels)

    def test_accuracy_metric_present_and_high_on_easy_scenario(self):
        _, scen = scenario(groups=2, cpg=2, sep=10.0, T=3)
        reps = run_training(round_config(T=3), scen.rounds)
        assert reps[-1].metrics["association_accuracy"] >= 0.95

    def test_rmse_metric_when_truth_given(self):
        _, scen = scenario(T=2)
        reps = run_training(round_config(T=2), scen.rounds,
                            true_params=scen.group_params)
        assert "parameter_rmse" in reps[0].metrics

    def test_naive_product_fusion_runs_and_differs(self):
        _, scen = scenario(T=2)
        corrected, s_a = run_training(round_config(T=2), scen.rounds,
                                      return_state=True)
        naive, s_b = run_training(round_config(T=2, fusion_mode="naive-product"),
                                  scen.rounds, return_state=True)
        assert len(naive) == 2
        cov_a = s_a.hypothesis_set.hypotheses[0].cluster_posteriors[0].covariance
        cov_b = s_b.hypothesis_set.hypotheses[0].cluster_posteriors[0].covariance
        # the naive product over-counts the per-round prior, tightening covariance
        assert np.all(np.diag(cov_b) <= np.diag(cov_a) + 1e-15)


@st.composite
def tiny_plans(draw):
    kind = draw(st.sampled_from(["gaussian-mean", "bayes-linear", "laplace-logistic"]))
    mode = draw(st.sampled_from(["multi-hypothesis", "consensus", "conceptual"]))
    groups, cpg = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    raw = {
        "mode": mode,
        # at least two clusters, rounds and survivors, so parents can share
        "K": draw(st.integers(2, 2 if mode == "conceptual" else 3)),
        "T": draw(st.integers(2, 2 if mode == "conceptual" else 3)),
        "m_max": draw(st.integers(2, 6)),
        "fusion_mode": draw(st.sampled_from(["naive-product", "prior-corrected"])),
        "weight_estimator": draw(st.sampled_from(["at-mean", "sampled"])),
        "weight_samples": 4,
        "warm_up_rounds": draw(st.integers(0, 1)),
        "seed": draw(st.integers(0, 2**31)),
        "groups": groups,
        "clients_per_group": cpg,
        "samples_per_round": draw(st.integers(1, 6)),
        "separation": draw(st.sampled_from([0.5, 2.0, 10.0])),
        "fresh_each_round": draw(st.booleans()),
        "model_kind": kind,
        "scheme": "label-skew" if kind == "laplace-logistic" else "feature-skew",
        "label_count": 2,
        "test_samples": 1,
    }
    return plan_from_dict(raw)


def _run(plan):
    scen = gen_scenario(plan.skew_config, plan.round_config.T)
    return run_training(plan.round_config, scen.rounds,
                        true_params=scen.group_params, return_state=True)


class TestPhaseReuse:
    """Each round computes every distinct local update, fusion and at-mean
    weight once; the results must equal the per-hypothesis loops bit for bit."""

    @given(plan=tiny_plans())
    def test_matches_uncached_loops(self, plan):
        reports, state = _run(plan)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "_client_log_weights", uncached_client_log_weights)
            mp.setattr(simulation, "_update_posteriors", uncached_update_posteriors)
            ref_reports, ref_state = _run(plan)
        assert reports == ref_reports
        for hyp, ref in zip(state.hypothesis_set.hypotheses,
                            ref_state.hypothesis_set.hypotheses, strict=True):
            for got, want in zip(hyp.cluster_posteriors, ref.cluster_posteriors,
                                 strict=True):
                assert np.array_equal(got.mean, want.mean)
                assert np.array_equal(got.covariance, want.covariance)

    @staticmethod
    def _record(monkeypatch, name, key):
        """Wrap simulation.<name>; log key(args) per call under the current
        round, keeping the arguments alive so that no id is reused."""
        calls, current = [], [None]
        run_round, fn = simulation.run_round, getattr(simulation, name)

        def tagged_round(server, *args, **kwargs):
            current[0] = server.hypothesis_set.round
            return run_round(server, *args, **kwargs)

        def wrapper(*args, **kwargs):
            calls.append((current[0], key(*args), args))
            return fn(*args, **kwargs)

        monkeypatch.setattr(simulation, "run_round", tagged_round)
        monkeypatch.setattr(simulation, name, wrapper)
        return calls

    def test_one_update_per_distinct_posterior_and_client(self, monkeypatch):
        _, scen = scenario(groups=3, cpg=2, sep=1.0, T=3)
        cfg = round_config(K=3, C=6, m_max=6)
        calls = self._record(monkeypatch, "posterior_update",
                             lambda prior, data, spec: (id(prior), id(data)))
        run_training(cfg, scen.rounds)
        keys = [(t, key) for t, key, _ in calls]
        assert len(keys) == len(set(keys))
        monkeypatch.setattr(simulation, "_update_posteriors", uncached_update_posteriors)
        calls.clear()
        run_training(cfg, scen.rounds)
        assert len(calls) > len(keys)    # siblings repeat work without the memo

    def test_one_at_mean_weight_per_distinct_posterior_and_client(self, monkeypatch):
        """One at-mean call per round, over all the round's clients in order
        and exactly the round's distinct cluster posteriors, each passed
        once."""
        _, scen = scenario(groups=3, cpg=2, sep=1.0, T=3)
        cfg = round_config(K=3, C=6, m_max=6)
        parents, distinct = [], []
        run_round = simulation.run_round

        def counted_round(server, *args, **kwargs):
            hyps = server.hypothesis_set.hypotheses
            parents.append(len(hyps))
            distinct.append({id(c) for h in hyps for c in h.cluster_posteriors})
            return run_round(server, *args, **kwargs)

        monkeypatch.setattr(simulation, "run_round", counted_round)
        calls = self._record(monkeypatch, "assoc_log_weight_at_mean",
                             lambda clusters, clients, spec:
                             (tuple(id(c) for c in clusters), tuple(id(d) for d in clients)))
        run_training(cfg, scen.rounds)
        assert [r for r, _, _ in calls] == list(range(cfg.T))
        for (_, (clusters, clients), _), ids, data in zip(calls, distinct, scen.rounds,
                                                          strict=True):
            assert clients == tuple(id(d) for d in data)
            assert len(clusters) == len(ids) and set(clusters) == ids
        assert sum(map(len, distinct)) < sum(parents) * cfg.K    # some posteriors were shared

    def test_sampled_weights_keep_one_stream_each(self, monkeypatch):
        _, scen = scenario(groups=3, cpg=2, sep=1.0, T=3)
        cfg = round_config(K=3, C=6, m_max=6,
                           weight_estimator=WeightEstimator("sampled", n_samples=8))
        parents = []
        run_round = simulation.run_round

        def counted_round(server, *args, **kwargs):
            parents.append(len(server.hypothesis_set))
            return run_round(server, *args, **kwargs)

        monkeypatch.setattr(simulation, "run_round", counted_round)
        calls = self._record(monkeypatch, "assoc_log_weight_sampled",
                             lambda clusters, data, spec, n, seeds: seeds)
        run_training(cfg, scen.rounds)
        assert max(parents) > 1
        assert len(calls) == cfg.T * cfg.C    # one call per client per round
        seeds = [seed for _, call_seeds, _ in calls for seed in call_seeds]
        assert len(seeds) == sum(parents) * cfg.C * cfg.K
        assert len(set(seeds)) == len(seeds)
