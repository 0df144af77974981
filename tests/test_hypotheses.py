import itertools

import numpy as np
import pytest

from bayescfl import (Assignment, ContractError, CostMatrix,
                      DegenerateHypothesisSetError, GaussianDensity,
                      Hypothesis, HypothesisSet, best_assignment,
                      consensus_merge, expand, prune_top_m, select_greedy)
from bayescfl.hypotheses import (Candidate, materialize, root_set,
                                 softmax_weights)

COSTS_3X2 = np.array([[5.0, 8.0], [8.0, 2.0], [4.0, 8.0]])


def density(mean, var=1.0):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return GaussianDensity(mean, var * np.eye(len(mean)))


def make_set(log_weights, k=2, round_=1, c=3):
    hyps = tuple(
        Hypothesis(id=(round_, i), parent_id=(round_ - 1, 0), round=round_,
                   assignment=Assignment((0,) * c), log_weight=lw,
                   cluster_posteriors=tuple(density([float(j)]) for j in range(k)))
        for i, lw in enumerate(log_weights))
    finite = np.array([lw if np.isfinite(lw) else 0.0 for lw in log_weights])
    w = np.exp(finite - finite.max())
    return HypothesisSet(hyps, w / w.sum())


def normalized(hset):
    """The set with its weights recomputed from its stored log-weights."""
    return HypothesisSet(hset.hypotheses,
                         softmax_weights([h.log_weight for h in hset.hypotheses]))


class TestNormalize:
    def test_single_hypothesis(self):
        np.testing.assert_allclose(softmax_weights([-3.0]), [1.0])

    def test_equal_log_weights(self):
        np.testing.assert_allclose(softmax_weights([-2.0, -2.0]), [0.5, 0.5])

    def test_softmax_by_hand(self):
        np.testing.assert_allclose(softmax_weights([0.0, np.log(3.0)]), [0.25, 0.75],
                                   atol=1e-12)

    def test_all_minus_inf(self):
        with pytest.raises(DegenerateHypothesisSetError):
            softmax_weights([-np.inf, -np.inf])


class TestExpand:
    def test_single_parent_m1_is_best_assignment(self):
        parents = root_set([density([0.0]), density([1.0])])
        cands = expand(parents, [-COSTS_3X2], 1)
        best, cost = best_assignment(CostMatrix(COSTS_3X2))
        assert len(cands) == 1
        assert cands[0].assignment == best
        np.testing.assert_allclose(cands[0].log_weight, -cost)

    def test_heavier_parent_dominates(self):
        hyps = make_set([np.log(0.9), np.log(0.1)]).hypotheses
        parents = HypothesisSet(hyps, np.array([0.9, 0.1]))
        mats = [-COSTS_3X2, -COSTS_3X2]
        cands = expand(parents, mats, 1)
        assert cands[0].parent_index == 0

    def test_matches_brute_force_over_children(self):
        rng = np.random.default_rng(4)
        parents = HypothesisSet(make_set([0.0, -0.5], c=2).hypotheses,
                                np.array([0.6, 0.4]))
        mats = [rng.standard_normal((2, 2)), rng.standard_normal((2, 2))]
        cands = expand(parents, mats, 16)

        want = []
        for p, mat in enumerate(mats):
            for labels in itertools.product(range(2), repeat=2):
                score = float(np.log(parents.normalized_weights[p])) + \
                    sum(mat[j, lab] for j, lab in enumerate(labels))
                want.append((p, labels, score))
        want.sort(key=lambda x: (-x[2], x[0], x[1]))
        got = [(c.parent_index, c.assignment.labels, c.log_weight) for c in cands]
        for (wp, wl, ws), (gp, gl, gs) in zip(want, got):
            assert (wp, wl) == (gp, gl)
            assert abs(ws - gs) < 1e-12

    def test_shape_mismatch(self):
        parents = root_set([density([0.0]), density([1.0])])
        with pytest.raises(ContractError):
            expand(parents, [np.zeros((3, 5))], 1)

    def test_weight_recursion_invariant(self):
        # child log-weight == log parent weight + its assignment score
        rng = np.random.default_rng(11)
        parents = HypothesisSet(make_set([0.3, -1.2], c=4).hypotheses,
                                np.array([0.7, 0.3]))
        mats = [rng.standard_normal((4, 2)) for _ in range(2)]
        for cand in expand(parents, mats, 8):
            score = sum(mats[cand.parent_index][j, lab]
                        for j, lab in enumerate(cand.assignment.labels))
            expected = np.log(parents.normalized_weights[cand.parent_index]) + score
            assert abs(cand.log_weight - expected) < 1e-12

    def test_prune_log_gap_filters(self):
        parents = root_set([density([0.0]), density([1.0])])
        mat = np.array([[0.0, -50.0]])
        cands = expand(parents, [mat], 4, prune_log_gap=10.0)
        assert [c.assignment.labels for c in cands] == [(0,)]


class TestSelection:
    def test_greedy_keeps_one_with_weight_one(self):
        parents = root_set([density([0.0]), density([1.0])])
        cands = expand(parents, [-COSTS_3X2], 8)
        hset = select_greedy(cands, parents)
        assert len(hset) == 1
        assert hset.hypotheses[0].assignment.labels == (0, 1, 0)
        np.testing.assert_allclose(hset.normalized_weights, [1.0])

    def test_greedy_tie_break(self):
        parents = root_set([density([0.0]), density([1.0])])
        cands = [Candidate(0, Assignment((1, 0)), -2.0),
                 Candidate(0, Assignment((0, 1)), -2.0)]
        hset = select_greedy(cands, parents)
        assert hset.hypotheses[0].assignment.labels == (0, 1)

    def test_prune_keeps_all_when_m_large(self):
        parents = root_set([density([0.0]), density([1.0])])
        cands = expand(parents, [-COSTS_3X2], 8)
        hset = prune_top_m(cands, parents, 100)
        assert len(hset) == 8
        assert abs(float(hset.normalized_weights.sum()) - 1.0) < 1e-9

    def test_prune_m1_matches_greedy(self):
        parents = root_set([density([0.0]), density([1.0])])
        cands = expand(parents, [-COSTS_3X2], 8)
        a = select_greedy(cands, parents)
        b = prune_top_m(cands, parents, 1)
        assert a.hypotheses[0].assignment == b.hypotheses[0].assignment

    def test_prune_softmax_over_survivors(self):
        parents = root_set([density([0.0]), density([1.0])])
        scores = [-1.0, -2.0, -3.0, -4.0, -9.0, -10.0, -11.0, -12.0]
        cands = [Candidate(0, Assignment((i % 2, i // 2 % 2, i // 4)), s)
                 for i, s in enumerate(scores)]
        hset = prune_top_m(cands, parents, 3)
        kept = np.array(scores[:3])
        want = np.exp(kept - kept.max())
        want /= want.sum()
        np.testing.assert_allclose(hset.normalized_weights, want, atol=1e-12)

    def test_child_ids_and_parents(self):
        parents = root_set([density([0.0]), density([1.0])])
        cands = expand(parents, [-COSTS_3X2], 3)
        children = materialize(cands, parents)
        assert [h.id for h in children] == [(1, 0), (1, 1), (1, 2)]
        assert all(h.parent_id == (0, 0) for h in children)
        assert all(h.round == 1 for h in children)


class TestConsensusMerge:
    def test_single_hypothesis_unchanged(self):
        hset = make_set([0.0])
        assert consensus_merge(hset) is hset

    def test_identical_posteriors_preserved(self):
        post = (density([1.0], 2.0), density([-1.0], 0.5))
        hyps = tuple(
            Hypothesis(id=(1, i), parent_id=(0, 0), round=1,
                       assignment=Assignment((0, 1)), log_weight=-float(i),
                       cluster_posteriors=post)
            for i in range(2))
        hset = normalized(HypothesisSet(hyps, np.array([0.5, 0.5])))
        merged = consensus_merge(hset)
        assert len(merged) == 1
        for i in range(2):
            np.testing.assert_allclose(
                merged.hypotheses[0].cluster_posteriors[i].mean, post[i].mean,
                atol=1e-12)
            np.testing.assert_allclose(
                merged.hypotheses[0].cluster_posteriors[i].covariance,
                post[i].covariance, atol=1e-12)

    def test_two_hypothesis_spread(self):
        posts = [(density([-1.0]), density([5.0])),
                 (density([1.0]), density([5.0]))]
        hyps = tuple(
            Hypothesis(id=(1, i), parent_id=(0, 0), round=1,
                       assignment=Assignment((0,)), log_weight=0.0,
                       cluster_posteriors=posts[i])
            for i in range(2))
        hset = HypothesisSet(hyps, np.array([0.5, 0.5]))
        merged = consensus_merge(hset)
        c0 = merged.hypotheses[0].cluster_posteriors[0]
        np.testing.assert_allclose(c0.mean, [0.0], atol=1e-12)
        np.testing.assert_allclose(c0.covariance, [[2.0]], atol=1e-12)

    def test_moment_preservation_per_cluster(self):
        rng = np.random.default_rng(19)
        k, m = 3, 4
        posts = [tuple(density(rng.standard_normal(2), float(rng.uniform(0.5, 2)))
                       for _ in range(k)) for _ in range(m)]
        hyps = tuple(
            Hypothesis(id=(1, i), parent_id=(0, 0), round=1,
                       assignment=Assignment((0, 1)),
                       log_weight=float(rng.normal()),
                       cluster_posteriors=posts[i])
            for i in range(m))
        hset = normalized(HypothesisSet(hyps, np.full(m, 1.0 / m)))
        merged = consensus_merge(hset)
        w = hset.normalized_weights
        for i in range(k):
            mean = sum(wi * p[i].mean for wi, p in zip(w, posts))
            second = sum(wi * (p[i].covariance + np.outer(p[i].mean, p[i].mean))
                         for wi, p in zip(w, posts))
            got = merged.hypotheses[0].cluster_posteriors[i]
            np.testing.assert_allclose(got.mean, mean, atol=1e-10)
            np.testing.assert_allclose(
                got.covariance + np.outer(got.mean, got.mean), second, atol=1e-10)
