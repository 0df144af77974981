import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bayescfl import (ContractError, CostMatrix, DegenerateHypothesisSetError,
                      GaussianDensity, HypothesisSet, best_assignment,
                      consensus_merge, expand, prune_top_m, select_greedy)
from bayescfl.hypotheses import Candidates, materialize, root_set, softmax_weights
from bayescfl.reports import report_from_set

COSTS_3X2 = np.array([[5.0, 8.0], [8.0, 2.0], [4.0, 8.0]])


def density(mean, var=1.0):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return GaussianDensity(mean, var * np.eye(len(mean)))


def hypothesis_set(round_, labels, log_weights, weights, cluster_posteriors):
    """A set of one row per hypothesis, every one a child of row 0, each with
    its own posterior objects."""
    m, k = len(log_weights), len(cluster_posteriors[0])
    return HypothesisSet(round_, np.array(labels).reshape(m, -1), np.zeros(m, dtype=int),
                         np.array(log_weights, dtype=float), weights,
                         np.arange(m * k).reshape(m, k),
                         tuple(p for posts in cluster_posteriors for p in posts))


def make_set(log_weights, k=2, round_=1, c=3):
    finite = np.array([lw if np.isfinite(lw) else 0.0 for lw in log_weights])
    w = np.exp(finite - finite.max())
    return hypothesis_set(round_, [(0,) * c] * len(log_weights), log_weights, w / w.sum(),
                          [tuple(density([float(j)]) for j in range(k))
                           for _ in log_weights])


def normalized(hset):
    """The set with its weights recomputed from its stored log-weights."""
    return dataclasses.replace(hset, normalized_weights=softmax_weights(hset.log_weights))


def candidates(rows):
    """Candidates from (parent, labels, log-weight) rows."""
    parents, labels, log_weights = zip(*rows)
    return Candidates(np.array(parents), np.array(labels), np.array(log_weights))


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
        assert tuple(cands.labels[0]) == best.labels
        np.testing.assert_allclose(cands.log_weights[0], -cost)

    def test_heavier_parent_dominates(self):
        parents = dataclasses.replace(make_set([np.log(0.9), np.log(0.1)]),
                                      normalized_weights=np.array([0.9, 0.1]))
        mats = [-COSTS_3X2, -COSTS_3X2]
        cands = expand(parents, mats, 1)
        assert cands.parents[0] == 0

    # Drawn cases: 1-4 parents of equal weight and integer log-weights, so
    # exact ties occur within and across parents; the example is random
    # normal log-weights under unequal parent weights.
    @given(case=st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(np.full(n, 1.0 / n)),
        st.lists(st.lists(st.lists(st.integers(-2, 0).map(float), min_size=2, max_size=2),
                          min_size=2, max_size=2), min_size=n, max_size=n)
        .map(lambda mats: [np.array(mat) for mat in mats]))))
    @example(case=(np.array([0.6, 0.4]),
                   [np.random.default_rng(4).standard_normal((2, 2)) for _ in range(2)]))
    def test_matches_brute_force_over_children(self, case):
        weights, mats = case
        parents = dataclasses.replace(make_set([0.0] * len(mats), c=2),
                                      normalized_weights=weights)
        cands = expand(parents, mats, 16)

        want = []
        for p, mat in enumerate(mats):
            for labels in itertools.product(range(2), repeat=2):
                score = float(np.log(parents.normalized_weights[p])) + \
                    sum(mat[j, lab] for j, lab in enumerate(labels))
                want.append((p, labels, score))
        want.sort(key=lambda x: (-x[2], x[0], x[1]))
        got = list(zip(cands.parents.tolist(), map(tuple, cands.labels.tolist()),
                       cands.log_weights.tolist()))
        assert len(got) == min(16, len(want))
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
        parents = dataclasses.replace(make_set([0.3, -1.2], c=4),
                                      normalized_weights=np.array([0.7, 0.3]))
        mats = [rng.standard_normal((4, 2)) for _ in range(2)]
        cands = expand(parents, mats, 8)
        for p, labels, log_weight in zip(cands.parents, cands.labels, cands.log_weights):
            score = sum(mats[p][j, lab] for j, lab in enumerate(labels))
            expected = np.log(parents.normalized_weights[p]) + score
            assert abs(log_weight - expected) < 1e-12

    def test_prune_log_gap_filters(self):
        parents = root_set([density([0.0]), density([1.0])])
        mat = np.array([[0.0, -50.0]])
        cands = expand(parents, [mat], 4, prune_log_gap=10.0)
        assert cands.labels.tolist() == [[0]]


class TestSelection:
    def test_greedy_keeps_one_with_weight_one(self):
        parents = root_set([density([0.0]), density([1.0])])
        cands = expand(parents, [-COSTS_3X2], 8)
        hset = select_greedy(cands, parents)
        assert len(hset) == 1
        assert hset.labels.tolist() == [[0, 1, 0]]
        np.testing.assert_allclose(hset.normalized_weights, [1.0])

    def test_greedy_tie_break(self):
        # four children tie for best: (0, 0) and (0, 1) under either parent of
        # equal weight; the lower parent row and then the lower labels win
        parents = dataclasses.replace(make_set([0.0, 0.0], c=2),
                                      normalized_weights=np.array([0.5, 0.5]))
        mat = np.array([[0.0, -1.0], [-2.0, -2.0]])
        hset = select_greedy(expand(parents, [mat, mat], 1), parents)
        assert hset.parents.tolist() == [0]
        assert hset.labels.tolist() == [[0, 0]]

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
        assert np.array_equal(a.labels, b.labels)

    def test_prune_softmax_over_survivors(self):
        parents = root_set([density([0.0]), density([1.0])])
        scores = [-1.0, -2.0, -3.0, -4.0, -9.0, -10.0, -11.0, -12.0]
        cands = candidates([(0, (i % 2, i // 2 % 2, i // 4), s)
                            for i, s in enumerate(scores)])
        hset = prune_top_m(cands, parents, 3)
        kept = np.array(scores[:3])
        want = np.exp(kept - kept.max())
        want /= want.sum()
        np.testing.assert_allclose(hset.normalized_weights, want, atol=1e-12)

    def test_child_ids_and_parents(self):
        parents = root_set([density([0.0]), density([1.0])])
        cands = expand(parents, [-COSTS_3X2], 3)
        children = materialize(cands, parents)
        report = report_from_set(children, "multi-hypothesis")
        assert report.hypothesis_ids == ("1:0", "1:1", "1:2")
        assert report.parent_ids == ("0:0",) * 3
        assert children.round == report.round == 1


class TestConsensusMerge:
    def test_single_hypothesis_unchanged(self):
        hset = make_set([0.0])
        assert consensus_merge(hset) is hset

    def test_identical_posteriors_preserved(self):
        post = (density([1.0], 2.0), density([-1.0], 0.5))
        hset = normalized(hypothesis_set(1, [(0, 1)] * 2, [-float(i) for i in range(2)],
                                         np.array([0.5, 0.5]), [post] * 2))
        merged = consensus_merge(hset)
        assert len(merged) == 1
        for i in range(2):
            np.testing.assert_allclose(
                merged.posteriors[merged.handles[0, i]].mean, post[i].mean,
                atol=1e-12)
            np.testing.assert_allclose(
                merged.posteriors[merged.handles[0, i]].covariance,
                post[i].covariance, atol=1e-12)

    def test_two_hypothesis_spread(self):
        posts = [(density([-1.0]), density([5.0])),
                 (density([1.0]), density([5.0]))]
        hset = hypothesis_set(1, [(0,)] * 2, [0.0] * 2, np.array([0.5, 0.5]), posts)
        merged = consensus_merge(hset)
        c0 = merged.posteriors[merged.handles[0, 0]]
        np.testing.assert_allclose(c0.mean, [0.0], atol=1e-12)
        np.testing.assert_allclose(c0.covariance, [[2.0]], atol=1e-12)

    def test_moment_preservation_per_cluster(self):
        rng = np.random.default_rng(19)
        k, m = 3, 4
        posts = [tuple(density(rng.standard_normal(2), float(rng.uniform(0.5, 2)))
                       for _ in range(k)) for _ in range(m)]
        hset = normalized(hypothesis_set(1, [(0, 1)] * m,
                                         [float(rng.normal()) for _ in range(m)],
                                         np.full(m, 1.0 / m), posts))
        merged = consensus_merge(hset)
        w = hset.normalized_weights
        for i in range(k):
            mean = sum(wi * p[i].mean for wi, p in zip(w, posts))
            second = sum(wi * (p[i].covariance + np.outer(p[i].mean, p[i].mean))
                         for wi, p in zip(w, posts))
            got = merged.posteriors[merged.handles[0, i]]
            np.testing.assert_allclose(got.mean, mean, atol=1e-10)
            np.testing.assert_allclose(
                got.covariance + np.outer(got.mean, got.mean), second, atol=1e-10)
