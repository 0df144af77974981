import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bayescfl import (Assignment, ContractError, CostMatrix, best_assignment,
                      build_cost_matrix, count_hypotheses_constrained,
                      count_hypotheses_unconstrained, enumerate_assignments,
                      m_best_exact, m_best_heuristic)
from bayescfl.assignment import _total_cost
from helpers import brute_force_ranking, reference_m_best

COSTS_3X2 = CostMatrix(np.array([[5.0, 8.0], [8.0, 2.0], [4.0, 8.0]]))


class TestBuildCostMatrix:
    def test_zero_weights(self):
        out = build_cost_matrix(np.zeros((2, 3)))
        assert np.all(out.entries == 0.0)

    def test_log_half_everywhere(self):
        out = build_cost_matrix(np.full((2, 2), np.log(0.5)))
        np.testing.assert_allclose(out.entries, np.log(2.0))

    def test_rejects_nan(self):
        with pytest.raises(ContractError):
            build_cost_matrix(np.array([[0.0, np.nan]]))
        with pytest.raises(ContractError):
            build_cost_matrix(np.array([[0.0, -np.inf]]))


class TestBestAssignment:
    def test_worked_example(self):
        assignment, cost = best_assignment(COSTS_3X2)
        assert assignment.labels == (0, 1, 0)
        assert cost == 11.0

    def test_single_cluster(self):
        L = CostMatrix(np.array([[1.0], [2.0], [3.0]]))
        assignment, cost = best_assignment(L)
        assert assignment.labels == (0, 0, 0)
        assert cost == 6.0

    def test_tie_breaks_low_index(self):
        L = CostMatrix(np.array([[3.0, 3.0]]))
        assignment, _ = best_assignment(L)
        assert assignment.labels == (0,)

    def test_separability(self):
        rng = np.random.default_rng(2)
        entries = rng.standard_normal((5, 4))
        _, cost = best_assignment(CostMatrix(entries))
        assert cost == float(entries.min(axis=1).sum())

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(8)
        entries = rng.standard_normal((4, 3))
        base, _ = best_assignment(CostMatrix(entries))
        shifted = entries.copy()
        shifted[2] += 17.5
        again, _ = best_assignment(CostMatrix(shifted))
        assert base.labels == again.labels


class TestMBestExact:
    def test_worked_example_top_two(self):
        # brute force over all 8 assignments: 11 (0,1,0), then 14 (1,1,0)
        ranked = m_best_exact(COSTS_3X2, 2)
        assert ranked[0][0].labels == (0, 1, 0) and ranked[0][1] == 11.0
        assert ranked[1][0].labels == (1, 1, 0) and ranked[1][1] == 14.0

    def test_exhaustive_when_m_large(self):
        ranked = m_best_exact(COSTS_3X2, 1000)
        assert len(ranked) == 2**3

    def test_single_client(self):
        L = CostMatrix(np.array([[3.0, 1.0, 2.0]]))
        ranked = m_best_exact(L, 3)
        assert [a.labels for a, _ in ranked] == [(1,), (2,), (0,)]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        C = int(rng.integers(1, 7))
        K = int(rng.integers(1, 5))
        entries = np.round(rng.standard_normal((C, K)) * 4, 2)
        ranked = m_best_exact(CostMatrix(entries), K**C)
        want = brute_force_ranking(entries)
        assert [a.labels for a, _ in ranked] == [lbl for lbl, _ in want]
        np.testing.assert_allclose([c for _, c in ranked], [c for _, c in want],
                                   atol=1e-12)

    def test_costs_nondecreasing(self):
        rng = np.random.default_rng(33)
        ranked = m_best_exact(CostMatrix(rng.standard_normal((5, 3))), 50)
        costs = [c for _, c in ranked]
        assert all(a <= b for a, b in zip(costs, costs[1:]))

    def test_cost_equals_entry_sum(self):
        rng = np.random.default_rng(34)
        entries = rng.standard_normal((4, 4))
        for a, cost in m_best_exact(CostMatrix(entries), 30):
            direct = float(entries[np.arange(4), list(a.labels)].sum())
            assert abs(cost - direct) <= 1e-12


def _random_costs(rng, C, K, kind):
    if kind == "integer-ties":
        return rng.integers(0, 4, (C, K)).astype(float)
    if kind == "mixed-scales":
        return rng.standard_normal((C, K)) * 10.0 ** rng.uniform(-3, 3, (C, 1))
    # integer ties at a scale that makes the sums inexact
    return rng.integers(0, 5, (C, K)) * 10.0 ** rng.uniform(-3, 3)


def _labelled(ranked):
    return [(a.labels, c) for a, c in ranked]


class TestMBestAgainstReference:
    """The sparse-diff ranking against the full-rank-vector best-first search."""

    @pytest.mark.parametrize("seed", range(45))
    def test_random_matrices(self, seed):
        rng = np.random.default_rng(1000 + seed)
        kind = ("integer-ties", "mixed-scales", "scaled-ties")[seed % 3]
        C, K = int(rng.integers(1, 31)), int(rng.integers(1, 7))
        L = CostMatrix(_random_costs(rng, C, K, kind))
        M = int(rng.integers(1, 200))
        assert _labelled(m_best_exact(L, M)) == reference_m_best(L, M)

    @pytest.mark.parametrize("kind", ["integer-ties", "mixed-scales", "scaled-ties"])
    def test_single_cluster(self, kind):
        L = CostMatrix(_random_costs(np.random.default_rng(7), 30, 1, kind))
        got = _labelled(m_best_exact(L, 5))
        assert got == reference_m_best(L, 5) and len(got) == 1

    @pytest.mark.parametrize("kind", ["integer-ties", "mixed-scales", "scaled-ties"])
    def test_m_equals_one(self, kind):
        L = CostMatrix(_random_costs(np.random.default_rng(8), 30, 6, kind))
        assert _labelled(m_best_exact(L, 1)) == reference_m_best(L, 1)

    @pytest.mark.parametrize("kind", ["integer-ties", "mixed-scales", "scaled-ties"])
    def test_m_beyond_assignment_count(self, kind):
        L = CostMatrix(_random_costs(np.random.default_rng(9), 4, 3, kind))
        got = _labelled(m_best_exact(L, 3**4 + 10))
        assert got == reference_m_best(L, 3**4 + 10) and len(got) == 3**4

    def test_all_costs_tied(self):
        # every one of 8^40 assignments ties: the first M in label order
        L = CostMatrix(np.zeros((40, 8)))
        assert _labelled(m_best_exact(L, 20)) == reference_m_best(L, 20)

    def test_far_entries_do_not_widen_the_search(self):
        # one clamped log weight per row (cost 1e12) must not loosen the
        # rounding window, which only covers entries a ranked sum can reach
        rng = np.random.default_rng(11)
        entries = rng.standard_normal((60, 8)) * 50 + 500
        entries[np.arange(60), rng.integers(0, 8, 60)] = 1e12
        L = CostMatrix(entries)
        assert _labelled(m_best_exact(L, 16)) == reference_m_best(L, 16)

    @pytest.mark.parametrize("kind", ["integer-ties", "mixed-scales", "scaled-ties",
                                      "ulp-ties"])
    @pytest.mark.parametrize("C,K,M", [(30, 1, 5), (4, 3, 3**4 + 10), (40, 8, 20),
                                       (120, 8, 16)])
    def test_costs_are_total_cost_bits(self, kind, C, K, M):
        # every returned cost, near-ties included, is the bits of the
        # assignment's own entry sum
        rng = np.random.default_rng(C * K + M)
        if kind == "ulp-ties":
            entries = 1000.0 + rng.integers(0, 2, (C, K)) * np.spacing(1000.0)
        else:
            entries = _random_costs(rng, C, K, kind)
        ranked = m_best_exact(CostMatrix(entries), M)
        assert len(ranked) == min(M, K**C)
        for a, cost in ranked:
            assert cost == _total_cost(entries, a.labels)


class TestMBestNearTies:
    """More than M assignments within rounding of the M-th cost: the search
    stops after 2M states, so ranks may differ from the full ordering only by
    rounding-level costs and the label order among them."""

    @pytest.mark.parametrize("M", [1, 16])
    def test_ulp_ties_return(self, M):
        # each client's two entries are one ulp apart: all 2^40 assignments
        # lie within rounding of each other
        L = CostMatrix(np.tile([1000.0, np.nextafter(1000.0, 2e3)], (40, 1)))
        ranked = m_best_exact(L, M)
        assert len(ranked) == M
        assert ranked[0] == best_assignment(L)
        costs = [c for _, c in ranked]
        assert all(a <= b for a, b in zip(costs, costs[1:]))
        np.testing.assert_allclose(costs, [c for _, c in reference_m_best(L, M)],
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("seed", [9, 10, 35])
    def test_inexact_integer_ties(self, seed):
        # integer costs at a scale where equal sums round differently
        rng = np.random.default_rng(seed)
        entries = rng.integers(0, 5, (24, 3)) * 10.0 ** rng.uniform(-3, 3)
        L = CostMatrix(entries)
        got, want = _labelled(m_best_exact(L, 60)), reference_m_best(L, 60)
        tol = 1e-12 * np.abs(entries).sum()
        assert [c for _, c in got] == pytest.approx([c for _, c in want], rel=0, abs=tol)
        settled = [item for item in want if item[1] < want[-1][1] - tol]
        assert got[:len(settled)] == settled


@st.composite
def small_cost_cases(draw):
    C, K = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    cells = st.integers(0, 3).map(float)
    rows = draw(st.lists(st.lists(cells, min_size=K, max_size=K), min_size=C, max_size=C))
    return np.array(rows), draw(st.integers(1, K**C + 2))


class TestMBestProperties:
    @given(small_cost_cases())
    def test_prefix_of_brute_force(self, case):
        entries, M = case
        C, K = entries.shape
        L = CostMatrix(entries)
        ranked = m_best_exact(L, M)
        everything = sorted((_total_cost(entries, a.labels), a.labels)
                            for a in enumerate_assignments(K, C))
        assert _labelled(ranked) == [(lbl, c) for c, lbl in everything[:M]]
        costs = [c for _, c in ranked]
        assert all(a <= b for a, b in zip(costs, costs[1:]))
        assert len({a.labels for a, _ in ranked}) == len(ranked)
        assert ranked[0] == best_assignment(L)

    @given(C=st.integers(1, 60), K=st.integers(1, 8), M=st.integers(1, 40),
           ties=st.booleans(), scale=st.integers(-3, 4), seed=st.integers(0, 2**32 - 1))
    def test_costs_are_total_cost_bits(self, C, K, M, ties, scale, seed):
        entries = np.random.default_rng(seed).standard_normal((C, K))
        if ties:
            entries = np.round(entries * 2)
        entries = entries * 10.0 ** scale
        ranked = m_best_exact(CostMatrix(entries), M)
        assert len(ranked) == min(M, K**C)
        for a, cost in ranked:
            assert cost == _total_cost(entries, a.labels)

    @given(C=st.integers(1, 30), K=st.integers(1, 6), M=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_items_equal_validated_assignments(self, C, K, M, seed):
        """Items skip ``Assignment``'s checks; each must still be what the
        checked constructor builds: a tuple of Python ints, of equal hash."""
        entries = np.random.default_rng(seed).standard_normal((C, K))
        for a, _ in m_best_exact(CostMatrix(entries), M):
            checked = Assignment(a.labels)
            assert a == checked and hash(a) == hash(checked)
            assert type(a.labels) is tuple and len(a) == C
            assert all(type(lab) is int and 0 <= lab < K for lab in a.labels)


def brute_force_children(entries, offsets, M):
    """Every child of every parent as (parent, labels, cost, log-weight), in
    the order ``m_best_exact`` promises: log-weight descending, then parent
    row, then labels, with each zero-weight parent's M cheapest children
    after every finite child, by parent row and then labels; cut to M."""
    P, C, K = entries.shape
    finite, zero = [], []
    for p in range(P):
        children = sorted((_total_cost(entries[p], labels), labels)
                          for labels in itertools.product(range(K), repeat=C))
        rows = [(p, labels, cost, float(offsets[p] - cost)) for cost, labels in children]
        if offsets[p] > -math.inf:
            finite += rows
        else:
            zero += sorted(rows[:M], key=lambda row: row[1])
    finite.sort(key=lambda row: (-row[3], row[0], row[1]))
    return (finite + zero)[:M]


@st.composite
def stacked_cost_cases(draw):
    """Integer costs and offsets on a half-integer grid, so that sums are
    exact and ties occur within and across parents; some offsets are -inf."""
    P, C, K = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cells = st.integers(0, 3).map(float)
    entries = draw(st.lists(st.lists(st.lists(cells, min_size=K, max_size=K),
                                     min_size=C, max_size=C), min_size=P, max_size=P))
    offsets = draw(st.lists(st.sampled_from([0.0, -0.5, -1.0, -3.0, -math.inf]),
                            min_size=P, max_size=P))
    M = draw(st.integers(1, P * K**C + 2))
    return np.array(entries), np.array(offsets), M


class TestMBestAcrossParents:
    """One search over a (P, C, K) stack of cost tables, each parent at its
    offset, against brute force over all P * K^C children."""

    @given(stacked_cost_cases())
    # a zero-weight parent offers its 2 cheapest children, (1, 1) and (0, 1),
    # in label order
    @example((np.array([[[3.0, 0.0], [3.0, 0.0]]]), np.array([-math.inf]), 2))
    @example((np.array([[[0.0, 1.0]], [[1.0, 0.0]]]), np.array([0.0, -math.inf]), 4))
    def test_matches_brute_force(self, case):
        entries, offsets, M = case
        ranked = m_best_exact(entries, M, offsets)
        got = list(zip(ranked.parents.tolist(), map(tuple, ranked.labels.tolist()),
                       ranked.costs.tolist(), ranked.log_weights.tolist()))
        assert got == brute_force_children(entries, offsets, M)

    def test_one_table_is_one_parent_at_offset_zero(self):
        rng = np.random.default_rng(5)
        entries = rng.standard_normal((6, 3))
        ranked = m_best_exact(CostMatrix(entries), 20)
        for other in (m_best_exact(entries, 20), m_best_exact(entries[None], 20, np.zeros(1))):
            for name in ("parents", "labels", "costs", "log_weights"):
                assert np.array_equal(getattr(ranked, name), getattr(other, name))
        assert not ranked.parents.any()
        assert np.array_equal(ranked.log_weights, -ranked.costs)

    def test_rejects_offsets_of_the_wrong_shape(self):
        with pytest.raises(ContractError):
            m_best_exact(np.zeros((2, 3, 2)), 4, np.zeros(3))


class TestMBestHeuristic:
    def test_m1_is_best_assignment(self):
        ranked = m_best_heuristic(COSTS_3X2, 1)
        best, cost = best_assignment(COSTS_3X2)
        assert ranked[0][0] == best and ranked[0][1] == cost

    def test_worked_example_m3(self):
        # brute force puts (0,1,0)=11, (1,1,0)=14, (0,1,1)=15 in front and all
        # three are single substitutions of the optimum
        ranked = m_best_heuristic(COSTS_3X2, 3)
        labels = [a.labels for a, _ in ranked]
        assert (0, 1, 0) in labels and (0, 1, 1) in labels
        assert ranked[2][1] >= 15.0

    @pytest.mark.parametrize("seed", range(10))
    def test_never_beats_exact(self, seed):
        rng = np.random.default_rng(100 + seed)
        entries = rng.standard_normal((4, 3))
        L = CostMatrix(entries)
        exact = m_best_exact(L, 3**4)
        heur = m_best_heuristic(L, 8)
        for rank, (_, cost) in enumerate(heur):
            assert cost >= exact[rank][1] - 1e-12

    def test_pool_is_capped(self):
        ranked = m_best_heuristic(COSTS_3X2, 100)
        assert len(ranked) == 1 + 3 * (2 - 1)


class TestCounting:
    @pytest.mark.parametrize("k,c,want", [(1, 1, 2), (2, 3, 64), (3, 10, 2**30)])
    def test_unconstrained_examples(self, k, c, want):
        assert count_hypotheses_unconstrained(k, c) == want

    @pytest.mark.parametrize("k,c,want", [(1, 5, 1), (2, 3, 8), (5, 10, 9765625)])
    def test_constrained_examples(self, k, c, want):
        assert count_hypotheses_constrained(k, c) == want

    def test_unconstrained_matches_binomial_sum(self):
        for k in range(1, 6):
            for c in range(1, 13):
                by_sum = 1
                for _ in range(k):
                    by_sum *= sum(math.comb(c, i) for i in range(c + 1))
                assert count_hypotheses_unconstrained(k, c) == by_sum

    def test_enumeration_is_lexicographic_and_complete(self):
        got = [a.labels for a in enumerate_assignments(3, 2)]
        assert got == sorted(got)
        assert len(set(got)) == 9
