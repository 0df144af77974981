import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayescfl import (CoAssociationMatrix, ContractError, LocalModelSpec,
                      RoundReport, accumulate_coassociation,
                      association_accuracy, heldout_log_likelihood,
                      parameter_rmse)
from bayescfl.metrics import _match_pairs
from bayescfl.reports import read_ndjson, write_ndjson
from helpers import gaussian_mean_dataset


def report(assignments, weights, cluster_means=None, round_=1):
    n_hyp = len(assignments)
    k = max(max(a) for a in assignments) + 1 if assignments[0] else 1
    if cluster_means is None:
        cluster_means = tuple(tuple((0.0, 0.0) for _ in range(k))
                              for _ in range(n_hyp))
    return RoundReport(
        round=round_, mode="multi-hypothesis",
        hypothesis_ids=tuple(f"{round_}:{i}" for i in range(n_hyp)),
        parent_ids=tuple("0:0" for _ in range(n_hyp)),
        assignments=tuple(tuple(a) for a in assignments),
        weights=tuple(weights),
        log_weights=tuple(np.log(w) if w > 0 else -1e308 for w in weights),
        cluster_means=tuple(cluster_means),
    )


class TestAssociationAccuracy:
    def test_perfect_up_to_relabeling(self):
        rep = report([(2, 2, 0, 0, 1, 1)], [1.0])
        assert association_accuracy(rep, [0, 0, 1, 1, 2, 2]) == 1.0

    def test_linear_in_hypothesis_weight(self):
        perfect = (0, 0, 1, 1)
        wrong = (0, 1, 0, 1)   # best relabeling matches 2 of 4
        rep = report([perfect, wrong], [0.5, 0.5])
        got = association_accuracy(rep, [0, 0, 1, 1])
        assert abs(got - (0.5 * 1.0 + 0.5 * 0.5)) < 1e-12

    def test_random_assignment_near_chance(self):
        rng = np.random.default_rng(0)
        c, g = 400, 4
        truth = rng.integers(0, g, size=c)
        vals = []
        for _ in range(1000):
            rep = report([tuple(rng.integers(0, g, size=c))], [1.0])
            vals.append(association_accuracy(rep, truth))
        assert abs(np.mean(vals) - 0.25) < 0.05

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        labels = tuple(rng.integers(0, 3, size=9))
        truth = list(rng.integers(0, 3, size=9))
        base = association_accuracy(report([labels], [1.0]), truth)
        perm = {0: 2, 1: 0, 2: 1}
        relabeled = tuple(perm[v] for v in labels)
        assert association_accuracy(report([relabeled], [1.0]), truth) == base

    def test_more_clusters_than_groups(self):
        rep = report([(0, 1, 2, 3)], [1.0])
        assert association_accuracy(rep, [0, 0, 1, 1]) == 0.5

    def test_exact_above_six_clusters(self):
        # 7x7 counts: t[0,0]=10, t[0,1]=t[1,0]=9, t[1,1]=0, 1 on the rest of
        # the diagonal. Matching greedily takes the 10 first and reaches 15;
        # the optimum is 23.
        labels, truth = [0] * 10, [0] * 10
        for lab, t in ((0, 1), (1, 0)):
            labels += [lab] * 9
            truth += [t] * 9
        labels += list(range(2, 7))
        truth += list(range(2, 7))
        rep = report([labels], [1.0])
        assert association_accuracy(rep, truth) == 23 / 33


def _brute_force_optimum(table: np.ndarray, maximize: bool) -> float:
    rows, cols = table.shape
    small, large = (table, cols) if rows <= cols else (table.T, rows)
    sums = [sum(small[i, perm[i]] for i in range(small.shape[0]))
            for perm in itertools.permutations(range(large), small.shape[0])]
    return max(sums) if maximize else min(sums)


@st.composite
def match_tables(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.integers(0, 4).map(float)
    entries = draw(st.lists(st.lists(cells, min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    return np.array(entries), draw(st.booleans())


class TestMatchPairs:
    @given(match_tables())
    def test_reaches_brute_force_optimum(self, case):
        table, maximize = case
        rows, cols = table.shape
        pairs = _match_pairs(table, maximize)
        assert len(pairs) == min(rows, cols)
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
        key = 0 if rows <= cols else 1
        assert [pair[key] for pair in pairs] == list(range(min(rows, cols)))
        got = sum(table[i, j] for i, j in pairs)
        assert got == _brute_force_optimum(table, maximize)

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError):
            _match_pairs(np.array([[1.0, np.nan], [0.0, 2.0]]), maximize=True)


class TestCoAssociation:
    def test_single_cluster_increments_everything(self):
        rep = report([(0, 0, 0)], [1.0])
        out = accumulate_coassociation(CoAssociationMatrix.empty(3), rep)
        assert np.all(out.entries == 1.0)
        assert out.rounds_accumulated == 1

    def test_block_structure(self):
        rep = report([(0, 0, 1, 1)], [1.0])
        out = accumulate_coassociation(CoAssociationMatrix.empty(4), rep)
        want = np.array([[1, 1, 0, 0], [1, 1, 0, 0],
                         [0, 0, 1, 1], [0, 0, 1, 1]], dtype=float)
        assert np.array_equal(out.entries, want)

    def test_weighted_disagreement(self):
        rep = report([(0, 0), (0, 1)], [0.75, 0.25])
        out = accumulate_coassociation(CoAssociationMatrix.empty(2), rep)
        assert out.entries[0, 1] == 0.75
        assert out.entries[0, 0] == 1.0

    def test_diagonal_equals_rounds_and_bound(self):
        rng = np.random.default_rng(2)
        matrix = CoAssociationMatrix.empty(5)
        for t in range(7):
            w = rng.dirichlet([1, 1])
            rep = report([tuple(rng.integers(0, 3, size=5)),
                          tuple(rng.integers(0, 3, size=5))],
                         list(w), round_=t + 1)
            matrix = accumulate_coassociation(matrix, rep)
        np.testing.assert_allclose(np.diag(matrix.entries), 7.0, atol=1e-9)
        assert matrix.rounds_accumulated == 7
        assert np.all(matrix.entries <= 7.0 + 1e-9)
        np.testing.assert_allclose(matrix.entries, matrix.entries.T, atol=1e-12)


class TestParameterRmse:
    def test_exact_recovery(self):
        truth = [(1.0, 2.0), (-1.0, 0.0)]
        rep = report([(0, 1)], [1.0], cluster_means=((truth[0], truth[1]),))
        assert parameter_rmse(rep, truth) == 0.0

    def test_norm_two_in_four_dims(self):
        truth = [(0.0, 0.0, 0.0, 0.0)]
        rep = report([(0, 0)], [1.0], cluster_means=(((1.0, 1.0, 1.0, 1.0),),))
        assert abs(parameter_rmse(rep, truth) - 1.0) < 1e-12

    def test_weight_average(self):
        truth = [(0.0,)]
        rep = report([(0,), (0,)], [0.25, 0.75],
                     cluster_means=(((2.0,),), ((0.0,),)))
        assert abs(parameter_rmse(rep, truth) - 0.25 * 2.0) < 1e-12

    def test_matching_picks_best_pairing(self):
        truth = [(0.0,), (10.0,)]
        rep = report([(0, 1)], [1.0], cluster_means=(((10.0,), (0.0,)),))
        assert parameter_rmse(rep, truth) == 0.0


class TestHeldoutLogLikelihood:
    def test_single_hypothesis_matches_direct_loglik(self):
        from bayescfl import GaussianDensity, assoc_log_weight_at_mean
        spec = LocalModelSpec("gaussian-mean", feature_dim=2, noise_variance=1.0)
        rng = np.random.default_rng(3)
        mean = (0.5, -0.5)
        rep = report([(0, 0)], [1.0], cluster_means=((mean, mean),))
        tests = [gaussian_mean_dataset(rng.standard_normal((6, 2)), client_id=j)
                 for j in range(2)]
        want = np.mean([
            assoc_log_weight_at_mean(
                [GaussianDensity(np.array(mean), np.eye(2))], d, spec)[0]
            for d in tests])
        got = heldout_log_likelihood(rep, tests, spec)
        assert abs(got - want) < 1e-12


class TestReportRoundTrip:
    def test_ndjson(self, tmp_path):
        reps = [report([(0, 1), (1, 0)], [0.6, 0.4],
                       cluster_means=(((0.1, 0.2), (0.3, 0.4)),
                                      ((0.5, 0.6), (0.7, 0.8))), round_=t + 1)
                for t in range(3)]
        path = tmp_path / "rounds.ndjson"
        write_ndjson(reps, path)
        back = read_ndjson(path)
        assert back == reps
