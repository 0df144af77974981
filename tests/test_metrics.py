import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bayescfl import (ClientDataset, ContractError, LocalModelSpec, RoundReport,
                      association_accuracy, heldout_log_likelihood, parameter_rmse)
from bayescfl.density import logsumexp
from bayescfl.metrics import _association_marginals, _match_pairs, round_coassociation
from bayescfl.reports import read_ndjson, write_ndjson
from bayescfl.simulation import LOG_WEIGHT_FLOOR, MODES
from helpers import (brute_force_coassociation, gaussian_mean_dataset,
                     reference_association_accuracy, reference_data_log_likelihood)


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


def _normalized(raw):
    return tuple(w / sum(raw) for w in raw)


@st.composite
def accuracy_cases(draw):
    """1-3 hypotheses over 1-30 clients in 1-5 true groups; labels come from
    a drawn subset of 0-8, so clusters may outnumber groups and some labels
    below the largest go unused."""
    c, g = draw(st.integers(1, 30)), draw(st.integers(1, 5))
    truth = draw(st.lists(st.integers(0, g - 1), min_size=c, max_size=c))
    used = draw(st.lists(st.integers(0, 8), min_size=1, max_size=9, unique=True))
    n = draw(st.integers(1, 3))
    assignments = [draw(st.lists(st.sampled_from(used), min_size=c, max_size=c))
                   for _ in range(n)]
    weights = _normalized(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return report(assignments, weights), truth


class TestAssociationAccuracy:
    @given(case=accuracy_cases())
    def test_matches_loop_built_table(self, case):
        rep, truth = case
        assert association_accuracy(rep, truth) == reference_association_accuracy(rep, truth)

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


def one_hot_tables(*assignments, k=None):
    """Per assignment, the C x K log-weight table that puts all of each
    client's mass on its label: 0 there, the floor elsewhere."""
    k = k or max(max(a) for a in assignments) + 1
    tables = np.full((len(assignments), len(assignments[0]), k), LOG_WEIGHT_FLOOR)
    for table, labels in zip(tables, assignments):
        table[np.arange(len(labels)), labels] = 0.0
    return tables


@st.composite
def coassociation_cases(draw):
    """1-3 parents over 1-4 clients and 1-3 clusters: log weights in
    [-30, 5] or at the floor, parent weights with zeros among them but not
    all zero. A row all at the floor gives its parent weight 0, so some
    parent of positive weight has none: were every parent's mass at the
    floor, the floor would have clamped away the values that rank them."""
    p, c, k = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entry = st.one_of(st.floats(-30.0, 5.0), st.just(LOG_WEIGHT_FLOOR))
    tables = np.array(draw(st.lists(entry, min_size=p * c * k, max_size=p * c * k)))
    tables = tables.reshape(p, c, k)
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                        min_size=p, max_size=p).filter(any))
    floor_free = (tables > LOG_WEIGHT_FLOOR).any(axis=2).all(axis=1)
    assume(any(w > 0 and free for w, free in zip(raw, floor_free)))
    return _normalized(raw), tables


class TestCoAssociation:
    """``round_coassociation``: one round's exact same-cluster probability
    over every child of the parents."""

    def test_single_cluster_increments_everything(self):
        out = round_coassociation([1.0], np.array([[[-3.0], [0.5], [-1e3]]]))
        assert np.all(out == 1.0)

    def test_block_structure(self):
        out = round_coassociation([1.0], one_hot_tables((0, 0, 1, 1)))
        want = np.array([[1, 1, 0, 0], [1, 1, 0, 0],
                         [0, 0, 1, 1], [0, 0, 1, 1]], dtype=float)
        assert np.array_equal(out, want)

    def test_weighted_disagreement(self):
        out = round_coassociation([0.75, 0.25], one_hot_tables((0, 0), (0, 1)))
        assert out[0, 1] == 0.75
        assert out[0, 0] == 1.0

    def test_diagonal_equals_rounds_and_bound(self):
        rng = np.random.default_rng(2)
        matrix = np.zeros((5, 5))
        for _ in range(7):
            matrix += round_coassociation(rng.dirichlet([1, 1]),
                                          rng.normal(scale=3.0, size=(2, 5, 3)))
        assert np.all(np.diag(matrix) == 7.0)
        assert np.all(matrix <= 7.0)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)

    @given(case=coassociation_cases())
    def test_matches_enumeration_of_every_child(self, case):
        weights, tables = case
        got = round_coassociation(weights, tables)
        np.testing.assert_allclose(got, brute_force_coassociation(weights, tables),
                                   rtol=0, atol=1e-12)
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 1.0)
        assert np.all((got >= 0) & (got <= 1))

    @given(case=coassociation_cases())
    def test_marginals_are_distributions(self, case):
        weights, tables = case
        parent_w, pi = _association_marginals(weights, tables)
        assert abs(parent_w.sum() - 1.0) < 1e-12
        assert np.all(parent_w[np.asarray(weights) == 0] == 0)
        np.testing.assert_allclose(pi.sum(axis=2), 1.0, rtol=0, atol=1e-12)


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


@st.composite
def heldout_cases(draw):
    """A model spec, a report of 1-6 hypotheses over 1-20 clients and 1-4
    clusters, and one test set per client, of at most three sizes (some
    maybe empty)."""
    kind = draw(st.sampled_from(["gaussian-mean", "bayes-linear", "laplace-logistic"]))
    d, h, c, k = (draw(st.integers(1, 3)), draw(st.integers(1, 6)),
                  draw(st.integers(1, 20)), draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "laplace-logistic":
        spec = LocalModelSpec(kind, feature_dim=d)
    else:
        spec = LocalModelSpec(kind, feature_dim=d, noise_variance=float(rng.uniform(0.1, 3.0)))
    pool = draw(st.lists(st.integers(0, 39), min_size=1, max_size=3, unique=True))
    tests = []
    for j in range(c):
        n = int(rng.choice(pool))
        x = rng.standard_normal((n, d))
        labels = (rng.integers(0, 2, n) if kind == "laplace-logistic"
                  else None if kind == "gaussian-mean" else rng.standard_normal(n))
        tests.append(ClientDataset(j, 0, x, labels))
    assignments = [tuple(int(a) for a in rng.integers(0, k, c)) for _ in range(h)]
    assignments[0] = assignments[0][:-1] + (k - 1,)     # every report uses K clusters
    means = tuple(tuple(tuple(rng.standard_normal(d).tolist()) for _ in range(k))
                  for _ in range(h))
    weights = _normalized(rng.uniform(0.01, 1.0, h).tolist())
    return spec, report(assignments, weights, cluster_means=means), tests


class TestHeldoutLogLikelihood:
    @given(case=heldout_cases())
    def test_matches_per_client_loop(self, case):
        """The stacked metric gives the bits of one-row likelihoods and one
        1-D logsumexp per client, then the mean over clients."""
        spec, rep, tests = case
        log_w = np.log(np.maximum(np.asarray(rep.weights, dtype=float), 1e-300))
        per_client = []
        for j, data in enumerate(tests):
            ll = [reference_data_log_likelihood(np.asarray(means_h[labels[j]]), data, spec)
                  for means_h, labels in zip(rep.cluster_means, rep.assignments)]
            per_client.append(logsumexp(log_w + np.array(ll)))
        want = float(np.mean(per_client))
        got = heldout_log_likelihood(rep, tests, spec)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_one_test_set_per_client(self):
        spec = LocalModelSpec("gaussian-mean", feature_dim=2, noise_variance=1.0)
        rep = report([(0, 0)], [1.0])
        tests = [gaussian_mean_dataset(np.zeros((3, 2)), client_id=j) for j in range(3)]
        with pytest.raises(ContractError, match="one test set per client"):
            heldout_log_likelihood(rep, tests, spec)

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
                [GaussianDensity(np.array(mean), np.eye(2))], [d], spec)[0, 0]
            for d in tests])
        got = heldout_log_likelihood(rep, tests, spec)
        assert abs(got - want) < 1e-12


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def round_reports(draw):
    """A report of 1-4 hypotheses over 1-6 clients, 1-4 clusters of dim
    1-3, with any finite floats, ids and metric names."""
    n, c = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    k, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def rows(elements, length):
        return tuple(draw(st.lists(elements, min_size=length, max_size=length)))

    return RoundReport(
        round=draw(st.integers(0, 10**6)),
        mode=draw(st.sampled_from(MODES)),
        hypothesis_ids=rows(st.text(max_size=8), n),
        parent_ids=rows(st.none() | st.text(max_size=8), n),
        assignments=tuple(rows(st.integers(0, k - 1), c) for _ in range(n)),
        weights=_normalized(rows(st.floats(0.01, 1.0), n)),
        log_weights=rows(finite, n),
        cluster_means=tuple(tuple(rows(finite, d) for _ in range(k)) for _ in range(n)),
        metrics=draw(st.dictionaries(st.text(max_size=8), finite, max_size=3)),
        comm=draw(st.dictionaries(st.text(max_size=8), st.integers(0, 2**62), max_size=3)),
    )


class TestReportRoundTrip:
    @given(reps=st.lists(round_reports(), min_size=1, max_size=3))
    def test_ndjson_round_trip(self, reps):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rounds.ndjson"
            write_ndjson(reps, path)
            assert read_ndjson(path) == reps

    def test_ndjson(self, tmp_path):
        reps = [report([(0, 1), (1, 0)], [0.6, 0.4],
                       cluster_means=(((0.1, 0.2), (0.3, 0.4)),
                                      ((0.5, 0.6), (0.7, 0.8))), round_=t + 1)
                for t in range(3)]
        path = tmp_path / "rounds.ndjson"
        write_ndjson(reps, path)
        back = read_ndjson(path)
        assert back == reps
