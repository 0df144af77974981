"""Evaluation: association accuracy, exact co-association, parameter
recovery error, and held-out likelihood.

The held-out likelihood scores every client's test set against its assigned
cluster mean under every hypothesis in stacked kernel calls, chunks of
clients of one size at a time (``models.data_log_likelihoods``), and reduces
all clients with one 2-D ``logsumexp``; each client's value keeps the bits
of the one-client loop."""

from __future__ import annotations

import numpy as np

from .density import logsumexp
from .errors import ContractError
from .hypotheses import softmax_weights
from .models import LocalModelSpec, data_log_likelihoods
from .reports import RoundReport


def _match_pairs(table: np.ndarray, maximize: bool) -> list[tuple[int, int]]:
    """Injective row/column pairing optimizing the summed table entries.

    Exact for every shape: the Hungarian method (Kuhn 1955) with row/column
    potentials and one shortest augmenting path per row of the smaller side,
    O(n^2 m) for n = min(rows, cols) and m = max(rows, cols). Pairs are
    ordered by row when rows <= cols, else by column.
    """
    cost = np.asarray(table, dtype=float)
    if not np.all(np.isfinite(cost)):
        raise ContractError("matching table entries must be finite")
    flipped = cost.shape[0] > cost.shape[1]
    if flipped:
        cost = cost.T
    n, m = cost.shape
    rows = (-cost if maximize else cost).tolist()
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    # match[j] is the 1-based row on column j (0: free); column 0 holds the
    # row being inserted
    match = [0] * (m + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        way = [0] * (m + 1)
        used = [False] * (m + 1)
        while match[j0]:
            used[j0] = True
            i0 = match[j0]
            row, ui = rows[i0 - 1], u[i0]
            delta, j1 = inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = row[j - 1] - ui - v[j]
                    if reduced < minv[j]:
                        minv[j], way[j] = reduced, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    col_of = [0] * n
    for j in range(1, m + 1):
        if match[j]:
            col_of[match[j] - 1] = j - 1
    if flipped:
        return [(c, r) for r, c in enumerate(col_of)]
    return list(enumerate(col_of))


def association_accuracy(report: RoundReport, truth) -> float:
    """Weight-averaged, cluster-relabeling-invariant share of correctly
    grouped clients."""
    truth = [int(t) for t in truth]
    g = max(truth) + 1
    total = 0.0
    for labels, weight in zip(report.assignments, report.weights):
        if len(labels) != len(truth):
            raise ContractError("assignment length must match the client count")
        k = max(max(labels) + 1, 1)
        # table[lab, t] counts the clients with that label and that group
        cells = np.asarray(labels) * g + truth
        table = np.bincount(cells, minlength=k * g).reshape(k, g).astype(float)
        pairs = _match_pairs(table, maximize=True)
        matched = sum(table[i, j] for i, j in pairs)
        total += weight * matched / len(truth)
    return float(total)


def _association_marginals(weights, log_weight_tables) -> tuple[np.ndarray, np.ndarray]:
    """Exact marginals over every child of a round's parents, under separable
    association weights: (parent weights w~ (P,), cluster probabilities
    pi (P, C, K)).

    A child of parent p labels each client j with a cluster i_j and weighs
    w_p prod_j exp(L_p[j, i_j]), for p's C x K log-weight table L_p. Summed
    over p's K^C children, the labels are independent given p:
    pi_pj = softmax_i L_p[j, :], and p carries w~ = softmax_p(log w_p +
    log Z_p), with log Z_p = sum_j logsumexp_i L_p[j, :].
    """
    tables = np.asarray(log_weight_tables, dtype=float)
    with np.errstate(divide="ignore"):
        log_w = np.log(np.asarray(weights, dtype=float))
    row_max = tables.max(axis=2, keepdims=True)
    e = np.exp(tables - row_max)
    total = e.sum(axis=2, keepdims=True)
    log_z = (row_max + np.log(total)).sum(axis=(1, 2))
    return softmax_weights(log_w + log_z), e / total


def round_coassociation(weights, log_weight_tables) -> np.ndarray:
    """The C x C probability that two clients share a cluster, over every
    child of the round's parents: sum_p w~_p pi_p pi_p^T off the diagonal,
    1 on it, from one C x K by K x C product per parent. Rounding can carry
    a sum past 1 by an ulp; it is capped there."""
    parent_w, pi = _association_marginals(weights, log_weight_tables)
    out = sum(w_p * (pi_p @ pi_p.T) for w_p, pi_p in zip(parent_w.tolist(), pi))
    np.minimum(out, 1.0, out=out)
    np.fill_diagonal(out, 1.0)
    return out


def parameter_rmse(report: RoundReport, true_params) -> float:
    """Weight-averaged RMSE between matched cluster means and true group
    parameters (best injective matching per hypothesis)."""
    truth = np.atleast_2d(np.asarray(true_params, dtype=float))
    dim = truth.shape[1]
    total = 0.0
    for means, weight in zip(report.cluster_means, report.weights):
        m = np.asarray(means, dtype=float)
        if m.shape[1] != dim:
            raise ContractError("cluster mean dimension does not match true parameters")
        sq = ((m[:, None, :] - truth[None, :, :]) ** 2).sum(axis=2)
        pairs = _match_pairs(sq, maximize=False)
        if not pairs:
            continue
        mse = float(np.mean([sq[i, j] for i, j in pairs])) / dim
        total += weight * float(np.sqrt(mse))
    return float(total)


def heldout_log_likelihood(report: RoundReport, test_sets,
                           spec: LocalModelSpec) -> float:
    """Client-mean of log sum_h w_h p(D_test | assigned cluster mean of h).

    Every client's assigned means are gathered from one (H, K, d) array, the
    test sets are scored against them by size in stacked kernel calls
    (``data_log_likelihoods``), and one 2-D ``logsumexp`` reduces all
    clients; each client's value is the bits of its one-client call.
    """
    log_w = np.log(np.maximum(np.asarray(report.weights, dtype=float), 1e-300))
    test_sets = list(test_sets)
    means = np.asarray(report.cluster_means, dtype=float)
    labels = np.asarray(report.assignments, dtype=int)
    if len(means) != len(labels) or labels.shape[1] != len(test_sets):
        raise ContractError("need one row of cluster means per hypothesis and one test "
                            "set per client")
    rows = means[np.arange(len(means)), labels.T]    # (C, H, d): client j's means
    return float(np.mean(logsumexp(log_w + data_log_likelihoods(rows, test_sets, spec))))


def coassociation_to_csv(matrix: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for row in matrix.tolist():
            fh.write(",".join(map(repr, row)) + "\n")
