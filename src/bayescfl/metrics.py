"""Evaluation: association accuracy, co-association accumulation, parameter
recovery error, and held-out likelihood."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import logsumexp
from .errors import ContractError
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


@dataclass(frozen=True)
class CoAssociationMatrix:
    """Accumulated probability that two clients share a cluster."""

    entries: np.ndarray
    rounds_accumulated: int = 0

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ContractError("co-association matrix must be square")
        if float(np.max(np.abs(entries - entries.T))) > 1e-12:
            raise ContractError("co-association matrix must be symmetric")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @classmethod
    def empty(cls, client_count: int) -> "CoAssociationMatrix":
        return cls(np.zeros((client_count, client_count)), 0)


def accumulate_coassociation(matrix: CoAssociationMatrix,
                             report: RoundReport) -> CoAssociationMatrix:
    """Add one round: each hypothesis contributes its weight to every client
    pair (including self-pairs) that shares a cluster label."""
    c = matrix.entries.shape[0]
    out = matrix.entries.copy()
    for labels, weight in zip(report.assignments, report.weights):
        if len(labels) != c:
            raise ContractError("report client count does not match the matrix")
        lab = np.asarray(labels)
        same = lab[:, None] == lab[None, :]
        out += weight * same
    return CoAssociationMatrix(out, matrix.rounds_accumulated + 1)


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
    """Client-mean of log sum_h w_h p(D_test | assigned cluster mean of h)."""
    log_w = np.log(np.maximum(np.asarray(report.weights, dtype=float), 1e-300))
    per_client = []
    for j, data in enumerate(test_sets):
        means = [means_h[labels[j]]
                 for means_h, labels in zip(report.cluster_means, report.assignments,
                                            strict=True)]
        per_client.append(logsumexp(log_w + data_log_likelihoods(means, data, spec)))
    return float(np.mean(per_client))


def coassociation_to_csv(matrix: CoAssociationMatrix, path) -> None:
    with open(path, "w") as fh:
        for row in matrix.entries:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def coassociation_from_report_log(reports: list[RoundReport]) -> CoAssociationMatrix:
    if not reports:
        raise ContractError("no reports to accumulate")
    c = len(reports[0].assignments[0])
    matrix = CoAssociationMatrix.empty(c)
    for rep in reports:
        matrix = accumulate_coassociation(matrix, rep)
    return matrix
