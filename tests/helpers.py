"""Shared test oracles: brute-force and integration baselines kept independent
of the implementation paths they check."""

import heapq
import itertools

import numpy as np

from bayescfl import Assignment, ClientDataset, CostMatrix, GaussianDensity
from bayescfl.assignment import _total_cost


def brute_force_ranking(entries: np.ndarray):
    """Every assignment with its cost, sorted by (cost, labels)."""
    C, K = entries.shape
    items = []
    for labels in itertools.product(range(K), repeat=C):
        cost = float(entries[np.arange(C), list(labels)].sum())
        items.append((labels, cost))
    items.sort(key=lambda it: (it[1], it[0]))
    return items


def reference_m_best(L: CostMatrix, M: int) -> list[tuple[tuple[int, ...], float]]:
    """Best-first search over full per-client rank vectors, costing every
    neighbour with ``_total_cost`` (O(M*C^2) per call): the oracle that
    ``m_best_exact`` must match exactly. Returns (labels, cost) pairs in
    (cost, labels) order."""
    entries = L.entries
    C, K = entries.shape
    # per client: cluster indices sorted by (cost, cluster index)
    order = [sorted(range(K), key=lambda i: (entries[j, i], i)) for j in range(C)]

    def labels_of(ranks: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(order[j][r] for j, r in enumerate(ranks))

    start = (0,) * C
    start_labels = labels_of(start)
    heap = [(_total_cost(entries, start_labels), start_labels, start)]
    seen = {start}
    collected: list[tuple[tuple[int, ...], float]] = []
    while heap and len(collected) < M:
        cost, labels, ranks = heapq.heappop(heap)
        collected.append((labels, cost))
        for j in range(C):
            if ranks[j] + 1 < K:
                nxt = ranks[:j] + (ranks[j] + 1,) + ranks[j + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    nxt_labels = labels_of(nxt)
                    heapq.heappush(heap, (_total_cost(entries, nxt_labels), nxt_labels, nxt))
    collected.sort(key=lambda item: (item[1], item[0]))
    return collected


def grid_posterior_moments(prior: GaussianDensity, loglik, lo: float, hi: float,
                           n: int = 801):
    """Posterior mean/covariance by dense grid integration (1-D or 2-D)."""
    dim = prior.dim
    axis = np.linspace(lo, hi, n)
    if dim == 1:
        pts = axis[:, None]
    elif dim == 2:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
    else:
        raise ValueError("grid oracle supports 1-D and 2-D only")
    log_post = prior.log_pdf(pts) + np.array([loglik(w) for w in pts])
    log_post -= log_post.max()
    dens = np.exp(log_post)
    dens /= dens.sum()
    mean = dens @ pts
    centered = pts - mean
    cov = (centered * dens[:, None]).T @ centered
    return mean, cov


def gaussian_mean_dataset(values, client_id=0, round_=0, group=0) -> ClientDataset:
    feats = np.asarray(values, dtype=float)
    if feats.ndim == 1:
        feats = feats[:, None]
    return ClientDataset(client_id=client_id, round=round_, features=feats,
                         labels=None, true_group=group)


def empty_dataset(dim: int) -> ClientDataset:
    return ClientDataset(client_id=0, round=0,
                         features=np.zeros((0, dim)), labels=None)


def regression_dataset(x: np.ndarray, y: np.ndarray) -> ClientDataset:
    return ClientDataset(client_id=0, round=0, features=np.asarray(x, dtype=float),
                         labels=np.asarray(y, dtype=float))


def binary_dataset(x: np.ndarray, y: np.ndarray) -> ClientDataset:
    return ClientDataset(client_id=0, round=0, features=np.asarray(x, dtype=float),
                         labels=np.asarray(y, dtype=int))


def assignment(*labels) -> Assignment:
    return Assignment(tuple(labels))
