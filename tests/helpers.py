"""Shared test oracles: brute-force and integration baselines kept independent
of the implementation paths they check."""

import heapq
import itertools

import numpy as np

from bayescfl import Assignment, ClientDataset, CostMatrix, GaussianDensity
from bayescfl import simulation
from bayescfl.assignment import _total_cost
from bayescfl.hypotheses import with_posteriors


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


def uncached_client_log_weights(hset, clients, cfg, round_index):
    """Phase one with one weight call per (hypothesis, client, cluster): the
    loop that the memoized ``simulation._client_log_weights`` must match
    exactly. Calls go through the ``simulation`` namespace, so counters
    patched there see them."""
    est = cfg.weight_estimator
    mats = []
    for p, hyp in enumerate(hset.hypotheses):
        mat = np.empty((len(clients), hyp.cluster_count))
        for j, client in enumerate(clients):
            for i, cluster in enumerate(hyp.cluster_posteriors):
                if est.kind == "at-mean":
                    w = simulation.assoc_log_weight_at_mean(cluster, client, cfg.model)
                else:
                    seed = int(np.random.SeedSequence(
                        [cfg.seed & simulation._SEED_MASK, est.seed & simulation._SEED_MASK,
                         simulation._WEIGHTS, round_index, p, j, i]
                    ).generate_state(1)[0])
                    w = simulation.assoc_log_weight_sampled(cluster, client, cfg.model,
                                                            est.n_samples, seed)
                mat[j, i] = max(w, simulation.LOG_WEIGHT_FLOOR)
        mats.append(mat)
    return mats


def uncached_update_posteriors(selected, clients, cfg):
    """Phase two with one local update per (hypothesis, cluster, client) and
    one fusion per (hypothesis, cluster): the loop that the memoized
    ``simulation._update_posteriors`` must match exactly."""
    new_lists = []
    for hyp in selected.hypotheses:
        per_cluster = []
        for i, prior_i in enumerate(hyp.cluster_posteriors):
            members = [j for j, lab in enumerate(hyp.assignment.labels) if lab == i]
            if not members:
                per_cluster.append(prior_i)
                continue
            locals_ = [simulation.posterior_update(prior_i, clients[j], cfg.model)
                       for j in members]
            per_cluster.append(simulation.fuse_local_posteriors(
                locals_, prior_i, cfg.fusion_mode))
        new_lists.append(per_cluster)
    return with_posteriors(selected, new_lists)


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
