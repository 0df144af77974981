"""Shared test oracles: brute-force and integration baselines kept independent
of the implementation paths they check."""

import heapq
import itertools

import numpy as np
from scipy.special import logsumexp

from bayescfl import Assignment, ClientDataset, CostMatrix, GaussianDensity
from bayescfl import models, simulation
from bayescfl.assignment import _total_cost
from bayescfl.density import symmetrize
from bayescfl.hypotheses import with_posteriors
from bayescfl.metrics import _match_pairs


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


def reference_data_log_likelihood(omega, data, spec) -> float:
    """log p(D | omega) for one parameter row, by the one-row formulas the
    batched ``models._log_likelihoods`` must match bit for bit."""
    if data.is_empty():
        return 0.0
    n = data.n_samples
    if spec.kind == "gaussian-mean":
        v = spec.noise_variance
        sq = float(np.sum((data.features - omega) ** 2))
        return -0.5 * (n * spec.feature_dim * np.log(2.0 * np.pi * v) + sq / v)
    if spec.kind == "bayes-linear":
        v = spec.noise_variance
        resid = np.asarray(data.labels, dtype=float) - data.features @ omega
        return -0.5 * (n * np.log(2.0 * np.pi * v) + float(resid @ resid) / v)
    z = data.features @ omega
    y = np.asarray(data.labels, dtype=float)
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return float(np.sum(y * z - softplus))


@np.errstate(over="ignore")    # p -> 0 on a far step, as in the update
def reference_laplace_logistic_update(prior, data, spec):
    """The Laplace mode search, written from the one-row likelihood formula,
    with the same stop on the Newton decrement and the same step halving:
    the loop whose mode and Hessian at the mode
    ``models._laplace_logistic_update`` must match bit for bit."""
    x = data.features
    y = np.asarray(data.labels, dtype=float)
    lam0 = prior.precision
    m0 = prior.mean

    def objective(w):
        return (float(0.5 * (w - m0) @ lam0 @ (w - m0))
                - reference_data_log_likelihood(w, data, spec))

    w = m0.copy()
    obj = objective(w)
    for _ in range(models.NEWTON_MAX_ITER):
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        grad = x.T @ (p - y) + lam0 @ (w - m0)
        hess = symmetrize(x.T @ (x * (p * (1.0 - p))[:, None]) + lam0)
        step = np.linalg.solve(hess, grad)
        if grad @ step <= models.NEWTON_DECREMENT_TOL * max(1.0, abs(obj)):
            w = w - step
            break
        scale = 1.0
        for _ in range(models.NEWTON_MAX_HALVINGS):
            if objective(w - scale * step) <= obj:
                break
            scale *= 0.5
        w = w - scale * step
        obj = objective(w)
    p = 1.0 / (1.0 + np.exp(-(x @ w)))
    return w, symmetrize(x.T @ (x * (p * (1.0 - p))[:, None]) + lam0)


def reference_assoc_log_weight_sampled(cluster, data, spec, n_samples: int,
                                       seed: int) -> float:
    """One pair's sampled association weight, with one likelihood call per
    draw: the loop that the batched ``assoc_log_weight_sampled`` must match
    exactly for each of its (cluster, seed) pairs."""
    rng = np.random.default_rng(np.random.SeedSequence(seed & ((1 << 63) - 1)))
    draws = cluster.sample(n_samples, rng)
    logliks = np.array([reference_data_log_likelihood(w, data, spec) for w in draws])
    return float(logsumexp(logliks, b=np.full(n_samples, 1.0 / n_samples)))


def uncached_client_log_weights(hset, clients, cfg, round_index):
    """Phase one with one weight call per (hypothesis, client, cluster): the
    loop that the batched ``simulation._client_log_weights`` must match
    exactly. Calls go through the ``simulation`` namespace, so counters
    patched there see them."""
    est = cfg.weight_estimator
    mats = []
    for p, hyp in enumerate(hset.hypotheses):
        mat = np.empty((len(clients), hyp.cluster_count))
        for j, client in enumerate(clients):
            for i, cluster in enumerate(hyp.cluster_posteriors):
                if est.kind == "at-mean":
                    w = simulation.assoc_log_weight_at_mean([cluster], [client], cfg.model)[0, 0]
                else:
                    seed = int(np.random.SeedSequence(
                        [cfg.seed & simulation._SEED_MASK, 0, simulation._WEIGHTS,
                         round_index, p, j, i]
                    ).generate_state(1)[0])
                    w = simulation.assoc_log_weight_sampled([cluster], client, cfg.model,
                                                            est.n_samples, [seed])[0]
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


def reference_association_accuracy(report, truth) -> float:
    """Association accuracy with each hypothesis's label x group table built
    by one increment per client: the loop that the bincount table of
    ``metrics.association_accuracy`` must match exactly."""
    truth = [int(t) for t in truth]
    total = 0.0
    for labels, weight in zip(report.assignments, report.weights):
        table = np.zeros((max(labels) + 1, max(truth) + 1))
        for lab, t in zip(labels, truth):
            table[lab, t] += 1
        matched = sum(table[i, j] for i, j in _match_pairs(table, maximize=True))
        total += weight * matched / len(truth)
    return float(total)


def grid_posterior_moments(prior: GaussianDensity, logliks, lo: float, hi: float,
                           n: int = 801):
    """Posterior mean/covariance by dense grid integration (1-D or 2-D);
    ``logliks`` maps the (N, dim) grid points to their N log-likelihoods."""
    dim = prior.dim
    axis = np.linspace(lo, hi, n)
    if dim == 1:
        pts = axis[:, None]
    elif dim == 2:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
    else:
        raise ValueError("grid oracle supports 1-D and 2-D only")
    log_post = prior.log_pdf(pts) + logliks(pts)
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
