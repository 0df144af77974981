"""Shared test oracles: brute-force and integration baselines kept independent
of the implementation paths they check."""

import dataclasses
import heapq
import itertools

import numpy as np
from scipy.special import logsumexp

from bayescfl import Assignment, ClientDataset, CostMatrix, GaussianDensity
from bayescfl import models, simulation
from bayescfl.assignment import _total_cost
from bayescfl.datasets import (_HELDOUT, _PARAMS, _ROUNDS, _rng,
                               label_skew_distributions, separated_centers)
from bayescfl.density import from_info, symmetrize
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


def reference_assoc_log_weight_sampled(cluster, data, spec, normals) -> float:
    """One pair's sampled association weight from the client's (S, d) block of
    standard normals, with one likelihood call per draw: the loop that the
    batched ``assoc_log_weight_sampled`` must match exactly for each of its
    (client, cluster) pairs."""
    draws = cluster.mean + normals @ cluster.chol.T
    logliks = np.array([reference_data_log_likelihood(w, data, spec) for w in draws])
    return float(logsumexp(logliks, b=np.full(len(draws), 1.0 / len(draws))))


def round_normals(cfg, round_index, n_clients):
    """The round's (C, S, d) table of standard normals, drawn as the sampled
    weights of that round must draw it: one generator seeded from the masked
    run seed, the weights tag and the round index."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [cfg.seed & ((1 << 63) - 1), simulation._WEIGHTS, round_index]))
    return rng.standard_normal((n_clients, cfg.weight_estimator.n_samples,
                                cfg.model.param_dim))


def uncached_client_log_weights(hset, clients, cfg, round_index):
    """Phase one with one weight call per (hypothesis, client, cluster): the
    loop that the batched ``simulation._client_log_weights`` must match
    exactly. A sampled weight takes client j's block of the round's table of
    normals, whatever the hypothesis and cluster. Calls go through the
    ``simulation`` namespace, so counters patched there see them."""
    est = cfg.weight_estimator
    if est.kind == "sampled":
        normals = round_normals(cfg, round_index, len(clients))
    mats = []
    for handles in hset.handles:
        mat = np.empty((len(clients), len(handles)))
        for j, client in enumerate(clients):
            for i, cluster in enumerate(hset.posteriors[h] for h in handles):
                if est.kind == "at-mean":
                    w = simulation.assoc_log_weight_at_mean([cluster], [client], cfg.model)[0, 0]
                else:
                    w = simulation.assoc_log_weight_sampled([cluster], [client], cfg.model,
                                                            normals[j:j + 1])[0, 0]
                mat[j, i] = max(w, simulation.LOG_WEIGHT_FLOOR)
        mats.append(mat)
    return mats


def uncached_update_posteriors(selected, clients, cfg):
    """Phase two with one local update per (hypothesis, cluster, client) and
    one fusion per (hypothesis, cluster): the loop that the memoized
    ``simulation._update_posteriors`` must match exactly. The result's table
    holds one posterior per (hypothesis, cluster), in order."""
    new_lists = []
    for labels, handles in zip(selected.labels, selected.handles):
        per_cluster = []
        for i, prior_i in enumerate(selected.posteriors[h] for h in handles):
            members = [j for j, lab in enumerate(labels) if lab == i]
            if not members:
                per_cluster.append(prior_i)
                continue
            locals_ = [simulation.posterior_update(prior_i, clients[j], cfg.model)
                       for j in members]
            per_cluster.append(simulation.fuse_local_posteriors(
                locals_, prior_i, cfg.fusion_mode))
        new_lists.append(per_cluster)
    return dataclasses.replace(
        selected, handles=np.arange(selected.handles.size).reshape(selected.handles.shape),
        posteriors=tuple(p for per_cluster in new_lists for p in per_cluster))


def reference_fusion(locals_, prior, mode) -> GaussianDensity:
    """One list's fusion as a sum from zero, one member pair at a time, then
    the prior correction and one ``from_info``: the one-list arithmetic that
    every density of a batched ``fuse_local_posteriors`` must match bit for
    bit."""
    precision, shift = np.zeros((prior.dim, prior.dim)), np.zeros(prior.dim)
    for g in locals_:
        lam, eta = g.info_form()
        precision += lam
        shift += eta
    if mode == "prior-corrected":
        lam0, eta0 = prior.info_form()
        precision -= (len(locals_) - 1) * lam0
        shift -= (len(locals_) - 1) * eta0
    return from_info(precision, shift)


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


def reference_kept_set_coassociation(reports) -> np.ndarray:
    """The co-association of the kept hypotheses, summed over rounds: each
    report row adds its weight to every client pair, self-pairs included,
    that shares a cluster label. Equals the exact co-association when every
    child of every round is kept (full width, or ``conceptual``)."""
    c = len(reports[0].assignments[0])
    out = np.zeros((c, c))
    for rep in reports:
        for labels, weight in zip(rep.assignments, rep.weights):
            lab = np.asarray(labels)
            out += weight * (lab[:, None] == lab[None, :])
    return out


def brute_force_coassociation(weights, tables) -> np.ndarray:
    """One round's co-association summed over all P * K^C children: child
    (p, labels) weighs w_p prod_j exp(L_p[j, labels_j])."""
    w = np.asarray(weights, dtype=float)
    tables = np.asarray(tables, dtype=float)
    p_count, c, k = tables.shape
    log_w, same = [], []
    for p in range(p_count):
        if w[p] == 0:
            continue
        for labels in itertools.product(range(k), repeat=c):
            log_w.append(np.log(w[p]) + sum(tables[p, j, lab] for j, lab in enumerate(labels)))
            lab = np.array(labels)
            same.append(lab[:, None] == lab[None, :])
    child_w = np.exp(np.array(log_w) - logsumexp(log_w))
    return np.einsum("n,nij->ij", child_w, np.array(same, dtype=float))


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


def _reference_client(cfg, centers, client_dists, src, t, j, n, stream) -> ClientDataset:
    """One client's dataset as the per-client generator drew it: labels by
    ``Generator.choice`` with p, features as a fresh sum, and every array
    copied and checked by ``ClientDataset(...)``."""
    rng = _rng(cfg.seed, stream, src, j)
    g = j // cfg.clients_per_group
    sigma = cfg.noise_sigma
    if cfg.scheme == "label-skew":
        labels = rng.choice(cfg.label_count, size=n, p=client_dists[j])
        feats = centers[labels] + sigma * rng.standard_normal((n, cfg.feature_dim))
    elif cfg.model_kind == "gaussian-mean":
        feats = centers[g] + sigma * rng.standard_normal((n, cfg.feature_dim))
        labels = None
    else:  # bayes-linear
        feats = rng.standard_normal((n, cfg.feature_dim))
        labels = feats @ centers[g] + sigma * rng.standard_normal(n)
    return ClientDataset(client_id=j, round=t, features=feats, labels=labels,
                         true_group=g)


def _reference_truth(cfg):
    count = cfg.label_count if cfg.scheme == "label-skew" else cfg.groups
    centers = separated_centers(count, cfg.feature_dim, cfg.separation * cfg.noise_sigma,
                                _rng(cfg.seed, _PARAMS))
    client_dists = (label_skew_distributions(cfg)[1] if cfg.scheme == "label-skew"
                    else None)
    return centers, client_dists


def reference_scenario_rounds(cfg, T: int) -> tuple:
    """The T x C datasets of ``gen_scenario(cfg, T)``, drawn one client at a
    time by the per-client generator: the oracle for its bytes."""
    centers, client_dists = _reference_truth(cfg)
    return tuple(tuple(_reference_client(cfg, centers, client_dists,
                                         t if cfg.fresh_each_round else 0, t, j,
                                         cfg.samples_per_client_per_round, _ROUNDS)
                       for j in range(cfg.client_count))
                 for t in range(T))


def reference_heldout(cfg, n_samples: int) -> tuple:
    """``gen_heldout(cfg, n_samples)`` by the per-client generator."""
    centers, client_dists = _reference_truth(cfg)
    return tuple(_reference_client(cfg, centers, client_dists, 0, 0, j, n_samples, _HELDOUT)
                 for j in range(cfg.client_count))


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
