"""Round-based server/client simulation.

Each communication round has two phases. Phase one broadcasts the current
cluster posteriors of every live hypothesis and collects the per-client,
per-cluster association log-weights (skipped on the wire in greedy mode,
where the decision is local to each client). Phase two broadcasts the chosen
associations, collects local posterior updates, fuses them per cluster, and
applies the mode-specific hypothesis reduction:

  greedy            keep only the single best association
  consensus         keep the best m_max, update, then merge into one
  multi-hypothesis  keep the best m_max trajectories
  conceptual        keep every association (exhaustive oracle; guarded)

A run is deterministic given the config seed: every sampled association
weight draws from its own stream, seeded from the (round, hypothesis, client,
cluster) indices.

Each round computes each distinct local update, fusion and at-mean weight
once. The children of one parent start from the parent's cluster posteriors
and M-best siblings differ in a few labels, so most of that work repeats;
round-scoped memos keyed on the identity of the cluster-posterior object
share it. Phase one is batched: one at-mean call per round scores every
client against every distinct cluster mean of the round, and one sampled call
per client scores the draws of every (hypothesis, cluster) pair, each pair
from its own stream (see ``models``). The same inputs reach the same
arithmetic, so the outputs are the bytes the per-hypothesis, per-draw loops
give.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import count_hypotheses_constrained, enumerate_assignments
from .datasets import ClientDataset
from .density import (GaussianDensity, _factored_gaussian, fuse_local_posteriors,
                      spd_cholesky)
from .errors import ContractError
from .hypotheses import (Candidate, HypothesisSet, consensus_merge, expand,
                         materialize, prune_top_m, root_set, select_greedy,
                         softmax_weights, with_posteriors)
from .metrics import association_accuracy, parameter_rmse
from .models import (LocalModelSpec, assoc_log_weight_at_mean,
                     assoc_log_weight_sampled, posterior_update)
from .reports import CommLedger, RoundReport, report_from_set

MODES = ("conceptual", "greedy", "consensus", "multi-hypothesis")
CONCEPTUAL_GUARD = 10**6
LOG_WEIGHT_FLOOR = -1e12
MEAN_PERTURB_SCALE = 0.1     # initial cluster means, in units of the prior sigma
_SEED_MASK = (1 << 63) - 1

# seed substream tags
_INIT, _WARMUP, _WEIGHTS = 101, 102, 103


def _rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([k & _SEED_MASK for k in keys]))


@dataclass(frozen=True)
class WeightEstimator:
    """How clients turn cluster densities into association weights.

    Each sampled weight draws its n_samples parameters from its own
    reproducible stream, seeded from the run seed and the (round,
    hypothesis, client, cluster) indices.
    """

    kind: str = "at-mean"        # "at-mean" | "sampled"
    n_samples: int = 100

    def __post_init__(self):
        if self.kind not in ("at-mean", "sampled"):
            raise ContractError(f"unknown weight estimator {self.kind!r}")
        if self.n_samples < 1:
            raise ContractError("n_samples must be >= 1")


@dataclass(frozen=True)
class RoundConfig:
    K: int
    C: int
    T: int
    m_max: int = 1
    mode: str = "greedy"
    weight_estimator: WeightEstimator = WeightEstimator()
    fusion_mode: str = "prior-corrected"
    warm_up_rounds: int = 0
    seed: int = 0
    model: LocalModelSpec = LocalModelSpec("gaussian-mean", feature_dim=2,
                                           noise_variance=1.0)
    prior_sigma2: float = 10.0
    prune_log_gap: float | None = None

    def __post_init__(self):
        if min(self.K, self.C, self.T, self.m_max) < 1:
            raise ContractError("K, C, T, m_max must all be >= 1")
        if self.mode not in MODES:
            raise ContractError(f"unknown mode {self.mode!r}")
        if self.fusion_mode not in ("naive-product", "prior-corrected"):
            raise ContractError(f"unknown fusion mode {self.fusion_mode!r}")
        if self.warm_up_rounds not in (0, 1):
            raise ContractError("warm_up_rounds must be 0 or 1 (one warm-up round exists)")
        # NaN fails the comparison too
        if self.prune_log_gap is not None and not self.prune_log_gap >= 0:
            raise ContractError("prune_log_gap must be >= 0")
        if self.prior_sigma2 <= 0:
            raise ContractError("prior_sigma2 must be positive")
        if self.mode == "conceptual":
            if count_hypotheses_constrained(self.K, self.C) ** self.T > CONCEPTUAL_GUARD:
                raise ContractError(
                    "conceptual mode needs K^C^T small enough for full enumeration")


@dataclass(frozen=True)
class ServerState:
    """The live hypotheses (their round is the server's) and the ledger."""

    hypothesis_set: HypothesisSet
    comm: CommLedger


def initialize(cfg: RoundConfig) -> ServerState:
    """Fresh server: K broad priors with seeded mean perturbations to break
    cluster symmetry, one root hypothesis of weight 1."""
    dim = cfg.model.param_dim
    sigma0 = float(np.sqrt(cfg.prior_sigma2))
    rng = _rng(cfg.seed, _INIT)
    cov, chol = spd_cholesky(cfg.prior_sigma2 * np.eye(dim))
    means = MEAN_PERTURB_SCALE * sigma0 * rng.standard_normal((cfg.K, dim))
    priors = [_factored_gaussian(mean, cov, chol) for mean in means]
    return ServerState(hypothesis_set=root_set(priors), comm=CommLedger())


def _kmeans_labels(points: np.ndarray, k: int, rng: np.random.Generator,
                   max_iter: int = 50) -> np.ndarray:
    """Plain k-means with farthest-point seeding; empty clusters reseed at the
    point farthest from its nearest centroid."""
    n = points.shape[0]
    centroids = [points[int(rng.integers(n))]]
    while len(centroids) < k:
        d = np.min([np.sum((points - c) ** 2, axis=1) for c in centroids], axis=0)
        centroids.append(points[int(np.argmax(d))])
    centers = np.stack(centroids)
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dists, axis=1)
        grabbed: set[int] = set()
        for i in range(k):
            if np.any(new_labels == i):
                continue
            # reseed the empty cluster at the point farthest from its own
            # centroid, never grabbing the same point twice in one sweep
            gap = np.min(dists, axis=1).copy()
            for j in grabbed:
                gap[j] = -np.inf
            far = int(np.argmax(gap))
            if not np.isfinite(gap[far]):
                continue  # fewer points than clusters
            new_labels[far] = i
            grabbed.add(far)
        for i in range(k):
            members = points[new_labels == i]
            if len(members):
                centers[i] = members.mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def warm_up(clients: Sequence[ClientDataset],
            cfg: RoundConfig) -> list[GaussianDensity | None]:
    """Cluster the clients' flat-prior posterior means with k-means, then fuse
    each group into one warmed prior per cluster.

    Fusion here is always the naive product: the warmed prior must not depend
    on how many identical members a group happens to have, and the product of
    identical locals keeps their common mean exactly. A group that ends up
    empty (only possible with fewer clients than clusters) gives None, and
    run_training keeps that cluster's initialize() prior.
    """
    if cfg.warm_up_rounds < 1:
        raise ContractError("warm_up requires warm_up_rounds >= 1")
    dim = cfg.model.param_dim
    flat = GaussianDensity(np.zeros(dim), cfg.prior_sigma2 * np.eye(dim))
    locals_ = [posterior_update(flat, d, cfg.model) for d in clients]
    means = np.stack([g.mean for g in locals_])
    labels = _kmeans_labels(means, cfg.K, _rng(cfg.seed, _WARMUP))
    groups = [[g for g, lab in zip(locals_, labels) if lab == i] for i in range(cfg.K)]
    return [fuse_local_posteriors(members, flat, "naive-product") if members else None
            for members in groups]


def _client_log_weights(hset: HypothesisSet, clients: Sequence[ClientDataset],
                        cfg: RoundConfig, round_index: int) -> list[np.ndarray]:
    """One C x K log-weight matrix per live hypothesis.

    At-mean weights take one call per round, over all clients and the
    round's distinct cluster posteriors; each hypothesis gathers its columns
    from the C x U table it returns. Posteriors are told apart by object id,
    which stays unique because ``hset`` holds every one of them for the whole
    call. Sampled weights take one call per client, over every (hypothesis,
    cluster) pair, but are never shared: each (round, p, j, i) has its own
    seed.
    """
    est = cfg.weight_estimator
    if est.kind == "at-mean":
        distinct = {id(c): c for hyp in hset.hypotheses for c in hyp.cluster_posteriors}
        column = {key: u for u, key in enumerate(distinct)}
        clusters = list(distinct.values())
        table = np.maximum(assoc_log_weight_at_mean(clusters, clients, cfg.model),
                           LOG_WEIGHT_FLOOR)
        return [table.take([column[id(c)] for c in hyp.cluster_posteriors], axis=1)
                for hyp in hset.hypotheses]
    pairs = [(p, i, cluster) for p, hyp in enumerate(hset.hypotheses)
             for i, cluster in enumerate(hyp.cluster_posteriors)]
    clusters = [cluster for _, _, cluster in pairs]
    rows = []
    for j, client in enumerate(clients):
        # the 0 holds the place of a retired key, so streams keep their seeds
        seeds = [int(np.random.SeedSequence(
                     [cfg.seed & _SEED_MASK, 0, _WEIGHTS, round_index, p, j, i]
                 ).generate_state(1)[0]) for p, i, _ in pairs]
        rows.append(assoc_log_weight_sampled(clusters, client, cfg.model,
                                             est.n_samples, seeds))
    table = np.maximum(rows, LOG_WEIGHT_FLOOR)
    ends = np.cumsum([hyp.cluster_count for hyp in hset.hypotheses])
    return np.split(table, ends[:-1], axis=1)


def _conceptual_candidates(hset: HypothesisSet,
                           mats: Sequence[np.ndarray]) -> list[Candidate]:
    k = hset.hypotheses[0].cluster_count
    c = mats[0].shape[0]
    out = []
    for p in range(len(hset)):
        w_p = float(hset.normalized_weights[p])
        parent_log_w = float(np.log(w_p)) if w_p > 0 else -np.inf
        for assignment in enumerate_assignments(k, c):
            score = sum(mats[p][j, lab] for j, lab in enumerate(assignment.labels))
            out.append(Candidate(p, assignment, parent_log_w + score))
    return out


def _update_posteriors(selected: HypothesisSet, clients: Sequence[ClientDataset],
                       cfg: RoundConfig) -> HypothesisSet:
    """Phase two: per surviving hypothesis, update every cluster's posterior
    from its assigned clients (clusters with no clients carry over).

    Each local update is computed once per (cluster posterior, client) pair
    and each fusion once per (cluster posterior, member tuple), so siblings
    and carried-over clusters share one immutable posterior object. Keys use
    object ids, which stay unique because ``selected`` holds every prior
    posterior for the whole call.
    """
    local: dict[tuple[int, int], GaussianDensity] = {}
    fused: dict[tuple[int, tuple[int, ...]], GaussianDensity] = {}
    new_lists = []
    for hyp in selected.hypotheses:
        groups = [[] for _ in hyp.cluster_posteriors]
        for j, lab in enumerate(hyp.assignment.labels):
            groups[lab].append(j)
        per_cluster = []
        for prior_i, members in zip(hyp.cluster_posteriors, map(tuple, groups)):
            if not members:
                per_cluster.append(prior_i)
                continue
            key = (id(prior_i), members)
            if key not in fused:
                for j in members:
                    if (id(prior_i), j) not in local:
                        local[id(prior_i), j] = posterior_update(prior_i, clients[j],
                                                                 cfg.model)
                fused[key] = fuse_local_posteriors([local[id(prior_i), j] for j in members],
                                                   prior_i, cfg.fusion_mode)
            per_cluster.append(fused[key])
        new_lists.append(per_cluster)
    return with_posteriors(selected, new_lists)


def _comm_increment(cfg: RoundConfig, parents: int, survivors: int) -> tuple[int, int]:
    dim = cfg.model.param_dim
    if cfg.mode == "greedy":
        return 0, dim * cfg.K
    if cfg.mode == "consensus":
        return cfg.K * cfg.C, dim * cfg.K * cfg.m_max
    if cfg.mode == "multi-hypothesis":
        return cfg.K * cfg.C * cfg.m_max, dim * cfg.K * cfg.m_max
    return cfg.K * cfg.C * parents, dim * cfg.K * survivors  # conceptual


def run_round(server: ServerState, clients: Sequence[ClientDataset],
              cfg: RoundConfig) -> tuple[ServerState, RoundReport]:
    hset = server.hypothesis_set
    if hset.round >= cfg.T:
        raise ContractError("training horizon T already reached")
    if len(clients) != cfg.C:
        raise ContractError(f"expected {cfg.C} client datasets, got {len(clients)}")

    mats = _client_log_weights(hset, clients, cfg, hset.round)

    if cfg.mode == "conceptual":
        cands = _conceptual_candidates(hset, mats)
        children = materialize(cands, hset)
        selected = HypothesisSet(tuple(children),
                                 softmax_weights([h.log_weight for h in children]))
    elif cfg.mode == "greedy":
        selected = select_greedy(expand(hset, mats, 1, cfg.prune_log_gap), hset)
    else:
        cands = expand(hset, mats, cfg.m_max, cfg.prune_log_gap)
        selected = prune_top_m(cands, hset, cfg.m_max)

    updated = _update_posteriors(selected, clients, cfg)
    carried = consensus_merge(updated) if cfg.mode == "consensus" else updated

    weights_inc, params_inc = _comm_increment(cfg, len(hset), len(updated))
    comm = server.comm.advanced(weights_inc, params_inc)

    truth = [d.true_group for d in clients]
    report = report_from_set(updated, cfg.mode, comm=comm.snapshot())
    report = dataclasses.replace(
        report, metrics={"association_accuracy": association_accuracy(report, truth)})
    new_state = ServerState(hypothesis_set=carried, comm=comm)
    return new_state, report


def run_training(cfg: RoundConfig, data, true_params=None,
                 return_state: bool = False):
    """Fold run_round over T rounds of data (T lists of C client datasets).

    Optional true_params adds a parameter_rmse metric per round.
    """
    rounds = [list(r) for r in data]
    if len(rounds) != cfg.T:
        raise ContractError(f"need {cfg.T} rounds of data, got {len(rounds)}")
    for r in rounds:
        if len(r) != cfg.C:
            raise ContractError(f"each round needs {cfg.C} client datasets")

    state = initialize(cfg)
    if cfg.warm_up_rounds >= 1:
        root = state.hypothesis_set.hypotheses[0]
        warmed = [w if w is not None else prior
                  for w, prior in zip(warm_up(rounds[0], cfg), root.cluster_posteriors)]
        root = dataclasses.replace(root, cluster_posteriors=tuple(warmed))
        state = dataclasses.replace(
            state, hypothesis_set=HypothesisSet((root,), np.array([1.0])))

    reports = []
    for t in range(cfg.T):
        state, rep = run_round(state, rounds[t], cfg)
        if true_params is not None:
            rep = dataclasses.replace(
                rep, metrics={**rep.metrics,
                              "parameter_rmse": parameter_rmse(rep, true_params)})
        reports.append(rep)
    return (reports, state) if return_state else reports
