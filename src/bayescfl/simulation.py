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

A run is deterministic given the config seed: each round's sampled
association weights take their standard normals from one (C, S, d) table,
drawn by one generator seeded from the run seed and the round index. Client
j's row gives its draws under every posterior, so a weight is a function of
(posterior, client, round), whichever hypotheses hold that posterior.

Each round computes each distinct local update, fusion and association weight
once. A hypothesis set holds its cluster posteriors in one table, and each
hypothesis names its clusters' posteriors by integer handles into it. The
children of one parent start from the parent's handles and M-best siblings
differ in a few labels, so most of that work repeats; round-scoped memos
keyed on handles share it. Phase one is batched: one weight call per round,
at-mean or sampled, scores every client against every posterior of the
table, and each hypothesis gathers its columns by its handles. Phase two is
batched too: one ``posterior_update`` call per round fits the round's distinct
(handle, client) pairs, and one ``fuse_local_posteriors`` call fuses its
distinct nonempty (handle, member tuple) keys; the warm-up fits its clients
in one call and fuses its groups in another. The same inputs reach the same
arithmetic, so the outputs are the bytes the per-hypothesis, per-draw,
per-pair and per-fusion loops give.

Each round also adds its co-association to the server state: the exact
probability that two clients share a cluster, over every child of the
round's parents rather than only the kept ones, computed from the phase-one
tables (``metrics.round_coassociation``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import RankedAssignments, enumerate_assignments
from .datasets import ClientDataset, _rng
from .density import GaussianDensity, _factored_gaussians, fuse_local_posteriors
from .errors import ContractError, NumericalError
from .hypotheses import (HypothesisSet, consensus_merge, expand, materialize, prune_top_m,
                         root_set, select_greedy)
from .metrics import association_accuracy, parameter_rmse, round_coassociation
from .models import (LocalModelSpec, assoc_log_weight_at_mean, assoc_log_weight_sampled,
                     posterior_update)
from .reports import CommLedger, RoundReport, report_from_set

MODES = ("conceptual", "greedy", "consensus", "multi-hypothesis")
CONCEPTUAL_GUARD = 10**6
LOG_WEIGHT_FLOOR = -1e12
MEAN_PERTURB_SCALE = 0.1     # initial cluster means, in units of the prior sigma

# seed substream tags
_INIT, _WARMUP, _WEIGHTS = 101, 102, 103


@dataclass(frozen=True)
class WeightEstimator:
    """How clients turn cluster densities into association weights.

    A sampled weight averages the likelihood over n_samples draws from the
    cluster posterior; a round's draws come from one table of standard
    normals, seeded from the run seed and the round index.
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

    def __post_init__(self):
        if min(self.K, self.C, self.T, self.m_max) < 1:
            raise ContractError("K, C, T, m_max must all be >= 1")
        if self.mode not in MODES:
            raise ContractError(f"unknown mode {self.mode!r}")
        if self.fusion_mode not in ("naive-product", "prior-corrected"):
            raise ContractError(f"unknown fusion mode {self.fusion_mode!r}")
        if self.warm_up_rounds not in (0, 1):
            raise ContractError("warm_up_rounds must be 0 or 1 (one warm-up round exists)")
        # NaN fails the comparison too; the prior's closed-form factor needs
        # a finite variance
        if not 0 < self.prior_sigma2 < math.inf:
            raise ContractError("prior_sigma2 must be positive and finite")
        # K^(C*T) with the exponent capped at the guard's bit length: for K >= 2
        # both sides of the cap exceed the guard, and the exact power of a
        # large instance has millions of digits
        if self.mode == "conceptual" and self.K ** min(
                self.C * self.T, CONCEPTUAL_GUARD.bit_length()) > CONCEPTUAL_GUARD:
            raise ContractError(
                "conceptual mode needs K^C^T small enough for full enumeration")


@dataclass(frozen=True)
class ServerState:
    """The live hypotheses (their round is the server's), the ledger, and the
    C x C co-association summed over the rounds so far."""

    hypothesis_set: HypothesisSet
    comm: CommLedger
    coassociation: np.ndarray


def initialize(cfg: RoundConfig,
               warmed: Sequence[GaussianDensity | None] = ()) -> ServerState:
    """Fresh server: K broad priors with seeded mean perturbations to break
    cluster symmetry, one root hypothesis of weight 1. A warmed prior given
    for a cluster (not None) takes the place of its broad one.

    The K broad priors share one covariance, sigma^2 I, and its factor in
    closed form, sigma I: the bits of LAPACK's Cholesky factor of sigma^2 I.
    They are built in one stacked, once-checked step
    (``density._factored_gaussians``).
    """
    dim = cfg.model.param_dim
    sigma0 = float(np.sqrt(cfg.prior_sigma2))
    rng = _rng(cfg.seed, _INIT)
    means = MEAN_PERTURB_SCALE * sigma0 * rng.standard_normal((cfg.K, dim))
    eye = np.eye(dim)
    priors = _factored_gaussians(means, cfg.prior_sigma2 * eye, sigma0 * eye)
    for i, prior in enumerate(warmed):
        if prior is not None:
            priors[i] = prior
    return ServerState(hypothesis_set=root_set(priors), comm=CommLedger(),
                       coassociation=np.zeros((cfg.C, cfg.C)))


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
    run_training keeps that cluster's initialize() prior. The nonempty groups
    are fused in one ``fuse_local_posteriors`` call.

    k-means only measures squared distances between these means and convex
    combinations of them, so when the pairwise squared distances are finite
    so are its own; when they are not, the data overflow k-means and
    NumericalError is raised before it runs.
    """
    if cfg.warm_up_rounds < 1:
        raise ContractError("warm_up requires warm_up_rounds >= 1")
    dim = cfg.model.param_dim
    flat = GaussianDensity(np.zeros(dim), cfg.prior_sigma2 * np.eye(dim))
    locals_ = posterior_update([flat] * len(clients), clients, cfg.model)
    means = np.stack([g.mean for g in locals_])
    with np.errstate(over="ignore", invalid="ignore"):
        spread = ((means[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    if not np.isfinite(spread).all():
        raise NumericalError("warm-up: squared distances between the clients' flat-prior "
                             "posterior means are not finite: the data overflow k-means")
    labels = _kmeans_labels(means, cfg.K, _rng(cfg.seed, _WARMUP))
    groups = [[g for g, lab in zip(locals_, labels) if lab == i] for i in range(cfg.K)]
    nonempty = [members for members in groups if members]
    fused = iter(fuse_local_posteriors(nonempty, [flat] * len(nonempty), "naive-product"))
    return [next(fused) if members else None for members in groups]


def _client_log_weights(hset: HypothesisSet, clients: Sequence[ClientDataset],
                        cfg: RoundConfig, round_index: int) -> np.ndarray:
    """One C x K log-weight matrix per live hypothesis, as a (P, C, K) stack.

    Either estimator takes one call per round, over all clients and the
    posteriors of ``hset``'s table, and each hypothesis gathers its columns
    of the C x U result by its handles. Sampled weights draw from one
    (C, S, d) table of normals, seeded from (seed, ``_WEIGHTS``, round), whose
    row j serves client j under every posterior.

    Finite data give finite log weights, so a table entry that is not finite
    comes from overflow in the likelihood: it raises NumericalError before
    the floor could turn it into a finite weight.
    """
    est = cfg.weight_estimator
    if est.kind == "at-mean":
        table = assoc_log_weight_at_mean(hset.posteriors, clients, cfg.model)
    else:
        normals = _rng(cfg.seed, _WEIGHTS, round_index).standard_normal(
            (len(clients), est.n_samples, cfg.model.param_dim))
        table = assoc_log_weight_sampled(hset.posteriors, clients, cfg.model, normals)
    table = _floored(table)
    return np.ascontiguousarray(table.take(hset.handles, axis=1).transpose(1, 0, 2))


def _floored(table: np.ndarray) -> np.ndarray:
    """A log-weight table with every entry raised to at least LOG_WEIGHT_FLOOR;
    NumericalError if some entry is not finite."""
    if not np.isfinite(table).all():
        raise NumericalError("association log-weights are not finite: the data "
                             "overflow the likelihood")
    return np.maximum(table, LOG_WEIGHT_FLOOR)


def _conceptual_candidates(hset: HypothesisSet,
                           mats: Sequence[np.ndarray]) -> RankedAssignments:
    """Every child of every parent, by parent row and then labels in
    lexicographic order: its cost is the negated sum of its per-client log
    weights, its log-weight log(parent weight) plus that sum."""
    k, c = hset.handles.shape[1], mats[0].shape[0]
    parents, labels, costs, log_weights = [], [], [], []
    for p in range(len(hset)):
        w_p = float(hset.normalized_weights[p])
        parent_log_w = float(np.log(w_p)) if w_p > 0 else -np.inf
        for assignment in enumerate_assignments(k, c):
            score = sum(mats[p][j, lab] for j, lab in enumerate(assignment.labels))
            parents.append(p)
            labels.append(assignment.labels)
            costs.append(-score)
            log_weights.append(parent_log_w + score)
    return RankedAssignments(np.array(parents), np.array(labels), np.array(costs),
                             np.array(log_weights))


def _update_posteriors(selected: HypothesisSet, clients: Sequence[ClientDataset],
                       cfg: RoundConfig) -> HypothesisSet:
    """Phase two: per surviving hypothesis, update every cluster's posterior
    from its assigned clients (clusters with no clients carry over).

    The round's distinct (handle, client) pairs are collected in first-seen
    order and updated in one ``posterior_update`` call; each fusion is then
    computed once per (handle, member tuple), so siblings share one
    posterior, and the round's fusions take one ``fuse_local_posteriors``
    call. The result's table holds each distinct (handle, member tuple)
    once, in first-seen order; a cluster with no members keeps its
    posterior.
    """
    posts, handle_rows = selected.posteriors, selected.handles.tolist()
    member_lists = []
    pairs: dict[tuple[int, int], None] = {}
    for labels, handles in zip(selected.labels.tolist(), handle_rows):
        groups = [[] for _ in handles]
        for j, lab in enumerate(labels):
            groups[lab].append(j)
        member_lists.append(list(map(tuple, groups)))
        for h, members in zip(handles, groups):
            for j in members:
                pairs.setdefault((h, j), None)
    local = dict(zip(pairs, posterior_update([posts[h] for h, _ in pairs],
                                             [clients[j] for _, j in pairs], cfg.model)))

    new_handle: dict[tuple[int, tuple[int, ...]], int] = {}
    flat_handles = []
    for handles, groups in zip(handle_rows, member_lists):
        for key in zip(handles, groups):
            flat_handles.append(new_handle.setdefault(key, len(new_handle)))
    new_posts = [posts[h] for h, _ in new_handle]
    fused_at = [k for k, (_, members) in enumerate(new_handle) if members]
    fused = fuse_local_posteriors(
        [[local[h, j] for j in members] for h, members in new_handle if members],
        [posts[h] for h, members in new_handle if members], cfg.fusion_mode)
    for k, posterior in zip(fused_at, fused):
        new_posts[k] = posterior
    return dataclasses.replace(selected,
                               handles=np.reshape(flat_handles, selected.handles.shape),
                               posteriors=tuple(new_posts))


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
        selected = materialize(_conceptual_candidates(hset, mats), hset)
    elif cfg.mode == "greedy":
        selected = select_greedy(expand(hset, mats, 1), hset)
    else:
        cands = expand(hset, mats, cfg.m_max)
        selected = prune_top_m(cands, hset, cfg.m_max)

    updated = _update_posteriors(selected, clients, cfg)
    carried = consensus_merge(updated) if cfg.mode == "consensus" else updated

    weights_inc, params_inc = _comm_increment(cfg, len(hset), len(updated))
    comm = server.comm.advanced(weights_inc, params_inc)

    truth = [d.true_group for d in clients]
    report = report_from_set(updated, cfg.mode, comm=comm.snapshot())
    report = dataclasses.replace(
        report, metrics={"association_accuracy": association_accuracy(report, truth)})
    coassociation = server.coassociation + round_coassociation(hset.normalized_weights, mats)
    new_state = ServerState(hypothesis_set=carried, comm=comm, coassociation=coassociation)
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

    # the warmed priors go into the one root set that initialize builds
    state = initialize(cfg, warm_up(rounds[0], cfg) if cfg.warm_up_rounds >= 1 else ())

    reports = []
    for t in range(cfg.T):
        state, rep = run_round(state, rounds[t], cfg)
        if true_params is not None:
            rep = dataclasses.replace(
                rep, metrics={**rep.metrics,
                              "parameter_rmse": parameter_rmse(rep, true_params)})
        reports.append(rep)
    return (reports, state) if return_state else reports
