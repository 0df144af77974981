"""Association-hypothesis trajectories across communication rounds.

A round's hypotheses are the rows of one ``HypothesisSet``: one assignment of
clients to clusters per row, the row of its parent in the previous round's
set, an unnormalized log-weight that chains recursively (child log-weight =
log(parent normalized weight) + assignment score), and one integer handle per
cluster into the set's table of cluster posteriors. Rows share posteriors by
handle: children start from their parent's handles, and the round update
gives one handle to every row whose cluster had the same prior and the same
members. The set operations here implement the three reduction strategies
(keep the best, keep M and merge, keep M trajectories) on top of the exact
M-best ranking: ``expand`` ranks the children of every parent in one
``m_best_exact`` search per round, over the round's (P, C, K) stack of
log-weight tables with each parent's log weight as its offset, and returns
them best first, so selection and pruning take a prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import m_best_exact
from .density import GaussianDensity, logsumexp, merge_mixture
from .errors import ContractError, DegenerateHypothesisSetError, NumericalError


@dataclass(frozen=True)
class HypothesisSet:
    """The live hypotheses of one round, one per row. Row m's id is
    (round, m) and its parent's (round - 1, parents[m])."""

    round: int
    labels: np.ndarray              # (M, C) cluster per client; C = 0 at the root
    parents: np.ndarray             # (M,) row in the previous round's set, -1 for none
    log_weights: np.ndarray         # (M,) unnormalized joint log-weights
    normalized_weights: np.ndarray  # (M,)
    handles: np.ndarray             # (M, K) rows of ``posteriors``, one per cluster
    posteriors: tuple[GaussianDensity, ...]

    def __post_init__(self):
        labels, parents, log_weights, handles = map(
            np.asarray, (self.labels, self.parents, self.log_weights, self.handles))
        w = np.array(self.normalized_weights, dtype=float)
        if w.ndim != 1 or not len(w):
            raise ContractError("hypothesis set must be nonempty")
        if (parents.shape != w.shape or log_weights.shape != w.shape
                or labels.ndim != 2 or len(labels) != len(w)
                or handles.ndim != 2 or len(handles) != len(w) or handles.shape[1] < 1):
            raise ContractError("one label row, parent, log-weight and row of at least one "
                                "handle per hypothesis required")
        if handles.min() < 0 or handles.max() >= len(self.posteriors):
            raise ContractError("handles must index the posterior table")
        if abs(float(w.sum()) - 1.0) > 1e-9 or np.any(w < 0):
            raise ContractError("normalized weights must be nonnegative and sum to 1")
        w.flags.writeable = False
        for name, value in (("labels", labels), ("parents", parents),
                            ("log_weights", log_weights), ("normalized_weights", w),
                            ("handles", handles), ("posteriors", tuple(self.posteriors))):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.normalized_weights)


@dataclass(frozen=True)
class Candidates:
    """Proposed children, one per row: parent row, labels, joint log-weight."""

    parents: np.ndarray
    labels: np.ndarray
    log_weights: np.ndarray

    def __len__(self) -> int:
        return len(self.log_weights)

    def first(self, m: int) -> Candidates:
        """The first m rows."""
        return Candidates(self.parents[:m], self.labels[:m], self.log_weights[:m])


def root_set(cluster_priors: Sequence[GaussianDensity]) -> HypothesisSet:
    """Single round-0 hypothesis of weight 1 (no assignment yet)."""
    return HypothesisSet(0, np.zeros((1, 0), dtype=int), np.array([-1]), np.zeros(1),
                         np.ones(1), np.arange(len(cluster_priors))[None],
                         tuple(cluster_priors))


def expand(hset: HypothesisSet, log_weight_tables, m_max: int,
           prune_log_gap: float | None = None) -> Candidates:
    """Globally best m_max children across all parents, best first: largest
    log-weight, then parent row, then labels.

    ``log_weight_tables`` holds one C x K table of per-client log weights
    per parent, as a (P, C, K) stack or a sequence of P tables. A child
    scores log(parent weight) + the sum of its per-client log weights. One
    ``m_best_exact`` search ranks every parent's children together; optional
    prune_log_gap drops children whose log-weight trails the best by more
    than the gap.
    """
    if m_max < 1:
        raise ContractError("m_max must be >= 1")
    tables = np.asarray(log_weight_tables, dtype=float)
    k = hset.handles.shape[1]
    if tables.ndim != 3 or len(tables) != len(hset) or tables.shape[2] != k:
        raise ContractError(f"need one C x {k} log-weight table per hypothesis, "
                            f"got shape {tables.shape}")
    with np.errstate(divide="ignore"):
        parent_log_w = np.log(hset.normalized_weights)
    ranked = m_best_exact(-tables, m_max, parent_log_w, prune_log_gap)
    return Candidates(ranked.parents, ranked.labels, ranked.log_weights)


def softmax_weights(log_weights: Sequence[float]) -> np.ndarray:
    lw = np.asarray(log_weights, dtype=float)
    if not np.any(np.isfinite(lw)):
        raise DegenerateHypothesisSetError("all hypothesis log-weights are -inf")
    return np.exp(lw - logsumexp(lw))


def materialize(candidates: Candidates, parents: HypothesisSet) -> HypothesisSet:
    """The candidates as the next round's set, in their order and weighted by
    the softmax of their log-weights. Children start from their parent's
    posterior handles; the round update replaces them after the local
    posterior phase."""
    if not len(candidates):
        raise ContractError("no candidates to materialize")
    weights = softmax_weights(candidates.log_weights)
    if abs(float(weights.sum()) - 1.0) > 1e-9:
        raise NumericalError(
            f"hypothesis log-weights down to {float(np.min(candidates.log_weights)):.3g} carry "
            "the log-weight floor (-1e12): their softmax does not sum to 1")
    return HypothesisSet(parents.round + 1, candidates.labels, candidates.parents,
                         candidates.log_weights, weights,
                         parents.handles[candidates.parents], parents.posteriors)


def select_greedy(candidates: Candidates, parents: HypothesisSet) -> HypothesisSet:
    """Keep only the first candidate (the best, as ``expand`` orders them),
    with weight exactly 1."""
    return materialize(candidates.first(1), parents)


def prune_top_m(candidates: Candidates, parents: HypothesisSet,
                m_max: int) -> HypothesisSet:
    """Keep the first min(m_max, #candidates) candidates (the best, as
    ``expand`` orders them), renormalized."""
    if m_max < 1:
        raise ContractError("m_max must be >= 1")
    return materialize(candidates.first(m_max), parents)


def consensus_merge(hset: HypothesisSet) -> HypothesisSet:
    """Collapse the set to one hypothesis by moment-matched merging of each
    cluster's posterior mixture. The survivor keeps the top-weight member's
    assignment as its representative labels and gets weight 1."""
    if len(hset) == 1:
        return hset
    w = hset.normalized_weights / hset.normalized_weights.sum()
    merged = tuple(merge_mixture(w, [hset.posteriors[h] for h in column])
                   for column in hset.handles.T.tolist())
    top = int(np.argmax(w))
    return HypothesisSet(hset.round, hset.labels[top:top + 1], np.array([-1]), np.zeros(1),
                         np.ones(1), np.arange(len(merged))[None], merged)
