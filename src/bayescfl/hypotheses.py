"""Association-hypothesis trajectories across communication rounds.

A hypothesis pairs one assignment of clients to clusters with the cluster
posteriors it implies and an unnormalized log-weight that chains recursively:
child log-weight = log(parent normalized weight) + assignment score. The set
operations here implement the three reduction strategies (keep the best,
keep M and merge, keep M trajectories) on top of the exact M-best ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .assignment import Assignment, build_cost_matrix, m_best_exact
from .density import GaussianDensity, logsumexp, merge_mixture
from .errors import ContractError, DegenerateHypothesisSetError

HypothesisId = tuple[int, int]   # (round, creation rank)


@dataclass(frozen=True)
class Hypothesis:
    """One association trajectory. Cluster posteriors are immutable, so
    hypotheses may share them: children start from their parent's objects,
    and the round update hands one object to every hypothesis whose cluster
    had the same prior and the same members."""

    id: HypothesisId
    parent_id: HypothesisId | None
    round: int
    assignment: Assignment          # empty labels for the round-0 root
    log_weight: float               # unnormalized joint log-weight
    cluster_posteriors: tuple[GaussianDensity, ...]

    def __post_init__(self):
        object.__setattr__(self, "cluster_posteriors", tuple(self.cluster_posteriors))
        if not self.cluster_posteriors:
            raise ContractError("hypothesis needs at least one cluster posterior")

    @property
    def cluster_count(self) -> int:
        return len(self.cluster_posteriors)


@dataclass(frozen=True)
class HypothesisSet:
    hypotheses: tuple[Hypothesis, ...]
    normalized_weights: np.ndarray

    def __post_init__(self):
        hyps = tuple(self.hypotheses)
        if not hyps:
            raise ContractError("hypothesis set must be nonempty")
        if len({h.round for h in hyps}) != 1:
            raise ContractError("all hypotheses must share the same round")
        w = np.array(self.normalized_weights, dtype=float)
        if w.shape != (len(hyps),):
            raise ContractError("one weight per hypothesis required")
        if abs(float(w.sum()) - 1.0) > 1e-9 or np.any(w < 0):
            raise ContractError("normalized weights must be nonnegative and sum to 1")
        w.flags.writeable = False
        object.__setattr__(self, "hypotheses", hyps)
        object.__setattr__(self, "normalized_weights", w)

    def __len__(self) -> int:
        return len(self.hypotheses)

    @property
    def round(self) -> int:
        return self.hypotheses[0].round


class Candidate(NamedTuple):
    """A proposed child: parent index, assignment, joint log-weight."""

    parent_index: int
    assignment: Assignment
    log_weight: float


def root_set(cluster_priors: Sequence[GaussianDensity]) -> HypothesisSet:
    """Single round-0 hypothesis of weight 1 (no assignment yet)."""
    root = Hypothesis(id=(0, 0), parent_id=None, round=0,
                      assignment=Assignment(()), log_weight=0.0,
                      cluster_posteriors=tuple(cluster_priors))
    return HypothesisSet((root,), np.array([1.0]))


def _candidate_sort_key(c: Candidate):
    # best first: largest log-weight, then parent index, then labels
    return (-c.log_weight, c.parent_index, c.assignment.labels)


def expand(hset: HypothesisSet,
           per_hyp_log_weight_matrices: Sequence[np.ndarray],
           m_max: int,
           prune_log_gap: float | None = None) -> list[Candidate]:
    """Globally best m_max children across all parents.

    Each parent contributes its m_max best assignments (exact ranking of its
    cost matrix); children score log(parent weight) + sum of per-client log
    weights. Optional prune_log_gap drops candidates whose log-weight trails
    the best by more than the gap.
    """
    if m_max < 1:
        raise ContractError("m_max must be >= 1")
    if len(per_hyp_log_weight_matrices) != len(hset):
        raise ContractError("need one log-weight matrix per hypothesis")

    candidates: list[Candidate] = []
    for p, (hyp, mat) in enumerate(zip(hset.hypotheses, per_hyp_log_weight_matrices)):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != hyp.cluster_count:
            raise ContractError(
                f"matrix for parent {p} must be C x {hyp.cluster_count}, got {mat.shape}")
        parent_log_w = float(np.log(hset.normalized_weights[p])) \
            if hset.normalized_weights[p] > 0 else -np.inf
        ranking = m_best_exact(build_cost_matrix(mat), m_max)
        for assignment, cost in ranking:
            candidates.append(Candidate(p, assignment, parent_log_w - cost))

    candidates.sort(key=_candidate_sort_key)
    kept = candidates[:m_max]
    if prune_log_gap is not None and kept:
        floor = kept[0].log_weight - prune_log_gap
        kept = [c for c in kept if c.log_weight >= floor]
    return kept


def softmax_weights(log_weights: Sequence[float]) -> np.ndarray:
    lw = np.asarray(log_weights, dtype=float)
    if not np.any(np.isfinite(lw)):
        raise DegenerateHypothesisSetError("all hypothesis log-weights are -inf")
    return np.exp(lw - logsumexp(lw))


def materialize(candidates: Sequence[Candidate], parents: HypothesisSet) -> list[Hypothesis]:
    """Turn candidates into child hypotheses (ids by creation rank). The
    children initially carry their parent's cluster posteriors; the round
    update replaces them after the local posterior phase."""
    if not candidates:
        raise ContractError("no candidates to materialize")
    child_round = parents.round + 1
    out = []
    for rank, cand in enumerate(candidates):
        parent = parents.hypotheses[cand.parent_index]
        out.append(Hypothesis(id=(child_round, rank), parent_id=parent.id,
                              round=child_round, assignment=cand.assignment,
                              log_weight=cand.log_weight,
                              cluster_posteriors=parent.cluster_posteriors))
    return out


def select_greedy(candidates: Sequence[Candidate],
                  parents: HypothesisSet) -> HypothesisSet:
    """Keep only the single best candidate, with weight exactly 1."""
    if not candidates:
        raise ContractError("no candidates to select from")
    top = min(candidates, key=_candidate_sort_key)
    children = materialize([top], parents)
    return HypothesisSet(tuple(children), np.array([1.0]))


def prune_top_m(candidates: Sequence[Candidate], parents: HypothesisSet,
                m_max: int) -> HypothesisSet:
    """Keep the min(m_max, #candidates) best candidates, renormalized."""
    if m_max < 1:
        raise ContractError("m_max must be >= 1")
    if not candidates:
        raise ContractError("no candidates to prune")
    ranked = sorted(candidates, key=_candidate_sort_key)[:m_max]
    children = materialize(ranked, parents)
    return HypothesisSet(tuple(children),
                         softmax_weights([h.log_weight for h in children]))


def consensus_merge(hset: HypothesisSet) -> HypothesisSet:
    """Collapse the set to one hypothesis by moment-matched merging of each
    cluster's posterior mixture. The survivor keeps the top-weight member's
    assignment as its representative labels and gets weight 1."""
    if len(hset) == 1:
        return hset
    w = hset.normalized_weights / hset.normalized_weights.sum()
    k = hset.hypotheses[0].cluster_count
    if any(h.cluster_count != k for h in hset.hypotheses):
        raise ContractError("hypotheses disagree on cluster count")
    merged = tuple(
        merge_mixture(w, [h.cluster_posteriors[i] for h in hset.hypotheses])
        for i in range(k)
    )
    top = int(np.argmax(w))
    rep = hset.hypotheses[top]
    single = Hypothesis(id=(hset.round, 0), parent_id=None, round=hset.round,
                        assignment=rep.assignment, log_weight=0.0,
                        cluster_posteriors=merged)
    return HypothesisSet((single,), np.array([1.0]))


def with_posteriors(hset: HypothesisSet,
                    new_posteriors: Sequence[Sequence[GaussianDensity]]) -> HypothesisSet:
    """Same hypotheses and weights, new cluster posteriors (post-round update)."""
    if len(new_posteriors) != len(hset):
        raise ContractError("need one posterior list per hypothesis")
    hyps = tuple(replace(h, cluster_posteriors=tuple(ps))
                 for h, ps in zip(hset.hypotheses, new_posteriors))
    return HypothesisSet(hyps, hset.normalized_weights)
