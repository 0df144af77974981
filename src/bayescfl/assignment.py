"""Client-to-cluster assignment under the one-cluster-per-client constraint.

Because each client independently picks exactly one cluster, the total cost of
an assignment separates across clients: the optimum is the per-client argmin,
and every other assignment is a sparse set of per-client rank increments from
it. ``m_best_exact`` ranks the M best assignments by a best-first search over
those sparse diffs (in the line of Murty 1968 and the M-best step of Reid's
MHT), in O(C*K log K + M log M) plus the size of the output. Assignments are
ordered by (cost, labels): cost is ``_total_cost``, the sum of the gathered
entries, and exact cost ties go to the lexicographically smaller labels. When
more than M assignments lie within rounding of the M-th cost, the order among
those near-ties is only kept to rounding level (see ``m_best_exact``).
``m_best_heuristic``, an approximate ranking that no run path calls, is
deprecated and due for removal.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass(frozen=True)
class CostMatrix:
    """C x K matrix of negative log association weights."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.size == 0:
            raise ContractError("cost matrix must be a nonempty 2-D array")
        if not np.all(np.isfinite(entries)):
            raise ContractError("cost matrix entries must be finite")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def client_count(self) -> int:
        return self.entries.shape[0]

    @property
    def cluster_count(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class Assignment:
    """One cluster label per client (the vector form of a binary assignment matrix)."""

    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(map(int, self.labels)))
        if self.labels and min(self.labels) < 0:
            raise ContractError("labels must be nonnegative")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class RankedAssignments:
    """Assignments as rows of an (M, C) label array with their total costs,
    nondecreasing in cost. Iterating or indexing gives (Assignment, cost)
    pairs."""

    labels: np.ndarray
    costs: np.ndarray

    def __post_init__(self):
        labels, costs = np.asarray(self.labels), np.asarray(self.costs, dtype=float)
        if labels.ndim != 2 or costs.shape != labels.shape[:1]:
            raise ContractError("need one cost per row of labels")
        if np.any(costs[1:] < costs[:-1]):
            raise ContractError("costs must be nondecreasing")
        if len({row.tobytes() for row in labels}) != len(costs):
            raise ContractError("duplicate assignments in ranking")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "costs", costs)

    def __len__(self) -> int:
        return len(self.costs)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, idx: int) -> tuple[Assignment, float]:
        return Assignment(self.labels[idx].tolist()), float(self.costs[idx])


def build_cost_matrix(local_log_weights: np.ndarray) -> CostMatrix:
    """Negate per-client log weights. The hypothesis-level log-prior term is
    added later at hypothesis ranking, not folded into the matrix."""
    w = np.asarray(local_log_weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ContractError("log weights must be finite")
    return CostMatrix(-w)


def _total_cost(entries: np.ndarray, labels: tuple[int, ...]) -> float:
    return float(entries[np.arange(len(labels)), list(labels)].sum())


def best_assignment(L: CostMatrix) -> tuple[Assignment, float]:
    """Per-client argmin; ties go to the lowest cluster index."""
    labels = tuple(int(i) for i in np.argmin(L.entries, axis=1))
    return Assignment(labels), _total_cost(L.entries, labels)


def m_best_exact(L: CostMatrix, M: int) -> RankedAssignments:
    """The min(M, K^C) cheapest assignments, ordered by (cost, labels).

    Each row is sorted once (ties to the lower cluster index). A state lists,
    as sparse diffs from the per-client optimum, which rank each touched
    client takes. With the clients ordered by their first increment (then by
    the labels that increment gives), every state has a unique parent, and
    each pop pushes at most three successors: deepen the last touched client,
    slide it to the next client (from its first increment only), or touch the
    next client at its first increment. Pushes update the cost in O(1) and
    carry a key of one integer per touched client that compares like the
    full labels, so states pop in (incremental cost, labels) order, exact
    ties included. That costs O(C*K log K + M log M), plus O(C) per popped
    state to build its labels.

    After the M-th pop, popping goes on while the next incremental cost is
    within a rounding slack of the M-th, for at most M more states. The
    popped states' costs are then recomputed in one row sum, which gives the
    bits of ``_total_cost``, sorted by (cost, labels) and cut to M. If the
    window closes before that bound, the result is exactly the first-M prefix
    of every assignment sorted by that key. Otherwise (more than M
    assignments within rounding of the M-th cost) the tail may differ from
    that prefix by rounding-level cost differences and their label order.
    """
    if M < 1:
        raise ContractError("M must be >= 1")
    entries = L.entries
    C, K = entries.shape
    order = np.argsort(entries, axis=1, kind="stable")
    ranked = np.take_along_axis(entries, order, axis=1)
    incs = ranked - ranked[:, :1]
    # elem[j, r] for r >= 1 compares like the labels with client j moved to
    # rank r: its sign says whether that label is above the optimum's, its
    # magnitude puts lower client indices first; 0 ends a key.
    sign = np.where(order > order[:, :1], 1, -1)
    elem = (C - np.arange(C))[:, None] * K * sign + order
    # the elements are unique, so this is the order of sorting the clients
    # by (first increment, its element)
    active = np.lexsort((elem[:, 1], incs[:, 1])).tolist() if K > 1 else []
    incs, elem = incs.tolist(), elem.tolist()
    base_scale = float(np.abs(ranked[:, 0]).sum())

    def window(cost: float) -> float:
        # exceeds twice the rounding error of any cost near ``cost``
        return cost + 8 * (C + 2) * np.finfo(float).eps * (base_scale + cost)

    def insert(key: tuple[int, ...], e: int) -> tuple[int, ...]:
        # key lists touched clients by increasing index, ended by 0
        j, i = C - abs(e // K), 0
        while key[i] and C - abs(key[i] // K) < j:
            i += 1
        return key[:i] + (e,) + key[i:]

    popped = [(0.0, (0,))]
    # entry: (cost, key, position, rank, rest cost, rest key)
    heap = []
    if active:
        j = active[0]
        heap.append((incs[j][1], insert((0,), elem[j][1]), 0, 1, 0.0, (0,)))
    limit = window(0.0) if M == 1 else math.inf
    while heap and heap[0][0] <= limit and len(popped) < 2 * M:
        cost, key, t, r, rest_cost, rest_key = heapq.heappop(heap)
        popped.append((cost, key))
        if len(popped) == M:
            limit = window(cost)
        j = active[t]
        if r + 1 < K:
            heapq.heappush(heap, (rest_cost + incs[j][r + 1], insert(rest_key, elem[j][r + 1]),
                                  t, r + 1, rest_cost, rest_key))
        if t + 1 < len(active):
            nxt = active[t + 1]
            if r == 1:
                heapq.heappush(heap, (rest_cost + incs[nxt][1], insert(rest_key, elem[nxt][1]),
                                      t + 1, 1, rest_cost, rest_key))
            heapq.heappush(heap, (cost + incs[nxt][1], insert(key, elem[nxt][1]),
                                  t + 1, 1, cost, key))

    # every popped state's labels: the optimum's, overwritten by its key
    flat = np.array([e for _, key in popped for e in key[:-1]], dtype=np.int64)
    labels = np.tile(order[:, 0], (len(popped), 1))
    labels[np.repeat(np.arange(len(popped)), [len(key) - 1 for _, key in popped]),
           C - np.abs(flat // K)] = flat % K
    # each row sums like ``_total_cost`` on that row's labels
    costs = entries[np.arange(C), labels].sum(axis=1)
    keys = list(zip(costs.tolist(), labels.tolist()))
    rows = sorted(range(len(keys)), key=keys.__getitem__)[:M]
    return RankedAssignments(labels[rows], costs[rows])


def m_best_heuristic(L: CostMatrix, M: int) -> RankedAssignments:
    """Linear-time approximate ranking: the optimum plus single-client label
    substitutions, ordered by cost. O(M*C*K); never beats m_best_exact at any
    rank. Returns min(M, 1 + C*(K-1)) items."""
    if M < 1:
        raise ContractError("M must be >= 1")
    entries = L.entries
    C, K = entries.shape
    best, base_cost = best_assignment(L)
    pool = [(base_cost, best.labels)]
    for j in range(C):
        for i in range(K):
            if i == best.labels[j]:
                continue
            labels = best.labels[:j] + (i,) + best.labels[j + 1:]
            pool.append((_total_cost(entries, labels), labels))
    pool.sort(key=lambda item: (item[0], item[1]))
    kept = pool[:min(M, len(pool))]
    return RankedAssignments(np.array([lbl for _, lbl in kept]),
                             np.array([cost for cost, _ in kept]))


def count_hypotheses_unconstrained(K: int, C: int) -> int:
    """Association count when every cluster independently picks any client
    subset: each of the K clusters has 2^C subsets, i.e. 2^(C*K)."""
    if K < 1 or C < 1:
        raise ContractError("K and C must be >= 1")
    return 1 << (C * K)


def count_hypotheses_constrained(K: int, C: int) -> int:
    """Association count under exactly-one-cluster-per-client: K^C."""
    if K < 1 or C < 1:
        raise ContractError("K and C must be >= 1")
    return K**C


def enumerate_assignments(K: int, C: int):
    """All K^C assignments in lexicographic label order (oracle helper)."""
    if K < 1 or C < 1:
        raise ContractError("K and C must be >= 1")
    if K**C > 10**6:
        raise ContractError("refusing to enumerate more than 1e6 assignments")
    for labels in itertools.product(range(K), repeat=C):
        yield Assignment(labels)
