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

A round ranks the children of every live hypothesis in one such search: given
a (P, C, K) stack of cost tables and each parent's log-weight as its offset,
one heap seeded with every parent's optimum yields the global M best
children, ordered by (log-weight, parent row, labels), the truncated mixture
of M-best rankings of a GLMB-style filter (Vo, Vo & Phung 2014).

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
    """Ranked children, one per row: the parent's row in the stack of cost
    tables, one label per client, the cost (the row sum of the parent's
    table at those labels) and the log-weight (the parent's offset minus
    that cost). Iterating or indexing gives (Assignment, cost) pairs."""

    parents: np.ndarray
    labels: np.ndarray
    costs: np.ndarray
    log_weights: np.ndarray

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


def m_best_exact(L: CostMatrix | np.ndarray, M: int, offsets: np.ndarray | None = None,
                 log_gap: float | None = None) -> RankedAssignments:
    """The M best children of one or more parents, best first.

    L is one C x K cost matrix, or a (P, C, K) stack with one table per
    parent. A child of parent p is an assignment, its cost the row sum of
    L[p] at its labels, and its log-weight ``offsets[p]`` minus that cost
    (offsets default to 0). Children are ordered by (log-weight descending,
    parent row, labels), so one matrix at offset 0 gives the min(M, K^C)
    cheapest assignments in (cost, labels) order, exact cost ties going to
    the lexicographically smaller labels. A parent at offset -inf (zero
    weight) offers its M cheapest assignments; their log-weights all tie at
    -inf, so they follow every finite child, by parent row and then labels.
    With ``log_gap``, children whose log-weight trails the best by more than
    the gap are dropped from the end.

    Each row is sorted once for the whole stack (ties to the lower cluster
    index). A state lists, as sparse diffs from its parent's per-client
    optimum, which rank each touched client takes. With each parent's
    clients ordered by their first increment (then by the labels that
    increment gives), every state has a unique predecessor, and each pop
    pushes at most three successors: deepen the last touched client, slide
    it to the next client (from its first increment only), or touch the next
    client at its first increment. One heap holds every parent's states,
    seeded with each parent's optimum at cost ``optimum - offset``. Pushes
    update the cost in O(1) and carry the parent row and a key of one
    integer per touched client that compares like the full labels, so states
    pop in (cost, parent, labels) order, exact ties included. A client's row
    is read into Python only when the search reaches it. That costs
    O(P*C*K log K + M log(M + P)), plus O(C) per popped state to build its
    labels.

    After the M-th pop, popping goes on while the next cost is within a
    rounding slack of the M-th, for at most M more states. The popped
    states' costs are then recomputed in one row sum, which gives the bits
    of ``_total_cost``, their log-weights taken as offset minus that sum,
    and the states sorted by the key above and cut to M. If the window
    closes before that bound, the result is exactly the first-M prefix of
    every child sorted by that key. Otherwise (more than M children within
    rounding of the M-th) the tail may differ from that prefix by
    rounding-level differences and their order.
    """
    if M < 1:
        raise ContractError("M must be >= 1")
    entries = L.entries if isinstance(L, CostMatrix) else np.asarray(L, dtype=float)
    if entries.ndim == 2:
        entries = entries[None]
    P, C, K = entries.shape if entries.ndim == 3 else (0, 0, 0)
    offsets = np.zeros(P) if offsets is None else np.asarray(offsets, dtype=float)
    if not P or not C or not K or offsets.shape != (P,):
        raise ContractError("need a nonempty (P, C, K) cost stack and one offset per table")
    order = np.argsort(entries, axis=2, kind="stable")
    # each client's optimum and, for K > 1, its runner-up
    first_two = np.take_along_axis(entries, order[:, :, :2], axis=2)
    heads = first_two[:, :, 0]
    # elem(p, j, r) for r >= 1 (built by ``row``) compares like the labels
    # with client j moved to rank r: its sign says whether that label is
    # above the optimum's, its magnitude (span[j] plus the label) puts lower
    # client indices first; 0 ends a key.
    span = (C - np.arange(C)) * K
    if K > 1:
        # the elements are unique, so this orders each parent's clients by
        # (first increment, its element)
        second = order[:, :, 1]
        active = np.lexsort((np.where(second > order[:, :, 0], second + span, second - span),
                             first_two[:, :, 1] - heads))
    else:
        active = np.zeros((P, 0), dtype=np.intp)
    slack = 8 * (C + 2) * np.finfo(float).eps
    acts: dict[int, list] = {}
    rows: dict[tuple[int, int], tuple[list, list]] = {}

    def row(p: int, j: int) -> tuple[list, list]:
        """Client j's increments over its optimum and its elements, by rank,
        under parent p."""
        if (p, j) not in rows:
            ranks, costs = order[p, j].tolist(), entries[p, j].tolist()
            top, width = ranks[0], int(span[j])
            rows[p, j] = ([costs[i] - costs[top] for i in ranks],
                          [i + width if i > top else i - width for i in ranks])
        return rows[p, j]

    def insert(key: tuple[int, ...], e: int) -> tuple[int, ...]:
        # key lists touched clients by increasing index, ended by 0
        j, i = C - abs(e // K), 0
        while key[i] and C - abs(key[i] // K) < j:
            i += 1
        return key[:i] + (e,) + key[i:]

    def best(seeds: list[int], offs: np.ndarray) -> list[np.ndarray]:
        """(parents, labels, costs) of the M best children of the seed
        parents, each at its offset in offs, in the order above."""
        scale = float((np.abs(heads[seeds]).sum(axis=1) + np.abs(offs[seeds])).max())
        # entry: (cost, parent, key, position, rank, rest cost, rest key)
        heap = [(cost, p, (0,), -1, 0, None, None)
                for cost, p in zip((heads[seeds].sum(axis=1) - offs[seeds]).tolist(), seeds)]
        heapq.heapify(heap)
        popped, limit = [], math.inf
        while heap and heap[0][0] <= limit and len(popped) < 2 * M:
            cost, p, key, t, r, rest_cost, rest_key = heapq.heappop(heap)
            popped.append((p, key))
            if len(popped) == M:
                # exceeds twice the rounding error of any cost near ``cost``
                limit = cost + slack * (scale + abs(cost))
            if p not in acts:
                acts[p] = active[p].tolist()
            act = acts[p]
            if t >= 0 and r + 1 < K:
                inc, el = row(p, act[t])
                heapq.heappush(heap, (rest_cost + inc[r + 1], p, insert(rest_key, el[r + 1]),
                                      t, r + 1, rest_cost, rest_key))
            if t + 1 < len(act):
                inc, el = row(p, act[t + 1])
                if r == 1:
                    heapq.heappush(heap, (rest_cost + inc[1], p, insert(rest_key, el[1]),
                                          t + 1, 1, rest_cost, rest_key))
                heapq.heappush(heap, (cost + inc[1], p, insert(key, el[1]), t + 1, 1, cost, key))

        parents = np.array([p for p, _ in popped], dtype=np.intp)
        keys = [key for _, key in popped]
        # every popped state's labels: its parent's optimum, overwritten by its key
        flat = np.array([e for key in keys for e in key[:-1]], dtype=np.int64)
        labels = order[parents, :, 0]
        labels[np.repeat(np.arange(len(keys)), [len(key) - 1 for key in keys]),
               C - np.abs(flat // K)] = flat % K
        # each row sums like ``_total_cost`` on that row's labels
        costs = entries[parents[:, None], np.arange(C), labels].sum(axis=1)
        items = list(zip((costs - offs[parents]).tolist(), parents.tolist(), keys))
        top = sorted(range(len(items)), key=items.__getitem__)[:M]
        return [parents[top], labels[top], costs[top]]

    finite = offsets > -np.inf
    blocks = [best(np.flatnonzero(finite).tolist(), offsets)] if finite.any() else []
    for p in np.flatnonzero(~finite).tolist():
        room = M - sum(len(block[0]) for block in blocks)
        if room <= 0:
            break
        cheapest = best([p], np.zeros(P))
        by_labels = np.lexsort(cheapest[1].T[::-1])[:room]
        blocks.append([part[by_labels] for part in cheapest])
    parents, labels, costs = (np.concatenate(parts) for parts in zip(*blocks))
    log_w = offsets[parents] - costs
    if log_gap is not None:
        keep = int(np.count_nonzero(log_w >= log_w[0] - log_gap))
        parents, labels, costs, log_w = parents[:keep], labels[:keep], costs[:keep], log_w[:keep]
    return RankedAssignments(parents, labels, costs, log_w)


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
    costs = np.array([cost for cost, _ in kept])
    return RankedAssignments(np.zeros(len(kept), dtype=np.intp),
                             np.array([lbl for _, lbl in kept]), costs, -costs)


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
