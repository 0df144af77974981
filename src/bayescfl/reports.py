"""Round reports and their newline-delimited JSON serialization.

Reports are plain data: everything a round produced that evaluation needs
(assignments, weights, log-weights, posterior means, metrics, communication
counters), in a form that round-trips exactly through JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ContractError
from .hypotheses import HypothesisSet


@dataclass(frozen=True)
class CommLedger:
    """Monotone counters of transmitted quantities."""

    weights_sent: int = 0
    model_params_sent: int = 0
    rounds_logged: int = 0

    def advanced(self, weights: int, model_params: int) -> "CommLedger":
        if weights < 0 or model_params < 0:
            raise ContractError("communication counts cannot be negative")
        return CommLedger(self.weights_sent + weights,
                          self.model_params_sent + model_params,
                          self.rounds_logged + 1)

    def snapshot(self) -> dict[str, int]:
        return {"weights_sent": self.weights_sent,
                "model_params_sent": self.model_params_sent,
                "rounds_logged": self.rounds_logged}


def _id_str(hid) -> str | None:
    return None if hid is None else f"{hid[0]}:{hid[1]}"


@dataclass(frozen=True)
class RoundReport:
    round: int
    mode: str
    hypothesis_ids: tuple[str, ...]
    parent_ids: tuple[str | None, ...]
    assignments: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]
    log_weights: tuple[float, ...]
    cluster_means: tuple[tuple[tuple[float, ...], ...], ...]  # hyp x K x dim
    metrics: dict[str, float] = field(default_factory=dict)
    comm: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ContractError("hypothesis weights must sum to 1")

    def to_dict(self) -> dict:
        return {
            "round": self.round,
            "mode": self.mode,
            "hypothesis_ids": list(self.hypothesis_ids),
            "parent_ids": list(self.parent_ids),
            "assignments": [list(a) for a in self.assignments],
            "weights": list(self.weights),
            "log_weights": list(self.log_weights),
            "cluster_means": [[list(m) for m in hyp] for hyp in self.cluster_means],
            "metrics": dict(self.metrics),
            "comm": dict(self.comm),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RoundReport":
        return cls(
            round=int(d["round"]),
            mode=str(d["mode"]),
            hypothesis_ids=tuple(d["hypothesis_ids"]),
            parent_ids=tuple(d["parent_ids"]),
            assignments=tuple(tuple(int(v) for v in a) for a in d["assignments"]),
            weights=tuple(float(v) for v in d["weights"]),
            log_weights=tuple(float(v) for v in d["log_weights"]),
            cluster_means=tuple(tuple(tuple(float(v) for v in m) for m in hyp)
                                for hyp in d["cluster_means"]),
            metrics={k: float(v) for k, v in d["metrics"].items()},
            comm={k: int(v) for k, v in d["comm"].items()},
        )


def report_from_set(hset: HypothesisSet, mode: str,
                    comm: dict[str, int] | None = None) -> RoundReport:
    return RoundReport(
        round=hset.round,
        mode=mode,
        hypothesis_ids=tuple(_id_str(h.id) for h in hset.hypotheses),
        parent_ids=tuple(_id_str(h.parent_id) for h in hset.hypotheses),
        assignments=tuple(h.assignment.labels for h in hset.hypotheses),
        weights=tuple(float(w) for w in hset.normalized_weights),
        log_weights=tuple(float(h.log_weight) for h in hset.hypotheses),
        cluster_means=tuple(
            tuple(tuple(float(v) for v in g.mean) for g in h.cluster_posteriors)
            for h in hset.hypotheses),
        comm=dict(comm or {}),
    )


def write_ndjson(reports, path) -> None:
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_dict()) + "\n")


def read_ndjson(path) -> list[RoundReport]:
    path = Path(path)
    if not path.exists():
        raise ContractError(f"report log not found: {path}")
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(RoundReport.from_dict(json.loads(line)))
    return out


def write_summary(summary: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


def trajectories(reports) -> list[dict[int, tuple]]:
    """Per round, map each report row index to its full assignment trajectory
    (the chain of assignments from round 1). Lets runs that label the same
    trajectories with different hypothesis ids be compared."""
    by_id: dict = {}
    out = []
    for rep in reports:
        cur = {}
        for idx, (hid, pid, assignment) in enumerate(
                zip(rep.hypothesis_ids, rep.parent_ids, rep.assignments)):
            cur[idx] = by_id.get(pid, ()) + (assignment,)
        by_id = {rep.hypothesis_ids[i]: t for i, t in cur.items()}
        out.append(cur)
    return out
