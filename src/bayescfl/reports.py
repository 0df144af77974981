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
        """The report of a ``to_dict`` mapping as JSON gives it back. A
        missing key raises KeyError; a value of the wrong JSON type (a bool or
        string for a number, a number for a list) raises TypeError, as do
        per-hypothesis lists of different lengths."""
        rows = {key: _nested(d[key], depth, kind, key) for key, depth, kind in (
            ("hypothesis_ids", 1, str), ("parent_ids", 1, (str, type(None))),
            ("assignments", 2, int), ("weights", 1, float), ("log_weights", 1, float),
            ("cluster_means", 3, float))}
        if len({len(v) for v in rows.values()}) != 1:
            raise TypeError("the per-hypothesis lists differ in length")
        return cls(
            round=_nested(d["round"], 0, int, "round"),
            mode=_nested(d["mode"], 0, str, "mode"),
            **rows,
            metrics={k: _nested(v, 0, float, "metrics")
                     for k, v in _nested(d["metrics"], 0, dict, "metrics").items()},
            comm={k: _nested(v, 0, int, "comm")
                  for k, v in _nested(d["comm"], 0, dict, "comm").items()},
        )


def _nested(value, depth: int, kind, key: str):
    """value, JSON lists nested depth deep, as nested tuples whose leaves have
    type kind; an int leaf of kind float becomes a float. Anything else, a
    bool in place of a number included, raises TypeError naming key."""
    if depth:
        if not isinstance(value, list):
            raise TypeError(f"{key!r} holds {value!r} where a list belongs")
        return tuple(_nested(v, depth - 1, kind, key) for v in value)
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{key!r} holds {value!r} of the wrong type")
    return value


def report_from_set(hset: HypothesisSet, mode: str,
                    comm: dict[str, int] | None = None) -> RoundReport:
    """The set's report. Row m of round t has id "t:m"; its parent id is
    "t-1:p" for parent row p, None for a row without a parent."""
    t = hset.round
    means = [tuple(g.mean.tolist()) for g in hset.posteriors]
    return RoundReport(
        round=t,
        mode=mode,
        hypothesis_ids=tuple(f"{t}:{m}" for m in range(len(hset))),
        parent_ids=tuple(None if p < 0 else f"{t - 1}:{p}" for p in hset.parents.tolist()),
        assignments=tuple(map(tuple, hset.labels.tolist())),
        weights=tuple(hset.normalized_weights.tolist()),
        log_weights=tuple(hset.log_weights.tolist()),
        cluster_means=tuple(tuple(means[h] for h in row) for row in hset.handles.tolist()),
        comm=dict(comm or {}),
    )


def write_ndjson(reports, path) -> None:
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_dict()) + "\n")


def read_ndjson(path) -> list[RoundReport]:
    """The reports of a newline-delimited JSON log, one per nonempty line.

    A path that cannot be read, or a line that is not a report (bad JSON,
    a missing key, a value of the wrong type), raises ContractError with a
    one-line message naming the file and, for a bad line, its number.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError as exc:
        raise ContractError(f"report log not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractError(f"cannot read report log {path}: {exc}") from exc
    out = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            out.append(RoundReport.from_dict(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ContractError(f"{path} line {number}: bad JSON: {exc}") from exc
        except KeyError as exc:
            raise ContractError(f"{path} line {number}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ContractError(f"{path} line {number}: not a round report: {exc}") from exc
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
