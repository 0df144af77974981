"""bayescfl benchmark: fresh-process ``bayescfl run`` calls on fixed workloads.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each rep spawns a fresh interpreter (perfbench/probe.py) that imports the
checkout's src/bayescfl and calls ``cli_run(["run", ...])``, one rep at a time
(closed loop, no arrival process), until --seconds have passed. Every rep's
outputs are checked. With --trace 0 the last stdout line is a JSON object with
the end-to-end metrics; with --trace 1 reps alternate between untraced and
fully traced and the JSON holds the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROBE = BENCH_DIR / "probe.py"
DEV_SEED = 1          # seed for developing a change
HELDOUT_SEED = 2      # seed a claim must also hold on, unused while developing
REP_TIMEOUT_S = 170   # the whole invocation must end within 180 s
WEIGHT_SUM_TOL = 1e-9

# Host-speed normalization. On a shared 2-core host the speed of one process
# drifts by up to ~2x in regimes lasting from a second to minutes, and CPU
# time equals wall time, so raw medians of 30 s runs differ by ~30% between
# runs. The probe times a fixed ~3 ms calibration loop, independent of the
# program, about every 0.1 s (see probe.py); HostSpeed turns that into a clock
# that reads seconds on a host where the loop takes CAL_REF_S. Raw medians
# are printed alongside.
CAL_REF_S = 0.0028
CAL_WINDOW = 2


@dataclass(frozen=True)
class Workload:
    config: str            # file under perfbench/workloads
    scenario_seeds: int    # distinct program seeds a run cycles through


WORKLOADS = {
    "label-skew": Workload("label_skew.json", 20),
    "scaled-rank": Workload("scaled_rank.json", 2),
    "logistic-sampled": Workload("logistic_sampled.json", 6),
}

END_TO_END = [  # name, unit (BENCHMARK.json holds the bounds)
    ("setup_s", "s"), ("total_s", "s"), ("train_s", "s"),
    ("round_ms.p50", "ms"), ("round_ms.p90", "ms"),
    ("assoc_evals_per_s", "1/s"), ("peak_rss_mb", "MB"),
    ("final_accuracy", "ratio"), ("heldout_nll", "nats"),
]

PER_LAYER = [
    ("cli.import_s", "s"), ("config.load_s", "s"),
    ("datasets.gen_scenario_s", "s"), ("datasets.gen_heldout_s", "s"),
    ("datasets.client_rounds", "count"),
    ("models.assoc_weight_calls", "count"), ("models.assoc_weight_s", "s"),
    ("models.assoc_weight_us", "us"),
    ("models.posterior_update_calls", "count"), ("models.posterior_update_s", "s"),
    ("density.fuse_calls", "count"), ("density.fuse_s", "s"),
    ("density.merge_calls", "count"), ("density.gaussians_built", "count"),
    ("assignment.m_best_calls", "count"), ("assignment.m_best_s", "s"),
    ("assignment.ranked_items", "count"),
    ("hypotheses.expand_self_s", "s"), ("hypotheses.kept_ratio", "ratio"),
    ("hypotheses.prune_s", "s"), ("hypotheses.live_mean", "count"),
    ("simulation.round_self_s", "s"),
    ("metrics.accuracy_s", "s"), ("metrics.heldout_ll_s", "s"),
    ("reports.report_from_set_s", "s"), ("reports.write_s", "s"),
    ("reports.bytes_written", "bytes"),
    ("trace.overhead_s", "s"), ("trace.coverage", "ratio"), ("trace.spans", "count"),
]

# Layers that only some workloads reach. They are printed, but kept out of the
# JSON result: on the other workloads they read exactly 0 s on every run.
PRINT_ONLY = [
    ("density.merge_s", "s"), ("hypotheses.consensus_merge_s", "s"),
    ("simulation.warm_up_s", "s"), ("metrics.rmse_s", "s"),
]

# span name -> per-layer self-time metric
SELF_TIME = {
    "cli.import": "cli.import_s", "config.load": "config.load_s",
    "datasets.gen_scenario": "datasets.gen_scenario_s",
    "datasets.gen_heldout": "datasets.gen_heldout_s",
    "models.assoc_weight": "models.assoc_weight_s",
    "models.posterior_update": "models.posterior_update_s",
    "density.fuse": "density.fuse_s", "density.merge": "density.merge_s",
    "assignment.m_best": "assignment.m_best_s",
    "hypotheses.expand": "hypotheses.expand_self_s",
    "hypotheses.prune": "hypotheses.prune_s",
    "hypotheses.consensus_merge": "hypotheses.consensus_merge_s",
    "simulation.run_round": "simulation.round_self_s",
    "simulation.warm_up": "simulation.warm_up_s",
    "metrics.accuracy": "metrics.accuracy_s", "metrics.rmse": "metrics.rmse_s",
    "metrics.heldout_ll": "metrics.heldout_ll_s",
    "reports.report_from_set": "reports.report_from_set_s",
    "reports.write": "reports.write_s",
}
CALLS = {
    "models.assoc_weight": "models.assoc_weight_calls",
    "models.posterior_update": "models.posterior_update_calls",
    "density.fuse": "density.fuse_calls", "density.merge": "density.merge_calls",
    "assignment.m_best": "assignment.m_best_calls",
}


class HostSpeed:
    """Reference-speed clock of one run, from its ``calibrate`` spans.

    ``clock(t)`` maps a perf_counter time to seconds at the reference speed.
    It stands still during a calibration. Between two calibrations it runs at
    CAL_REF_S / (median duration of the CAL_WINDOW calibrations before and
    after the gap), which smooths out single calibrations that a brief stall
    made slow. Any interval's normalized length is clock(t1) - clock(t0), and
    these lengths add up across intervals.
    """

    def __init__(self, spans: list):
        cal = sorted((s[2], s[3]) for s in spans if s[0] == "calibrate")
        if not cal:
            raise ValueError("run has no calibration spans")
        self.starts = [start for start, _ in cal]
        self.ends = [end for _, end in cal]
        durations = [end - start for start, end in cal]
        # rates[k]: clock rate in the gap before calibration k (k == len: after the last)
        self.rates = [CAL_REF_S / statistics.median(durations[max(0, k - CAL_WINDOW):k + CAL_WINDOW])
                      for k in range(len(cal) + 1)]
        self.at_start = [0.0]   # clock at the start of each calibration
        for k in range(1, len(cal)):
            self.at_start.append(self.at_start[-1]
                                 + (self.starts[k] - self.ends[k - 1]) * self.rates[k])

    def clock(self, t: float) -> float:
        k = bisect_right(self.starts, t)    # calibrations started by t
        if k == 0:
            return (t - self.starts[0]) * self.rates[0]
        if t < self.ends[k - 1]:
            return self.at_start[k - 1]
        return self.at_start[k - 1] + (t - self.ends[k - 1]) * self.rates[k]

    def normalized(self, t0: float, t1: float) -> float:
        return self.clock(t1) - self.clock(t0)


def environment() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "loadavg": list(os.getloadavg()),
    }


@dataclass
class Rep:
    """One fresh-process run; times are normalized (see HostSpeed)."""

    ok: bool
    problems: list
    seed: int = 0
    factor: float = 1.0        # host-speed factor over the whole run
    setup_s: float = 0.0
    total_s: float = 0.0
    train_s: float = 0.0
    raw: tuple = ()            # unnormalized (setup_s, total_s, train_s)
    rounds_ms: tuple = ()
    evals: int = 0
    rss_mb: float = 0.0
    digest: str = ""
    accuracy: float = math.nan
    heldout_ll: float = math.nan
    layers: dict | None = None


def _probe(argv_tail: list, result: Path, traced: bool, deadline: float):
    argv = [sys.executable, str(PROBE), "--root", str(ROOT), "--result", str(result)]
    if traced:
        argv.append("--trace")
    timeout = max(5.0, min(REP_TIMEOUT_S, deadline - perf_counter()))
    spawn = perf_counter()
    try:
        proc = subprocess.run(argv + ["--"] + argv_tail, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return None, spawn, perf_counter(), f"timed out after {timeout:.0f} s"
    end = perf_counter()
    if proc.returncode != 0:
        return None, spawn, end, f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(result.read_text()), spawn, end, None
    except (OSError, json.JSONDecodeError) as exc:
        return None, spawn, end, f"unreadable probe result: {exc}"


def check_outputs(out_dir: Path, T: int) -> tuple[list, str, float, float]:
    """Problems with one run's outputs, the digest of rounds.ndjson, and the
    final association accuracy and held-out log-likelihood."""
    problems = []
    try:
        raw = (out_dir / "rounds.ndjson").read_bytes()
        rounds = [json.loads(line) for line in raw.splitlines()]
        weight_sums = [math.fsum(rep["weights"]) for rep in rounds]
        accuracy = float(rounds[-1]["metrics"]["association_accuracy"]) if rounds else math.nan
        summary = json.loads((out_dir / "summary.json").read_text())
        heldout = float(summary["heldout_log_likelihood"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable outputs: {exc!r}"], "", math.nan, math.nan
    if len(rounds) != T:
        problems.append(f"{len(rounds)} lines in rounds.ndjson, expected {T}")
    for index, total in enumerate(weight_sums):
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            problems.append(f"round {index + 1} weights sum to {total!r}")
    if not math.isfinite(accuracy):
        problems.append(f"final accuracy {accuracy!r}")
    if not math.isfinite(heldout):
        problems.append(f"held-out log-likelihood {heldout!r}")
    return problems, hashlib.sha256(raw).hexdigest(), accuracy, heldout


def span_layers(spans: list, counts: dict) -> tuple[dict, list]:
    """Per-layer values of one traced run, and problems with its trace."""
    problems = []
    speed = HostSpeed(spans)
    length = [speed.normalized(start, end) for _, _, start, end in spans]
    child = [0.0] * len(spans)
    for (name, parent, start, end), dur in zip(spans, length):
        if parent is not None:
            p_start, p_end = spans[parent][2], spans[parent][3]
            if start < p_start or end > p_end:
                problems.append(f"span {name} escapes its parent {spans[parent][0]}")
            child[parent] += dur
    self_s: dict = defaultdict(float)
    calls: Counter = Counter()
    for (name, _, _, _), dur, covered in zip(spans, length, child):
        self_s[name] += dur - covered
        calls[name] += 1

    train = [i for i, s in enumerate(spans) if s[0] == "simulation.run_training"]
    if len(train) != 1:
        return {}, problems + [f"{len(train)} run_training spans"]
    root = train[0]
    under = {root: True}

    def inside(i):
        if i not in under:
            p = spans[i][1]
            under[i] = p is not None and inside(p)
        return under[i]

    below = math.fsum(length[i] - child[i] for i, (name, _, _, _) in enumerate(spans)
                      if i != root and name != "calibrate" and inside(i))
    coverage = below / length[root]
    if abs(1.0 - coverage) > 0.01:
        problems.append(f"layer self times cover {coverage:.4f} of run_training")

    layers = {metric: self_s.get(name, 0.0) for name, metric in SELF_TIME.items()}
    layers.update({metric: calls.get(name, 0) for name, metric in CALLS.items()})
    layers["models.assoc_weight_us"] = (
        1e6 * layers["models.assoc_weight_s"] / max(1, layers["models.assoc_weight_calls"]))
    layers["datasets.client_rounds"] = counts.get("datasets.client_rounds", 0)
    layers["density.gaussians_built"] = counts.get("density.gaussians_built", 0)
    layers["assignment.ranked_items"] = counts.get("assignment.ranked_items", 0)
    layers["hypotheses.kept_ratio"] = (
        counts.get("hypotheses.kept", 0) / max(1, layers["assignment.ranked_items"]))
    layers["hypotheses.live_mean"] = (
        counts.get("hypotheses.live", 0) / max(1, calls["simulation.run_round"]))
    layers["trace.coverage"] = coverage
    layers["trace.spans"] = sum(s[0] != "calibrate" for s in spans)
    return layers, problems


def run_rep(work: Path, index: int, config: Path, seed: int, traced: bool,
            T: int, C: int, K: int, deadline: float) -> Rep:
    out_dir = work / f"rep{index}"
    result = work / f"rep{index}.json"
    probe, spawn, end, error = _probe(
        ["run", "--config", str(config), "--out", str(out_dir), "--seed", str(seed)],
        result, traced, deadline)
    if error:
        return Rep(False, [error], seed)
    spans = probe["spans"]
    train = [s for s in spans if s[0] == "simulation.run_training"]
    if len(train) != 1:
        return Rep(False, [f"{len(train)} run_training spans"], seed)
    _, _, train_start, train_end = train[0]
    speed = HostSpeed(spans)
    problems, digest, accuracy, heldout = check_outputs(out_dir, T)
    rep = Rep(
        ok=not problems, problems=problems, seed=seed,
        factor=speed.normalized(spawn, end) / (end - spawn),
        setup_s=speed.normalized(spawn, train_start), total_s=speed.normalized(spawn, end),
        train_s=speed.normalized(train_start, train_end),
        raw=(train_start - spawn, end - spawn, train_end - train_start),
        rounds_ms=tuple(1e3 * speed.normalized(s[2], s[3])
                        for s in spans if s[0] == "simulation.run_round"),
        evals=probe["counts"].get("hypotheses.live", 0) * C * K,
        rss_mb=probe["maxrss_kb"] / 1024.0, digest=digest,
        accuracy=accuracy, heldout_ll=heldout)
    if traced:
        rep.layers, trace_problems = span_layers(spans, probe["counts"])
        rep.layers["reports.bytes_written"] = sum(
            (out_dir / name).stat().st_size for name in ("rounds.ndjson", "summary.json"))
        rep.problems += trace_problems
        rep.ok = not rep.problems
    shutil.rmtree(out_dir, ignore_errors=True)
    result.unlink(missing_ok=True)
    return rep


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def end_to_end(reps: list) -> dict:
    good = [r for r in reps if r.ok]
    rounds = [ms for r in good for ms in r.rounds_ms]
    first = {}
    for r in good:  # quality per distinct scenario seed (deterministic)
        first.setdefault(r.seed, r)
    return {
        "setup_s": _median(r.setup_s for r in good),
        "total_s": _median(r.total_s for r in good),
        "train_s": _median(r.train_s for r in good),
        "round_ms.p50": _median(rounds),
        "round_ms.p90": statistics.quantiles(rounds, n=10)[8] if len(rounds) > 1 else math.nan,
        "assoc_evals_per_s": _median(r.evals / r.train_s for r in good),
        "peak_rss_mb": _median(r.rss_mb for r in good),
        "final_accuracy": statistics.fmean(r.accuracy for r in first.values()) if first else math.nan,
        "heldout_nll": -statistics.fmean(r.heldout_ll for r in first.values()) if first else math.nan,
    }


def per_layer(reps: list) -> dict:
    traced = [r for r in reps if r.ok and r.layers]
    untraced = [r for r in reps if r.ok and not r.layers]
    out = {name: _median(r.layers[name] for r in traced)
           for name, _ in PER_LAYER + PRINT_ONLY if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (_median(r.train_s for r in traced)
                               - _median(r.train_s for r in untraced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEV_SEED,
                        help=f"workload seed (development {DEV_SEED}, held-out {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/bayescfl/__init__.py", "configs/tiny.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: not a bayescfl checkout, missing {missing} under {ROOT}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    config = BENCH_DIR / "workloads" / workload.config
    raw = json.loads(config.read_text())
    T, K, C = raw["T"], raw["K"], raw["groups"] * raw["clients_per_group"]
    seeds = [args.seed * 1000 + i for i in range(workload.scenario_seeds)]
    print("env " + json.dumps(environment()), flush=True)

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    started = perf_counter()
    hard_deadline = started + REP_TIMEOUT_S
    try:
        _, _, _, oracle_error = _probe(
            ["oracle", "--config", "configs/tiny.json"], work / "oracle.json", False,
            hard_deadline)
        if oracle_error:
            print(f"oracle check failed: {oracle_error}", file=sys.stderr)

        reps: list[Rep] = []
        digests: dict = {}
        problems: list = []
        # trace 0: cycle through every scenario seed, then rerun the first;
        # trace 1: each seed untraced, then traced (a rerun of the same inputs)
        min_reps = len(seeds) + 1 if args.trace == 0 else 2
        measure_end = perf_counter() + args.seconds
        while len(reps) < min_reps or perf_counter() < measure_end:
            i = len(reps)
            traced = args.trace == 1 and i % 2 == 1
            seed = seeds[(i // 2 if args.trace else i) % len(seeds)]
            rep = run_rep(work, i, config, seed, traced, T, C, K, hard_deadline)
            if rep.ok and digests.setdefault(seed, rep.digest) != rep.digest:
                rep.ok = False
                rep.problems.append(f"rerun of seed {seed} changed rounds.ndjson")
            if not rep.ok:
                problems += [f"rep {i} (seed {seed}): {p}" for p in rep.problems]
            print(f"rep {i} seed {seed} {'traced' if traced else 'untraced'} "
                  f"{'ok' if rep.ok else 'FAILED'}: train_s {rep.train_s:.4f} "
                  f"total_s {rep.total_s:.4f} speed factor {rep.factor:.3f} "
                  f"raw {' '.join(f'{v:.4f}' for v in rep.raw)}", flush=True)
            reps.append(rep)
            if perf_counter() > hard_deadline - 20:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = sum(not r.ok for r in reps)
    for p in problems:
        print("check failed: " + p, file=sys.stderr)
    good = [r for r in reps if r.ok]
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} reps "
          f"({len(good)} ok, {failed} failed) in {perf_counter() - started:.1f} s; "
          f"scenario seeds {seeds[0]}..{seeds[-1]}; oracle {'ok' if not oracle_error else 'FAILED'}")
    print(f"error_rate {failed / max(1, len(reps)):.6g} ratio")
    if args.trace == 0:
        metrics = end_to_end(reps)
        units = dict(END_TO_END)
        rounds = sum(len(r.rounds_ms) for r in good)
        factor = _median(r.factor for r in good)
        print(f"(times scaled to the reference host speed: median factor {factor:.3f}; "
              f"{rounds} rounds behind round_ms)")
        print("raw medians: " + " ".join(
            f"{name} {_median(r.raw[i] for r in good):.4f}"
            for i, name in enumerate(("setup_s", "total_s", "train_s"))))
        shown = list(metrics.items())
    else:
        all_layers = per_layer(reps)
        units = dict(PER_LAYER + PRINT_ONLY)
        print(f"train_s untraced {_median(r.train_s for r in good if not r.layers):.4f} s, "
              f"traced {_median(r.train_s for r in good if r.layers):.4f} s")
        shown = list(all_layers.items())
        metrics = {name: all_layers[name] for name, _ in PER_LAYER}
    for name, value in shown:
        print(f"{name:32s} {value:>16.6g} {units[name]}")

    correct = not oracle_error and failed == 0 and bool(good) and all(
        math.isfinite(v) for v in metrics.values())
    print(json.dumps({
        "correct": correct, "attempted": len(reps), "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
