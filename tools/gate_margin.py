"""How far training can speed up before traced benchmark reps fail coverage.

Usage: python tools/gate_margin.py [--root CHECKOUT] [--reps N] [--seed S]
                                   [--config FILE]...

A traced benchmark rep (``perfbench/run.py --trace 1``) fails when the layer
self times under ``run_training`` cover less than 99% of it. The time in no
wrapped layer (mostly ``initialize``, before round 1) does not shrink when
the layers get faster, so a training speed-up raises its share. This tool
runs N traced reps of CHECKOUT's label-skew workload (or of each --config,
which may be given more than once) through CHECKOUT's
``perfbench/probe.py``, one at a time, at scenario seeds S*1000 ..
S*1000+19 in turn, and scores each with ``perfbench/run.py``'s
``span_layers``. For each config it prints one block: the uncovered share
of ``run_training`` (min, median, p90, max), the uncovered time in
host-normalized ms with the part before the first round, and how many reps
would fail the 1% check if training took 0.9, 0.8, 0.7 or 0.5 times as long
with the same uncovered time. It reads ``perfbench/`` and writes nothing
there; outputs go to a temporary directory.

Exit code 0 when every rep of every config ran, 1 otherwise. Standard
library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIO_SEEDS = 20
SCALES = (0.9, 0.8, 0.7, 0.5)
GATE = 0.01


def load_run(root: Path):
    """``perfbench/run.py`` of the checkout as a module, without writing
    bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses look their module up there
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def traced_rep(root: Path, config: Path, seed: int, work: Path) -> dict:
    """The probe's result for one traced ``bayescfl run``; RuntimeError if
    the rep did not exit 0."""
    result = work / "result.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "probe.py"), "--root", str(root),
         "--result", str(result), "--trace", "--",
         "run", "--config", str(config), "--out", str(work / "out"), "--seed", str(seed)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(result.read_text())


def uncovered(run, probe: dict) -> tuple[float, float, float]:
    """One rep's uncovered share of ``run_training``, its uncovered time in
    normalized ms, and the part of that time before the first round."""
    spans = probe["spans"]
    layers, _ = run.span_layers(spans, probe["counts"])
    if not layers:
        raise RuntimeError("no single run_training span")
    speed = run.HostSpeed(spans)
    root = next(i for i, s in enumerate(spans) if s[0] == "simulation.run_training")
    start, end = spans[root][2], spans[root][3]
    first_round = min((s[2] for s in spans if s[0] == "simulation.run_round"), default=end)
    # calibrations take no normalized time, so the children's lengths are
    # exactly the covered time
    covered_before = sum(speed.normalized(s[2], s[3]) for s in spans
                         if s[1] == root and s[2] < first_round)
    share = 1.0 - layers["trace.coverage"]
    return (share, 1e3 * share * speed.normalized(start, end),
            1e3 * (speed.normalized(start, first_round) - covered_before))


def spread(values: list[float], fmt: str) -> str:
    ordered = sorted(values)
    p90 = ordered[min(len(ordered) - 1, round(0.9 * (len(ordered) - 1)))]
    return (f"min {ordered[0]:{fmt}} median {statistics.median(ordered):{fmt}} "
            f"p90 {p90:{fmt}} max {ordered[-1]:{fmt}}")


def margin(run, root: Path, config: Path, reps: int, seed: int) -> bool:
    """Run and print one config's block; whether every rep ran."""
    shares, ms, before, errors = [], [], [], []
    with tempfile.TemporaryDirectory(prefix="gate-margin-") as tmp:
        for i in range(reps):
            rep_seed = seed * 1000 + i % SCENARIO_SEEDS
            try:
                share, total, early = uncovered(run, traced_rep(root, config, rep_seed,
                                                                Path(tmp)))
            except (RuntimeError, OSError, ValueError) as exc:
                errors.append(f"rep {i} (seed {rep_seed}): {exc}")
                continue
            shares.append(share)
            ms.append(total)
            before.append(early)
            print(f"rep {i} seed {rep_seed}: uncovered share {share:.4f} ({total:.3f} ms, "
                  f"{early:.3f} ms before round 1)", flush=True)
    for error in errors:
        print("FAILED " + error, file=sys.stderr)
    print(f"{len(shares)} of {reps} traced reps of {config} at {root}")
    if shares:
        print("uncovered share of run_training: " + spread(shares, ".4f"))
        print("uncovered ms: " + spread(ms, ".3f"))
        print("uncovered ms before round 1: " + spread(before, ".3f"))
        for scale in SCALES:
            failing = sum(share / scale > GATE for share in shares)
            print(f"training {scale:.1f}x as long: {failing} of {len(shares)} reps "
                  f"would fail the {GATE:.0%} coverage check")
    return bool(shares) and not errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to measure (default: this one)")
    parser.add_argument("--reps", type=int, default=40, help="traced reps to run per config")
    parser.add_argument("--seed", type=int, default=1, help="workload seed, as run.py's")
    parser.add_argument("--config", type=Path, action="append",
                        help="run config, one block each; may be repeated "
                             "(default: the checkout's label-skew workload)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    configs = args.config or [root / "perfbench" / "workloads" / "label_skew.json"]
    run = load_run(root)
    ok = [margin(run, root, config.resolve(), args.reps, args.seed) for config in configs]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
