"""Compare the run outputs of two checkouts of this repository.

Usage: python tools/diff_audit.py OLD NEW

Runs ``bayescfl run`` from both checkouts (each on its own ``src``) on
``configs/{demo,label_skew,tiny}.json``, the three files in
``perfbench/workloads/`` and eight variants, at seeds 1000, 1001, 2000 and
2001: 56 runs. The variants are written into the temporary directory from
NEW's config files: ``configs/demo.json`` with ``sampled`` weights of 20
draws (several parents per round), ``configs/tiny.json`` as ``bayes-linear``
with ``sampled`` weights, the logistic-sampled workload as
``multi-hypothesis`` with m_max 3 and 20 draws (several parents per round on
the Laplace path), the same workload with one warm-up round, ``at-mean``
weights and ``multi-hypothesis`` at m_max 3 (the warm-up's batched Laplace
fits, and at-mean weights on Laplace posteriors), and one run of each mode
that the files above leave out: ``configs/demo.json`` as ``greedy``,
``configs/label_skew.json`` as ``consensus`` (conjugate, at-mean) and
``configs/tiny.json`` as ``conceptual``, and ``configs/label_skew.json`` with
``prune_log_gap`` 5 (no config file sets a gap). Then it runs ``bayescfl oracle``
from both checkouts on ``configs/tiny.json`` and on a ``tiny+sampled``
variant (7 draws, separation 1), at the same four seeds: 8 oracle runs per
side. Both sides read the same config files, so the two runs of a pair differ
only in the program. For each run it prints whether ``rounds.ndjson`` and
``summary.json`` are byte-identical, whether the assignments, hypothesis ids
and parent ids are identical in every round, the largest absolute change
in weights, log-weights, cluster means, association accuracy and held-out
log-likelihood, and the max and mean absolute change over the off-diagonal
entries of ``coassoc.csv``, the run's summed co-association. A checkout whose
``run`` writes no ``coassoc.csv`` gets it from ``bayescfl export-coassoc
--out`` on the run's directory. A second table
gives, per config, the mean over its seeds of the final association accuracy
and the held-out log-likelihood (both from ``summary.json``) on each side, so
a change that moves report values can quote what it moved. A third table
gives, per oracle run, each side's maximum weight and posterior-mean
deviation and its exit code.

For every config and seed it also prints (column ``data``) whether the
datasets that ``run`` generates are identical on both sides: a SHA-256 over
every scenario round and the held-out set (each dataset's ids, the dtype,
shape and bytes of its features and labels), computed by each checkout's own
interpreter on its own ``src``.

Exit code 0 when every run finished on both sides with identical
assignments and ids (bytes may still differ: read the table), every dataset
digest matches and every oracle run of NEW exits 0, 1 otherwise.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = ("configs/demo.json", "configs/label_skew.json", "configs/tiny.json",
           "perfbench/workloads/label_skew.json", "perfbench/workloads/scaled_rank.json",
           "perfbench/workloads/logistic_sampled.json")
# (base config, name, overrides): sampled weights past the one-parent
# consensus workload, the modes no config file runs, and a pruning gap
VARIANTS = (
    ("configs/demo.json", "demo+sampled",
     {"weight_estimator": "sampled", "weight_samples": 20}),
    ("configs/tiny.json", "tiny+bayes-linear+sampled",
     {"model_kind": "bayes-linear", "weight_estimator": "sampled"}),
    ("perfbench/workloads/logistic_sampled.json", "logistic+multi-hypothesis",
     {"mode": "multi-hypothesis", "m_max": 3, "weight_samples": 20}),
    ("perfbench/workloads/logistic_sampled.json", "logistic+warm-up",
     {"warm_up_rounds": 1, "weight_estimator": "at-mean", "mode": "multi-hypothesis",
      "m_max": 3}),
    ("configs/demo.json", "demo+greedy", {"mode": "greedy"}),
    ("configs/label_skew.json", "label_skew+consensus", {"mode": "consensus"}),
    ("configs/tiny.json", "tiny+conceptual", {"mode": "conceptual"}),
    ("configs/label_skew.json", "label_skew+gap", {"prune_log_gap": 5}),
)
# ``bayescfl oracle`` runs on configs/tiny.json (at-mean weights) and on this
# variant: sampled weights, at a separation where they do not saturate
ORACLE_VARIANT = ("configs/tiny.json", "tiny+sampled",
                  {"weight_estimator": "sampled", "weight_samples": 7, "separation": 1.0})
SEEDS = (1000, 1001, 2000, 2001)
OUTPUTS = ("rounds.ndjson", "summary.json")
ID_FIELDS = ("assignments", "hypothesis_ids", "parent_ids")


# argv: config path and seed pairs; prints one digest (or error) per pair
DIGEST_SCRIPT = """
import hashlib, sys
from bayescfl.config import load_config
from bayescfl.datasets import gen_heldout, gen_scenario

def digest(path, seed):
    plan = load_config(path).with_overrides(seed=seed)
    sc = plan.skew_config
    h = hashlib.sha256()
    for row in (*gen_scenario(sc, plan.round_config.T).rounds,
                gen_heldout(sc, plan.test_samples)):
        for d in row:
            h.update(repr((d.client_id, d.round, d.true_group)).encode())
            for arr in (d.features, d.labels):
                if arr is None:
                    h.update(b"none")
                else:
                    h.update(repr((arr.dtype.str, arr.shape)).encode())
                    h.update(arr.tobytes())
    return h.hexdigest()

args = sys.argv[1:]
for path, seed in zip(args[::2], args[1::2]):
    try:
        print(digest(path, int(seed)))
    except Exception as exc:
        print(f"error: {type(exc).__name__}")
"""


def cli(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    """``bayescfl ARGS`` from checkout's src."""
    return python(checkout, "-m", "bayescfl.cli", *args)


def python(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    """``python ARGS`` with checkout's src on the path."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def dataset_digests(checkout: Path, pairs: list[tuple[Path, int]]) -> list[str]:
    """The SHA-256 of the datasets that ``run`` generates for each (config,
    seed) pair, from checkout's src in one interpreter."""
    proc = python(checkout, "-c", DIGEST_SCRIPT,
                  *(str(arg) for pair in pairs for arg in pair))
    lines = proc.stdout.splitlines()
    return lines if len(lines) == len(pairs) else [f"error: exit {proc.returncode}"] * len(pairs)


def write_variant(new: Path, tmp: Path, base: str, name: str, overrides: dict) -> Path:
    """NEW's config file ``base`` with ``overrides``, written to a file in tmp."""
    path = tmp / "variants" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**json.loads((new / base).read_text()), **overrides}))
    return path


def run(checkout: Path, config: Path, seed: int, out: Path) -> str | None:
    """``bayescfl run`` from checkout's src; None on success, else the error."""
    proc = cli(checkout, "run", "--config", str(config), "--seed", str(seed),
               "--out", str(out))
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"
    return None


def oracle(checkout: Path, config: Path, seed: int) -> tuple[int, str]:
    """``bayescfl oracle`` from checkout's src: its exit code, and its weight
    and posterior-mean deviations (or its first line when it printed none)."""
    proc = cli(checkout, "oracle", "--config", str(config), "--seed", str(seed))
    lines = proc.stdout.splitlines() or proc.stderr.splitlines() or [""]
    devs = [line.rsplit(": ", 1)[1] for line in lines if "deviation:" in line]
    return proc.returncode, " ".join(f"{dev:>9}" for dev in devs) if devs else lines[0]


def ensure_coassoc(checkout: Path, out: Path) -> None:
    """Give a run directory its coassoc.csv: a checkout whose ``run`` writes
    none rebuilds it from rounds.ndjson with ``export-coassoc``."""
    if not (out / "coassoc.csv").exists():
        cli(checkout, "export-coassoc", "--out", str(out))


def coassoc_change(old_dir: Path, new_dir: Path) -> tuple[float, float]:
    """Max and mean |new - old| over the off-diagonal entries of the two
    coassoc.csv files; a missing file or a shape mismatch counts as an
    infinite change."""
    try:
        old, new = ([[float(v) for v in line.split(",")]
                     for line in (d / "coassoc.csv").read_text().splitlines()]
                    for d in (old_dir, new_dir))
    except OSError:
        return math.inf, math.inf
    if [len(row) for row in old] != [len(row) for row in new]:
        return math.inf, math.inf
    deltas = [abs(b - a) for i, (row_a, row_b) in enumerate(zip(old, new))
              for j, (a, b) in enumerate(zip(row_a, row_b)) if i != j]
    return max(deltas, default=0.0), sum(deltas) / max(len(deltas), 1)


def flat(value) -> list[float]:
    """The numbers of a nested list, in order."""
    if isinstance(value, list):
        return [x for item in value for x in flat(item)]
    return [float(value)]


def max_change(old: list[float], new: list[float]) -> float:
    """Largest |new - old| over paired numbers; equal infinities change by 0,
    and a length mismatch counts as an infinite change."""
    if len(old) != len(new):
        return math.inf
    worst = 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        change = abs(b - a)
        worst = math.inf if math.isnan(change) else max(worst, change)
    return worst


def compare(old_dir: Path, new_dir: Path) -> dict:
    same = {name: (old_dir / name).read_bytes() == (new_dir / name).read_bytes()
            for name in OUTPUTS}
    old_rounds, new_rounds = ([json.loads(line) for line in (d / "rounds.ndjson")
                               .read_text().splitlines() if line.strip()]
                              for d in (old_dir, new_dir))
    ids_same = len(old_rounds) == len(new_rounds) and all(
        a[key] == b[key] for a, b in zip(old_rounds, new_rounds) for key in ID_FIELDS)

    def change(pick) -> float:
        return max_change([x for r in old_rounds for x in flat(pick(r))],
                          [x for r in new_rounds for x in flat(pick(r))])

    old_sum, new_sum = (json.loads((d / "summary.json").read_text())
                        for d in (old_dir, new_dir))
    return {
        "finals": [(s["final_metrics"]["association_accuracy"], s["heldout_log_likelihood"])
                   for s in (old_sum, new_sum)],
        **same,
        "ids": ids_same,
        "weights": change(lambda r: r["weights"]),
        "log_weights": change(lambda r: r["log_weights"]),
        "means": change(lambda r: r["cluster_means"]),
        "accuracy": change(lambda r: r["metrics"].get("association_accuracy", 0.0)),
        "heldout_ll": max_change([old_sum["heldout_log_likelihood"]],
                                 [new_sum["heldout_log_likelihood"]]),
        "coassoc": coassoc_change(old_dir, new_dir),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="checkout of the parent")
    parser.add_argument("new", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()

    failures = identical = total = same_data = 0
    finals: dict[str, list] = {}
    print(f"{'config':42} {'seed':>5}  data  rounds  summary  ids   "
          f"max |change|: weights log_weights means accuracy heldout_ll  "
          f"coassoc max mean")
    with tempfile.TemporaryDirectory(prefix="diff-audit-") as tmp:
        configs = {config: new / config for config in CONFIGS}
        for variant in VARIANTS:
            configs[variant[1]] = write_variant(new, Path(tmp), *variant)
        oracle_configs = {"configs/tiny.json": new / "configs/tiny.json",
                          ORACLE_VARIANT[1]: write_variant(new, Path(tmp), *ORACLE_VARIANT)}
        pairs = [(path, seed) for path in configs.values() for seed in SEEDS]
        digests = dict(zip(pairs, zip(dataset_digests(old, pairs),
                                      dataset_digests(new, pairs))))
        for config, path in configs.items():
            for seed in SEEDS:
                total += 1
                old_digest, new_digest = digests[path, seed]
                data_same = old_digest == new_digest and not new_digest.startswith("error")
                same_data += data_same
                data = "same" if data_same else "DIFF"
                out = {side: Path(tmp) / side / config.replace("/", "_") / str(seed)
                       for side in ("old", "new")}
                errors = [err for err in (run(old, path, seed, out["old"]),
                                          run(new, path, seed, out["new"])) if err]
                if errors:
                    failures += 1
                    print(f"{config:42} {seed:>5}  {data:4}  FAILED {errors}")
                    continue
                ensure_coassoc(old, out["old"])
                ensure_coassoc(new, out["new"])
                c = compare(out["old"], out["new"])
                finals.setdefault(config, []).append(c["finals"])
                failures += not (c["ids"] and data_same)
                identical += all(c[name] for name in OUTPUTS)
                print(f"{config:42} {seed:>5}  {data:4}  "
                      f"{'same' if c['rounds.ndjson'] else 'DIFF':6}  "
                      f"{'same' if c['summary.json'] else 'DIFF':7}  "
                      f"{'same' if c['ids'] else 'DIFF':4}  "
                      + " ".join(f"{c[k]:.3g}" for k in
                                 ("weights", "log_weights", "means", "accuracy",
                                  "heldout_ll"))
                      + "  " + " ".join(f"{x:.3g}" for x in c["coassoc"]))
        oracles = [(config, seed, oracle(old, path, seed), oracle(new, path, seed))
                   for config, path in oracle_configs.items() for seed in SEEDS]
    print(f"{total} runs: {identical} byte-identical on both files, "
          f"{same_data} with identical datasets, "
          f"{failures} failed or with differing datasets, assignments or ids")
    print(f"\nmeans over seeds{'':26} {'seeds':>5}  {'accuracy old':>12} {'new':>8}  "
          f"{'held-out LL old':>16} {'new':>12}")
    for config, runs in finals.items():
        (old_acc, old_ll), (new_acc, new_ll) = (
            [sum(values) / len(runs) for values in zip(*(run[side] for run in runs))]
            for side in (0, 1))
        print(f"{config:42} {len(runs):>5}  {old_acc:12.4f} {new_acc:8.4f}  "
              f"{old_ll:16.4f} {new_ll:12.4f}")
    print(f"\noracle{'':36} {'seed':>5}  old: weights     means exit  "
          f"new: weights     means exit")
    for config, seed, (old_code, old_devs), (new_code, new_devs) in oracles:
        failures += new_code != 0
        print(f"{config:42} {seed:>5}  {old_devs:>19} {old_code:>4}  "
              f"{new_devs:>19} {new_code:>4}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
