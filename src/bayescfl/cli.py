"""Command-line entry point.

Subcommands:
  run     execute a configured training run, write rounds.ndjson,
          summary.json and coassoc.csv into the output directory
  sweep   grid of runs over the config's sweep.mode x sweep.m_max,
          one subdirectory per combination
  oracle  tiny-instance check: exhaustive conceptual enumeration vs
          full-width multi-hypothesis, printing the max deviations

coassoc.csv is the C x C sum over rounds of the exact probability that two
clients share a cluster; its diagonal is T.

Exit codes: 0 success, 1 configuration/usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import metrics, reports
from .config import RunPlan, canonical_dict, load_config
from .datasets import gen_heldout, gen_scenario
from .errors import ConfigError, ContractError, NumericalError
from .simulation import run_training

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors (exit 1), not argparse's exit 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bayescfl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    options = {"--config": {"help": "path to the JSON run configuration"},
               "--out": {"default": "out", "help": "output directory"},
               "--seed": {"type": int, "help": "override config seed"},
               "--mode": {"help": "override config mode"},
               "--m-max": {"type": int, "help": "override config m_max"}}
    for name, (_, names) in _COMMANDS.items():    # only the options it reads
        p = sub.add_parser(name)
        for option in names:
            p.add_argument(option, **options[option])
    return parser


def _load_plan(args) -> RunPlan:
    if not args.config:
        raise ConfigError("--config is required for this command")
    plan = load_config(args.config)
    return plan.with_overrides(seed=args.seed, mode=getattr(args, "mode", None),
                               m_max=getattr(args, "m_max", None))


def _make_out_dir(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc


def _execute_run(plan: RunPlan, out_dir: Path) -> dict:
    rc, sc = plan.round_config, plan.skew_config
    _make_out_dir(out_dir)
    scenario = gen_scenario(sc, rc.T)
    heldout = gen_heldout(sc, plan.test_samples)
    run_reports, state = run_training(rc, scenario.rounds,
                                      true_params=scenario.group_params, return_state=True)
    reports.write_ndjson(run_reports, out_dir / "rounds.ndjson")
    metrics.coassociation_to_csv(state.coassociation, out_dir / "coassoc.csv")
    final = run_reports[-1]
    summary = {
        "config": canonical_dict(plan),
        "rounds": len(run_reports),
        "final_metrics": dict(final.metrics),
        "heldout_log_likelihood": metrics.heldout_log_likelihood(
            final, heldout, rc.model),
        "comm": dict(final.comm),
        "final_hypotheses": {
            "ids": list(final.hypothesis_ids),
            "assignments": [list(a) for a in final.assignments],
            "weights": list(final.weights),
            "log_weights": list(final.log_weights),
        },
    }
    reports.write_summary(summary, out_dir / "summary.json")
    return summary


def _cmd_run(args) -> int:
    plan = _load_plan(args)
    _execute_run(plan, Path(args.out))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    plan = _load_plan(args)
    out_root = Path(args.out)
    _make_out_dir(out_root)
    index = []
    for mode in plan.sweep_modes:
        for m_max in plan.sweep_m_max:
            sub = plan.with_overrides(mode=mode, m_max=m_max)
            name = f"{mode}-m{m_max}"
            summary = _execute_run(sub, out_root / name)
            index.append({"run": name, "mode": mode, "m_max": m_max,
                          "final_metrics": summary["final_metrics"],
                          "heldout_log_likelihood": summary["heldout_log_likelihood"]})
    reports.write_summary({"runs": index}, out_root / "sweep.json")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    plan = _load_plan(args)
    rc = plan.round_config
    full_width = (rc.K ** rc.C) ** rc.T
    conceptual_cfg = dataclasses.replace(rc, mode="conceptual")
    mh_cfg = dataclasses.replace(rc, mode="multi-hypothesis", m_max=full_width)
    scenario = gen_scenario(plan.skew_config, rc.T)
    ref = run_training(conceptual_cfg, scenario.rounds)
    got = run_training(mh_cfg, scenario.rounds)

    traj_ref = reports.trajectories(ref)
    traj_got = reports.trajectories(got)
    max_weight_dev = 0.0
    max_mean_dev = 0.0
    for rep_a, rep_b, tr_a, tr_b in zip(ref, got, traj_ref, traj_got):
        key_a = sorted(tr_a, key=tr_a.get)
        key_b = sorted(tr_b, key=tr_b.get)
        if len(key_a) != len(key_b) or \
                [tr_a[i] for i in key_a] != [tr_b[i] for i in key_b]:
            print(f"hypothesis trajectories differ at round {rep_a.round}")
            return EXIT_NUMERICAL
        for ia, ib in zip(key_a, key_b):
            max_weight_dev = max(max_weight_dev,
                                 abs(rep_a.weights[ia] - rep_b.weights[ib]))
            mean_dev = np.max(np.abs(np.asarray(rep_a.cluster_means[ia])
                                     - np.asarray(rep_b.cluster_means[ib])))
            max_mean_dev = max(max_mean_dev, float(mean_dev))
    print(f"max weight deviation: {max_weight_dev:.3e}")
    print(f"max posterior mean deviation: {max_mean_dev:.3e}")
    if max_weight_dev >= 1e-9 or max_mean_dev >= 1e-9:
        print("oracle disagreement exceeds 1e-9")
        return EXIT_NUMERICAL
    return EXIT_OK


_COMMANDS = {
    "run": (_cmd_run, ("--config", "--out", "--seed", "--mode", "--m-max")),
    "sweep": (_cmd_sweep, ("--config", "--out", "--seed")),
    "oracle": (_cmd_oracle, ("--config", "--seed")),
}


def cli_run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][0](args)
    except (ConfigError, ContractError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(cli_run())


if __name__ == "__main__":
    main()
