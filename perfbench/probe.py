"""One benchmark rep: a fresh interpreter that runs ``bayescfl.cli.cli_run``.

Usage:
    python3 perfbench/probe.py --root CHECKOUT --result FILE [--trace] -- CLI_ARGS...

The program is imported from CHECKOUT/src and never changed. Layers are timed
from outside by replacing, before the run starts, the names that ``cli``,
``simulation``, ``hypotheses``, ``metrics`` and ``reports`` call through their
module namespaces with wrappers that record a span per call. Without
``--trace`` only ``run_training`` and ``run_round`` get spans (a few dozen per
run); with it every layer boundary does. Spans stay in memory and are
written to FILE as JSON when the run ends, together with the exit code and
the peak resident memory of this process.

Host speed on a shared machine drifts by up to ~2x within seconds, so the
probe also times a short fixed calibration loop (``calibrate`` spans): after
the import, before and after ``run_training``, and at the next hot call
(``run_round``, association weights, posterior updates, ``m_best_exact``)
once CAL_EVERY_S has passed since the last one. The loop uses no program
code; run.py removes its time and rescales the time between calibrations.
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

CAL_EVERY_S = 0.1


class Tracer:
    """Spans as (name, parent index, start, end), parent None for a root.

    Times come from ``perf_counter``, which on Linux reads CLOCK_MONOTONIC,
    so they compare directly with the spawning process's timestamps.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = [None]
        self._calibrated_at = float("-inf")

    def span(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = (name, parent, start, end)

    def calibrate(self) -> None:
        self.span("calibrate", _calibration_loop)
        self._calibrated_at = perf_counter()

    def wrap(self, module, attr: str, name: str | None, count=None, hot: bool = False):
        """Replace module.attr with a wrapper that records a span (unless name
        is None), lets ``count(args, result)`` add to ``counts``, and, if hot,
        first calibrates when CAL_EVERY_S has passed since the last time."""
        fn = getattr(module, attr)
        span = self.span

        def wrapper(*args, **kwargs):
            if hot and perf_counter() - self._calibrated_at >= CAL_EVERY_S:
                self.calibrate()
            result = fn(*args, **kwargs) if name is None else span(name, fn, *args, **kwargs)
            if count is not None:
                count(args, result)
            return result

        setattr(module, attr, wrapper)


def _calibration_loop() -> None:
    """~3 ms of tiny numpy calls and tuple-heap operations, the two kinds of
    work that dominate the program's hot paths."""
    import numpy as np

    matrix = np.array([[2.0, 0.3], [0.3, 1.0]])
    acc = 0.0
    for _ in range(150):
        low = np.linalg.cholesky(matrix)
        acc += float(np.sum(low @ low.T))
    heap: list = []
    for i in range(1500):
        heapq.heappush(heap, (i * 7919 % 1000, (i, i + 1)))
    while heap:
        heapq.heappop(heap)


def _add(tracer: Tracer, key: str, amount) -> None:
    tracer.counts[key] += amount


def install(tracer: Tracer, full: bool) -> None:
    from bayescfl import cli, density, hypotheses, metrics, reports, simulation

    tracer.wrap(cli, "run_training", "simulation.run_training")
    run_training = cli.run_training

    def calibrated_training(*args, **kwargs):
        tracer.calibrate()
        result = run_training(*args, **kwargs)
        tracer.calibrate()
        return result

    cli.run_training = calibrated_training
    tracer.wrap(simulation, "run_round", "simulation.run_round",
                lambda a, r: _add(tracer, "hypotheses.live", len(a[0].hypothesis_set)),
                hot=True)
    for module, attr, name, count in (
            (simulation, "assoc_log_weight_at_mean", "models.assoc_weight", None),
            (simulation, "assoc_log_weight_sampled", "models.assoc_weight", None),
            (simulation, "posterior_update", "models.posterior_update", None),
            (hypotheses, "m_best_exact", "assignment.m_best",
             lambda a, r: _add(tracer, "assignment.ranked_items", len(r)))):
        tracer.wrap(module, attr, name if full else None, count if full else None, hot=True)
    if not full:
        return
    tracer.wrap(cli, "load_config", "config.load")
    tracer.wrap(cli, "gen_scenario", "datasets.gen_scenario",
                lambda a, r: _add(tracer, "datasets.client_rounds",
                                  sum(len(clients) for clients in r.rounds)))
    tracer.wrap(cli, "gen_heldout", "datasets.gen_heldout")
    tracer.wrap(metrics, "heldout_log_likelihood", "metrics.heldout_ll")
    tracer.wrap(reports, "write_ndjson", "reports.write")
    tracer.wrap(reports, "write_summary", "reports.write")

    tracer.wrap(simulation, "warm_up", "simulation.warm_up")
    tracer.wrap(simulation, "fuse_local_posteriors", "density.fuse")
    tracer.wrap(simulation, "expand", "hypotheses.expand",
                lambda a, r: _add(tracer, "hypotheses.kept", len(r)))
    tracer.wrap(simulation, "prune_top_m", "hypotheses.prune")
    tracer.wrap(simulation, "select_greedy", "hypotheses.prune")
    tracer.wrap(simulation, "consensus_merge", "hypotheses.consensus_merge")
    tracer.wrap(simulation, "report_from_set", "reports.report_from_set")
    tracer.wrap(simulation, "association_accuracy", "metrics.accuracy")
    tracer.wrap(simulation, "parameter_rmse", "metrics.rmse")
    tracer.wrap(hypotheses, "merge_mixture", "density.merge")

    built = density.GaussianDensity.__post_init__

    def counted_post_init(self):
        tracer.counts["density.gaussians_built"] += 1
        built(self)

    density.GaussianDensity.__post_init__ = counted_post_init


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout whose src/ is imported")
    parser.add_argument("--result", required=True, help="JSON file for spans and exit code")
    parser.add_argument("--trace", action="store_true", help="span every layer")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    tracer = Tracer()
    cli = tracer.span("cli.import", __import__, "bayescfl.cli", fromlist=["cli_run"])
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"probe: bayescfl imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer.calibrate()
    install(tracer, args.trace)
    rc = cli.cli_run(cli_args)

    result = {"rc": rc, "spans": tracer.spans, "counts": dict(tracer.counts),
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(args.result, "w") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
