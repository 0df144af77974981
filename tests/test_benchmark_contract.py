"""The benchmark probe still finds every layer it times.

``perfbench/probe.py`` wraps names in the program's module namespaces. A
refactor that drops one of them, or stops calling it, leaves that layer
without spans; these tests run the probe on ``configs/tiny.json`` and on a
shrunk copy of the logistic-sampled workload, and fail then. They read
``perfbench/`` and change nothing there. They check no trace coverage: these
runs train for a few ms, so ``initialize`` dominates them. A last test runs
``tools/gate_margin.py``, which scores traced reps with ``perfbench/run.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SPANS = ("models.posterior_update", "density.fuse", "models.assoc_weight",
         "assignment.m_best", "hypotheses.expand", "hypotheses.prune",
         "reports.report_from_set", "metrics.accuracy", "metrics.heldout_ll",
         "reports.write")
LOGISTIC_SPANS = ("models.assoc_weight", "models.posterior_update", "density.fuse",
                  "density.merge", "hypotheses.consensus_merge", "hypotheses.prune")


def traced_probe(tmp_path, config):
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), "--root", str(ROOT),
         "--result", str(result), "--trace", "--",
         "run", "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(result.read_text())
    assert probe["rc"] == 0
    return probe, {span[0] for span in probe["spans"]}


def test_traced_probe_sees_every_layer(tmp_path):
    probe, names = traced_probe(tmp_path, ROOT / "configs" / "tiny.json")
    assert set(SPANS) <= names, sorted(set(SPANS) - names)
    assert probe["counts"]["density.gaussians_built"] > 0
    # the probe counts len() of m_best_exact's result, expand's result and
    # the live hypothesis set; tiny.json (T = 2, K^C = 4, m_max 16) ranks
    # its 1 and then 4 parents in one m_best_exact call per round, which
    # returns every child: it ranks and keeps 4 + 16 and runs 1 + 4 live
    # hypotheses
    assert sum(span[0] == "assignment.m_best" for span in probe["spans"]) == 2
    assert probe["counts"]["assignment.ranked_items"] == 20
    assert probe["counts"]["hypotheses.kept"] == 20
    assert probe["counts"]["hypotheses.live"] == 5


def test_traced_probe_sees_the_logistic_sampled_layers(tmp_path):
    raw = json.loads((ROOT / "perfbench" / "workloads" / "logistic_sampled.json").read_text())
    raw.update(T=2, groups=2, clients_per_group=2, weight_samples=8)
    config = tmp_path / "logistic_sampled.json"
    config.write_text(json.dumps(raw))
    _, names = traced_probe(tmp_path, config)
    assert set(LOGISTIC_SPANS) <= names, sorted(set(LOGISTIC_SPANS) - names)


def test_gate_margin_runs_on_tiny():
    """``tools/gate_margin.py`` scores traced probe reps with
    ``perfbench/run.py``'s ``span_layers``; two reps each on two configs,
    one block per config, in the order given."""
    configs = [ROOT / "configs" / "tiny.json", ROOT / "configs" / "demo.json"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gate_margin.py"), "--reps", "2",
         "--config", str(configs[0]), "--config", str(configs[1])],
        capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("rep ") for line in lines) == 4
    heads = [line for line in lines if line.startswith("2 of 2 traced reps of ")]
    assert [head.split()[6] for head in heads] == [str(c) for c in configs]
    assert sum(line.startswith("uncovered share of run_training: min ") for line in lines) == 2
    assert sum(" would fail the 1% coverage check" in line for line in lines) == 8
