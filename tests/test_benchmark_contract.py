"""The benchmark probe still finds every layer it times.

``perfbench/probe.py`` wraps names in the program's module namespaces. A
refactor that drops one of them, or stops calling it, leaves that layer
without spans; this test runs the probe on ``configs/tiny.json`` and fails
then. It reads ``perfbench/`` and changes nothing there. It checks no trace
coverage: tiny.json trains for a few ms, so ``initialize`` dominates it.
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


def test_traced_probe_sees_every_layer(tmp_path):
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), "--root", str(ROOT),
         "--result", str(result), "--trace", "--",
         "run", "--config", str(ROOT / "configs" / "tiny.json"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(result.read_text())
    assert probe["rc"] == 0
    names = {span[0] for span in probe["spans"]}
    assert set(SPANS) <= names, sorted(set(SPANS) - names)
    assert probe["counts"]["density.gaussians_built"] > 0
