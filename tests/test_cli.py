import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayescfl.cli import cli_run
from bayescfl.config import KEYS, REQUIRED, canonical_dict, load_config, plan_from_dict
from bayescfl.errors import ConfigError, ContractError
from bayescfl.reports import read_ndjson

REPO = Path(__file__).resolve().parents[1]

BASE_CONFIG = {
    "mode": "multi-hypothesis",
    "K": 2,
    "C": 4,
    "T": 3,
    "m_max": 2,
    "seed": 11,
    "scheme": "feature-skew",
    "groups": 2,
    "clients_per_group": 2,
    "samples_per_round": 10,
    "separation": 10.0,
    "label_count": 4,
    "test_samples": 20,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return path


def run_cli(args, **env):
    """``bayescfl`` with args in a fresh interpreter on this checkout's src,
    with env added to the environment."""
    return subprocess.run([sys.executable, "-m", "bayescfl.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(REPO / "src"), **env))


class TestRun:
    def test_writes_reports_and_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_run(["run", "--config", str(config_path), "--out", str(out)]) == 0
        lines = (out / "rounds.ndjson").read_text().splitlines()
        assert len(lines) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["mode"] == "multi-hypothesis"
        assert "heldout_log_likelihood" in summary
        assert summary["comm"]["weights_sent"] == 3 * 2 * 4 * 2

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_run(["run", "--config", str(config_path), "--out", str(out_a),
                        "--seed", "7"]) == 0
        assert cli_run(["run", "--config", str(config_path), "--out", str(out_b),
                        "--seed", "7"]) == 0
        assert (out_a / "rounds.ndjson").read_bytes() == \
            (out_b / "rounds.ndjson").read_bytes()
        assert (out_a / "summary.json").read_bytes() == \
            (out_b / "summary.json").read_bytes()

    def test_byte_identical_across_processes(self, tmp_path):
        """Sampled weights with several parents per round, run in two fresh
        interpreters with different string hashing: both output files are
        the same bytes, so no output depends on set order or object ids."""
        demo = json.loads((REPO / "configs" / "demo.json").read_text())
        path = tmp_path / "sampled.json"
        path.write_text(json.dumps(dict(demo, weight_estimator="sampled", weight_samples=20)))
        outs = []
        for hash_seed in ("7", "99"):
            out = tmp_path / f"hash{hash_seed}"
            done = run_cli(["run", "--config", str(path), "--out", str(out)],
                           PYTHONHASHSEED=hash_seed)
            assert done.returncode == 0, done.stderr
            outs.append(out)
        for name in ("rounds.ndjson", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_mode_and_mmax_overrides(self, config_path, tmp_path):
        out = tmp_path / "g"
        assert cli_run(["run", "--config", str(config_path), "--out", str(out),
                        "--mode", "greedy", "--m-max", "1"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["mode"] == "greedy"
        assert summary["comm"]["weights_sent"] == 0

    def test_missing_config_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cli_run(["run", "--config", str(missing)]) == 1
        err = capsys.readouterr().err
        assert "nope.json" in err

    @pytest.mark.parametrize("make", [lambda path: path.mkdir(),
                                      lambda path: path.write_bytes(b'{"K": "\xff"}')],
                             ids=["directory", "not-utf8"])
    def test_unreadable_config_exits_one(self, tmp_path, make):
        """A config path that cannot be read as text is a one-line config
        error naming it, not a traceback."""
        path = tmp_path / "run.json"
        make(path)
        done = run_cli(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert done.returncode == 1
        (line,) = done.stderr.splitlines()
        assert line.startswith(f"config error: cannot read config file {path}: ")

    def test_unknown_flag_exits_one(self, capsys):
        assert cli_run(["run", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--config", "{config}", "--out", "{out}", "--mode", "greedy"],
        ["sweep", "--config", "{config}", "--out", "{out}", "--m-max", "2"],
        ["oracle", "--config", "{config}", "--seed", "3", "--out", "{out}"]])
    def test_subcommands_reject_options_they_do_not_read(self, config_path, tmp_path,
                                                          capsys, argv):
        """Each subcommand takes only the options it reads; any other exits 1
        with a usage error before anything runs, instead of being ignored."""
        out = tmp_path / "out"
        assert cli_run([arg.format(config=config_path, out=out) for arg in argv]) == 1
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not out.exists()

    def test_export_coassoc_is_an_unknown_command(self, tmp_path, capsys):
        """``run`` writes coassoc.csv itself; the command that rebuilt it from
        rounds.ndjson is gone and exits 1 as a usage error."""
        out = tmp_path / "out"
        assert cli_run(["export-coassoc", "--out", str(out)]) == 1
        assert "invalid choice: 'export-coassoc'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unusable_out_fails_before_training(self, config_path, tmp_path, capsys,
                                                monkeypatch, command):
        """An --out that is an existing file exits 1 with one line, before
        any data are generated or trained on."""
        import bayescfl.cli as cli_mod

        def no_training(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli_mod, "gen_scenario", no_training)
        monkeypatch.setattr(cli_mod, "run_training", no_training)
        out = tmp_path / "taken"
        out.write_text("not a directory")
        assert cli_run([command, "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}")
        assert err.count("\n") == 1
        assert out.read_text() == "not a directory"

    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_run(["run", "--config", str(bad)]) == 1

    def test_inconsistent_client_count(self, tmp_path):
        cfg = dict(BASE_CONFIG, C=5)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert cli_run(["run", "--config", str(path)]) == 1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = dict(BASE_CONFIG, gamma=2.0)
        path = tmp_path / "k.json"
        path.write_text(json.dumps(cfg))
        assert cli_run(["run", "--config", str(path)]) == 1

    def test_removed_prune_log_gap_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, prune_log_gap=5.0)))
        out = tmp_path / "out"
        assert cli_run(["run", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "config error: unknown config keys: ['prune_log_gap']\n"
        assert not out.exists()


class TestConfigWiring:
    def test_sampled_estimator_and_extras(self):
        plan = plan_from_dict(dict(BASE_CONFIG, weight_estimator="sampled",
                                   weight_samples=32, fusion_mode="naive-product",
                                   fresh_each_round=False))
        rc = plan.round_config
        assert rc.weight_estimator.kind == "sampled"
        assert rc.weight_estimator.n_samples == 32
        assert rc.fusion_mode == "naive-product"
        assert plan.skew_config.fresh_each_round is False

    def test_seed_override_reaches_both_configs(self, config_path):
        plan = load_config(config_path).with_overrides(seed=99)
        assert plan.round_config.seed == 99
        assert plan.skew_config.seed == 99

    def test_c_defaults_to_product(self):
        raw = {k: v for k, v in BASE_CONFIG.items() if k != "C"}
        plan = plan_from_dict(raw)
        assert plan.round_config.C == 4

    def test_unknown_key_rejected_without_a_file(self):
        with pytest.raises(ConfigError, match=r"^unknown config keys: \['prune_log_gap'\]$"):
            plan_from_dict(dict(BASE_CONFIG, prune_log_gap=5.0))

    def test_out_of_range_override_is_config_error(self, config_path):
        with pytest.raises(ConfigError, match="m_max"):
            load_config(config_path).with_overrides(m_max=0)

    def test_configs_are_built_from_the_echoed_values(self, config_path):
        plan = load_config(config_path)
        replaced = dataclasses.replace(plan, values=tuple(dict(plan.values, seed=7).items()))
        assert replaced.round_config.seed == replaced.skew_config.seed == 7
        assert canonical_dict(replaced)["seed"] == 7
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(plan, round_config=plan.round_config)
        assert hash(plan) == hash(load_config(config_path))


class TestConfigTyping:
    @pytest.mark.parametrize("extra", [
        {"fresh_each_round": "false"},
        {"fresh_each_round": 0},
        {"K": 2.9},
        {"K": 2.0},
        {"K": "2"},
        {"m_max": True},
        {"seed": False},
        {"sweep": {"m_max": [1, 2.5]}},
        {"separation": "2"},
        {"noise_variance": True},
        {"separation": float("nan")},
        {"prior_sigma2": float("nan")},
        {"noise_variance": float("nan")},
        {"alpha_within": float("nan")},
        {"alpha_group": float("inf")},
        {"alpha_within": 10**400},
        {"sweep": [1, 2]},
        {"sweep": {"mode": "greedy"}},
        {"sweep": {"m_max": 2}},
        {"sweep": {"modes": ["consensus", "multi-hypothesis"], "mmax": [1, 4]}},
    ])
    def test_rejects_coercible_values(self, extra):
        with pytest.raises(ConfigError):
            plan_from_dict(dict(BASE_CONFIG, **extra))

    WRONG_TYPE = {int: 2.5, float: "2.5", bool: 1, str: 1}

    @pytest.mark.parametrize("key", list(KEYS))
    def test_wrong_json_type_names_the_key(self, key):
        """Every key rejects a value of another JSON type, naming the key,
        instead of coercing it (a str key took 1 as "1")."""
        with pytest.raises(ConfigError, match=f"config key '{key}' must be "):
            plan_from_dict(dict(BASE_CONFIG, **{key: self.WRONG_TYPE[KEYS[key][0]]}))

    def test_readme_table_lists_the_keys(self):
        """The README's key table gives each key of KEYS, in order, with its
        type and default."""
        text = (REPO / "README.md").read_text()
        section = text[text.index("### Config keys"):text.index("## Library example")]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in section.splitlines() if line.startswith("| `")]
        defaults = {"required": REQUIRED, "`groups * clients_per_group`": None}
        table = {key.strip("`"): (kind, defaults[default] if default in defaults
                                  else json.loads(default.strip("`")))
                 for key, kind, default, _ in rows}
        assert list(table) == list(KEYS)
        for key, (kind, default) in KEYS.items():
            assert table[key] == (kind.__name__, default), key
            assert default in (REQUIRED, None) or type(table[key][1]) is kind, key

    def test_float_keys_take_json_numbers(self):
        plan = plan_from_dict(dict(BASE_CONFIG, separation=3, prior_sigma2=5))
        assert plan.skew_config.separation == 3.0
        assert type(plan.skew_config.separation) is float
        assert type(plan.round_config.prior_sigma2) is float

    @pytest.mark.parametrize("sweep", [[1, 2], {"mode": "greedy"},
                                       {"mode": ["greedy"], "mmax": [1, 4]}])
    def test_malformed_sweep_exits_one(self, tmp_path, sweep):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, sweep=sweep)))
        out = tmp_path / "o"
        assert cli_run(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("extra", [{"fresh_each_round": "false"}, {"K": 2.9},
                                       {"m_max": True}])
    def test_cli_exits_one(self, tmp_path, extra):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, **extra)))
        assert cli_run(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("path", sorted(
        [*(REPO / "configs").glob("*.json"), *(REPO / "perfbench" / "workloads").glob("*.json")]),
        ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_checked_in_configs_load(self, path):
        raw = json.loads(path.read_text())
        echo = canonical_dict(load_config(path))
        for key in raw.keys() & echo.keys():
            assert echo[key] == raw[key] and type(echo[key]) is type(raw[key]), key


    @pytest.mark.parametrize("workload", ["label_skew.json", "scaled_rank.json"])
    def test_overflowing_separation_exits_one(self, tmp_path, workload):
        """A separation whose centers overflow is rejected as a config error
        that names it, before any data are drawn and without a warning."""
        raw = json.loads((REPO / "perfbench" / "workloads" / workload).read_text())
        path = tmp_path / "far.json"
        path.write_text(json.dumps(dict(raw, separation=1.7e308)))
        done = run_cli(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "config error: separation 1.7e+308 makes the generated centers non-finite"]


class TestNumericalExit:
    def test_numerical_failure_maps_to_exit_two(self, config_path, tmp_path, monkeypatch):
        from bayescfl import FusionDegenerateError
        import bayescfl.cli as cli_mod

        def boom(*args, **kwargs):
            raise FusionDegenerateError("synthetic failure")

        monkeypatch.setattr(cli_mod, "run_training", boom)
        assert cli_run(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2

    def test_overflowing_logistic_data_exit_two(self, tmp_path, capsys):
        """Label-skew class means of 1e300 overflow the warm-up's Hessians;
        their NaN Cholesky factors fail the test, where they used to pass it
        and surface later as a config error."""
        demo = json.loads((REPO / "configs" / "demo.json").read_text())
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(dict(demo, scheme="label-skew", label_count=2,
                                        model_kind="laplace-logistic", separation=1e300)))
        assert cli_run(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "numerical failure: Hessian not positive-definite" in capsys.readouterr().err

    def test_overflowing_gaussian_data_exit_two(self, tmp_path):
        """Group means 1e200 apart overflow the gaussian-mean likelihood to
        -inf log weights; the run fails there as a numerical error, not later
        as a config error on weights that do not sum to 1. It runs in a
        subprocess, where the overflow warnings print and do not raise, and
        without the warm-up, which would fail first."""
        demo = json.loads((REPO / "configs" / "demo.json").read_text())
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(dict(demo, separation=1e200, warm_up_rounds=0)))
        done = run_cli(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert done.returncode == 2, done.stderr
        assert "numerical failure: association log-weights are not finite" in done.stderr

    def test_overflowing_warm_up_exit_two(self, tmp_path, capsys):
        """The same data overflow the warm-up's k-means distances: the run
        fails in the warm-up as a numerical error, before any overflow
        warning (which tier-1 turns into an error)."""
        demo = json.loads((REPO / "configs" / "demo.json").read_text())
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(dict(demo, separation=1e200)))
        assert cli_run(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "numerical failure: warm-up: squared distances" in capsys.readouterr().err

    def test_floor_magnitude_log_weights_exit_two(self, tmp_path, capsys):
        """Group means 1e9 apart leave finite log weights far below the
        floor, so every child carries -1e12 terms; their softmax cannot sum
        to 1 at that magnitude. The run fails as a numerical error naming the
        floor, not as a config error from the hypothesis set's check."""
        demo = json.loads((REPO / "configs" / "demo.json").read_text())
        del demo["sweep"]
        path = tmp_path / "far.json"
        path.write_text(json.dumps(dict(demo, separation=1e9)))
        assert cli_run(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "numerical failure: " in err and "log-weight floor (-1e12)" in err
        assert len(err.strip().splitlines()) == 1


class TestOracle:
    def test_tiny_instance_agrees(self, tmp_path, capsys):
        cfg = dict(BASE_CONFIG, K=2, C=2, T=2, groups=2, clients_per_group=1,
                   mode="multi-hypothesis")
        path = tmp_path / "o.json"
        path.write_text(json.dumps(cfg))
        assert cli_run(["oracle", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "max weight deviation" in out

    def test_oversized_instance_exits_one_quickly(self, tmp_path, capsys):
        """The conceptual size check runs before the full width K^C^T is
        multiplied out, which takes seconds at this size."""
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, K=3, C=10_000, T=1_000, groups=2,
                                        clients_per_group=5_000)))
        start = time.perf_counter()
        assert cli_run(["oracle", "--config", str(path)]) == 1
        assert time.perf_counter() - start < 0.5
        assert "conceptual mode needs K^C^T small enough" in capsys.readouterr().err

    TINY = json.loads((REPO / "configs" / "tiny.json").read_text())

    @staticmethod
    def _oracle(cfg):
        """``bayescfl oracle`` on the config dict: its exit code and the
        weight and posterior-mean deviations it prints."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "oracle.json"
            path.write_text(json.dumps(cfg))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_run(["oracle", "--config", str(path)])
        return code, [float(line.rsplit(": ", 1)[1])
                      for line in out.getvalue().splitlines() if "deviation" in line]

    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("separation", [2.0, 1.0, 0.5])
    def test_sampled_weights_agree_exactly(self, separation, seed):
        """A sampled weight depends on the posterior, the client and the
        round, not on the row of its hypothesis, so the conceptual and the
        full-width runs, which order the same hypotheses differently, give
        the same weights."""
        cfg = dict(self.TINY, weight_estimator="sampled", weight_samples=7,
                   separation=separation, seed=seed)
        assert self._oracle(cfg) == (0, [0.0, 0.0])

    @given(kind=st.sampled_from(["gaussian-mean", "bayes-linear", "laplace-logistic"]),
           estimator=st.sampled_from(["at-mean", "sampled"]),
           separation=st.sampled_from([0.5, 1.0, 2.0, 10.0]),
           seed=st.integers(-2**64, 2**64))
    def test_every_kind_and_estimator_agrees(self, kind, estimator, separation, seed):
        """The oracle passes on tiny instances of each model kind, with either
        weight estimator; laplace-logistic runs on two-label label-skew data
        (K = C = T = 2)."""
        cfg = dict(self.TINY, model_kind=kind, weight_estimator=estimator, weight_samples=7,
                   separation=separation, seed=seed)
        if kind == "laplace-logistic":
            cfg.update(scheme="label-skew", label_count=2)
        code, devs = self._oracle(cfg)
        assert code == 0 and len(devs) == 2 and max(devs) < 1e-9


class TestExportCoassoc:
    def test_round_trip_from_run(self, config_path, tmp_path):
        """``run`` writes coassoc.csv: C rows of C values, symmetric, T on
        the diagonal (one per round) and [0, T] off it."""
        out = tmp_path / "out"
        assert cli_run(["run", "--config", str(config_path), "--out", str(out)]) == 0
        rows = (out / "coassoc.csv").read_text().splitlines()
        matrix = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert matrix.shape == (4, 4)
        np.testing.assert_allclose(matrix, matrix.T, rtol=0, atol=1e-12)
        assert np.all(np.diag(matrix) == 3.0)
        assert np.all((matrix >= 0) & (matrix <= 3.0))

    # The report log reader: each failure is a ContractError, which the CLI
    # reports as a one-line config error.

    def test_missing_log_is_config_error(self, tmp_path):
        with pytest.raises(ContractError, match="^report log not found: "):
            read_ndjson(tmp_path / "void" / "rounds.ndjson")

    @pytest.mark.parametrize("corrupt, reason", [
        (lambda line: line[:len(line) // 2], "bad JSON"),
        (lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "mode"}),
         "missing key 'mode'"),
        (lambda line: json.dumps(dict(json.loads(line), assignments=5)), "not a round report"),
        (lambda line: json.dumps(dict(json.loads(line), metrics=[1])), "not a round report"),
        (lambda line: json.dumps(dict(json.loads(line), weights=["x"])), "not a round report"),
        (lambda line: json.dumps(dict(json.loads(line), weights=[0.5])), "not a round report"),
        (lambda line: json.dumps(dict(json.loads(line), mode=7)), "not a round report"),
        (lambda line: json.dumps(dict(json.loads(line), assignments=[])), "not a round report"),
        (lambda line: json.dumps(dict(json.loads(line), assignments=[
            [True] * len(a) for a in json.loads(line)["assignments"]])), "not a round report"),
        (lambda line: "[1, 2]", "not a round report"),
    ])
    def test_malformed_line_is_config_error(self, config_path, tmp_path, corrupt, reason):
        """A bad second line of a run's log raises a one-line ContractError
        naming the file, the line and what is wrong with it."""
        out = tmp_path / "out"
        assert cli_run(["run", "--config", str(config_path), "--out", str(out)]) == 0
        log = out / "rounds.ndjson"
        lines = log.read_text().splitlines()
        lines[1] = corrupt(lines[1])
        log.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractError) as info:
            read_ndjson(log)
        assert str(info.value).startswith(f"{log} line 2: {reason}")
        assert "\n" not in str(info.value)

    def test_unreadable_log_is_config_error(self, tmp_path):
        (tmp_path / "rounds.ndjson").mkdir()
        with pytest.raises(ContractError, match="^cannot read report log ") as info:
            read_ndjson(tmp_path / "rounds.ndjson")
        assert "\n" not in str(info.value)


class TestSweep:
    def test_grid_of_runs(self, tmp_path):
        cfg = dict(BASE_CONFIG, T=2,
                   sweep={"mode": ["greedy", "multi-hypothesis"], "m_max": [1, 2]})
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sweep"
        assert cli_run(["sweep", "--config", str(path), "--out", str(out)]) == 0
        index = json.loads((out / "sweep.json").read_text())
        assert len(index["runs"]) == 4
        assert (out / "greedy-m1" / "rounds.ndjson").exists()
        assert (out / "multi-hypothesis-m2" / "summary.json").exists()
        assert (out / "multi-hypothesis-m2" / "coassoc.csv").exists()

    @pytest.mark.parametrize("sweep", [{"mode": []}, {"m_max": []},
                                       {"mode": ["greedy", "greedy"]}, {"m_max": [2, 2]}],
                             ids=["empty-mode", "empty-m_max", "repeated-mode",
                                  "repeated-m_max"])
    def test_empty_or_repeated_list_exits_one(self, tmp_path, capsys, sweep):
        """An empty list would run nothing and a repeated value would run
        twice into one directory: both are config errors before any run."""
        path = tmp_path / "s.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, sweep=sweep)))
        out = tmp_path / "sweep"
        assert cli_run(["sweep", "--config", str(path), "--out", str(out)]) == 1
        key = next(iter(sweep))
        assert (f"config error: config key 'sweep.{key}' must be a nonempty list "
                "without repeats") in capsys.readouterr().err
        assert not out.exists()


def test_runtime_imports_no_scipy(tmp_path):
    """The run and oracle commands need numpy only: a fresh interpreter that
    runs both has loaded no scipy module."""
    script = f"""
import sys
from bayescfl.cli import cli_run
tiny = {str(REPO / "configs" / "tiny.json")!r}
assert cli_run(["run", "--config", tiny, "--out", {str(tmp_path / "out")!r}]) == 0
assert cli_run(["oracle", "--config", tiny]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0].startswith("scipy")))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(REPO / "src")), check=True)
    assert done.stdout.splitlines()[-1] == "[]"
