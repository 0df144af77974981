"""Run configuration files.

A run is described by one JSON file whose keys mirror the round and scenario
config fields:

    mode, K, C, T, m_max, weight_estimator, fusion_mode, warm_up_rounds, seed,
    scheme, groups, clients_per_group, samples_per_round, alpha_group,
    alpha_within, separation, label_count

plus optional extras: model_kind, feature_dim, noise_variance, weight_samples,
test_samples, fresh_each_round, prune_log_gap, prior_sigma2, and a sweep
section ({"mode": [...], "m_max": [...]}).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .datasets import SkewConfig
from .errors import ConfigError, ContractError
from .models import LocalModelSpec
from .simulation import RoundConfig, WeightEstimator

_KNOWN_KEYS = {
    "mode", "K", "C", "T", "m_max", "weight_estimator", "fusion_mode",
    "warm_up_rounds", "seed", "scheme", "groups", "clients_per_group",
    "samples_per_round", "alpha_group", "alpha_within", "separation",
    "label_count", "model_kind", "feature_dim", "noise_variance",
    "weight_samples", "test_samples", "fresh_each_round", "prune_log_gap",
    "prior_sigma2", "sweep",
}


@dataclass(frozen=True)
class RunPlan:
    round_config: RoundConfig
    skew_config: SkewConfig
    test_samples: int
    sweep_modes: tuple[str, ...]
    sweep_m_max: tuple[int, ...]

    def with_overrides(self, seed: int | None = None, mode: str | None = None,
                       m_max: int | None = None) -> "RunPlan":
        rc, sc = self.round_config, self.skew_config
        if seed is not None:
            rc = replace(rc, seed=seed)
            sc = replace(sc, seed=seed)
        if mode is not None:
            rc = replace(rc, mode=mode)
        if m_max is not None:
            rc = replace(rc, m_max=m_max)
        return replace(self, round_config=rc, skew_config=sc)


def _get(raw: dict, key: str, default=None, required: bool = False):
    if key not in raw:
        if required:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    return raw[key]


def _as_int(key: str, value) -> int:
    """A JSON integer; floats, strings and bools (which Python counts as
    ints) are rejected instead of truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def _int(raw: dict, key: str, default=None, required: bool = False) -> int:
    return _as_int(key, _get(raw, key, default, required))


def _as_float(key: str, value) -> float:
    """A finite JSON number; strings, bools, NaN and infinities are rejected
    instead of coerced (NaN would pass every later range check)."""
    # the comparison is False for NaN and infinities, and exact for big ints
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"config key {key!r} must be a finite number, got {value!r}")
    return float(value)


def _float(raw: dict, key: str, default: float) -> float:
    return _as_float(key, _get(raw, key, default))


def _sweep_list(sweep: dict, key: str, default: list, convert) -> tuple:
    """The converted values of the sweep list at key; an empty list, which
    would run nothing, or a repeated value, which would run twice into one
    directory, is rejected."""
    value = sweep.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"config key 'sweep.{key}' must be a list, got {value!r}")
    values = tuple(convert(v) for v in value)
    if not values or len(set(values)) < len(values):
        raise ConfigError(f"config key 'sweep.{key}' must be a nonempty list without "
                          f"repeats, got {value!r}")
    return values


def _bool(raw: dict, key: str, default: bool) -> bool:
    value = _get(raw, key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
    return value


def load_config(path) -> RunPlan:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return plan_from_dict(raw)


def plan_from_dict(raw: dict) -> RunPlan:
    try:
        groups = _int(raw, "groups", required=True)
        cpg = _int(raw, "clients_per_group", required=True)
        c = _int(raw, "C", groups * cpg)
        if c != groups * cpg:
            raise ConfigError(
                f"C={c} does not equal groups*clients_per_group={groups * cpg}")
        seed = _int(raw, "seed", 0)

        model_kind = str(_get(raw, "model_kind", "gaussian-mean"))
        feature_dim = _int(raw, "feature_dim", 2)
        noise_variance = _float(raw, "noise_variance", 1.0)
        label_count = _int(raw, "label_count", 10)
        if model_kind == "laplace-logistic":
            if _get(raw, "scheme", required=True) != "label-skew" or label_count != 2:
                raise ConfigError(
                    "laplace-logistic runs need scheme=label-skew and label_count=2")
        model = LocalModelSpec(
            kind=model_kind, feature_dim=feature_dim,
            noise_variance=None if model_kind == "laplace-logistic" else noise_variance)

        estimator_kind = str(_get(raw, "weight_estimator", "at-mean"))
        estimator = WeightEstimator(kind=estimator_kind,
                                    n_samples=_int(raw, "weight_samples", 100))

        gap = _get(raw, "prune_log_gap")
        round_config = RoundConfig(
            K=_int(raw, "K", required=True),
            C=c,
            T=_int(raw, "T", required=True),
            m_max=_int(raw, "m_max", 1),
            mode=str(_get(raw, "mode", "greedy")),
            weight_estimator=estimator,
            fusion_mode=str(_get(raw, "fusion_mode", "prior-corrected")),
            warm_up_rounds=_int(raw, "warm_up_rounds", 0),
            seed=seed,
            model=model,
            prior_sigma2=_float(raw, "prior_sigma2", 10.0),
            prune_log_gap=None if gap is None else _as_float("prune_log_gap", gap),
        )
        skew_config = SkewConfig(
            scheme=str(_get(raw, "scheme", required=True)),
            groups=groups,
            clients_per_group=cpg,
            samples_per_client_per_round=_int(raw, "samples_per_round", 50),
            alpha_group=_float(raw, "alpha_group", 0.1),
            alpha_within=_float(raw, "alpha_within", 10.0),
            separation=_float(raw, "separation", 10.0),
            label_count=label_count,
            seed=seed,
            feature_dim=feature_dim,
            noise_variance=noise_variance,
            model_kind="gaussian-mean" if model_kind == "laplace-logistic" else model_kind,
            fresh_each_round=_bool(raw, "fresh_each_round", True),
        )
        sweep = _get(raw, "sweep", {})
        if not isinstance(sweep, dict):
            raise ConfigError(f"config key 'sweep' must be an object, got {sweep!r}")
        unknown = set(sweep) - {"mode", "m_max"}
        if unknown:
            raise ConfigError(f"unknown sweep keys: {sorted(unknown)}")
        sweep_modes = _sweep_list(sweep, "mode", [round_config.mode], str)
        sweep_m_max = _sweep_list(sweep, "m_max", [round_config.m_max],
                                  lambda m: _as_int("sweep.m_max", m))
        test_samples = _int(raw, "test_samples", 500)
        if test_samples < 1:
            raise ConfigError("test_samples must be positive")
    except ConfigError:
        raise
    except (ContractError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    return RunPlan(round_config=round_config, skew_config=skew_config,
                   test_samples=test_samples, sweep_modes=sweep_modes,
                   sweep_m_max=sweep_m_max)


def canonical_dict(plan: RunPlan) -> dict:
    """Config echo for summaries: stable key order, plain JSON types.
    prune_log_gap is echoed only when set, so echoes without it keep their
    bytes."""
    rc, sc = plan.round_config, plan.skew_config
    echo = {
        "mode": rc.mode, "K": rc.K, "C": rc.C, "T": rc.T, "m_max": rc.m_max,
        "weight_estimator": rc.weight_estimator.kind,
        "weight_samples": rc.weight_estimator.n_samples,
        "fusion_mode": rc.fusion_mode, "warm_up_rounds": rc.warm_up_rounds,
        "seed": rc.seed, "scheme": sc.scheme, "groups": sc.groups,
        "clients_per_group": sc.clients_per_group,
        "samples_per_round": sc.samples_per_client_per_round,
        "alpha_group": sc.alpha_group, "alpha_within": sc.alpha_within,
        "separation": sc.separation, "label_count": sc.label_count,
        "model_kind": rc.model.kind, "feature_dim": rc.model.feature_dim,
        "noise_variance": sc.noise_variance, "prior_sigma2": rc.prior_sigma2,
        "fresh_each_round": sc.fresh_each_round,
        "test_samples": plan.test_samples,
    }
    if rc.prune_log_gap is not None:
        echo["prune_log_gap"] = rc.prune_log_gap
    return echo
