"""Run configuration files.

A run is described by one JSON object. ``KEYS`` lists its keys in the order
of the summary's config echo, each with its JSON type and its default (or
``REQUIRED``); the one other key is an optional sweep section
({"mode": [...], "m_max": [...]}). Any other key is a config error.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .datasets import SkewConfig
from .errors import ConfigError, ContractError
from .models import LocalModelSpec
from .simulation import RoundConfig, WeightEstimator

REQUIRED = object()     # the default of a key that every config must give

# key: (type, default); a default C of None stands for groups * clients_per_group
KEYS = {
    "mode": (str, "greedy"),
    "K": (int, REQUIRED),
    "C": (int, None),
    "T": (int, REQUIRED),
    "m_max": (int, 1),
    "weight_estimator": (str, "at-mean"),
    "weight_samples": (int, 100),
    "fusion_mode": (str, "prior-corrected"),
    "warm_up_rounds": (int, 0),
    "seed": (int, 0),
    "scheme": (str, REQUIRED),
    "groups": (int, REQUIRED),
    "clients_per_group": (int, REQUIRED),
    "samples_per_round": (int, 50),
    "alpha_group": (float, 0.1),
    "alpha_within": (float, 10.0),
    "separation": (float, 10.0),
    "label_count": (int, 10),
    "model_kind": (str, "gaussian-mean"),
    "feature_dim": (int, 2),
    "noise_variance": (float, 1.0),
    "prior_sigma2": (float, 10.0),
    "fresh_each_round": (bool, True),
    "test_samples": (int, 500),
}

_EXPECTED = {int: "an integer", float: "a finite number", bool: "true or false",
             str: "a string"}


@dataclass(frozen=True)
class RunPlan:
    """A checked run: the resolved value of every KEYS key, as (key, value)
    pairs in KEYS order, and the sweep lists. ``round_config`` and
    ``skew_config`` are built from ``values`` alone, so the summary's echo is
    what runs; a plan changes through ``with_overrides``."""

    values: tuple[tuple[str, object], ...]
    sweep_modes: tuple[str, ...]
    sweep_m_max: tuple[int, ...]
    round_config: RoundConfig = field(init=False, repr=False, compare=False)
    skew_config: SkewConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = dict(self.values)
        product = v["groups"] * v["clients_per_group"]
        if v["C"] != product:
            raise ConfigError(f"C={v['C']} does not equal groups*clients_per_group={product}")
        logistic = v["model_kind"] == "laplace-logistic"
        if logistic and (v["scheme"] != "label-skew" or v["label_count"] != 2):
            raise ConfigError("laplace-logistic runs need scheme=label-skew and label_count=2")
        if v["test_samples"] < 1:
            raise ConfigError("test_samples must be positive")
        try:
            model = LocalModelSpec(kind=v["model_kind"], feature_dim=v["feature_dim"],
                                   noise_variance=None if logistic else v["noise_variance"])
            round_config = RoundConfig(
                K=v["K"], C=v["C"], T=v["T"], m_max=v["m_max"], mode=v["mode"],
                weight_estimator=WeightEstimator(v["weight_estimator"], v["weight_samples"]),
                fusion_mode=v["fusion_mode"], warm_up_rounds=v["warm_up_rounds"],
                seed=v["seed"], model=model, prior_sigma2=v["prior_sigma2"])
            skew_config = SkewConfig(
                scheme=v["scheme"], groups=v["groups"],
                clients_per_group=v["clients_per_group"],
                samples_per_client_per_round=v["samples_per_round"],
                alpha_group=v["alpha_group"], alpha_within=v["alpha_within"],
                separation=v["separation"], label_count=v["label_count"], seed=v["seed"],
                feature_dim=v["feature_dim"], noise_variance=v["noise_variance"],
                model_kind="gaussian-mean" if logistic else v["model_kind"],
                fresh_each_round=v["fresh_each_round"])
        except ContractError as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        object.__setattr__(self, "round_config", round_config)
        object.__setattr__(self, "skew_config", skew_config)

    @property
    def test_samples(self) -> int:
        return dict(self.values)["test_samples"]

    def with_overrides(self, seed: int | None = None, mode: str | None = None,
                       m_max: int | None = None) -> "RunPlan":
        """The plan rebuilt through ``plan_from_dict`` with each given value
        in place of its own, so it is checked as a config file would be."""
        given = {"seed": seed, "mode": mode, "m_max": m_max}
        return plan_from_dict({
            **dict(self.values), **{k: v for k, v in given.items() if v is not None},
            "sweep": {"mode": list(self.sweep_modes), "m_max": list(self.sweep_m_max)}})


def _convert(key: str, kind: type, value):
    """value as a JSON value of kind: an integer that is not a bool, a finite
    number (as a float; NaN would pass every later range check), true or
    false, or a string. Anything else is rejected instead of truncated or
    coerced."""
    if kind is float:
        # the comparison is False for NaN and infinities, and exact for big ints
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind) and not (kind is int and isinstance(value, bool))
    if not ok:
        raise ConfigError(f"config key {key!r} must be {_EXPECTED[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _sweep_list(sweep: dict, key: str, default) -> tuple:
    """The converted values of the sweep list at key; an empty list, which
    would run nothing, or a repeated value, which would run twice into one
    directory, is rejected."""
    value = sweep.get(key, [default])
    if not isinstance(value, list):
        raise ConfigError(f"config key 'sweep.{key}' must be a list, got {value!r}")
    values = tuple(_convert(f"sweep.{key}", KEYS[key][0], v) for v in value)
    if not values or len(set(values)) < len(values):
        raise ConfigError(f"config key 'sweep.{key}' must be a nonempty list without "
                          f"repeats, got {value!r}")
    return values


def load_config(path) -> RunPlan:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return plan_from_dict(raw)


def plan_from_dict(raw: dict) -> RunPlan:
    """The plan of a config object: each KEYS key converted or defaulted,
    and any other key but ``sweep`` a ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(KEYS) - {"sweep"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    v = {}
    for key, (kind, default) in KEYS.items():
        if key in raw:
            v[key] = _convert(key, kind, raw[key])
        elif default is REQUIRED:
            raise ConfigError(f"config is missing required key {key!r}")
        else:
            v[key] = default
    if v["C"] is None:
        v["C"] = v["groups"] * v["clients_per_group"]
    sweep = raw.get("sweep", {})
    if not isinstance(sweep, dict):
        raise ConfigError(f"config key 'sweep' must be an object, got {sweep!r}")
    unknown = set(sweep) - {"mode", "m_max"}
    if unknown:
        raise ConfigError(f"unknown sweep keys: {sorted(unknown)}")
    return RunPlan(values=tuple(v.items()),
                   sweep_modes=_sweep_list(sweep, "mode", v["mode"]),
                   sweep_m_max=_sweep_list(sweep, "m_max", v["m_max"]))


def canonical_dict(plan: RunPlan) -> dict:
    """Config echo for summaries: every KEYS key's resolved value, in KEYS
    order."""
    return dict(plan.values)
