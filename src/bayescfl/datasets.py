"""Synthetic non-IID scenario generation.

Two schemes: feature-skew (well-separated group parameters, every client in a
group draws from its group's generative model) and label-skew (two-stage
Dirichlet sampling: one label distribution per group, then per-client
distributions concentrated around the group's). Each client dataset carries a
ground-truth group label for evaluation.

All randomness flows through per-purpose seed streams mixed with the round and
client indices, so generation is reproducible and parallelizable by client.

A ``ClientDataset`` is frozen: its arrays are read-only and checked finite
once, at construction. What the models derive from those arrays alone, such as
whether every label is 0 or 1 (``binary_labels``), is computed on first read
and cached on the dataset.

Generation pays no per-client overhead around each client's seeded stream.
The group or class centers are built and checked finite once per call (a
``separation`` that overflows them is a ContractError). Label-skew builds
every client's label CDF once per call, as ``Generator.choice(a, size, p=p)``
builds it, checks the distributions once and draws each client's labels by
inverse CDF from its stream, so the labels and the normals after them are the
bits ``choice`` gives. Features are scaled and shifted in place in the
stream's fresh normals. Each dataset is then built from those fresh arrays by
``_generated``: one finite check, frozen in place, with no copy and no
``__post_init__``. ``ClientDataset(...)`` keeps every check for all other
callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError

_SEED_MASK = (1 << 63) - 1

# substream tags: group parameters / label distributions / round data / held-out data
_PARAMS, _DISTS, _ROUNDS, _HELDOUT = 0, 1, 2, 3


def _rng(*keys: int) -> np.random.Generator:
    """The generator of ``SeedSequence([k & _SEED_MASK for k in keys])``.
    SeedSequence hashes each key as its little-endian 32-bit words (at least
    one); handing it those words as one uint32 array gives the same state
    without its per-key conversion, a third of its build time."""
    words = []
    for k in keys:
        k &= _SEED_MASK
        words += (k & 0xFFFFFFFF, k >> 32) if k >> 32 else (k,)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


@dataclass(frozen=True)
class ClientDataset:
    """One client's observations for one communication round."""

    client_id: int
    round: int
    features: np.ndarray            # (n, feature_dim); n may be 0
    labels: np.ndarray | None       # (n,); float responses or integer classes
    true_group: int = 0

    def __post_init__(self):
        feats = np.array(self.features, dtype=float)
        if feats.ndim != 2:
            raise ContractError("features must be a 2-D array (n, dim)")
        if not np.all(np.isfinite(feats)):
            raise ContractError(
                f"client {self.client_id} round {self.round}: features must be finite")
        feats.flags.writeable = False
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.array(self.labels)
            if labels.shape != (feats.shape[0],):
                raise ContractError("labels must have one entry per observation")
            if labels.dtype.kind in "fc" and not np.all(np.isfinite(labels)):
                raise ContractError(
                    f"client {self.client_id} round {self.round}: labels must be finite")
            labels.flags.writeable = False
            object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def is_empty(self) -> bool:
        return self.n_samples == 0

    @cached_property
    def binary_labels(self) -> bool:
        """Whether the dataset has labels and every one is 0 or 1. The
        labels are frozen, so they are scanned once, on first read."""
        return self.labels is not None and not np.any((self.labels != 0) & (self.labels != 1))


@dataclass(frozen=True)
class SkewConfig:
    scheme: str                           # "feature-skew" | "label-skew"
    groups: int
    clients_per_group: int
    samples_per_client_per_round: int
    alpha_group: float = 0.1
    alpha_within: float = 10.0
    separation: float = 10.0              # group/class mean spacing in noise-sigma units
    label_count: int = 10
    seed: int = 0
    feature_dim: int = 2
    noise_variance: float = 1.0
    model_kind: str = "gaussian-mean"     # feature-skew generative model
    fresh_each_round: bool = True

    def __post_init__(self):
        if self.scheme not in ("feature-skew", "label-skew"):
            raise ContractError(f"unknown scheme {self.scheme!r}")
        if min(self.groups, self.clients_per_group, self.samples_per_client_per_round,
               self.label_count, self.feature_dim) < 1:
            raise ContractError("counts and dimensions must be positive")
        for name in ("alpha_group", "alpha_within", "noise_variance", "separation"):
            # NaN fails the comparison too
            if not 0 < getattr(self, name) < np.inf:
                raise ContractError(f"{name} must be positive and finite")
        if self.model_kind not in ("gaussian-mean", "bayes-linear"):
            raise ContractError(f"unsupported generative model kind {self.model_kind!r}")

    @property
    def client_count(self) -> int:
        return self.groups * self.clients_per_group

    @property
    def noise_sigma(self) -> float:
        return float(np.sqrt(self.noise_variance))


@dataclass(frozen=True)
class GeneratedScenario:
    """Per-round client datasets plus the ground truth that produced them."""

    rounds: tuple[tuple[ClientDataset, ...], ...]   # T x C
    group_params: np.ndarray | None = None          # (G, dim), feature-skew
    class_means: np.ndarray | None = None           # (label_count, dim), label-skew
    group_label_dists: np.ndarray | None = None     # (G, label_count)
    client_label_dists: np.ndarray | None = None    # (C, label_count)


def separated_centers(count: int, dim: int, spacing: float,
                      rng: np.random.Generator) -> np.ndarray:
    """`count` points with pairwise distance >= spacing.

    Points sit on an integer lattice scaled by `spacing`, then get a seeded
    orthogonal rotation (distance-preserving) and recentering, so layouts vary
    with the seed while the separation guarantee is exact.
    """
    base = int(np.ceil(count ** (1.0 / dim))) if count > 1 else 1
    pts = np.zeros((count, dim))
    for g in range(count):
        rem = g
        for k in range(dim):
            pts[g, k] = rem % base
            rem //= base
    pts *= spacing
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    q = q @ np.diag(np.sign(np.diag(r)))   # fix signs for determinism
    pts = pts @ q.T
    return pts - pts.mean(axis=0)


def _generated(client_id: int, round_: int, features: np.ndarray,
               labels: np.ndarray | None, true_group: int) -> ClientDataset:
    """A dataset from fresh arrays that the generator owns and no one else
    holds: they are checked finite (ContractError, as in ``__post_init__``)
    and frozen in place, and the fields are set without ``__post_init__``'s
    copy and re-checks."""
    if not np.isfinite(features).all():
        raise ContractError(f"client {client_id} round {round_}: features must be finite")
    features.flags.writeable = False
    if labels is not None:
        if labels.dtype.kind == "f" and not np.isfinite(labels).all():
            raise ContractError(f"client {client_id} round {round_}: labels must be finite")
        labels.flags.writeable = False
    dataset = object.__new__(ClientDataset)
    dataset.__dict__.update(client_id=client_id, round=round_, features=features,
                            labels=labels, true_group=true_group)
    return dataset


def _centers(cfg: SkewConfig, count: int) -> np.ndarray:
    """The seeded ``separated_centers`` of the scenario's `count` groups or
    classes; a separation so large that they overflow is a ContractError."""
    with np.errstate(over="ignore", invalid="ignore"):
        centers = separated_centers(count, cfg.feature_dim,
                                    cfg.separation * cfg.noise_sigma,
                                    _rng(cfg.seed, _PARAMS))
    if not np.isfinite(centers).all():
        raise ContractError(f"separation {cfg.separation!r} makes the generated "
                            "centers non-finite")
    return centers


def _feature_skew_datasets(cfg: SkewConfig, params: np.ndarray, src: int, t: int,
                           n: int, stream: int) -> tuple[ClientDataset, ...]:
    """Every client's dataset of round t, from its stream (stream, src, j)."""
    sigma, dim = cfg.noise_sigma, cfg.feature_dim
    out = []
    for j in range(cfg.client_count):
        g = j // cfg.clients_per_group
        rng = _rng(cfg.seed, stream, src, j)
        feats = rng.standard_normal((n, dim))
        if cfg.model_kind == "gaussian-mean":
            feats *= sigma
            feats += params[g]
            labels = None
        else:  # bayes-linear
            labels = rng.standard_normal(n)
            labels *= sigma
            labels += feats @ params[g]
        out.append(_generated(j, t, feats, labels, g))
    return tuple(out)


def gen_feature_skew(cfg: SkewConfig, T: int) -> GeneratedScenario:
    """Feature-skew scenario: G separated group parameters, T rounds of C datasets."""
    if cfg.scheme != "feature-skew":
        raise ContractError("config scheme must be feature-skew")
    params = _centers(cfg, cfg.groups)
    n = cfg.samples_per_client_per_round
    rounds = tuple(_feature_skew_datasets(cfg, params, t if cfg.fresh_each_round else 0,
                                          t, n, _ROUNDS)
                   for t in range(T))
    return GeneratedScenario(rounds=rounds, group_params=params)


def _draw_simplex(rng: np.random.Generator, alpha: np.ndarray) -> np.ndarray:
    # Resample the rare draws that underflow to an all-zero or NaN vector;
    # individual zero entries are fine (that label is simply never sampled).
    for _ in range(100):
        p = rng.dirichlet(alpha)
        if np.all(np.isfinite(p)) and p.sum() > 0:
            return p / p.sum()
    raise ContractError("Dirichlet sampling kept producing degenerate draws")


def draw_client_distributions(group_dist: np.ndarray, alpha_within: float,
                              n: int, rng: np.random.Generator) -> np.ndarray:
    """Stage-2 draws: n client label distributions around one group distribution."""
    base = np.maximum(np.asarray(group_dist, dtype=float), 1e-300)
    return np.stack([_draw_simplex(rng, alpha_within * base) for _ in range(n)])


def label_skew_distributions(cfg: SkewConfig) -> tuple[np.ndarray, np.ndarray]:
    """Stage-1 group distributions and stage-2 per-client distributions."""
    rng = _rng(cfg.seed, _DISTS)
    ell = cfg.label_count
    group_dists = np.stack([
        _draw_simplex(rng, np.full(ell, cfg.alpha_group)) for _ in range(cfg.groups)
    ])
    client_rows = []
    for g in range(cfg.groups):
        client_rows.append(draw_client_distributions(
            group_dists[g], cfg.alpha_within, cfg.clients_per_group, rng))
    return group_dists, np.concatenate(client_rows, axis=0)


def _label_cdfs(client_dists: np.ndarray) -> np.ndarray:
    """Every client's label CDF, built as ``Generator.choice(a, size, p=p)``
    builds it from p, after one check of the distributions that stands in
    for ``choice``'s check of each p."""
    if not (np.isfinite(client_dists).all() and (client_dists >= 0).all()
            and (np.abs(client_dists.sum(axis=1) - 1.0)
                 <= np.sqrt(np.finfo(float).eps)).all()):
        raise ContractError("client label distributions must be finite, "
                            "nonnegative and sum to 1")
    cdfs = client_dists.cumsum(axis=1)
    cdfs /= cdfs[:, -1:]
    return cdfs


def _draw_labels(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """n labels from one client's CDF row: the draws and the int64 result of
    ``rng.choice(len(cdf), size=n, p=p)``, which leave rng in the same state."""
    return cdf.searchsorted(rng.random(n), side="right")


def _label_skew_datasets(cfg: SkewConfig, class_means: np.ndarray, cdfs: np.ndarray,
                         src: int, t: int, n: int,
                         stream: int) -> tuple[ClientDataset, ...]:
    """Every client's dataset of round t, from its stream (stream, src, j)."""
    sigma, dim = cfg.noise_sigma, cfg.feature_dim
    out = []
    for j, cdf in enumerate(cdfs):
        rng = _rng(cfg.seed, stream, src, j)
        labels = _draw_labels(rng, cdf, n)
        feats = rng.standard_normal((n, dim))
        feats *= sigma
        feats += class_means[labels]
        out.append(_generated(j, t, feats, labels, j // cfg.clients_per_group))
    return tuple(out)


def gen_label_skew(cfg: SkewConfig, T: int) -> GeneratedScenario:
    """Two-stage Dirichlet label-skew with class-conditional Gaussian features."""
    if cfg.scheme != "label-skew":
        raise ContractError("config scheme must be label-skew")
    class_means = _centers(cfg, cfg.label_count)
    group_dists, client_dists = label_skew_distributions(cfg)
    cdfs = _label_cdfs(client_dists)
    n = cfg.samples_per_client_per_round
    rounds = tuple(_label_skew_datasets(cfg, class_means, cdfs,
                                        t if cfg.fresh_each_round else 0, t, n, _ROUNDS)
                   for t in range(T))
    return GeneratedScenario(rounds=rounds, class_means=class_means,
                             group_label_dists=group_dists,
                             client_label_dists=client_dists)


def gen_scenario(cfg: SkewConfig, T: int) -> GeneratedScenario:
    if cfg.scheme == "feature-skew":
        return gen_feature_skew(cfg, T)
    return gen_label_skew(cfg, T)


def gen_heldout(cfg: SkewConfig, n_samples: int) -> tuple[ClientDataset, ...]:
    """One extra set of C datasets drawn from each client's own distribution."""
    if cfg.scheme == "feature-skew":
        return _feature_skew_datasets(cfg, _centers(cfg, cfg.groups), 0, 0,
                                      n_samples, _HELDOUT)
    _, client_dists = label_skew_distributions(cfg)
    return _label_skew_datasets(cfg, _centers(cfg, cfg.label_count),
                                _label_cdfs(client_dists), 0, 0, n_samples, _HELDOUT)
