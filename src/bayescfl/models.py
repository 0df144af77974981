"""Local client models: likelihoods, exact conjugate posterior updates, and
likelihood-based association weights.

Three model kinds:
  gaussian-mean    observations y ~ N(w, noise_variance * I); infer w.
  bayes-linear     responses y = x @ w + e, e ~ N(0, noise_variance); infer w.
  laplace-logistic binary logistic regression; posterior via Laplace
                   approximation (damped Newton mode search, covariance =
                   inverse Hessian at the mode).

Every likelihood goes through one batched kernel, ``_log_likelihoods``, which
scores S parameter rows against one dataset in a single call: the Monte Carlo
draws of every (cluster, seed) pair of a sampled weight call, every cluster
mean against one client of an at-mean call, every hypothesis's mean in the
held-out metric, and (one row at a time) the Newton objective. Each row takes
the same floating-point operations in the same order as a one-row call, so
the results are bit-identical to scoring the rows one by one. Public entry
points validate each dataset once; the kernel itself checks nothing.

The logistic likelihood's softplus log(1 + exp(z)) is computed as
max(z, 0) + log1p(exp(-|z|)), which numpy runs as vector loops where
``np.logaddexp(0, z)`` calls libm once per element; the two agree to within
3 ulp. The form is elementwise, so rows still match the one-row formula bit
for bit.

Every posterior update ends in ``density.from_info``. For the conjugate kinds
its pair is the prior's plus the data's, so fusion and later rounds only add;
for laplace-logistic it is the Hessian at the mode and Hessian @ mode, whose
one Cholesky test is the one the mode search runs.

The Laplace mode search is a damped Newton loop that stops on the Newton
decrement (Boyd & Vandenberghe, Convex Optimization, section 9.5): once
g' H^-1 g, twice the decrease the full step predicts, is at most
NEWTON_DECREMENT_TOL * max(1, |f|), that decrease lies below what the
objective f can resolve, so the loop takes the full step and stops. Before
that, each step halves from the full Newton step until the objective does not
rise, at most NEWTON_MAX_HALVINGS times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datasets import ClientDataset
from .density import (GaussianDensity, _from_tested_info, from_info, logsumexp,
                      spd_cholesky, symmetrize)
from .errors import ContractError, SingularModelError

NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 40
NEWTON_DECREMENT_TOL = 1e-10

KINDS = ("gaussian-mean", "bayes-linear", "laplace-logistic")


@dataclass(frozen=True)
class LocalModelSpec:
    """Which likelihood/posterior formulas apply, and their fixed parameters."""

    kind: str
    feature_dim: int
    noise_variance: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"unknown model kind {self.kind!r}")
        if self.feature_dim < 1:
            raise ContractError("feature_dim must be positive")
        if self.kind in ("gaussian-mean", "bayes-linear"):
            if self.noise_variance is None or self.noise_variance <= 0:
                raise ContractError(f"{self.kind} requires a positive noise_variance")

    @property
    def param_dim(self) -> int:
        return self.feature_dim


def _check_data(data: ClientDataset, spec: LocalModelSpec) -> None:
    if data.is_empty():
        return
    if data.feature_dim != spec.feature_dim:
        raise ContractError(
            f"data feature dim {data.feature_dim} != spec feature dim {spec.feature_dim}")
    if spec.kind == "gaussian-mean":
        return
    if data.labels is None:
        raise ContractError(f"{spec.kind} data needs labels/responses")
    if spec.kind == "laplace-logistic":
        y = np.asarray(data.labels)
        if np.any((y != 0) & (y != 1)):
            raise ContractError("laplace-logistic labels must be 0 or 1")


def _log_likelihoods(omegas: np.ndarray, data: ClientDataset,
                     spec: LocalModelSpec) -> np.ndarray:
    """log p(D | omega_s) for every row of omegas (S, d), unchecked.

    ``x @ omegas[:, :, None]`` is a stacked matmul that runs one gemv per
    row, as ``x @ omega`` does for one row; ``omegas @ x.T`` would be a gemm,
    which rounds differently. Sums run along contiguous rows, as in the
    one-row form, so every row's result is the same bits.
    """
    s = omegas.shape[0]
    if data.is_empty():
        return np.zeros(s)   # log of an empty product
    n = data.n_samples
    x = data.features
    if spec.kind == "gaussian-mean":
        v = spec.noise_variance
        sq = ((x[None] - omegas[:, None, :]) ** 2).reshape(s, -1).sum(axis=1)
        return -0.5 * (n * spec.feature_dim * np.log(2.0 * np.pi * v) + sq / v)
    z = (x @ omegas[:, :, None])[..., 0]
    y = np.asarray(data.labels, dtype=float)
    if spec.kind == "bayes-linear":
        v = spec.noise_variance
        resid = y - z
        sq = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
        return -0.5 * (n * np.log(2.0 * np.pi * v) + sq / v)
    # laplace-logistic: sum_i [y_i z_i - log(1 + exp(z_i))], z = X @ omega
    return np.sum(y * z - _softplus(z), axis=1)


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) elementwise, within 3 ulp of ``np.logaddexp(0, z)``."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def data_log_likelihoods(omegas: np.ndarray, data: ClientDataset,
                         spec: LocalModelSpec) -> np.ndarray:
    """log p(D | omega_s) for each row of omegas (S, d); zeros for an empty
    dataset."""
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 2 or omegas.shape[1] != spec.param_dim:
        raise ContractError(f"parameters must have shape (S, {spec.param_dim})")
    _check_data(data, spec)
    return _log_likelihoods(omegas, data, spec)


def _conjugate_data_info(data, spec):
    """What one dataset adds to the prior's information pair: (n/v I, sum x / v)
    for gaussian-mean, (X'X / v, X'y / v) for bayes-linear."""
    x = data.features
    v = spec.noise_variance
    if spec.kind == "gaussian-mean":
        return (data.n_samples / v) * np.eye(spec.param_dim), x.sum(axis=0) / v
    y = np.asarray(data.labels, dtype=float)
    return (x.T @ x) / v, (x.T @ y) / v


# 1 / (1 + exp(-z)) overflows to inf on a far Newton step: p -> 0 is the
# right limit, so the update ignores that overflow
@np.errstate(over="ignore")
def _laplace_logistic_update(prior, data, spec):
    x = data.features
    y = np.asarray(data.labels, dtype=float)
    lam0 = prior.precision
    m0 = prior.mean

    # The negative log posterior of w, up to a constant. posterior_update has
    # checked the data; the objective does not again.
    def objective(w):
        diff = w - m0
        return 0.5 * diff @ lam0 @ diff - _log_likelihoods(w[None], data, spec)[0]

    w = m0.copy()
    obj = objective(w)
    for _ in range(NEWTON_MAX_ITER):
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        grad = x.T @ (p - y) + lam0 @ (w - m0)
        hess = symmetrize(x.T @ (x * (p * (1.0 - p))[:, None]) + lam0)
        try:
            spd_cholesky(hess)
        except ContractError as exc:
            raise SingularModelError("Hessian not positive-definite") from exc
        step = np.linalg.solve(hess, grad)
        if grad @ step <= NEWTON_DECREMENT_TOL * max(1.0, abs(obj)):
            w = w - step
            break
        # the first of the scales 1, 1/2, ..., 2**-39 whose step does not
        # raise the objective, else 2**-40
        for halvings in range(NEWTON_MAX_HALVINGS + 1):
            cand = w - 0.5 ** halvings * step
            cand_obj = objective(cand)
            if cand_obj <= obj or halvings == NEWTON_MAX_HALVINGS:
                break
        w, obj = cand, cand_obj

    p = 1.0 / (1.0 + np.exp(-(x @ w)))
    hess = symmetrize(x.T @ (x * (p * (1.0 - p))[:, None]) + lam0)
    try:
        hess, _ = spd_cholesky(hess)
    except ContractError as exc:
        raise SingularModelError("Hessian not positive-definite at the mode") from exc
    return w, hess


def posterior_update(prior: GaussianDensity, data: ClientDataset,
                     spec: LocalModelSpec) -> GaussianDensity:
    """p(w | D) from the prior and one client dataset.

    Exact in information form for the conjugate kinds: the prior's pair plus
    the data's. Laplace approximation (mode, Hessian at the mode) for
    laplace-logistic. An empty dataset returns the prior itself.
    """
    if prior.dim != spec.param_dim:
        raise ContractError(f"prior dim {prior.dim} != parameter dim {spec.param_dim}")
    _check_data(data, spec)
    if data.is_empty():
        return prior
    if spec.kind == "laplace-logistic":
        mode, lam = _laplace_logistic_update(prior, data, spec)
        return _from_tested_info(lam, lam @ mode)
    lam0, eta0 = prior.info_form()
    lam, eta = _conjugate_data_info(data, spec)
    return from_info(lam0 + lam, eta0 + eta)


def assoc_log_weight_at_mean(clusters: Sequence[GaussianDensity],
                             clients: Sequence[ClientDataset],
                             spec: LocalModelSpec) -> np.ndarray:
    """log p(D_j | w_hat_i) for every client j and cluster i, with w_hat_i the
    cluster's expected parameter value: a C x U table, one row per client and
    one column per cluster, in order.

    The clusters are checked and their means stacked once per call; each
    client's data is checked and scored against all means in one kernel call.
    """
    for cluster in clusters:
        if cluster.dim != spec.param_dim:
            raise ContractError(
                f"cluster dim {cluster.dim} != parameter dim {spec.param_dim}")
    means = np.array([c.mean for c in clusters]).reshape(len(clusters), spec.param_dim)
    table = np.empty((len(clients), len(clusters)))
    for row, data in zip(table, clients):
        _check_data(data, spec)
        row[:] = _log_likelihoods(means, data, spec)
    return table


def assoc_log_weight_sampled(clusters: Sequence[GaussianDensity],
                             data: ClientDataset, spec: LocalModelSpec,
                             n_samples: int, seeds: Sequence[int]) -> np.ndarray:
    """Monte Carlo association weights: log mean_l p(D | w_l), w_l ~ cluster,
    one per (cluster, seed) pair, in order.

    Equal sample weights. Each pair draws its n_samples parameters from its
    own generator, seeded by its seed alone, so its weight is deterministic
    for a fixed seed and does not depend on the other pairs.
    """
    if n_samples < 1:
        raise ContractError("n_samples must be >= 1")
    if len(clusters) != len(seeds):
        raise ContractError(f"{len(clusters)} clusters but {len(seeds)} seeds")
    for cluster in clusters:
        if cluster.dim != spec.param_dim:
            raise ContractError(
                f"cluster dim {cluster.dim} != parameter dim {spec.param_dim}")
    _check_data(data, spec)
    draws = np.empty((len(clusters), n_samples, spec.param_dim))
    for draw, cluster, seed in zip(draws, clusters, seeds):
        rng = np.random.default_rng(np.random.SeedSequence(seed & ((1 << 63) - 1)))
        draw[:] = cluster.sample(n_samples, rng)
    logliks = _log_likelihoods(draws.reshape(-1, spec.param_dim), data, spec)
    return logsumexp(logliks.reshape(len(clusters), n_samples),
                     np.full(n_samples, 1.0 / n_samples))
