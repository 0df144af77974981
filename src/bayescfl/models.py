"""Local client models: likelihoods, exact conjugate posterior updates, and
likelihood-based association weights.

Three model kinds:
  gaussian-mean    observations y ~ N(w, noise_variance * I); infer w.
  bayes-linear     responses y = x @ w + e, e ~ N(0, noise_variance); infer w.
  laplace-logistic binary logistic regression; posterior via Laplace
                   approximation (damped Newton mode search, covariance =
                   inverse Hessian at the mode).

Every likelihood goes through one batched kernel, ``_log_likelihoods``, which
scores parameter rows against a stack of B equal-size datasets in a single
call, the rows shared (S, d) or one block per dataset (B, S, d). Both
association-weight calls take a whole round of clients and return a client x
cluster table. An at-mean call groups its clients by size and scores each
chunk of clients against every cluster mean in one call, as many clients as
keep the call's temporaries near 256 KB (KERNEL_ENTRIES); the held-out
metric does the same with each client's own block of assigned means. A sampled call scores one
client at a time against the Monte Carlo draws of every cluster: stacking
its clients' draws made larger temporaries and ran slower. The Newton
objective scores each problem's one row through the logistic part of the
kernel. Every entry takes the same floating-point operations in the same
order as a one-dataset, one-row call, so the results are bit-identical to
scoring them one by one. Public entry points validate each dataset once per
call; the kernel itself checks nothing.
A laplace-logistic check reads the dataset's cached ``binary_labels`` flag,
so each dataset's labels are scanned for 0/1 once, not on every call.

The logistic likelihood's softplus log(1 + exp(z)) is computed as
log1p(exp(-|z|)) + max(z, 0) in one buffer, which numpy runs as vector loops
where ``np.logaddexp(0, z)`` calls libm once per element; the two agree to
within 3 ulp. The form is elementwise, so rows still match the one-row
formula bit for bit.

This module draws nothing: a sampled weight takes client j's draws under
every cluster from row j of its caller's (C, S, d) table of normals.

Every posterior update ends in an information pair becoming a density. For
the conjugate kinds it is ``density.from_info`` on the prior's pair plus the
data's, so fusion and later rounds only add; for laplace-logistic the pairs
are the Hessians at the modes and Hessian @ mode, tested by one stacked
Cholesky in the mode search and built by one stacked
``density._from_tested_infos``, each with the bits of its one-pair build;
that step checks the density invariants once over the whole stack.

The Laplace mode search is a damped Newton loop that stops on the Newton
decrement (Boyd & Vandenberghe, Convex Optimization, section 9.5): once
g' H^-1 g, twice the decrease the full step predicts, is at most
NEWTON_DECREMENT_TOL * max(1, |f|), that decrease lies below what the
objective f can resolve, so the loop takes the full step and stops. Before
that, each step halves from the full Newton step until the objective does not
rise, at most NEWTON_MAX_HALVINGS times. ``posterior_update`` takes one pair
or sequences of pairs; the Laplace problems of one dataset size run in one
masked loop on stacked (B, n, d) arrays. Each problem keeps its own stop, its
own halvings and its own Cholesky test, and every stacked matmul, solve and
row sum runs one problem's operations in that problem's order, so each mode
and Hessian is the bits of the one-problem loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datasets import ClientDataset
from .density import (GaussianDensity, _from_tested_infos, from_info, logsumexp,
                      spd_cholesky_stack)
from .errors import ContractError, SingularModelError

NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 40
NEWTON_DECREMENT_TOL = 1e-10

KINDS = ("gaussian-mean", "bayes-linear", "laplace-logistic")

# entries (datasets x rows x samples x features) per stacked kernel call:
# its largest temporary stays at 256 KB. The held-out metric's 500-sample
# test sets then go two at a time, and peak memory stays within ~0.5 MB of
# scoring one dataset per call; a 2**16 budget ran at-mean weights no faster.
KERNEL_ENTRIES = 2**15


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
            # NaN fails the comparison too
            if self.noise_variance is None or not 0 < self.noise_variance < np.inf:
                raise ContractError(f"{self.kind} requires a positive, finite noise_variance")

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
    if spec.kind == "laplace-logistic" and not data.binary_labels:
        raise ContractError("laplace-logistic labels must be 0 or 1")


def _log_likelihoods(omegas: np.ndarray, data: ClientDataset | Sequence[ClientDataset],
                     spec: LocalModelSpec) -> np.ndarray:
    """log p(D | omega_s) for every row of omegas (S, d), unchecked. Given a
    sequence of B datasets of one size, the (B, S) table of every dataset
    against rows shared, omegas (S, d), or per dataset, (B, S, d), in one
    stacked call. The single form is the sequence form on one dataset.

    ``x @ omegas[..., None]`` is a stacked matmul that runs one gemv per
    (dataset, row) pair, as ``x @ omega`` does for one of each; ``omegas @
    x.T`` would be a gemm, which rounds differently. Sums run along
    contiguous rows, as in the one-row form, so every entry is the bits of a
    one-dataset, one-row call.
    """
    if isinstance(data, ClientDataset):
        return _log_likelihoods(omegas, [data], spec)[0]
    b, n, s = len(data), data[0].n_samples, omegas.shape[-2]
    if n == 0:
        return np.zeros((b, s))   # log of an empty product
    # (B, 1, n, d): one block of features per dataset, broadcast over its
    # rows; np.array makes np.stack's copy at a third of its cost
    x = data[0].features[None, None] if b == 1 else np.array([d.features for d in data])[:, None]
    if spec.kind == "gaussian-mean":
        v = spec.noise_variance
        diff = x - omegas[..., None, :]
        np.square(diff, out=diff)    # what ``** 2`` runs, without a second buffer
        sq = diff.reshape(b, s, -1).sum(axis=2)
        return -0.5 * (n * spec.feature_dim * np.log(2.0 * np.pi * v) + sq / v)
    y = np.array([np.asarray(d.labels, dtype=float) for d in data])[:, None]
    if spec.kind == "laplace-logistic":
        return _logistic_log_likelihoods(x, y, omegas)
    v = spec.noise_variance
    resid = y - (x @ omegas[..., None])[..., 0]
    sq = (resid[..., None, :] @ resid[..., None])[..., 0, 0]
    return -0.5 * (n * np.log(2.0 * np.pi * v) + sq / v)


def _log_likelihood_table(omegas: np.ndarray, datasets: Sequence[ClientDataset],
                          spec: LocalModelSpec) -> np.ndarray:
    """``_log_likelihoods`` of datasets of any sizes against rows shared
    (S, d) or per dataset (C, S, d): a C x S table, unchecked. The datasets
    are grouped by size in first-seen order, and each group is scored in
    chunks of as many datasets as fit KERNEL_ENTRIES (at least one), one
    kernel call per chunk."""
    by_size: dict[int, list[int]] = {}
    for k, data in enumerate(datasets):
        by_size.setdefault(data.n_samples, []).append(k)
    s = omegas.shape[-2]
    table = np.empty((len(datasets), s))
    for n, ks in by_size.items():
        per_call = max(1, KERNEL_ENTRIES // (s * max(n, 1) * omegas.shape[-1]))
        for start in range(0, len(ks), per_call):
            chunk = ks[start:start + per_call]
            rows = omegas if omegas.ndim == 2 else omegas[chunk]
            table[chunk] = _log_likelihoods(rows, [datasets[k] for k in chunk], spec)
    return table


def _logistic_log_likelihoods(x, y, omegas):
    """sum_i [y_i z_i - log(1 + exp(z_i))], z = x @ omega, for every row of
    omegas (..., S, d) against the datasets x (..., n, d), y (..., n) that
    broadcast against them: one dataset against S rows, a stack of S datasets
    of one size row by row (x (S, n, d), y (S, n), omegas (S, d)), or a stack
    of B datasets against S rows each (x (B, 1, n, d), y (B, 1, n))."""
    z = (x @ omegas[..., None])[..., 0]
    u = y * z
    u -= _softplus(z)
    return np.sum(u, axis=-1)


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) elementwise, as log1p(exp(-|z|)) + max(z, 0) in one
    buffer; within 3 ulp of ``np.logaddexp(0, z)``."""
    out = np.abs(z)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(z, 0.0)
    return out


def data_log_likelihoods(omegas: np.ndarray,
                         data: ClientDataset | Sequence[ClientDataset],
                         spec: LocalModelSpec) -> np.ndarray:
    """log p(D | omega_s) for each row of omegas (S, d); zeros for an empty
    dataset. Given a sequence of C datasets, of any sizes, the C x S table of
    every dataset against rows shared (S, d) or per dataset (C, S, d), each
    entry the bits of its one-dataset call."""
    omegas = np.asarray(omegas, dtype=float)
    if isinstance(data, ClientDataset):
        if omegas.ndim != 2 or omegas.shape[1] != spec.param_dim:
            raise ContractError(f"parameters must have shape (S, {spec.param_dim})")
        return data_log_likelihoods(omegas, [data], spec)[0]
    datasets = list(data)
    if (omegas.ndim not in (2, 3) or omegas.shape[-1] != spec.param_dim
            or (omegas.ndim == 3 and len(omegas) != len(datasets))):
        raise ContractError(f"parameters must have shape (S, {spec.param_dim}) or "
                            f"({len(datasets)}, S, {spec.param_dim})")
    for data_i in datasets:
        _check_data(data_i, spec)
    return _log_likelihood_table(omegas, datasets, spec)


def _conjugate_data_info(data, spec):
    """What one dataset adds to the prior's information pair: (n/v I, sum x / v)
    for gaussian-mean, (X'X / v, X'y / v) for bayes-linear."""
    x = data.features
    v = spec.noise_variance
    if spec.kind == "gaussian-mean":
        return (data.n_samples / v) * np.eye(spec.param_dim), x.sum(axis=0) / v
    y = np.asarray(data.labels, dtype=float)
    return (x.T @ x) / v, (x.T @ y) / v


def _laplace_objective(x, y, lam0, m0, w):
    """The negative log posterior, up to a constant, of every stacked problem
    at its row of w: x (B, n, d), y (B, n), lam0 (B, d, d), m0 and w (B, d).

    Each problem takes the operations of the one-problem form
    ``0.5 * diff @ lam0 @ diff - _log_likelihoods(w[None], data, spec)[0]``,
    so its value is the same bits. The data were checked by the caller.
    """
    diff = w - m0
    quad = ((0.5 * diff)[:, None, :] @ lam0 @ diff[:, :, None])[:, 0, 0]
    return quad - _logistic_log_likelihoods(x, y, w)


def _hessians(x, p, lam0):
    """X' diag(p (1 - p)) X + lam0 for every stacked problem, symmetrized."""
    hess = x.transpose(0, 2, 1) @ (x * (p * (1.0 - p))[:, :, None]) + lam0
    return (hess + hess.transpose(0, 2, 1)) / 2.0


def _test_hessians(hess, message="Hessian not positive-definite"):
    """The Cholesky test of every stacked Hessian, by ``spd_cholesky_stack``:
    the Hessians, each with the jitter if it needed it. One that fails even
    after the jitter raises SingularModelError(message)."""
    try:
        return spd_cholesky_stack(hess)[0]
    except ContractError as exc:
        raise SingularModelError(message) from exc


# 1 / (1 + exp(-z)) overflows to inf on a far Newton step: p -> 0 is the
# right limit, so the update ignores that overflow
@np.errstate(over="ignore")
def _laplace_logistic_modes(priors, datasets):
    """Mode and tested Hessian at the mode of every Laplace problem, for
    nonempty datasets of one size n: one masked Newton loop on stacked
    (B, n, d) arrays.

    Every problem takes the steps of the one-problem loop: its own decrement
    stop, and its own halving sequence, in which the problems still pending
    are re-evaluated at scales 1, 1/2, ... until their objective does not
    rise. A problem leaves the stack when it stops, so its mode and Hessian
    are the bits that loop gives.
    """
    # np.array, not np.stack: the same copy of equal-shape arrays, at a
    # third of the cost
    x_all = np.array([d.features for d in datasets])
    y_all = np.array([np.asarray(d.labels, dtype=float) for d in datasets])
    lam0_all = np.array([prior.precision for prior in priors])
    m0_all = np.array([prior.mean for prior in priors])
    modes = np.empty_like(m0_all)

    live = np.arange(len(priors))
    x, y, lam0, m0, w = x_all, y_all, lam0_all, m0_all, m0_all.copy()
    obj = _laplace_objective(x, y, lam0, m0, w)
    for _ in range(NEWTON_MAX_ITER):
        p = 1.0 / (1.0 + np.exp(-(x @ w[:, :, None])[..., 0]))
        grad = ((x.transpose(0, 2, 1) @ (p - y)[:, :, None])[..., 0]
                + (lam0 @ (w - m0)[:, :, None])[..., 0])
        hess = _hessians(x, p, lam0)
        _test_hessians(hess)
        try:
            step = np.linalg.solve(hess, grad[:, :, None])[..., 0]
        except np.linalg.LinAlgError as exc:
            # a Hessian that passed only with the jitter can still be singular
            raise SingularModelError("Hessian is singular") from exc
        decrement = (grad[:, None, :] @ step[:, :, None])[:, 0, 0]
        # fmax keeps 1.0 for a NaN objective, as max(1.0, nan) does
        done = decrement <= NEWTON_DECREMENT_TOL * np.fmax(1.0, np.abs(obj))
        # the first of the scales 1, 1/2, ..., 2**-39 whose step does not
        # raise the objective, else 2**-40
        pending = np.flatnonzero(~done)
        for halvings in range(NEWTON_MAX_HALVINGS + 1):
            if not pending.size:
                break
            cand = w[pending] - 0.5 ** halvings * step[pending]
            cand_obj = _laplace_objective(x[pending], y[pending], lam0[pending],
                                          m0[pending], cand)
            accept = cand_obj <= obj[pending]
            if halvings == NEWTON_MAX_HALVINGS:
                accept[:] = True
            taken = pending[accept]
            w[taken], obj[taken] = cand[accept], cand_obj[accept]
            pending = pending[~accept]
        if np.any(done):
            modes[live[done]] = w[done] - step[done]
            keep = ~done
            live, x, y, lam0, m0, w, obj = (a[keep] for a in (live, x, y, lam0, m0, w, obj))
            if not live.size:
                break
    modes[live] = w

    p = 1.0 / (1.0 + np.exp(-(x_all @ modes[:, :, None])[..., 0]))
    hess = _test_hessians(_hessians(x_all, p, lam0_all),
                          "Hessian not positive-definite at the mode")
    return list(zip(modes, hess))


def posterior_update(prior: GaussianDensity | Sequence[GaussianDensity],
                     data: ClientDataset | Sequence[ClientDataset],
                     spec: LocalModelSpec) -> GaussianDensity | list[GaussianDensity]:
    """p(w | D) from the prior and one client dataset; or, given equal-length
    sequences of priors and datasets, the list of posteriors of each pair.

    Exact in information form for the conjugate kinds: the prior's pair plus
    the data's, one pair at a time. Laplace approximation (mode, Hessian at
    the mode) for laplace-logistic: the problems of one dataset size run in
    one masked Newton loop (``_laplace_logistic_modes``), and each gets the
    bits of its own one-problem loop. An empty dataset returns its prior
    itself. The single form is the sequence form on one pair.
    """
    if isinstance(prior, GaussianDensity):
        return posterior_update([prior], [data], spec)[0]
    priors, datasets = list(prior), list(data)
    if len(priors) != len(datasets):
        raise ContractError(f"{len(priors)} priors but {len(datasets)} datasets")
    for prior_i, data_i in zip(priors, datasets):
        if prior_i.dim != spec.param_dim:
            raise ContractError(
                f"prior dim {prior_i.dim} != parameter dim {spec.param_dim}")
        _check_data(data_i, spec)
    out = list(priors)    # an empty dataset keeps its prior
    if spec.kind != "laplace-logistic":
        for k, (prior_i, data_i) in enumerate(zip(priors, datasets)):
            if not data_i.is_empty():
                lam0, eta0 = prior_i.info_form()
                lam, eta = _conjugate_data_info(data_i, spec)
                out[k] = from_info(lam0 + lam, eta0 + eta)
        return out
    by_size: dict[int, list[int]] = {}
    for k, data_i in enumerate(datasets):
        if not data_i.is_empty():
            by_size.setdefault(data_i.n_samples, []).append(k)
    for ks in by_size.values():
        fits = _laplace_logistic_modes([priors[k] for k in ks], [datasets[k] for k in ks])
        modes, lams = (np.array(a) for a in zip(*fits))
        shifts = (lams @ modes[:, :, None])[..., 0]
        for k, density in zip(ks, _from_tested_infos(lams, shifts)):
            out[k] = density
    return out


def assoc_log_weight_at_mean(clusters: Sequence[GaussianDensity],
                             clients: Sequence[ClientDataset],
                             spec: LocalModelSpec) -> np.ndarray:
    """log p(D_j | w_hat_i) for every client j and cluster i, with w_hat_i the
    cluster's expected parameter value: a C x U table, one row per client and
    one column per cluster, in order.

    The clusters are checked and their means stacked once per call, and
    every client's data once; the clients are then scored by size in chunks
    that fit KERNEL_ENTRIES, each chunk against all means in one kernel call.
    """
    for cluster in clusters:
        if cluster.dim != spec.param_dim:
            raise ContractError(
                f"cluster dim {cluster.dim} != parameter dim {spec.param_dim}")
    means = np.array([c.mean for c in clusters]).reshape(len(clusters), spec.param_dim)
    for data in clients:
        _check_data(data, spec)
    return _log_likelihood_table(means, clients, spec)


def assoc_log_weight_sampled(clusters: Sequence[GaussianDensity],
                             clients: Sequence[ClientDataset], spec: LocalModelSpec,
                             normals: np.ndarray) -> np.ndarray:
    """Monte Carlo association weights log mean_l p(D_j | w_l), w_l ~ cluster
    u, for every client j and cluster u: a C x U table, one row per client
    and one column per cluster, in order.

    ``normals`` is a (C, S, d) table of standard normals, S >= 1: row j holds
    client j's S normals z_j, which become the draws ``mean_u + z_j @
    chol_u.T`` under every cluster u, in one stacked product. Equal sample
    weights. Each client's data is checked and scored against its U * S
    draws in one kernel call, and one ``logsumexp`` reduces all C * U rows,
    each with the bits of a one-row call.
    """
    c, u, d = len(clients), len(clusters), spec.param_dim
    z = np.asarray(normals, dtype=float)
    if z.ndim != 3 or z.shape[0] != c or z.shape[1] < 1 or z.shape[2] != d:
        raise ContractError(f"need a {c} x S x {d} table of standard normals "
                            f"with S >= 1, got shape {z.shape}")
    for cluster in clusters:
        if cluster.dim != spec.param_dim:
            raise ContractError(
                f"cluster dim {cluster.dim} != parameter dim {spec.param_dim}")
    n_samples = z.shape[1]
    means = np.array([cluster.mean for cluster in clusters]).reshape(u, 1, d)
    chols = np.array([cluster.chol for cluster in clusters]).reshape(u, d, d)
    draws = z[:, None] @ chols.transpose(0, 2, 1)
    draws += means
    logliks = np.empty((c, u * n_samples))
    for row, data, omegas in zip(logliks, clients, draws.reshape(c, u * n_samples, d)):
        _check_data(data, spec)
        row[:] = _log_likelihoods(omegas, data, spec)
    return logsumexp(logliks.reshape(c * u, n_samples),
                     np.full(n_samples, 1.0 / n_samples)).reshape(c, u)
