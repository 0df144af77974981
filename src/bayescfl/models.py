"""Local client models: likelihoods, exact conjugate posterior updates, and
likelihood-based association weights.

Three model kinds:
  gaussian-mean    observations y ~ N(w, noise_variance * I); infer w.
  bayes-linear     responses y = x @ w + e, e ~ N(0, noise_variance); infer w.
  laplace-logistic binary logistic regression; posterior via Laplace
                   approximation (damped Newton mode search, covariance =
                   inverse Hessian at the mode).

Every likelihood goes through one batched kernel, ``_log_likelihoods``, which
scores S parameter rows against one dataset in a single call: one client
against the Monte Carlo draws of every cluster of a sampled weight call,
every cluster mean against one client of an at-mean call, every hypothesis's
mean in the held-out metric, and (one row at a time) the Newton objective.
Both association-weight calls take a whole round of clients and return a
client x cluster table; the kernel still runs once per client, so its
temporaries stay the size of one client's data. Each row takes
the same floating-point operations in the same order as a one-row call, so
the results are bit-identical to scoring the rows one by one. Public entry
points validate each dataset once; the kernel itself checks nothing.

The logistic likelihood's softplus log(1 + exp(z)) is computed as
log1p(exp(-|z|)) + max(z, 0) in one buffer, which numpy runs as vector loops
where ``np.logaddexp(0, z)`` calls libm once per element; the two agree to
within 3 ulp. The form is elementwise, so rows still match the one-row
formula bit for bit.

A sampled weight draws from the generator that
``np.random.default_rng(np.random.SeedSequence(seed))`` gives, without
hashing per pair: ``_pcg64_states`` runs SeedSequence's hash (``_stream_keys``,
in uint32 arithmetic) over the whole seed table once, and each pair's PCG64
takes its row of that table.

Every posterior update ends in an information pair becoming a density. For
the conjugate kinds it is ``density.from_info`` on the prior's pair plus the
data's, so fusion and later rounds only add; for laplace-logistic the pairs
are the Hessians at the modes and Hessian @ mode, tested by one stacked
Cholesky in the mode search and built by one stacked
``density._from_tested_infos``, each with the bits of its one-pair build.

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

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datasets import _SEED_MASK, ClientDataset
from .density import (GaussianDensity, _from_tested_infos, from_info, logsumexp,
                      spd_cholesky_stack)
from .errors import ContractError, SingularModelError

# the hash constants of numpy's SeedSequence (O'Neill's seed_seq_fe)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """The 32-bit words of a nonnegative int, low word first, as SeedSequence
    splits an entropy entry: one word for 0."""
    out = [n & _MASK32]
    while n := n >> 32:
        out.append(n & _MASK32)
    return out


def _stream_keys(entropy, n_words: int | None = None):
    """``np.random.SeedSequence(entropy).generate_state(1)[0]`` for a table
    of entropies at once, bit for bit; with n_words, the whole
    ``generate_state(n_words)``, as a trailing axis of n_words uint32 words.

    Each entropy word is an int in [0, 2**32) or a uint32 array; the arrays
    broadcast, and each entry of the returned uint32 table is the key of the
    entropy that takes that entry's words. It runs SeedSequence's hash with
    the ints as Python ints and the arrays as wrapping uint32 arithmetic,
    masking every product to 32 bits, so no numpy scalar overflows.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        out = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return out ^ out >> 16

    words = list(entropy) + [0] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(1 if n_words is None else n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    if n_words is None:
        return state[0]
    return np.stack(np.broadcast_arrays(*state), axis=-1).astype(np.uint32)


def _pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(seed & _SEED_MASK).generate_state(4,
    np.uint64)``, the seed PCG64 takes, for every int of a table: its shape
    plus a trailing axis of 4 uint64 words, bit for bit.

    SeedSequence splits a seed into 32-bit words, low first, and zero-pads
    its pool, so a seed below 2**32 hashes as its two words [low, 0] do; the
    whole table then hashes as one two-word entropy.
    """
    keys = np.array([int(seed) & _SEED_MASK for seed in seeds.flat],
                    dtype=np.uint64).reshape(seeds.shape)
    state = _stream_keys([(keys & _MASK32).astype(np.uint32),
                          (keys >> 32).astype(np.uint32)], 8).astype(np.uint64)
    return state[..., 0::2] | state[..., 1::2] << np.uint64(32)


@functools.cache
def _seeded_generator():
    """The function that makes ``np.random.default_rng(SeedSequence(seed))``
    from that seed's ``_pcg64_states`` row, without hashing again: a
    Generator on a PCG64 whose seed sequence hands back the row. It is made
    on first use, so importing this module does not import numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class StateRow(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ContractError("a PCG64 seed row holds 4 uint64 words")
            return self.state

    return lambda state: Generator(PCG64(StateRow(state)))


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
    y = np.asarray(data.labels, dtype=float)
    if spec.kind == "laplace-logistic":
        return _logistic_log_likelihoods(x, y, omegas)
    v = spec.noise_variance
    resid = y - (x @ omegas[:, :, None])[..., 0]
    sq = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
    return -0.5 * (n * np.log(2.0 * np.pi * v) + sq / v)


def _logistic_log_likelihoods(x, y, omegas):
    """sum_i [y_i z_i - log(1 + exp(z_i))], z = x @ omega, for every row of
    omegas (S, d): against one dataset (x (n, d), y (n,)) or, row by row,
    against a stack of S datasets of one size (x (S, n, d), y (S, n))."""
    z = (x @ omegas[:, :, None])[..., 0]
    u = y * z
    u -= _softplus(z)
    return np.sum(u, axis=1)


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) elementwise, as log1p(exp(-|z|)) + max(z, 0) in one
    buffer; within 3 ulp of ``np.logaddexp(0, z)``."""
    out = np.abs(z)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(z, 0.0)
    return out


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
    x_all = np.stack([d.features for d in datasets])
    y_all = np.stack([np.asarray(d.labels, dtype=float) for d in datasets])
    lam0_all = np.stack([prior.precision for prior in priors])
    m0_all = np.stack([prior.mean for prior in priors])
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
        modes, lams = (np.stack(a) for a in zip(*fits))
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
                             clients: Sequence[ClientDataset], spec: LocalModelSpec,
                             n_samples: int, seeds) -> np.ndarray:
    """Monte Carlo association weights log mean_l p(D_j | w_l), w_l ~ cluster
    i, for every client j and cluster i: a C x P table, one row per client
    and one column per cluster, in order.

    ``seeds`` is a C x P table of integers. Equal sample weights. Each pair
    draws its n_samples parameters from its own generator, the one
    ``np.random.default_rng(np.random.SeedSequence(seed & (2**63 - 1)))``
    gives, seeded from one hash of the whole table (``_pcg64_states``), so
    its weight is deterministic for a fixed seed and does not depend on the
    other pairs. The pairs' standard normals fill one
    (C, P, S, d) table, and one stacked ``z @ chol.T`` plus the means turns
    it into the draws ``GaussianDensity.sample`` gives. Each client's data is checked
    and scored against its P * S draws in one kernel call, and one
    ``logsumexp`` reduces all C * P rows, each with the bits of a one-row
    call.
    """
    if n_samples < 1:
        raise ContractError("n_samples must be >= 1")
    seeds = np.asarray(seeds, dtype=object)
    if seeds.shape != (len(clients), len(clusters)):
        raise ContractError(f"need a {len(clients)} x {len(clusters)} seed table, "
                            f"got shape {seeds.shape}")
    for cluster in clusters:
        if cluster.dim != spec.param_dim:
            raise ContractError(
                f"cluster dim {cluster.dim} != parameter dim {spec.param_dim}")
    c, p, d = len(clients), len(clusters), spec.param_dim
    z = np.empty((c, p, n_samples, d))
    seeded = _seeded_generator()
    for block, state in zip(z.reshape(c * p, n_samples, d),
                            _pcg64_states(seeds).reshape(c * p, 4)):
        seeded(state).standard_normal(out=block)
    means = np.array([cluster.mean for cluster in clusters]).reshape(p, 1, d)
    chols = np.array([cluster.chol for cluster in clusters]).reshape(p, d, d)
    draws = z @ chols.transpose(0, 2, 1)
    draws += means
    logliks = np.empty((c, p * n_samples))
    for row, data, omegas in zip(logliks, clients, draws.reshape(c, p * n_samples, d)):
        _check_data(data, spec)
        row[:] = _log_likelihoods(omegas, data, spec)
    return logsumexp(logliks.reshape(c * p, n_samples),
                     np.full(n_samples, 1.0 / n_samples)).reshape(c, p)
