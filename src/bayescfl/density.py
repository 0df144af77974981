"""Gaussian densities, decentralized posterior fusion, and mixture merging.

Densities are value objects: arrays are frozen at construction and every
operation returns a new instance. Covariances are kept as full matrices
(dimensions stay small at simulation scale).

Local updates and fusion work in information form (precision, precision @
mean), where a product of Gaussians is a sum (Bishop, PRML section 2.3.6).
A pair becomes a density in ``from_info``, or a stack of pairs in
``from_infos``, and the density keeps that pair; a density built from
moments inverts its covariance once, when its information form is first
read. Fusion takes a whole round's member lists in one call and builds all
its densities through ``from_infos``: one stacked symmetrize and Cholesky
test (FusionDegenerateError), then ``_from_tested_infos``. The Laplace
update, whose Hessians have passed their own Cholesky test
(SingularModelError), enters ``_from_tested_infos`` directly. That stacked
step checks the density invariants once over the stack and builds each
density from read-only row views, without the per-density check of
``GaussianDensity.__post_init__``, with the bits of the one-pair build. The
initial priors, which share one covariance and its factor, are built the
same way (``_factored_gaussians``).

numpy's Cholesky returns a NaN or infinite factor, without raising, for a
matrix that holds NaN or +-inf. Every Cholesky test here (``_cholesky``)
counts such a factor as a failure, and a density's mean and covariance must
be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ContractError, FusionDegenerateError, SingularModelError

SPD_JITTER = 1e-12
WEIGHT_SUM_TOL = 1e-9


def symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of a matrix, or of every matrix of a stack;
    None if one of them is not positive-definite.

    numpy returns a NaN or infinite factor, without raising, for a matrix
    that holds NaN or +-inf; such an entry always reaches the factor's
    diagonal, so a finite diagonal is the test.
    """
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    return chol if _finite(chol.diagonal(0, -2, -1)) else None


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite, tested on a Python list: for the
    few entries of a mean or of a factor's diagonal, numpy's per-call
    overhead makes ``np.isfinite(a).all()`` several times slower."""
    return all(map(math.isfinite, a.ravel().tolist()))


def spd_cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A symmetric matrix that has a Cholesky factor, with that lower factor:
    a itself, else a + SPD_JITTER*I. Raises ContractError if the matrix is
    not positive-definite even after the jitter.
    """
    chol = _cholesky(a)
    if chol is not None:
        return a, chol
    bumped = a + SPD_JITTER * np.eye(a.shape[0])
    chol = _cholesky(bumped)
    if chol is None:
        raise ContractError("matrix is not positive-definite")
    return bumped, chol


def spd_cholesky_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``spd_cholesky`` of every matrix of a stack (B, d, d), as the stacked
    matrices and factors: one stacked factorization, and the one-matrix rule
    for each matrix only when some matrix fails it. A stacked factor has the
    bits of the one-matrix factor."""
    chol = _cholesky(a)
    if chol is not None:
        return a, chol
    mats, chols = zip(*map(spd_cholesky, a))
    return np.stack(mats), np.stack(chols)


def logsumexp(a: np.ndarray, b: np.ndarray | None = None) -> float | np.ndarray:
    """log sum(b * exp(a)) along the last axis of a, for weights b >= 0
    (default 1) that broadcast against a: a float for 1-D a, one value per
    row for 2-D a.

    Takes the steps of scipy.special.logsumexp (scipy 1.17), so results keep
    its bits: entries with b == 0 drop out, the entries at the maximum are
    summed apart from the shifted rest, and a result that is not finite falls
    back to the direct log of the sum. Each row of a 2-D a gets the bits of
    the 1-D call on that row. One departure: a row whose weights are all 0 is
    an empty sum and gives -inf, where scipy gives NaN if some exp(a)
    overflows (0 * inf) or a holds NaN.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kept = a if b is None else np.where(b == 0, -np.inf, a)
        top = np.max(kept, axis=-1, keepdims=True)
        at_top = kept == top
        m = (np.sum(at_top, axis=-1, dtype=float) if b is None
             else np.sum(b * at_top, axis=-1))
        shifted = np.exp(np.where(at_top, -np.inf, kept) - top)
        s = np.sum(shifted if b is None else b * shifted, axis=-1)
        s = np.where(s != 0, s / m, s)
        out = np.log1p(s) + np.log(m) + top[..., 0]
        bad = ~np.isfinite(out)
        if np.any(bad):
            direct = np.log(np.sum(np.exp(a) if b is None else b * np.exp(a), axis=-1))
            out = np.where(bad, direct, out)
            if b is not None:
                out = np.where(np.all(np.broadcast_to(b == 0, a.shape), axis=-1),
                               -np.inf, out)
    return float(out) if out.ndim == 0 else out


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GaussianDensity:
    """Multivariate normal with full covariance.

    Invariants checked at construction: mean is a finite vector, covariance
    is a finite matching square matrix, symmetric to 1e-12 relative
    tolerance, and positive-definite (a Cholesky factorization must succeed).
    That lower factor is kept, read-only, as ``chol``; ``spd_gaussian`` hands
    in the factor it has already computed, so no covariance is factorized
    twice. ``_from_tested_infos`` checks the same invariants once over a
    stack (``_check_moments`` and the stacked Cholesky) and builds its
    densities without calling ``__post_init__``.
    """

    mean: np.ndarray
    covariance: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = _freeze(np.atleast_1d(self.mean))
        cov = _freeze(np.atleast_2d(self.covariance))
        if mean.ndim != 1:
            raise ContractError("mean must be a vector")
        if not _finite(mean):
            raise ContractError("mean must be finite")
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ContractError(f"covariance must be {d}x{d}, got {cov.shape}")
        top = float(np.abs(cov).max())
        # NaN fails the comparison; testing it here, before cov - cov.T, keeps
        # inf - inf from warning
        if not top < math.inf:
            raise ContractError("covariance must be finite")
        if not float(np.abs(cov - cov.T).max()) <= 1e-12 * max(1.0, top):
            raise ContractError("covariance is not symmetric")
        chol = self.__dict__.get("chol")
        if chol is None:
            chol = _cholesky(cov)
            if chol is None:
                raise ContractError("covariance is not positive-definite")
        chol.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "chol", chol)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def precision(self) -> np.ndarray:
        return symmetrize(np.linalg.inv(self.covariance))

    @cached_property
    def log_det_cov(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))

    @cached_property
    def _shift(self) -> np.ndarray:
        return self.precision @ self.mean

    def info_form(self) -> tuple[np.ndarray, np.ndarray]:
        """(precision, precision @ mean), as given to ``from_info`` if built there."""
        return self.precision, self._shift

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        """Log density at one point (shape (dim,)) or a batch (shape (n, dim))."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        diff = pts - self.mean
        sol = np.linalg.solve(self.chol, diff.T)
        maha = np.sum(sol**2, axis=0)
        out = -0.5 * (self.dim * np.log(2.0 * np.pi) + self.log_det_cov + maha)
        return out[0] if np.asarray(x).ndim == 1 else out


def spd_gaussian(mean: np.ndarray, cov: np.ndarray) -> GaussianDensity:
    """N(mean, cov), with cov made positive-definite by the jitter rule of
    ``spd_cholesky`` and the density built from that one factorization."""
    return _factored_gaussian(mean, *spd_cholesky(cov))


def _factored_gaussian(mean: np.ndarray, cov: np.ndarray,
                       chol: np.ndarray) -> GaussianDensity:
    """N(mean, cov) on chol, a lower Cholesky factor of cov computed before,
    so that densities sharing one covariance share one factorization."""
    density = object.__new__(GaussianDensity)
    object.__setattr__(density, "chol", chol)
    density.__init__(mean, cov)
    return density


def _factored_gaussians(means: np.ndarray, cov: np.ndarray,
                        chol: np.ndarray) -> list[GaussianDensity]:
    """N(mean, cov) for every row of means (B, d), all on one covariance and
    its lower Cholesky factor chol: the densities share cov and chol, are
    checked once by ``_check_moments`` and are built from read-only row
    views of means, with no per-density ``__post_init__``."""
    means, cov, chol = _freeze(means), _freeze(cov), _freeze(chol)
    # ndarray.repeat, not np.broadcast_to: a fresh process's first
    # broadcast_to call costs ~40 us, all of it before the first round
    _check_moments(means, cov[None].repeat(len(means), axis=0))
    return [_unchecked(mean, cov, chol) for mean in means]


def _unchecked(mean: np.ndarray, cov: np.ndarray, chol: np.ndarray,
               **cached) -> GaussianDensity:
    """A density from read-only arrays that the caller has checked, without
    ``__post_init__``; ``cached`` fills its cached properties."""
    density = object.__new__(GaussianDensity)
    density.__dict__.update(mean=mean, covariance=cov, chol=chol, **cached)
    return density


def from_info(precision: np.ndarray, shift: np.ndarray) -> GaussianDensity:
    """Density from information form: covariance = precision^-1, mean = cov @ shift.

    Every conjugate update ends here, and the density keeps the pair. A
    precision that fails the Cholesky test, or that passes it but cannot be
    inverted, raises FusionDegenerateError. Fusion builds its densities a
    stack at a time (``from_infos``); the Laplace update tests its Hessians
    itself (SingularModelError) and goes straight to ``_from_tested_infos``."""
    precision = symmetrize(np.asarray(precision, dtype=float))
    if _cholesky(precision) is None:
        raise FusionDegenerateError("precision matrix is not positive-definite")
    return _from_tested_info(precision, shift)


def from_infos(precisions: np.ndarray, shifts: np.ndarray) -> list[GaussianDensity]:
    """``from_info`` of every pair of a stack, precisions (B, d, d) and shifts
    (B, d): one stacked symmetrize and Cholesky test, then
    ``_from_tested_infos``, each density with the bits of its one-pair
    build. One precision that fails the test raises FusionDegenerateError,
    as does one that passes it but cannot be inverted."""
    precisions = np.asarray(precisions, dtype=float)
    precisions = (precisions + precisions.transpose(0, 2, 1)) / 2.0
    if _cholesky(precisions) is None:
        raise FusionDegenerateError("precision matrix is not positive-definite")
    try:
        return _from_tested_infos(precisions, shifts)
    except SingularModelError as exc:    # its inverse's only error
        raise FusionDegenerateError("precision matrix is singular") from exc


def _from_tested_info(precision: np.ndarray, shift: np.ndarray) -> GaussianDensity:
    """``from_info`` for a symmetric precision that has passed a Cholesky test."""
    precision = _freeze(precision)
    try:
        cov = symmetrize(np.linalg.inv(precision))
    except np.linalg.LinAlgError as exc:
        # a Cholesky factor can exist where the LU of inv meets a zero pivot
        raise FusionDegenerateError("precision matrix is singular") from exc
    density = spd_gaussian(cov @ shift, cov)
    object.__setattr__(density, "precision", precision)
    object.__setattr__(density, "_shift", _freeze(shift))
    return density


def _from_tested_infos(precisions: np.ndarray, shifts: np.ndarray) -> list[GaussianDensity]:
    """``_from_tested_info`` of every pair of a stack, precisions (B, d, d) and
    shifts (B, d): one stacked inverse, symmetrize, ``cov @ shift`` and
    ``spd_cholesky_stack``, each with the bits of its one-pair step.
    ``GaussianDensity``'s invariants are checked once over the stack
    (``_check_moments``), and each density is then built from read-only row
    views of the stacks, with no per-density ``__post_init__``. A precision
    that cannot be inverted raises SingularModelError, as its Hessian's
    failed test would."""
    precisions, shifts = _freeze(precisions), _freeze(shifts)
    try:
        inv = np.linalg.inv(precisions)
    except np.linalg.LinAlgError as exc:
        raise SingularModelError("Hessian at the mode is singular") from exc
    covs = (inv + inv.transpose(0, 2, 1)) / 2.0
    means = (covs @ shifts[:, :, None])[..., 0]
    covs, chols = spd_cholesky_stack(covs)
    _check_moments(means, covs)
    for stack in (means, covs, chols):
        stack.flags.writeable = False
    return [_unchecked(mean, cov, chol, precision=precision, _shift=shift)
            for mean, cov, chol, precision, shift in zip(means, covs, chols, precisions, shifts)]


def _check_moments(means: np.ndarray, covs: np.ndarray) -> None:
    """``GaussianDensity``'s checks of mean and covariance values over stacks
    (B, d) and (B, d, d) in a few stacked steps: finite means, finite
    covariances, each symmetric to 1e-12 relative. Raises the ContractError
    that ``GaussianDensity`` raises for the first density that fails one."""
    tops = np.abs(covs).max(axis=(1, 2))
    with np.errstate(invalid="ignore"):   # inf - inf where a covariance holds inf
        asym = np.abs(covs - covs.transpose(0, 2, 1)).max(axis=(1, 2))
    finite_means = np.isfinite(means).all(axis=1)
    # NaN fails both comparisons, as in GaussianDensity
    finite_covs = tops < math.inf
    ok = finite_means & finite_covs & (asym <= 1e-12 * np.maximum(1.0, tops))
    if ok.all():
        return
    k = int(np.argmin(ok))
    if not finite_means[k]:
        raise ContractError("mean must be finite")
    if not finite_covs[k]:
        raise ContractError("covariance must be finite")
    raise ContractError("covariance is not symmetric")


def fuse_local_posteriors(locals_: Sequence[GaussianDensity] | Sequence[Sequence[GaussianDensity]],
                          prior: GaussianDensity | Sequence[GaussianDensity],
                          mode: str = "prior-corrected") -> GaussianDensity | list[GaussianDensity]:
    """Combine per-client posteriors into one density in information form;
    or, given a sequence of member lists and an equal-length sequence of
    priors, the list of each list's fusion with its prior.

    naive-product: normalized product of the locals (precisions and
    precision-means add). prior-corrected: additionally removes the n-1
    extra copies of the shared prior so that, for conjugate models, the
    result equals the posterior given the union of all client datasets.

    Each list's pairs are summed in its own order, from zero, then the prior
    correction is subtracted; one stacked accumulation does this for every
    list at once, padded with zero pairs, and one ``from_infos`` builds all
    the densities, so each has the bits of the one-list sum and build. The
    single form is the sequence form on one list.
    """
    if isinstance(prior, GaussianDensity):
        return fuse_local_posteriors([locals_], [prior], mode)[0]
    groups, priors = [list(members) for members in locals_], list(prior)
    if len(groups) != len(priors):
        raise ContractError(f"{len(groups)} member lists but {len(priors)} priors")
    if not groups:
        return []
    if not all(groups):
        raise ContractError("need at least one local posterior")
    dim = priors[0].dim
    if (any(g.dim != dim for members in groups for g in members)
            or any(p.dim != dim for p in priors)):
        raise ContractError("all densities must share the same dimension")
    if mode not in ("naive-product", "prior-corrected"):
        raise ContractError(f"unknown fusion mode {mode!r}")

    # np.array, not np.stack: the same copy, at half the per-array cost
    counts = np.array([len(members) for members in groups])
    pairs = [g.info_form() for members in groups for g in members]
    lams = np.array([np.zeros((dim, dim))] + [lam for lam, _ in pairs])
    etas = np.array([np.zeros(dim)] + [eta for _, eta in pairs])
    # list k's members are rows starts[k] + 1 .. starts[k] + counts[k]; its
    # column 0 and the columns past its end read the zero pair at row 0
    col = np.arange(counts.max() + 1)
    starts = np.cumsum(counts) - counts
    index = np.where((col >= 1) & (col <= counts[:, None]), starts[:, None] + col, 0)
    # a sum from zero is never -0.0, so adding the zero padding keeps its bits
    precisions = np.add.accumulate(lams[index], axis=1)[:, -1]
    shifts = np.add.accumulate(etas[index], axis=1)[:, -1]
    if mode == "prior-corrected":
        n_extra = counts - 1
        prior_pairs = [p.info_form() for p in priors]
        precisions -= n_extra[:, None, None] * np.array([lam0 for lam0, _ in prior_pairs])
        shifts -= n_extra[:, None] * np.array([eta0 for _, eta0 in prior_pairs])
    return from_infos(precisions, shifts)


def merge_mixture(weights: Sequence[float],
                  components: Sequence[GaussianDensity]) -> GaussianDensity:
    """Moment-matched single Gaussian for a weighted mixture.

    Mean is the weighted mean of component means; covariance preserves the
    mixture's second moment (weighted sum of component covariance plus mean
    outer product, minus the merged mean outer product).
    """
    w = np.asarray(weights, dtype=float)
    if len(components) == 0 or w.shape != (len(components),):
        raise ContractError("weights and components must be nonempty and same length")
    if np.any(w < 0):
        raise ContractError("weights must be nonnegative")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ContractError(f"weights must sum to 1, got {total}")
    dim = components[0].dim
    if any(c.dim != dim for c in components):
        raise ContractError("components must share the same dimension")

    w = w / total
    mean = np.zeros(dim)
    second = np.zeros((dim, dim))
    for wi, c in zip(w, components):
        mean += wi * c.mean
        second += wi * (c.covariance + np.outer(c.mean, c.mean))
    return spd_gaussian(mean, symmetrize(second - np.outer(mean, mean)))
