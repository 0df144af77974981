"""Gaussian densities, decentralized posterior fusion, and mixture merging.

Densities are value objects: arrays are frozen at construction and every
operation returns a new instance. Covariances are kept as full matrices
(dimensions stay small at simulation scale).

Local updates and fusion work in information form (precision, precision @
mean), where a product of Gaussians is a sum (Bishop, PRML section 2.3.6).
``from_info`` is the one place a pair becomes a density, which keeps that
pair (the Laplace update, whose Hessian has passed its own Cholesky test,
enters it past that test); a density built from moments inverts its
covariance once, when its information form is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ContractError, FusionDegenerateError

SPD_JITTER = 1e-12
WEIGHT_SUM_TOL = 1e-9


def symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def spd_cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A symmetric matrix that has a Cholesky factor, with that lower factor:
    a itself, else a + SPD_JITTER*I. Raises ContractError if the matrix is
    not positive-definite even after the jitter.
    """
    try:
        return a, np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        bumped = a + SPD_JITTER * np.eye(a.shape[0])
    try:
        return bumped, np.linalg.cholesky(bumped)
    except np.linalg.LinAlgError as exc:
        raise ContractError("matrix is not positive-definite") from exc


def logsumexp(a: np.ndarray, b: np.ndarray | None = None) -> float | np.ndarray:
    """log sum(b * exp(a)) along the last axis of a, for weights b >= 0
    (default 1) that broadcast against a: a float for 1-D a, one value per
    row for 2-D a.

    Takes the steps of scipy.special.logsumexp (scipy 1.17), so results keep
    its bits: entries with b == 0 drop out, the entries at the maximum are
    summed apart from the shifted rest, and a result that is not finite falls
    back to the direct log of the sum. Each row of a 2-D a gets the bits of
    the 1-D call on that row.
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
    return float(out) if out.ndim == 0 else out


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GaussianDensity:
    """Multivariate normal with full covariance.

    Invariants checked at construction: mean is a vector, covariance is a
    matching square matrix, symmetric to 1e-12 relative tolerance, and
    positive-definite (a Cholesky factorization must succeed). That lower
    factor is kept, read-only, as ``chol``; ``spd_gaussian`` hands in the
    factor it has already computed, so no covariance is factorized twice.
    """

    mean: np.ndarray
    covariance: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = _freeze(np.atleast_1d(self.mean))
        cov = _freeze(np.atleast_2d(self.covariance))
        if mean.ndim != 1:
            raise ContractError("mean must be a vector")
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ContractError(f"covariance must be {d}x{d}, got {cov.shape}")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if float(np.max(np.abs(cov - cov.T))) > 1e-12 * scale:
            raise ContractError("covariance is not symmetric")
        chol = self.__dict__.get("chol")
        if chol is None:
            try:
                chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError as exc:
                raise ContractError("covariance is not positive-definite") from exc
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

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((n, self.dim))
        return self.mean + z @ self.chol.T


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


def from_info(precision: np.ndarray, shift: np.ndarray) -> GaussianDensity:
    """Density from information form: covariance = precision^-1, mean = cov @ shift.

    Every fusion and conjugate update ends here, and the density keeps the
    pair. A precision that fails the Cholesky test raises
    FusionDegenerateError. The Laplace update tests its Hessian itself
    (SingularModelError) and goes straight to ``_from_tested_info``."""
    precision = symmetrize(np.asarray(precision, dtype=float))
    try:
        np.linalg.cholesky(precision)
    except np.linalg.LinAlgError as exc:
        raise FusionDegenerateError("precision matrix is not positive-definite") from exc
    return _from_tested_info(precision, shift)


def _from_tested_info(precision: np.ndarray, shift: np.ndarray) -> GaussianDensity:
    """``from_info`` for a symmetric precision that has passed a Cholesky test."""
    precision = _freeze(precision)
    cov = symmetrize(np.linalg.inv(precision))
    density = spd_gaussian(cov @ shift, cov)
    object.__setattr__(density, "precision", precision)
    object.__setattr__(density, "_shift", _freeze(shift))
    return density


def fuse_local_posteriors(locals_: Sequence[GaussianDensity],
                          prior: GaussianDensity,
                          mode: str = "prior-corrected") -> GaussianDensity:
    """Combine per-client posteriors into one density in information form.

    naive-product: normalized product of the locals (precisions and
    precision-means add). prior-corrected: additionally removes the n-1
    extra copies of the shared prior so that, for conjugate models, the
    result equals the posterior given the union of all client datasets.
    """
    if not locals_:
        raise ContractError("need at least one local posterior")
    dim = locals_[0].dim
    if any(g.dim != dim for g in locals_) or prior.dim != dim:
        raise ContractError("all densities must share the same dimension")
    if mode not in ("naive-product", "prior-corrected"):
        raise ContractError(f"unknown fusion mode {mode!r}")

    precision = np.zeros((dim, dim))
    shift = np.zeros(dim)
    for g in locals_:
        lam, eta = g.info_form()
        precision += lam
        shift += eta
    if mode == "prior-corrected":
        lam0, eta0 = prior.info_form()
        n_extra = len(locals_) - 1
        precision -= n_extra * lam0
        shift -= n_extra * eta0
    return from_info(precision, shift)


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
