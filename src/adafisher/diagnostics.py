"""Curvature diagnostics: Gershgorin disc statistics, eigenvalue perturbation
under off-diagonal Gaussian noise, 2-D DFT and SNR, factored-curvature
diagonal summaries, and write_csv, the one writer of every CSV table the
package writes (the diagnose tables, fisher_mae.csv and trajectory.csv).

Symmetric eigenproblems are solved with LAPACK (via numpy) for eigenvalues
alone: gershgorin and perturb_offdiag call ``eigvalsh``, which forms no
eigenvectors. perturb_offdiag first checks that the matrix is symmetric;
gershgorin falls back to ``eigvals`` for one that is not.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError, check_number, os_errors


def _matrix(matrix, square: bool = True) -> np.ndarray:
    """matrix as float64, once it is a real, non-empty 2-D matrix, square
    unless square is False."""
    a = np.asarray(matrix)
    if np.iscomplexobj(a):  # a float64 cast would drop the imaginary part
        raise InputError(f"expected a real matrix, got dtype {a.dtype}")
    a = a.astype(np.float64, copy=False)
    if a.ndim != 2 or square and a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionError(f"expected a non-empty {'square' if square else '2-D'} matrix, "
                             f"got shape {a.shape}")
    return a


def _is_symmetric(a: np.ndarray) -> bool:
    """Whether a square matrix equals its transpose up to rounding."""
    return np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max()))


def _symmetric(matrix) -> np.ndarray:
    """matrix as float64, once it is a real, non-empty, symmetric matrix."""
    a = _matrix(matrix)
    if not _is_symmetric(a):
        raise InputError("matrix must be symmetric")
    return a


@dataclass
class DiscSet:
    centers: np.ndarray
    radii: np.ndarray
    dominance: np.ndarray  # |a_ii| / R_i, inf where R_i == 0
    eigenvalues: np.ndarray
    contained: bool  # every eigenvalue inside the union of discs


def gershgorin(matrix: np.ndarray, eig_tol: float = 1e-9) -> DiscSet:
    """Disc centers/radii plus an eigensolver-backed containment check: the
    eigenvalues (ascending) of a symmetric matrix by ``eigvalsh``, else the
    sorted real parts of ``eigvals``. eig_tol is a finite real number; a
    negative one shrinks the discs."""
    check_number("eig_tol", eig_tol, lambda v: True, "a finite number", InputError)
    a = _matrix(matrix)
    centers = np.diag(a).copy()
    radii = np.sum(np.abs(a), axis=1) - np.abs(centers)
    with np.errstate(divide="ignore"):
        dominance = np.where(radii > 0, np.abs(centers) / np.where(radii > 0, radii, 1.0), np.inf)
    if _is_symmetric(a):
        eigvals = np.linalg.eigvalsh(a)
    else:
        eigvals = np.sort(np.linalg.eigvals(a).real)  # non-symmetric fallback
    # each eigenvalue i lies in some disc j
    contained = bool((np.abs(eigvals[:, None] - centers) <= radii + eig_tol).any(axis=1).all())
    return DiscSet(centers, radii, dominance, eigvals, contained)


def kaiser_count(eigvals: np.ndarray) -> int:
    """Number of eigenvalues with magnitude above 1."""
    return int(np.sum(np.abs(eigvals) > 1.0))


@dataclass
class PerturbResult:
    eig_mags_before: np.ndarray  # sorted descending
    eig_mags_after: np.ndarray
    kaiser_before: int
    kaiser_after: int


def perturb_offdiag(matrix: np.ndarray, sigma: float, seed: int) -> PerturbResult:
    """Add symmetric N(0, sigma^2) noise off-diagonal and compare spectra;
    sigma is a finite real number >= 0."""
    check_number("sigma", sigma, lambda v: v >= 0, "a finite number >= 0", InputError)
    a = _symmetric(matrix)
    n = a.shape[0]
    noise = np.zeros_like(a)
    if sigma > 0:
        upper = np.random.default_rng(seed).standard_normal((n, n)) * sigma
        iu = np.triu_indices(n, 1)
        noise[iu] = upper[iu]
        noise = noise + noise.T  # keep the perturbed matrix symmetric
    before = np.linalg.eigvalsh(a)
    after = np.linalg.eigvalsh(_symmetric(a + noise))
    mags_b = np.sort(np.abs(before))[::-1]
    mags_a = np.sort(np.abs(after))[::-1]
    return PerturbResult(mags_b, mags_a, kaiser_count(before), kaiser_count(after))


def fft2(matrix: np.ndarray) -> np.ndarray:
    """Unnormalized 2-D DFT: F[k,l] = sum_pq A[p,q] e^{-2*pi*i(pk/m + ql/n)}."""
    return np.fft.fft2(_matrix(matrix, square=False))


@dataclass
class SnrResult:
    db: float
    infinite: bool = False


def snr(m: np.ndarray, m_hat: np.ndarray) -> SnrResult:
    """10*log10( sum_i |m_ii|^2 / sum_{j>i} |m_hat_ij|^2 ), flagged infinite
    as +inf for zero noise energy and as -inf for zero signal energy."""
    m, m_hat = _matrix(m), _matrix(m_hat)
    if m_hat.shape != m.shape:
        raise DimensionError(f"expected equally sized matrices, got {m.shape} and {m_hat.shape}")
    num = float(np.sum(np.abs(np.diag(m)) ** 2))
    iu = np.triu_indices(m.shape[0], 1)
    den = float(np.sum(np.abs(m_hat[iu]) ** 2))
    if den == 0.0:
        return SnrResult(math.inf, infinite=True)
    if num == 0.0:
        return SnrResult(-math.inf, infinite=True)
    # a difference of logs: the quotient itself can leave float64's range
    return SnrResult(10.0 * (math.log10(num) - math.log10(den)), infinite=False)


def fim_hist_stats(diag: np.ndarray) -> dict[str, float]:
    """Streaming summary of one step's curvature diagonal."""
    v = np.asarray(diag, dtype=np.float64).ravel()
    if v.size == 0:
        raise InputError("empty diagonal")
    if not np.all(np.isfinite(v)):
        raise InputError("non-finite entry in the diagonal")
    q = np.quantile(v, [0.01, 0.25, 0.50, 0.75, 0.99])
    return {
        "mean": float(v.mean()),
        "std": float(v.std()),
        "q01": float(q[0]),
        "q25": float(q[1]),
        "q50": float(q[2]),
        "q75": float(q[3]),
        "q99": float(q[4]),
    }


def write_csv(path, header, rows) -> None:
    """Write one CSV table: the header, then each row. Every float, numpy's
    included, is written as repr(float(v)), which float() reads back bit for
    bit on any numpy version; other cells are written as csv writes them."""
    with os_errors(f"write {path}"), open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
                    for row in rows)
