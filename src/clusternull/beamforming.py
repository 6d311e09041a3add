"""Perfect-CSI zero-forcing transmit beamforming.

Nulling is split in two steps: `nulling_basis` factors the directions to
null once, and `zf_null_beamformer` projects a desired direction onto the
basis's orthogonal complement.  Every beamformer that nulls the same
directions shares one basis.
"""

import numpy as np

from .errors import RankDeficientError

_COND_LIMIT = 1e6  # cond(G) bound; cond(G*G) = cond(G)^2 <= 1e12


def _fix_phase(f):
    """Rotate so the first component of non-negligible magnitude is real > 0."""
    idx = np.argmax(np.abs(f) > 1e-8)
    pivot = f[idx]
    if pivot == 0.0:
        return f
    return f * (np.conj(pivot) / abs(pivot))


def nulling_basis(g_dirs):
    """Orthonormal basis (n_t, n) of the span of the rows of g_dirs.

    g_dirs is (n, n_t) with unit rows (the interferer directions to null).
    Raises RankDeficientError when they cannot be nulled: n >= n_t, or the
    direction matrix is numerically singular (caller resamples the
    realization).
    """
    g_dirs = np.asarray(g_dirs, dtype=complex)
    n, n_t = g_dirs.shape
    if n >= n_t:
        raise RankDeficientError(f"cannot null {n} directions with {n_t} antennas")
    # QR of the column matrix G = [g_1 ... g_n] for a stable orthonormal basis
    q, r = np.linalg.qr(g_dirs.T)
    diag = np.abs(np.diag(r))
    if n and (diag.min() <= diag.max() / _COND_LIMIT or diag.min() == 0.0):
        raise RankDeficientError("interferer directions numerically collinear")
    return q


def zf_null_beamformer(h_dir, basis):
    """Unit beamformer (length n_t) along h_dir projected onto the
    orthogonal complement of `basis` (from `nulling_basis`).

    Among unit vectors orthogonal to every nulled direction, the result
    maximizes |h_dir* f|.  Raises RankDeficientError when h_dir lies in
    the nulled span.
    """
    h_dir = np.asarray(h_dir, dtype=complex)
    f = h_dir - basis @ (basis.conj().T @ h_dir)
    norm = np.linalg.norm(f)
    if norm < 1e-12:
        raise RankDeficientError("desired direction lies in the nulled span")
    return _fix_phase(f / norm)
