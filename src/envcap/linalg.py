"""Dense complex linear algebra for small quantum systems.

Everything here operates on plain ``numpy`` arrays: state vectors are
1-d complex arrays, operators and density matrices are 2-d complex
arrays in row-major subsystem ordering (the first tensor factor is the
slow index).  All entropies are in bits (base-2 logarithms).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Validation tolerances.  16x16 is the largest matrix in this package, so
# double precision leaves a wide margin around these.
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
UNITARY_TOL = 1e-10
NORM_TOL = 1e-10

# Eigenvalues below this are treated as exact zeros inside entropies, so
# numerically pure states report entropy 0.
ENTROPY_EIG_FLOOR = 1e-12


def as_complex_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def check_unitary(u) -> np.ndarray:
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if dev > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary: ||U^dag U - I||_max = {dev:.3e}")
    return u


def check_state_vector(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"expected a state vector, got array of ndim {psi.ndim}")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"state vector is not normalized: ||psi|| = {nrm!r}")
    return psi


def check_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of ``rho``."""
    rho = as_complex_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    herm_dev = np.abs(rho - rho.conj().T).max()
    if herm_dev > HERM_TOL:
        raise ValueError(f"density matrix is not Hermitian: deviation {herm_dev:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace is {tr!r}, expected 1")
    wmin = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if wmin < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {wmin:.3e}")
    return rho


def partial_trace(m, dims: Sequence[int], keep) -> np.ndarray:
    """Trace out all subsystems of ``m`` except those listed in ``keep``.

    ``dims`` gives the dimension of each tensor factor (row-major order)
    and must multiply to the side of ``m``.  ``keep`` is a subsystem
    index or an iterable of indices; the kept factors stay in their
    original relative order.  Leading axes of ``m`` index a stack.
    """
    m = np.asarray(m, dtype=complex)
    dims = [int(d) for d in dims]
    side = int(np.prod(dims))
    if m.shape[-2:] != (side, side):
        raise ValueError(
            f"matrix of shape {m.shape} does not match subsystem split {tuple(dims)}")
    lead = m.shape[:-2]
    keep = sorted({int(keep)} if isinstance(keep, (int, np.integer)) else {int(k) for k in keep})
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")
    cur, cur_dims = m, list(dims)
    for i in [i for i in reversed(range(len(dims))) if i not in keep]:
        k = len(lead) + i
        cur = np.trace(cur.reshape(lead + tuple(cur_dims) * 2), axis1=k, axis2=k + len(cur_dims))
        cur_dims.pop(i)
        cur = cur.reshape(lead + (int(np.prod(cur_dims)),) * 2)  # np.prod([]) is 1
    return cur


def _eig2_terms(m):
    """Mean (a + d)/2, half-gap (a - d)/2, eigenvalue radius and b of
    Hermitian 2x2 matrices [[a, b], [b*, d]] over the last two axes."""
    m = np.asarray(m)
    a, d, b = m[..., 0, 0].real, m[..., 1, 1].real, m[..., 0, 1]
    gap = (a - d) / 2
    return (a + d) / 2, gap, np.sqrt(gap ** 2 + np.abs(b) ** 2), b


def eigvals2(m) -> np.ndarray:
    """Ascending eigenvalues of Hermitian 2x2 matrices over the last two
    axes, in closed form."""
    half, _, r, _ = _eig2_terms(m)
    return np.stack([half - r, half + r], -1)


def eigh2(m) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of Hermitian 2x2 matrices over the
    last two axes: ascending eigenvalues and eigenvectors as columns,
    like ``np.linalg.eigh``."""
    half, gap, r, b = _eig2_terms(m)
    # upper eigenvector (gap + r, b*) or (b, r - gap), whichever sum does
    # not cancel; a multiple of the identity (r = 0) takes (1, 0)
    first = gap >= 0
    v0 = np.where(first, np.where(r == 0, 1.0, gap + r), b)
    v1 = np.where(first, np.conj(b), r - gap)
    nrm = np.sqrt(np.abs(v0) ** 2 + np.abs(v1) ** 2)
    v0, v1 = v0 / nrm, v1 / nrm
    vecs = np.stack([np.stack([-np.conj(v1), np.conj(v0)], -1),
                     np.stack([v0, v1], -1)], -1)
    return np.stack([half - r, half + r], -1), vecs


def in_chunks(f, size: int, *stacks) -> np.ndarray:
    """``f`` over slices of ``size`` along the first axis of ``stacks``,
    concatenated: the values of one call, with bounded temporaries."""
    starts = range(0, len(stacks[0]) or 1, size)
    return np.concatenate([f(*(s[i:i + size] for s in stacks)) for i in starts])


def entropy_from_eigvals(w):
    """Von Neumann entropy in bits from eigenvalues over the last axis.

    A 1-d array gives a float; a stack gives an array of entropies.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim > 1:
        keep = w > ENTROPY_EIG_FLOOR
        return np.where(keep, -w * np.log2(np.where(keep, w, 1.0)), 0.0).sum(-1)
    w = w[w > ENTROPY_EIG_FLOOR]
    if w.size == 0:
        return 0.0
    return float(-(w * np.log2(w)).sum())


def entropy(rho, validate: bool = True):
    """Von Neumann entropy S(rho) = -Tr rho log2 rho, in bits.

    With ``validate=False`` a stack of matrices over the leading axes is
    accepted; stacks of 2x2 matrices take the closed-form spectrum.
    """
    rho = check_density_matrix(rho) if validate else np.asarray(rho, dtype=complex)
    if rho.ndim > 2 and rho.shape[-2:] == (2, 2):
        return entropy_from_eigvals(eigvals2(rho))
    return entropy_from_eigvals(np.linalg.eigvalsh(rho))


def projector(psi) -> np.ndarray:
    """|psi><psi| for state vectors over the last axis of ``psi``."""
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * psi.conj()[..., None, :]


def maximally_entangled(dim: int) -> np.ndarray:
    """State vector of the maximally entangled pair on two dim-level systems."""
    psi = np.zeros(dim * dim, dtype=complex)
    psi[:: dim + 1] = 1.0 / np.sqrt(dim)
    return psi


def bloch_state(theta, phi) -> np.ndarray:
    """Qubit states cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, broadcast
    over arrays of angles to shape (..., 2)."""
    amp = np.exp(1j * phi) * np.sin(theta / 2)
    out = np.empty(np.shape(amp) + (2,), dtype=complex)
    out[..., 0], out[..., 1] = np.cos(theta / 2), amp
    return out


def bloch_density(r) -> np.ndarray:
    """Qubit density matrices (I + r.sigma)/2 over the last axis of ``r``;
    vectors outside the unit ball are scaled onto its surface."""
    r = np.asarray(r, dtype=float)
    bx, by, bz = np.moveaxis(r / np.maximum(np.sqrt((r * r).sum(-1, keepdims=True)), 1.0), -1, 0)
    out = np.empty(r.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1] = 1 + bz, bx - 1j * by
    out[..., 1, 0], out[..., 1, 1] = bx + 1j * by, 1 - bz
    return 0.5 * out


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
