"""Canonical form of two-qubit gates and the degradability regions.

Up to single-qubit unitaries before and after (and complex conjugation),
every two-qubit gate is fixed by three angles (ax, ay, az) confined to
the tetrahedron pi/2 >= ax >= ay >= az >= 0.  The gate is synthesized
spectrally: it acts with phase e^{-i l_k} on the k-th magic-basis vector,
where

    l1 = (ax - ay + az)/2,   l2 = (-ax + ay + az)/2,
    l3 = -(ax + ay + az)/2,  l4 = (ax + ay - az)/2.

Parameter extraction folds the l_k read from the spectrum e^{-2i l_k} of
T^T T, T the gate in the magic basis at unit determinant.  Slot order,
branch, determinant root and conjugation only permute the angles, flip
their signs or shift them by pi: the group :func:`fold_to_fundamental` reduces.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channels import BipartiteUnitary, as_two_qubit

_SQ2 = 1.0 / np.sqrt(2.0)

#: Columns are the magic-basis vectors (phase-adjusted Bell states).
MAGIC = np.array([
    [_SQ2, -1j * _SQ2, 0, 0],
    [0, 0, _SQ2, -1j * _SQ2],
    [0, 0, -_SQ2, -1j * _SQ2],
    [_SQ2, 1j * _SQ2, 0, 0],
], dtype=complex)

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


class CanonicalParams(NamedTuple):
    alpha_x: float
    alpha_y: float
    alpha_z: float


def half_phases(params) -> np.ndarray:
    ax, ay, az = np.asarray(params, dtype=float).T  # over the last axis
    return np.array([ax - ay + az, -ax + ay + az, -ax - ay - az, ax + ay - az]).T / 2


def canonical_matrix(params) -> np.ndarray:
    """Matrices (..., 4, 4) of the canonical gates at angles (..., 3)."""
    lam = half_phases(params)
    return (MAGIC * np.exp(-1j * lam)[..., None, :]) @ MAGIC.conj().T


def canonical_unitary(params) -> BipartiteUnitary:
    """Two-qubit gate with phases e^{-i l_k} on the magic basis."""
    return BipartiteUnitary(canonical_matrix(params))


def swap_power_matrix(gamma) -> np.ndarray:
    """Matrices (..., 4, 4) of :func:`swap_power` over an array of exponents."""
    z = np.exp(1j * np.pi * np.asarray(gamma))
    a, b = (1 + z) / 2, (1 - z) / 2
    return a[..., None, None] * np.eye(4, dtype=complex) + b[..., None, None] * SWAP


def swap_power(gamma: float) -> BipartiteUnitary:
    """Fractional swap (1 + e^{i pi gamma})/2 I + (1 - e^{i pi gamma})/2 SWAP."""
    return BipartiteUnitary(swap_power_matrix(gamma))


def _finite_angles(params) -> tuple:
    angles = tuple(float(a) for a in params)
    if len(angles) != 3 or not all(map(math.isfinite, angles)):
        raise ValueError(f"expected three finite angles, got {params!r}")
    return angles


def fold_to_fundamental(raw) -> CanonicalParams:
    """Reduce three raw angles into the fundamental tetrahedron.

    Each angle is taken mod pi, reflected into [0, pi/2], and the triple
    is sorted descending.  Both operations preserve the gate class up to
    local unitaries and complex conjugation.  Raises ``ValueError``
    unless ``raw`` holds exactly three finite angles.
    """
    folded = (a % np.pi for a in _finite_angles(raw))
    return CanonicalParams(*sorted((np.pi - a if a > np.pi / 2 else a for a in folded),
                                   reverse=True))


def decompose_params(u) -> CanonicalParams:
    """Canonical angles of a two-qubit gate.

    The returned point is invariant under single-qubit unitaries applied
    before and after the gate, and identifies the gate with its complex
    conjugate.  It is the fold of the magic-basis half-phases, in closed
    form; a non-unitary ``u`` raises ``ValueError``.
    """
    m = as_two_qubit(u).matrix
    t = MAGIC.conj().T @ m @ MAGIC
    t = t / np.linalg.det(t) ** 0.25
    l1, l2, _, l4 = -np.angle(np.linalg.eigvals(t.T @ t)) / 2  # each known mod pi
    return fold_to_fundamental((l1 + l4, l2 + l4, l1 + l2))


def in_antidegradable_region(params, tol: float = 1e-12) -> bool:
    """Whether every induced channel of the gate is anti-degradable.

    Characterized by ax + ay, ay + az, az + ax >= pi/2 inside the
    fundamental tetrahedron.  Raises ``ValueError`` unless ``params``
    holds exactly three finite angles.
    """
    ax, ay, az = _finite_angles(params)
    cut = np.pi / 2 - tol
    return bool(ax + ay >= cut and ay + az >= cut and az + ax >= cut)


def in_degradable_region(params) -> bool:
    """Whether every induced channel of the gate is degradable: exactly when
    swapping its outputs gives a universally anti-degradable gate.  In the
    magic basis, where canonical gates are diagonal, SWAP = e^{i pi/4}
    U(pi/2, pi/2, pi/2), so the swapped gate is U(params + pi/2).
    """
    shifted = np.asarray(params, dtype=float) + np.pi / 2
    return in_antidegradable_region(fold_to_fundamental(shifted), tol=1e-9)
