"""Degradable / anti-degradable classification of induced qubit channels.

Two independent criteria are implemented:

* the determinant criterion det(2 K0^dag K0 - I) on the leading Kraus
  operator of the normal form (sign > 0 degradable, < 0 anti-degradable,
  = 0 symmetric), and
* the Choi-spectrum criterion lambda_max(rho_RB) <= lambda_max(rho_B)
  for anti-degradability of qubit channels with a qubit environment.

A vectorized version of the determinant index over grids of pure
environment states backs the universal (all-eta) scans.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .channels import (
    KrausChannel,
    as_two_qubit,
    channel_reduction_b,
    choi_state,
    effective_channel,
    kraus_normal_form,
)
from .linalg import bloch_state, check_state_vector, eigh2

#: |index| at or below this classifies as symmetric.  The index is a
#: determinant of exactly representable 2x2 products; its noise floor is
#: around 1e-13.
SYMMETRIC_TOL = 1e-9

CHOI_COMPARE_TOL = 1e-10


class Degradability(enum.Enum):
    DEGRADABLE = "degradable"
    ANTI_DEGRADABLE = "anti-degradable"
    SYMMETRIC = "symmetric"


class Classification(NamedTuple):
    tag: Degradability
    index: float


def degradability_index(v, eta) -> float:
    """det(2 K0^dag K0 - I) for the leading normal-form Kraus operator.

    A channel whose normal form collapses to a single Kraus operator is
    a unitary conjugation; its complement is constant, so the index is
    defined as +1.
    """
    v = as_two_qubit(v)
    eta = check_state_vector(eta)
    ch = kraus_normal_form(effective_channel(v, eta))
    if len(ch) == 1:
        return 1.0
    k0 = ch.kraus[0]
    p = k0.conj().T @ k0
    return float(np.linalg.det(2 * p - np.eye(2)).real)


def classify_env(v, eta, tol: float = SYMMETRIC_TOL) -> Classification:
    """Classify the channel induced by ``eta`` on the environment."""
    idx = degradability_index(v, eta)
    if abs(idx) <= tol:
        tag = Degradability.SYMMETRIC
    elif idx > 0:
        tag = Degradability.DEGRADABLE
    else:
        tag = Degradability.ANTI_DEGRADABLE
    return Classification(tag, idx)


def is_antidegradable_choi(c: KrausChannel, tol: float = CHOI_COMPARE_TOL) -> bool:
    """Choi-spectrum anti-degradability test for qubit channels.

    Requires dim_in = dim_out = 2 and a qubit environment (at most two
    Kraus operators after normal form); raises otherwise.
    """
    if c.dim_in != 2 or c.dim_out != 2:
        raise ValueError("Choi criterion applies to qubit-to-qubit channels")
    nf = kraus_normal_form(c)
    if len(nf) > 2:
        raise ValueError(
            f"environment rank {len(nf)} > 2: Choi criterion inapplicable")
    lmax_rb = float(np.linalg.eigvalsh(choi_state(nf)).max())
    lmax_b = float(np.linalg.eigvalsh(channel_reduction_b(nf)).max())
    return lmax_rb <= lmax_b + tol


def bloch_sphere_grid(n_theta: int, n_phi: int | None = None):
    """Deterministic (theta, phi) grid of pure qubit states.

    theta runs over [0, pi] inclusive, phi over [0, 2 pi) exclusive.
    Returns (states, thetas, phis) with states of shape (N, 2).
    """
    n_phi = n_theta if n_phi is None else n_phi
    th = np.linspace(0.0, np.pi, n_theta)
    ph = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    t, p = np.meshgrid(th, ph, indexing="ij")
    return bloch_state(t, p).reshape(-1, 2), t.ravel(), p.ravel()


def batch_effective_kraus(v, etas: np.ndarray) -> np.ndarray:
    """Kraus operators of the effective channel for pure environment states.

    ``etas`` holds state vectors over its last axis; the result has shape
    ``etas.shape[:-1] + (2, 2, 2)``, indexed [..., kraus, row, col].
    """
    v4 = as_two_qubit(v).matrix.reshape(2, 2, 2, 2)
    etas = np.asarray(etas, dtype=complex)
    if etas.ndim == 1:
        return np.einsum("bfae,e->fba", v4, etas)
    return np.einsum("bfae,...e->...fba", v4, etas)


def batch_degradability_index(v, etas: np.ndarray) -> np.ndarray:
    """Vectorized determinant index over a batch of pure environment states.

    Agrees with :func:`degradability_index` pointwise; the 2x2 Gram
    eigenproblem is solved in closed form so grid scans stay cheap.
    """
    k = batch_effective_kraus(v, etas)
    g = np.einsum("niba,njba->nij", k.conj(), k)  # Gram matrix, trace 2
    gw, gv = eigh2(g)
    w0, w1 = gv[:, 0, 1], gv[:, 1, 1]  # eigenvector of the larger weight
    k0 = w0[:, None, None] * k[:, 0] + w1[:, None, None] * k[:, 1]
    p = np.einsum("nba,nbc->nac", k0.conj(), k0)
    det_p = (p[:, 0, 0] * p[:, 1, 1] - p[:, 0, 1] * p[:, 1, 0]).real
    tr_p = (p[:, 0, 0] + p[:, 1, 1]).real
    idx = 4 * det_p - 2 * tr_p + 1
    # single-Kraus (unitary) channels carry index +1 by convention
    return np.where(gw[:, 0] < 1e-14, 1.0, idx)


def is_universally_antidegradable(v, grid: int = 64, tol: float = SYMMETRIC_TOL) -> bool:
    """Whether every grid point of pure environment states classifies as
    anti-degradable or symmetric.

    Symmetric points are consistent with universal anti-degradability
    (the defining inequality is non-strict).
    """
    etas, _, _ = bloch_sphere_grid(grid, grid)
    return bool((batch_degradability_index(v, etas) <= tol).all())
