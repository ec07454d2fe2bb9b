"""Degradable / anti-degradable classification of induced qubit channels.

The criterion is the determinant det(2 K0^dag K0 - I) on the leading
Kraus operator of the normal form: sign > 0 degradable, < 0
anti-degradable, = 0 symmetric.  A closed-form version of the index
over grids of pure environment states backs the universal (all-eta)
scans.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

import numpy as np

from .channels import KRAUS_WEIGHT_FLOOR, as_two_qubit, normal_form_stack
from .linalg import bloch_state, check_state_vector, eigh2, in_chunks

#: |index| at or below this classifies as symmetric.  The index is a
#: determinant of exactly representable 2x2 products; its noise floor is
#: around 1e-13.
SYMMETRIC_TOL = 1e-9

#: States per stacked normal-form evaluation in :func:`classify_envs`.
_CLASSIFY_CHUNK = 1024


class Degradability(enum.Enum):
    DEGRADABLE = "degradable"
    ANTI_DEGRADABLE = "anti-degradable"
    SYMMETRIC = "symmetric"


class Classification(NamedTuple):
    tag: Degradability
    index: float


def _normal_form_index(v, etas: np.ndarray) -> np.ndarray:
    """:func:`degradability_index` over pure environment states (n, 2)."""
    ops, weights = normal_form_stack(batch_effective_kraus(v, etas))
    idx = np.linalg.det(2 * (ops[:, 0].conj().swapaxes(-1, -2) @ ops[:, 0]) - np.eye(2))
    return np.where(weights[:, 1] > KRAUS_WEIGHT_FLOOR, idx.real, 1.0)


def degradability_index(v, eta) -> float:
    """det(2 K0^dag K0 - I) for the leading normal-form Kraus operator.

    A channel whose normal form collapses to a single Kraus operator is
    a unitary conjugation; its complement is constant, so the index is
    defined as +1.
    """
    return float(_normal_form_index(v, check_state_vector(eta)[None])[0])


def classify_envs(v, etas: np.ndarray) -> list[Classification]:
    """Classify the channels induced by pure environment states (n, 2) by
    :func:`degradability_index`; ``|index| <= SYMMETRIC_TOL`` is symmetric."""
    index = in_chunks(lambda e: _normal_form_index(v, e), _CLASSIFY_CHUNK, np.asarray(etas))
    return [Classification(Degradability.SYMMETRIC if abs(i) <= SYMMETRIC_TOL
                           else Degradability.DEGRADABLE if i > 0
                           else Degradability.ANTI_DEGRADABLE, i) for i in index.tolist()]


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
    return np.einsum("bfae,...e->...fba", v4, np.asarray(etas, dtype=complex))


def batch_degradability_index(v, etas: np.ndarray) -> np.ndarray:
    """Determinant index over pure environment states (n, 2), with the 2x2
    Gram eigenproblem in closed form so grid scans stay cheap.

    It agrees with :func:`degradability_index` to round-off where the two
    Kraus weights differ.  Where both are 1 the leading Kraus operator is
    any unit combination, and the two may pick different ones: values then
    differ (by up to 0.92 at the gate (pi/2, 0, 0)); the tags have agreed.
    """
    # [kraus, entry, state]: every elementwise sum below runs over states
    k = np.moveaxis(batch_effective_kraus(v, etas), 0, -1).reshape(2, 4, -1)
    g = (k.conj()[:, None] * k).sum(2)  # Gram matrix, trace 2
    gw, gv = eigh2(np.moveaxis(g, -1, 0))
    k0 = (gv[:, 0, 1] * k[0] + gv[:, 1, 1] * k[1]).reshape(2, 2, -1)  # larger weight
    p = (k0.conj()[:, :, None] * k0[:, None]).sum(0)  # K0^dag K0
    det_p = (p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]).real
    idx = 4 * det_p - 2 * (p[0, 0] + p[1, 1]).real + 1
    # single-Kraus (unitary) channels carry index +1 by convention
    return np.where(gw[:, 0] < 1e-14, 1.0, idx)


@functools.lru_cache(maxsize=4)
def _sphere_states(grid: int) -> np.ndarray:
    """The states of ``bloch_sphere_grid(grid, grid)``, built once and shared."""
    return bloch_sphere_grid(grid, grid)[0]


def is_universally_antidegradable(v, grid: int = 64) -> bool:
    """Whether every grid point of pure environment states classifies as
    anti-degradable or symmetric.

    Symmetric points are consistent with universal anti-degradability
    (the defining inequality is non-strict).
    """
    return bool((batch_degradability_index(v, _sphere_states(grid)) <= SYMMETRIC_TOL).all())
