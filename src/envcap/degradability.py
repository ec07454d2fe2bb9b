"""Degradable / anti-degradable classification of induced qubit channels.

The criterion is the determinant det(2 K0^dag K0 - I) on the leading
Kraus operator of the normal form: sign > 0 degradable, < 0
anti-degradable, = 0 symmetric.  It equals det T_N - det T_Nc, with T
the 3x3 Bloch (Pauli-transfer) matrix of the channel and of its
complement.  That difference is basis-free: a change of Kraus basis
rotates the complement's Bloch ball, and a rotation has determinant 1.
T is linear in the environment's Bloch vector r, so the index is a
cubic in r with coefficients from the gate alone; the scans over pure
environment states evaluate it in that form.  ``classify`` stays on the
normal form.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

import numpy as np

from .channels import KRAUS_WEIGHT_FLOOR, as_two_qubit, normal_form_stack
from .linalg import NORM_TOL, bloch_state, check_state_vector, in_chunks

#: |index| at or below this classifies as symmetric.  The index is a
#: determinant of exactly representable 2x2 products; its noise floor is
#: around 1e-13.
SYMMETRIC_TOL = 1e-9

#: States per stacked normal-form evaluation in :func:`classify_envs`.
_CLASSIFY_CHUNK = 1024

#: Gates per stacked cubic evaluation in :func:`universally_antidegradable`.
_SCAN_CHUNK = 32

_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
#: sigma_i (x) I, then I (x) sigma_i, i = x, y, z: the Bloch observables of B and F.
_OUTPUTS = np.concatenate([np.einsum("iab,cd->iacbd", _PAULI[1:], np.eye(2)),
                           np.einsum("ab,icd->iacbd", np.eye(2), _PAULI[1:])]).reshape(6, 4, 4)
#: Columns vec((sigma_j (x) sigma_k)^T) / 4, j = x, y, z and k = 0..3,
#: so that vec(W) @ _INPUTS holds Tr(W sigma_j (x) sigma_k) / 4.
_INPUTS = 0.25 * np.einsum("jab,kcd->jkbdac", _PAULI[1:], _PAULI).reshape(12, 16).T
#: The cubic's monomials r~_k r~_l r~_m, k <= l <= m; (64, 20) sums ordered triples into them.
_TRIPLES = [t for t in np.ndindex(4, 4, 4) if t == tuple(sorted(t))]
_SYMMETRIZE = np.array([[tuple(sorted(t)) == c for c in _TRIPLES]
                        for t in np.ndindex(4, 4, 4)], dtype=float)
_LEVI_CIVITA = np.fromfunction(lambda i, j, k: (j - i) * (k - i) * (k - j) / 2, (3, 3, 3))


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


def _classify(v, etas, tags) -> tuple[list, list]:
    """:func:`degradability_index` over pure environment states (n, 2), and
    each state's entry of ``tags``, given in the order of :class:`Degradability`:
    ``|index| <= SYMMETRIC_TOL`` is symmetric, otherwise the sign decides."""
    index = in_chunks(lambda e: _normal_form_index(v, e), _CLASSIFY_CHUNK, np.asarray(etas))
    pick = np.where(np.abs(index) <= SYMMETRIC_TOL, 2, np.where(index > 0, 0, 1))
    return index.tolist(), np.asarray(tags, dtype=object)[pick].tolist()


def _unit_states(etas) -> np.ndarray:
    """``etas`` as complex state vectors over the last axis, each of norm 1 to NORM_TOL."""
    etas = np.asarray(etas, dtype=complex)
    dev = np.abs(np.linalg.norm(etas, axis=-1) - 1.0)
    if not (dev <= NORM_TOL).all():
        raise ValueError(f"state vectors are not normalized: ||psi|| off by up to {dev.max()!r}")
    return etas


def classify_envs(v, etas: np.ndarray) -> list[Classification]:
    """Classify the channels induced by pure environment states (n, 2) by
    :func:`degradability_index`; ``|index| <= SYMMETRIC_TOL`` is symmetric."""
    index, tags = _classify(v, _unit_states(etas), tuple(Degradability))
    return list(map(Classification, tags, index))


def bloch_sphere_grid(n_theta: int, n_phi: int | None = None):
    """Deterministic (theta, phi) grid of pure qubit states.

    theta runs over [0, pi] inclusive, phi over [0, 2 pi) exclusive.
    Returns (states, thetas, phis) with states of shape (N, 2).
    """
    n_phi = n_theta if n_phi is None else n_phi
    t, p = np.meshgrid(np.linspace(0.0, np.pi, n_theta),
                       np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False), indexing="ij")
    return bloch_state(t, p).reshape(-1, 2), t.ravel(), p.ravel()


def batch_effective_kraus(v, etas: np.ndarray) -> np.ndarray:
    """Kraus operators of the effective channel for pure environment states.

    ``etas`` holds state vectors over its last axis; the result has shape
    ``etas.shape[:-1] + (2, 2, 2)``, indexed [..., kraus, row, col].
    """
    v4 = as_two_qubit(v).matrix.reshape(2, 2, 2, 2)
    return np.einsum("bfae,...e->...fba", v4, np.asarray(etas, dtype=complex))


def _transfer_terms(m: np.ndarray) -> np.ndarray:
    """Terms A (..., s, i, j, k) of the Bloch matrices T_s = sum_k r~_k A[..., s, :, :, k]
    of gates m (..., 4, 4), r~ = (1, r) with r the environment's Bloch vector:
    Tr(O_si V (sigma_j (x) sigma_k) V^dag) / 4 with O_0i = sigma_i (x) I for the
    channel to B and O_1i = I (x) sigma_i for its complement, taken as Tr(V^dag O V ...)."""
    w = m.conj().swapaxes(-1, -2)[..., None, :, :] @ _OUTPUTS @ m[..., None, :, :]
    return (w.reshape(m.shape[:-2] + (6, 16)) @ _INPUTS).real.reshape(m.shape[:-2] + (2, 3, 3, 4))


def _bloch4(etas) -> np.ndarray:
    """r~ = (1, r), the values <eta|sigma_k|eta>, of state vectors over the last axis."""
    psi = np.asarray(etas, dtype=complex)
    rho = psi.conj()[..., :, None] * psi[..., None, :]
    return (rho.reshape(rho.shape[:-2] + (4,)) @ _PAULI.reshape(4, 4).T).real


def batch_degradability_index(v, etas: np.ndarray) -> np.ndarray:
    """The index det T_N - det T_Nc over pure environment states (..., 2).

    It matches :func:`degradability_index` to round-off where the two Kraus
    weights differ.  Where both are 1 the normal form's value depends on
    which unit combination of the two leads; this one does not.  A unitary
    channel has det T_N = 1 and a constant complement: +1.
    """
    t = _bloch4(_unit_states(etas)) @ _transfer_terms(as_two_qubit(v).matrix).reshape(18, 4).T
    det = np.linalg.det(t.reshape(t.shape[:-1] + (2, 3, 3)))
    return det[..., 0] - det[..., 1]


def _cubic_coefficients(m: np.ndarray) -> np.ndarray:
    """Coefficients (n, 20) of the index of gates m (n, 4, 4) over the monomials of
    :data:`_TRIPLES`: det sum_k r~_k A_k is the sum over (k, l, m) of
    r~_k r~_l r~_m det(row 0 of A_k, row 1 of A_l, row 2 of A_m)."""
    a = _transfer_terms(m)
    p = np.einsum("abc,nsak,nsbl,nscm->nsklm", _LEVI_CIVITA, a[:, :, 0], a[:, :, 1], a[:, :, 2],
                  optimize=_cubic_path(len(m)))
    return (p[:, 0] - p[:, 1]).reshape(-1, 64) @ _SYMMETRIZE


@functools.lru_cache(maxsize=4)
def _cubic_path(n: int) -> list:
    """The path ``optimize=True`` searches for on every einsum call, at n gates."""
    return np.einsum_path("abc,nsak,nsbl,nscm->nsklm", _LEVI_CIVITA, *[np.empty((n, 2, 3, 4))] * 3,
                          optimize="greedy")[0]


@functools.lru_cache(maxsize=4)
def _sphere_monomials(grid: int) -> np.ndarray:
    """The monomials (20, grid**2) at the states of ``bloch_sphere_grid(grid, grid)``."""
    return _bloch4(bloch_sphere_grid(grid, grid)[0])[:, _TRIPLES].prod(-1).T.copy()


def universally_antidegradable(m, grid: int = 64) -> np.ndarray:
    """:func:`is_universally_antidegradable` of gate matrices (n, 4, 4), taken as
    given: the cubic's coefficients times its monomials, :data:`_SCAN_CHUNK` gates at once."""
    if not grid >= 2:
        raise ValueError(f"grid must be >= 2, got {grid!r}")
    mono = _sphere_monomials(grid)
    return in_chunks(lambda g: (_cubic_coefficients(g) @ mono <= SYMMETRIC_TOL).all(1),
                     _SCAN_CHUNK, np.asarray(m, dtype=complex))


def is_universally_antidegradable(v, grid: int = 64) -> bool:
    """Whether every point of the (grid x grid) sphere of pure environment
    states classifies as anti-degradable or symmetric (the defining
    inequality is non-strict)."""
    return bool(universally_antidegradable(as_two_qubit(v).matrix[None], grid)[0])
