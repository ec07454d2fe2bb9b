"""Channels induced by a two-qubit gate and a fixed environment input.

A :class:`BipartiteUnitary` acts on A (x) E and produces B (x) F, with B
in the slot of A and F in the slot of E (row-major ordering throughout).
Fixing the environment input to a state eta yields the effective channel
A -> B, one Kraus stack (k, out, in) (:class:`KrausChannel`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_density_matrix, check_state_vector, check_unitary

COMPLETENESS_TOL = 1e-9
# Kraus weights Tr K^dag K, and spectral weights of a mixed environment,
# at or below this count as zero, to avoid spurious rank inflation.
KRAUS_WEIGHT_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class BipartiteUnitary:
    """Two-qubit gate: a 4x4 unitary on A (x) E, checked once, kept as a read-only copy."""

    matrix: np.ndarray

    def __post_init__(self):
        if np.shape(self.matrix) != (4, 4):
            raise ValueError(f"expected a 4x4 two-qubit gate, got shape {np.shape(self.matrix)}")
        m = check_unitary(np.array(self.matrix, dtype=complex))
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving map as a Kraus stack (k, out, in),
    stored as a read-only C-contiguous copy; its dimensions are read off the
    stack's shape.  Channels compare and hash by identity."""

    kraus: np.ndarray

    def __post_init__(self):
        ops = np.array(self.kraus, dtype=complex, order="C")
        if ops.ndim != 3 or not ops.size:
            raise ValueError(f"expected a nonempty Kraus stack (k, out, in), got shape {ops.shape}")
        dev = np.abs(np.einsum("kba,kbc->ac", ops.conj(), ops) - np.eye(ops.shape[2])).max()
        if not dev <= COMPLETENESS_TOL:
            raise ValueError(f"Kraus completeness violated: deviation {dev:.3e}")
        ops.flags.writeable = False
        object.__setattr__(self, "kraus", ops)

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]

    def __len__(self) -> int:
        return len(self.kraus)


def as_two_qubit(v) -> BipartiteUnitary:
    """``v`` as a two-qubit gate: a gate passes through, a raw 4x4 unitary
    is checked and wrapped."""
    return v if isinstance(v, BipartiteUnitary) else BipartiteUnitary(v)


def effective_channel(v, eta) -> KrausChannel:
    """Channel A -> B obtained by feeding ``eta`` into the environment slot.

    ``eta`` may be a state vector or a density matrix on E.  For a pure
    environment state the Kraus operators are K_i = (I_B (x) <i|_F) V
    (I_A (x) |eta>); a mixed eta contributes sqrt(p_j) K_{i,j} for each
    spectral component |eta_j> with weight p_j.
    """
    v = as_two_qubit(v)
    eta = np.asarray(eta, dtype=complex)
    if eta.ndim == 1:
        w, vecs = np.ones(1), check_state_vector(eta)[None]
    else:
        w, u = np.linalg.eigh(check_density_matrix(eta))
        keep = [j for j in np.argsort(w)[::-1] if w[j] > KRAUS_WEIGHT_FLOOR]
        w, vecs = w[keep], u[:, keep].T
    if vecs.shape[1] != 2:
        raise ValueError(f"environment state dimension {vecs.shape[1]} != 2")
    ops = np.einsum("bfae,je->jfba", v.matrix.reshape(2, 2, 2, 2), vecs)
    return KrausChannel((np.sqrt(w)[:, None, None, None] * ops).reshape(-1, 2, 2))


def normal_form_stack(ops) -> tuple[np.ndarray, np.ndarray]:
    """Kraus normal form of Kraus stacks (..., n, out, in): the
    operators that diagonalize the Gram matrix Tr K_i^dag K_j, by descending
    weight Tr K^dag K (ties broken by lexicographic comparison of entries),
    and their weights.  Nothing is dropped."""
    ops = np.asarray(ops, dtype=complex)
    adj = ops.conj().swapaxes(-1, -2)[..., :, None, :, :]
    _, w = np.linalg.eigh(np.einsum("...ii->...", adj @ ops[..., None, :, :, :]))
    new = sum(w[..., k, :, None, None] * ops[..., k:k + 1, :, :] for k in range(ops.shape[-3]))
    weights = np.einsum("...ii->...", new.conj().swapaxes(-1, -2) @ new).real
    ent = new.reshape(new.shape[:-2] + (new.shape[-2] * new.shape[-1],))
    # sort keys, last one first: -weight, then the entries' (real, imag) in order
    keys = [x for e in np.moveaxis(ent, -1, 0)[::-1] for x in (e.imag, e.real)]
    order = np.lexsort(keys + [-weights], axis=-1)
    return (np.take_along_axis(new, order[..., None, None], -3),
            np.take_along_axis(weights, order, -1))
