"""Channels induced by a bipartite unitary and a fixed environment input.

A :class:`BipartiteUnitary` acts on A (x) E and produces B (x) F, with B
in the slot of A and F in the slot of E (row-major ordering throughout).
Fixing the environment input to a state eta yields the effective channel
A -> B; exchanging the roles of B and F yields the channel into the
environment.  All channels are represented by explicit Kraus operator
lists (:class:`KrausChannel`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_complex_matrix,
    check_density_matrix,
    check_state_vector,
    check_unitary,
    maximally_entangled,
    partial_trace,
    projector,
)

COMPLETENESS_TOL = 1e-9
# Kraus operators with Tr K^dag K below this are dropped after Gram
# diagonalization to avoid spurious rank inflation.
KRAUS_WEIGHT_FLOOR = 1e-14


@dataclass(frozen=True)
class BipartiteUnitary:
    """Unitary on A (x) E with declared factor dimensions.

    The output splits as B (x) F with dim_b * dim_f = dim_a * dim_e.
    """

    matrix: np.ndarray
    dim_a: int = 2
    dim_e: int = 2
    dim_b: int = 0
    dim_f: int = 0

    def __post_init__(self):
        object.__setattr__(self, "matrix", check_unitary(self.matrix))
        if self.dim_b == 0:
            object.__setattr__(self, "dim_b", self.dim_a)
        if self.dim_f == 0:
            object.__setattr__(self, "dim_f", self.dim_e)
        side = self.dim_a * self.dim_e
        if self.matrix.shape != (side, side):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match dims "
                f"{self.dim_a}x{self.dim_e}")
        if self.dim_b * self.dim_f != side:
            raise ValueError("output split must preserve total dimension")

    @property
    def is_two_qubit(self) -> bool:
        return (self.dim_a, self.dim_e, self.dim_b, self.dim_f) == (2, 2, 2, 2)


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map as an ordered Kraus list."""

    kraus: tuple
    dim_in: int
    dim_out: int

    def __post_init__(self):
        ops = tuple(as_complex_matrix(k) for k in self.kraus)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise ValueError(
                    f"Kraus operator shape {k.shape} != ({self.dim_out}, {self.dim_in})")
        comp = sum(k.conj().T @ k for k in ops)
        dev = np.abs(comp - np.eye(self.dim_in)).max()
        if dev > COMPLETENESS_TOL:
            raise ValueError(f"Kraus completeness violated: deviation {dev:.3e}")
        object.__setattr__(self, "kraus", ops)

    def __len__(self) -> int:
        return len(self.kraus)


def _as_unitary(v) -> BipartiteUnitary:
    if isinstance(v, BipartiteUnitary):
        return v
    m = check_unitary(v)
    if m.shape != (4, 4):
        raise ValueError("raw matrices are only accepted for the two-qubit case; "
                         "wrap other sizes in BipartiteUnitary")
    return BipartiteUnitary(m)


def as_two_qubit(v) -> BipartiteUnitary:
    """``v`` as a two-qubit gate; a raw 4x4 unitary is wrapped."""
    v = _as_unitary(v)
    if not v.is_two_qubit:
        raise ValueError("expected a two-qubit gate (qubit system and environment)")
    return v


def effective_channel(v, eta) -> KrausChannel:
    """Channel A -> B obtained by feeding ``eta`` into the environment slot.

    ``eta`` may be a state vector or a density matrix on E.  For a pure
    environment state the Kraus operators are K_i = (I_B (x) <i|_F) V
    (I_A (x) |eta>); a mixed eta contributes sqrt(p_j) K_{i,j} for each
    spectral component |eta_j> with weight p_j.
    """
    v = _as_unitary(v)
    eta = np.asarray(eta, dtype=complex)
    if eta.ndim == 1:
        vecs = [check_state_vector(eta)]
        weights = [1.0]
    else:
        eta = check_density_matrix(eta)
        w, u = np.linalg.eigh(eta)
        order = np.argsort(w)[::-1]
        weights, vecs = [], []
        for j in order:
            if w[j] > KRAUS_WEIGHT_FLOOR:
                weights.append(float(w[j]))
                vecs.append(u[:, j])
    if vecs[0].shape[0] != v.dim_e:
        raise ValueError(
            f"environment state dimension {vecs[0].shape[0]} != dim_e {v.dim_e}")
    da, de, db, df = v.dim_a, v.dim_e, v.dim_b, v.dim_f
    v4 = v.matrix.reshape(db, df, da, de)
    ops = []
    for p, vec in zip(weights, vecs):
        k = np.sqrt(p) * np.einsum("bfae,e->fba", v4, vec)
        ops.extend(k[i] for i in range(df))
    return KrausChannel(tuple(ops), dim_in=da, dim_out=db)


def complementary_channel(v, eta) -> KrausChannel:
    """Channel A -> F leaking into the environment output, for pure ``eta``.

    Mixed environment states are rejected: with a mixed eta this
    construction no longer complements the effective channel.
    """
    v = _as_unitary(v)
    eta = np.asarray(eta, dtype=complex)
    if eta.ndim != 1:
        raise ValueError("complementary_channel requires a pure environment state")
    eta = check_state_vector(eta)
    if eta.shape[0] != v.dim_e:
        raise ValueError(f"environment state dimension {eta.shape[0]} != dim_e {v.dim_e}")
    da, de, db, df = v.dim_a, v.dim_e, v.dim_b, v.dim_f
    v4 = v.matrix.reshape(db, df, da, de)
    k = np.einsum("bfae,e->bfa", v4, eta)
    return KrausChannel(tuple(k[i] for i in range(db)), dim_in=da, dim_out=df)


def entangled_env_channel(v, kappa, dim_h: int | None = None) -> KrausChannel:
    """Channel A -> B (x) H from an environment entangled with a helper H.

    ``kappa`` is a pure state on E (x) H.  The output orders B before H.
    """
    v = _as_unitary(v)
    kappa = check_state_vector(kappa)
    if dim_h is None:
        if kappa.shape[0] % v.dim_e != 0:
            raise ValueError("kappa dimension is not a multiple of dim_e")
        dim_h = kappa.shape[0] // v.dim_e
    if kappa.shape[0] != v.dim_e * dim_h:
        raise ValueError(
            f"kappa dimension {kappa.shape[0]} != dim_e*dim_h = {v.dim_e * dim_h}")
    da, de, db, df = v.dim_a, v.dim_e, v.dim_b, v.dim_f
    v4 = v.matrix.reshape(db, df, da, de)
    kap = kappa.reshape(de, dim_h)
    m = np.einsum("bfae,eh->fbha", v4, kap)
    ops = tuple(m[i].reshape(db * dim_h, da) for i in range(df))
    return KrausChannel(ops, dim_in=da, dim_out=db * dim_h)


def apply_channel(c: KrausChannel, rho) -> np.ndarray:
    """Channel output sum_i K_i rho K_i^dag."""
    rho = as_complex_matrix(rho)
    if rho.shape != (c.dim_in, c.dim_in):
        raise ValueError(f"input shape {rho.shape} != channel input dim {c.dim_in}")
    out = np.zeros((c.dim_out, c.dim_out), dtype=complex)
    for k in c.kraus:
        out += k @ rho @ k.conj().T
    return out


def complement_channel(c: KrausChannel) -> KrausChannel:
    """Complementary channel from the canonical dilation of the Kraus list.

    The dilation W|psi> = sum_i (K_i|psi>) (x) |i> fixes the environment
    basis; the complement maps A into that index space.
    """
    k = len(c.kraus)
    stack = np.stack(c.kraus)  # (k, out, in)
    ops = tuple(stack[:, b, :] for b in range(c.dim_out))
    return KrausChannel(ops, dim_in=c.dim_in, dim_out=k)


def normal_form_stack(ops) -> tuple[np.ndarray, np.ndarray]:
    """Kraus normal form of stacks of Kraus lists (..., n, out, in): the
    operators that diagonalize the Gram matrix Tr K_i^dag K_j, by descending
    weight Tr K^dag K (ties broken by lexicographic comparison of entries),
    and their weights.  Nothing is dropped."""
    ops = np.asarray(ops, dtype=complex)
    adj = ops.conj().swapaxes(-1, -2)[..., :, None, :, :]
    _, w = np.linalg.eigh(np.trace(adj @ ops[..., None, :, :, :], axis1=-2, axis2=-1))
    new = sum(w[..., k, :, None, None] * ops[..., k:k + 1, :, :] for k in range(ops.shape[-3]))
    weights = np.trace(new.conj().swapaxes(-1, -2) @ new, axis1=-2, axis2=-1).real
    ent = new.reshape(new.shape[:-2] + (new.shape[-2] * new.shape[-1],))
    # sort keys, last one first: -weight, then the entries' (real, imag) in order
    keys = [x for e in np.moveaxis(ent, -1, 0)[::-1] for x in (e.imag, e.real)]
    order = np.lexsort(keys + [-weights], axis=-1)
    return (np.take_along_axis(new, order[..., None, None], -3),
            np.take_along_axis(weights, order, -1))


def kraus_normal_form(c: KrausChannel) -> KrausChannel:
    """Equivalent Kraus list of :func:`normal_form_stack`, without the
    operators whose weight is below the zero floor."""
    ops, weights = normal_form_stack(np.stack(c.kraus))
    kept = tuple(k for k, wt in zip(ops, weights) if wt > KRAUS_WEIGHT_FLOOR)
    return KrausChannel(kept, dim_in=c.dim_in, dim_out=c.dim_out)


def choi_state(c: KrausChannel) -> np.ndarray:
    """Choi state (id (x) c)(|Phi><Phi|) on R (x) B, unit trace."""
    d = c.dim_in
    # (I_R (x) K) |Phi> for each Kraus operator (R-major), summed as a mixture
    vecs = (np.stack(c.kraus) @ maximally_entangled(d).reshape(d, d).T).swapaxes(-1, -2)
    return projector(vecs.reshape(len(c.kraus), -1)).sum(0)


def channel_reduction_b(c: KrausChannel) -> np.ndarray:
    """B-side reduction of the Choi state, i.e. c applied to I/d."""
    return partial_trace(choi_state(c), (c.dim_in, c.dim_out), keep=1)


def tensor_gates(v1: BipartiteUnitary, v2: BipartiteUnitary) -> BipartiteUnitary:
    """Parallel composition on (A1 A2) (x) (E1 E2).

    Reorders the plain Kronecker product (which acts on A1 E1 A2 E2) so
    both input factors and both environment factors are adjacent.
    """
    m = np.kron(v1.matrix, v2.matrix)
    dims = (v1.dim_a, v1.dim_e, v2.dim_a, v2.dim_e)
    perm = (0, 2, 1, 3)  # A1 E1 A2 E2 -> A1 A2 E1 E2
    side = int(np.prod(dims))
    t = m.reshape(dims + dims)
    t = t.transpose(perm + tuple(4 + p for p in perm))
    return BipartiteUnitary(t.reshape(side, side),
                            dim_a=v1.dim_a * v2.dim_a,
                            dim_e=v1.dim_e * v2.dim_e,
                            dim_b=v1.dim_b * v2.dim_b,
                            dim_f=v1.dim_f * v2.dim_f)
