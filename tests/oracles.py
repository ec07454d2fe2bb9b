"""Reference computations used only by the tests.

They are slow, independent routes to numbers the library computes in
closed form, kept here so the tests can check one against the other,
and one-at-a-time versions of the stacked kernels, whose arithmetic the
kernels must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from envcap.canonical import (
    SWAP,
    canonical_unitary,
    decompose_params,
    fold_to_fundamental,
    in_antidegradable_region,
)
from envcap.capacity import TwoCopySpec, _jammer_affine, _jammer_ic, _maximize
from envcap.channels import KRAUS_WEIGHT_FLOOR, as_two_qubit, effective_channel
from envcap.experiments import B2_THETAS, b2_curve
from envcap.linalg import bloch_density, entropy, partial_trace


def _clip_ball(x: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(x)
    return x / r if r > 1.0 else x


def ball_grid(n: int) -> np.ndarray:
    """Points of the n x n x n Cartesian grid on [-1, 1]^3 inside the unit ball."""
    xs = np.linspace(-1.0, 1.0, n)
    x, y, z = np.meshgrid(xs, xs, xs, indexing="ij")
    pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    return pts[np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12]


def jammer_search(v, eta_grid_n: int = 17, rho_grid_n: int = 9, max_iters: int = 500):
    """Nested max-min search for the single-copy jammer value.

    The inner minimization runs over mixed environment states (a Bloch-ball
    grid of ``eta_grid_n`` points a side, then a simplex refinement), the
    outer maximization over inputs on a grid of ``rho_grid_n`` points a side
    with simplex refinement.  Returns (raw value, input Bloch vector,
    environment Bloch vector); the value is a grid-and-refine estimate.
    """
    v = as_two_qubit(v)
    eta_grid = ball_grid(eta_grid_n)
    argmins = {}

    def inner_min(r):
        coeffs = _jammer_affine(v, bloch_density(_clip_ball(r)))
        vals = _jammer_ic(coeffs, eta_grid)
        i = int(np.argmin(vals))
        x, negv, _ = _maximize(lambda e: -_jammer_ic(coeffs, e),
                               [eta_grid[i]], 0.15, 1e-7, max_iters,
                               best=(eta_grid[i], -float(vals[i])))
        argmins[r.tobytes()] = _clip_ball(x)
        return -negv

    rho_grid = ball_grid(rho_grid_n)
    scores = np.array([_jammer_ic(_jammer_affine(v, bloch_density(x)), eta_grid).min()
                       for x in rho_grid])
    i0 = int(np.argmax(scores))
    x, val, _ = _maximize(lambda rs: np.array([inner_min(r) for r in rs]), [rho_grid[i0]],
                          0.2, 1e-6, max(60, max_iters // 4))
    return float(val), _clip_ball(x), argmins[x.tobytes()]


def b2_best_over_theta(t: float, extra_grid: int = 33) -> tuple[float, float]:
    """Best b2 value over the default theta slices plus a log-spaced grid.

    Returns (value, argmax theta), locating the theta window where b2
    stays positive.
    """
    thetas = list(B2_THETAS) + list(np.geomspace(2.0 ** -16, 0.5, extra_grid))
    vals = [b2_curve(t, th) for th in thetas]
    i = int(np.argmax(vals))
    return vals[i], thetas[i]


def in_degradable_region_by_swap(params, tol: float = 1e-12) -> bool:
    """Universal degradability by composing the gate with SWAP and extracting
    the canonical angles of the product numerically."""
    swapped = SWAP @ canonical_unitary(params).matrix
    folded = fold_to_fundamental(decompose_params(swapped))
    return in_antidegradable_region(folded, tol=max(tol, 1e-9))


def same_bits(a, b) -> bool:
    """Whether two arrays (or numbers) hold the same doubles bit for bit,
    signs of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def region_points(n: int) -> list:
    """The canonical points of ``envcap region_scan --grid n``, in its order."""
    axis = np.linspace(0.0, np.pi / 2, n)
    return [(float(ax), float(ay), float(az)) for ax in axis
            for ay in axis[axis <= ax + 1e-12] for az in axis[axis <= ay + 1e-12]]


def kraus_normal_form_by_list(ops) -> tuple[list, list]:
    """The Kraus normal form one operator at a time: Gram entries as traces,
    sums and the sort in Python.  Returns (operators, weights), sorted."""
    n = len(ops)
    gram = np.array([[np.trace(a.conj().T @ b) for b in ops] for a in ops])
    _, w = np.linalg.eigh(gram)
    new = [sum(w[k, m] * ops[k] for k in range(n)) for m in range(n)]
    weights = [float(np.trace(k.conj().T @ k).real) for k in new]
    order = sorted(range(n), key=lambda i: (
        -weights[i], tuple(zip(new[i].reshape(-1).real, new[i].reshape(-1).imag))))
    return [new[i] for i in order], [weights[i] for i in order]


def degradability_index_by_list(v, eta) -> float:
    """The determinant index of one state through the list normal form."""
    ops, weights = kraus_normal_form_by_list(effective_channel(v, eta).kraus)
    if weights[1] <= KRAUS_WEIGHT_FLOOR:
        return 1.0
    p = ops[0].conj().T @ ops[0]
    return float(np.linalg.det(2 * p - np.eye(2)).real)


def two_copy_by_kron(spec: TwoCopySpec) -> float:
    """S(B'B) - S(F'F) of one gate pair through explicit Kronecker products."""
    psi = np.kron(np.kron(spec.aprime_state, spec.env_state), spec.input_state)
    psi = psi.reshape(2, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(32)
    g = np.kron(np.kron(spec.w.matrix, spec.v.matrix), np.eye(2, dtype=complex))
    phi = g @ psi
    out = np.outer(phi, phi.conj())
    rho_bb = partial_trace(out, (2,) * 5, keep=(0, 2))
    rho_ff = partial_trace(out, (2,) * 5, keep=(1, 3))
    return entropy(rho_bb, validate=False) - entropy(rho_ff, validate=False)
