"""Reference computations used only by the tests.

They are slow, independent routes to numbers the library computes in
closed form, kept here so the tests can check one against the other.
"""

from __future__ import annotations

import numpy as np

from envcap.capacity import _jammer_affine, _jammer_ic, _maximize
from envcap.channels import as_two_qubit
from envcap.experiments import B2_THETAS, b2_curve
from envcap.linalg import bloch_density


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
