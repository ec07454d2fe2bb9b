"""Coherent-information objectives and their optimizers.

The coherent information of a channel N at input rho is
S(N(rho)) - S(N~(rho)), with N~(rho) the environment output of the
canonical dilation of the Kraus list.  On top of that single quantity
this module provides:

* the maximum over inputs for a fixed channel (Bloch-ball simplex search),
* the maximum over environment states and inputs for a two-qubit gate
  (the separable-helper capacity): a bracketed 1-d search for gates that
  commute with every u (x) u, such as the swap powers, and a grid-seeded
  simplex search for the rest,
* the max-min value against an adversarial environment (single copy), in
  closed form at the maximally mixed input and environment, bracketed
  above by the input maximum of that one channel,
* coherent information of two gates run in parallel on an entangled
  environment (five-qubit pure-state computation, stacked over gate
  pairs), and
* the entangled-helper capacity of the fractional swaps, maximized over
  a closed-form objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import BipartiteUnitary, KrausChannel, as_two_qubit, effective_channel
from .degradability import (
    SYMMETRIC_TOL,
    batch_degradability_index,
    batch_effective_kraus,
    bloch_sphere_grid,
)
from .linalg import (
    bloch_density,
    bloch_state,
    check_density_matrix,
    entropy,
    entropy_from_eigvals,
    in_chunks,
    maximally_entangled,
    partial_trace,
    projector,
)

#: Optimizer values at or below this floor are reported as exactly zero by
#: the helper-capacity routines: the (lam, mu) refinement resolves corner
#: offsets only down to ~1e-5, and coherent informations below the floor
#: are indistinguishable from zero at that resolution.
HELPER_CAPACITY_FLOOR = 5e-6

#: Geometric seeds pushed toward the mu in {0, 1} corners, where the
#: helper-capacity optimum migrates as the swap exponent grows.
_CORNER_SEEDS = (1e-2, 1e-3, 1e-4, 1e-5)

#: Seed of the random restart points drawn by :func:`max_coherent_info`.
_RESTART_SEED = 1234

#: Gates per stacked two-copy evaluation; bounds its (n, 32, 32) temporaries.
_TWO_COPY_CHUNK = 32

#: Nelder-Mead reflection, expansion, outside and inside contraction as
#: a * centroid - c * worst vertex, in scipy's arithmetic: rows (a, c).
_NM_TRIAL = np.array([[2.0, 3.0, 1.5, 0.5], [1.0, 2.0, 0.5, -0.5]])[..., None]


@dataclass(frozen=True)
class OptimizerOptions:
    restarts: int = 8
    grid: int = 64
    tol: float = 1e-8
    max_iters: int = 500

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.grid < 2:
            raise ValueError("grid must be >= 2")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class CapacityResult:
    value: float
    argmax_input: np.ndarray | None = None
    argmax_env: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


class BracketError(ValueError):
    """Bisection bracket endpoints do not straddle a sign change."""


# ---------------------------------------------------------------------------
# coherent information
# ---------------------------------------------------------------------------

def coherent_info(c: KrausChannel, rho) -> float:
    """S(N(rho)) - S(N~(rho)) in bits."""
    return float(_coherent_info(np.stack(c.kraus), check_density_matrix(rho)))


def _coherent_info(kraus: np.ndarray, rho: np.ndarray):
    """Coherent information from Kraus stacks (..., k, out, in) and inputs
    (..., in, in), broadcast over the leading axes.

    The complement comes from the canonical dilation of the Kraus list.
    """
    kc = kraus.conj()
    out = np.einsum("...kba,...ac,...kdc->...bd", kraus, rho, kc)
    comp = np.einsum("...kba,...ac,...lbc->...kl", kraus, rho, kc)
    return entropy(out, validate=False) - entropy(comp, validate=False)


# ---------------------------------------------------------------------------
# input-state maximization
# ---------------------------------------------------------------------------

@dataclass
class Simplex:
    """Per restart: best vertex, value, calls, stopped by the tolerance test;
    then the calls and convergence of the whole batch."""
    x: np.ndarray
    fun: np.ndarray
    calls: np.ndarray
    converged: np.ndarray
    nfev: int
    success: bool


def minimize(f, starts, step, tol, maxiter) -> Simplex:
    """Nelder-Mead minimizations of ``f``, which maps points (B, d) to values
    (B,), one from each row of ``starts``, advanced in lockstep.

    Each simplex is its row and the row plus ``step`` along every axis; it
    takes scipy's steps (rho = 1, chi = 2, psi = sigma = 1/2) and stops when
    its vertices lie within ``tol`` of the best and their values within
    ``tol / 100``, or after ``maxiter`` iterations or ``2 * maxiter`` calls.
    An iteration evaluates the four trial points of every live simplex in
    one call and shrinks in a second, but counts only the points a lone run
    evaluates, so a restart does not depend on its batch.  Unlike scipy,
    the first simplex is evaluated whole even past ``2 * maxiter`` calls.
    """
    x0 = np.asarray(starts, dtype=float)
    b, d = x0.shape
    s = np.concatenate([x0[:, None], x0[:, None] + step * np.eye(d)], axis=1)
    fs = f(s.reshape(-1, d)).reshape(b, d + 1)
    x, fun, n, ok = np.empty((b, d)), np.empty(b), np.full(b, d + 1), np.zeros(b, dtype=bool)
    idx, calls, iters = np.arange(b), n.copy(), 1
    while True:  # s, fs, calls: the live simplices, of restarts idx
        order = np.argsort(fs, axis=1, kind="stable")
        lane = np.arange(idx.size)[:, None]
        s, fs = s[lane, order], fs[lane, order]
        more = (calls < 2 * maxiter) & (iters < maxiter)
        conv = more & (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= tol) \
            & (np.abs(fs[:, 1:] - fs[:, :1]).max(axis=1) <= tol * 1e-2)
        stop = conv | ~more
        if stop.any():
            j = idx[stop]
            x[j], fun[j], n[j], ok[j] = s[stop, 0], fs[stop, 0], calls[stop], conv[stop]
            idx, s, fs, calls = idx[~stop], s[~stop], fs[~stop], calls[~stop]
        if idx.size == 0:
            return Simplex(x, fun, n, ok, int(n.sum()), bool(ok.all()))
        xbar, worst = s[:, :-1].sum(axis=1) / d, s[:, -1]
        trial = _NM_TRIAL[0] * xbar[:, None] - _NM_TRIAL[1] * worst[:, None]
        ft = f(trial.reshape(-1, d)).reshape(-1, 4)
        fr, fe, fc, fcc = ft.T
        expand = fr < fs[:, 0]
        mid = ~expand & (fr < fs[:, -2])
        contract = ~expand & ~mid
        # the trial point that replaces the worst vertex, or -1 to shrink
        pick = np.where(contract & (fr < fs[:, -1]), np.where(fc <= fr, 2, -1),
                        np.where(contract, np.where(fcc < fs[:, -1], 3, -1), expand & (fe < fr)))
        budget = 2 * maxiter - calls
        cut = ~mid & (budget < 2)  # no call left for the second point: no step
        r = np.flatnonzero((pick >= 0) & ~cut)
        s[r, -1], fs[r, -1] = trial[r, pick[r]], ft[r, pick[r]]
        shrunk = np.where((pick < 0) & ~cut, np.minimum(d, budget - 2), 0)
        if shrunk.any():  # towards the best vertex, as far as the calls left go
            todo = np.arange(1, d + 1) <= shrunk[:, None]
            pts = s[:, :1] + 0.5 * (s[:, 1:] - s[:, :1])
            s[:, 1:][todo], fs[:, 1:][todo] = pts[todo], f(pts[todo])
        calls += np.where(cut, 1, 1 + ~mid + shrunk)
        iters += 1


def _maximize(f, starts, step, tol, maxiter, best=(None, -np.inf)):
    """Best of the :func:`minimize` runs of ``-f``, one from each start.

    A run replaces ``best``, an (x, value) pair, only with a strictly larger
    value.  Returns (x, value, record): each run's value, the objective
    calls, and how many of the runs converged.
    """
    res = minimize(lambda x: -f(x), starts, step, tol, maxiter)
    values, i = (-res.fun).tolist(), int(np.argmin(res.fun))  # the first best run
    if values[i] > best[1]:
        best = res.x[i], values[i]
    return *best, _record(values, res.nfev, int(res.converged.sum()))


def _record(values, nfev, converged):
    """The restart record every optimizer reports in its diagnostics: each
    run's value, the objective calls, and how many of the runs converged."""
    return {"restart_values": values, "nfev": nfev, "converged": converged,
            "restarts": len(values)}


def max_coherent_info(c: KrausChannel, opts: OptimizerOptions | None = None) -> CapacityResult:
    """Maximum coherent information over the Bloch ball of qubit inputs.

    Multi-restart downhill-simplex search; for degradable channels the
    objective is concave, so restarts agree and the reported value is
    within the optimizer tolerance of the true maximum.
    """
    opts = opts or OptimizerOptions()
    if c.dim_in != 2:
        raise ValueError("input maximization is implemented for qubit inputs")
    kraus = np.stack(c.kraus)
    rng = np.random.default_rng(_RESTART_SEED)
    starts = [np.zeros(3)]
    while len(starts) < opts.restarts:
        x = rng.uniform(-1.0, 1.0, 3)
        if np.linalg.norm(x) <= 1.0:
            starts.append(x)

    x, value, record = _maximize(lambda x: _coherent_info(kraus, bloch_density(x)), starts,
                                 0.25, opts.tol, opts.max_iters, best=(starts[0], -np.inf))
    return CapacityResult(value=float(value), argmax_input=bloch_density(x),
                          diagnostics={"raw_value": float(value), **record})


# ---------------------------------------------------------------------------
# separable-helper capacity of a two-qubit gate
# ---------------------------------------------------------------------------

#: Bloch vectors of the input states used for coarse grid scoring.
_RHO_CANDIDATES = np.vstack([np.zeros(3)] + [r * np.vstack([np.eye(3), -np.eye(3)])
                                             for r in (0.5, 0.97)])


#: The collective generators sigma_i (x) I + I (x) sigma_i, i = x, y, z.
_COLLECTIVE = [np.kron(s, np.eye(2)) + np.kron(np.eye(2), s)
               for s in 2 * bloch_density(np.eye(3)) - np.eye(2)]

_KET0 = np.array([1, 0], dtype=complex)

#: 1/phi, the golden-section ratio.
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _swap_symmetric(v: BipartiteUnitary) -> bool:
    """Whether ``v`` commutes with every u (x) u: with the three collective
    generators to 1e-12.  Swap powers and the gates (a, a, a) do."""
    m = v.matrix
    return all(np.abs(m @ g - g @ m).max() <= 1e-12 for g in _COLLECTIVE)


def _golden_max(f, tol: float, max_iters: int):
    """Golden-section search for the maximum of a concave ``f`` on [0, 1],
    until the bracket is ``tol`` wide or after ``max_iters`` steps.

    Returns the final points a < c < d < b, their values and the steps.
    """
    a, c, d, b = 0.0, 1.0 - _INV_PHI, _INV_PHI, 1.0
    fa, fc, fd, fb = map(f, (a, c, d, b))
    steps = 0
    while b - a > tol and steps < max_iters:
        if fc >= fd:  # the maximum lies in [a, d]
            b, fb, d, fd = d, fd, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:  # in [c, b]
            a, fa, c, fc = c, fc, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        steps += 1
    return np.array([a, c, d, b]), np.array([fa, fc, fd, fb]), steps


def _concave_upper(x: np.ndarray, y: np.ndarray) -> float:
    """Upper bound on [0, 1] of a concave function with values ``y`` at the
    increasing points ``x``.

    Outside each gap between neighbouring points the gap's secant bounds
    the function from above, so it lies under the least of the secants
    whose closed gaps do not hold the point.  That envelope peaks at a
    point, at 0 or 1, or where two secants cross: in the middle gap, where
    the outer chords do.
    """
    slope = np.diff(y) / np.diff(x)
    i, j = np.triu_indices(slope.size, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (y[j] - y[i] + slope[i] * x[i] - slope[j] * x[j]) / (slope[i] - slope[j])
    t = np.concatenate([[0.0, 1.0], x, cross[(cross >= 0.0) & (cross <= 1.0)]])[:, None]
    lines = y[:-1] + slope * (t - x[:-1])
    inside = (x[:-1] <= t) & (t <= x[1:])
    return float(np.where(inside, np.inf, lines).min(axis=1).max())


def _symmetric_helper_capacity(v: BipartiteUnitary, opts: OptimizerOptions) -> CapacityResult:
    """Separable-helper capacity of a gate that commutes with every u (x) u,
    certified by a bracket.

    Every pure environment u|0> gives the channel rho -> u N(u^dag rho u) u^dag
    of N = N_{|0>}, so |0> is the only environment to evaluate.  N is
    z-covariant, and where it is degradable I_c is concave in the input,
    so the dephased input diag(q, 1 - q) does at least as well as rho: the
    capacity is the maximum over q of a concave function, found by golden
    section and bounded above by :func:`_concave_upper`.  Anti-degradable
    and symmetric N give exactly zero.
    """
    degradable = bool(batch_degradability_index(v, _KET0[None])[0] > SYMMETRIC_TOL)
    diag = {"n_degradable": int(degradable), "n_grid": 1}
    if not degradable:
        return CapacityResult(0.0, diagnostics={**diag, "raw_value": 0.0, "bracket": (0.0, 0.0),
                                                **_record([], 0, 0)})
    kraus = batch_effective_kraus(v, _KET0)

    def diagonal(q):
        return bloch_density(np.array([0.0, 0.0, 2 * q - 1]))

    x, y, steps = _golden_max(lambda q: float(_coherent_info(kraus, diagonal(q))),
                              opts.tol, opts.max_iters)
    best = int(np.argmax(y))
    raw = float(y[best])
    value = max(0.0, raw)
    return CapacityResult(
        value,
        argmax_input=diagonal(x[best]),
        argmax_env=_KET0,
        diagnostics={**diag, "raw_value": raw,
                     "bracket": (value, max(value, _concave_upper(x, y))),
                     **_record([raw], 4 + steps, int(x[3] - x[0] <= opts.tol))},
    )


def separable_helper_capacity(v, opts: OptimizerOptions | None = None) -> CapacityResult:
    """Capacity of a two-qubit gate with a product-state helper.

    A gate that commutes with every u (x) u, as the swap powers and the
    gates (a, a, a) do, reduces to a concave 1-d problem, solved by
    :func:`_symmetric_helper_capacity` with a certified ``bracket`` in the
    diagnostics; its argmax is in the caller's frame.  Every other gate,
    locally dressed copies of those included, takes the search.

    The search scans a (theta, phi) grid of pure environment states; points whose
    induced channel is anti-degradable or symmetric contribute zero and
    are skipped.  The remaining cells are scored against a coarse set of
    input states, and the best cells seed a joint simplex refinement
    over (theta, phi, Bloch vector).  The result is clamped at zero (the
    zero rate is always achievable); the raw optimum stays available in
    the diagnostics.  ``opts.grid`` below 3 is rejected on both paths.
    """
    opts = opts or OptimizerOptions()
    if opts.grid < 3:
        raise ValueError("the separable helper needs grid >= 3: "
                         "grid 2 holds only the poles |0> and |1>")
    v = as_two_qubit(v)
    if _swap_symmetric(v):
        return _symmetric_helper_capacity(v, opts)
    etas, thetas, phis = bloch_sphere_grid(opts.grid, opts.grid)
    idx = batch_degradability_index(v, etas)
    mask = idx > SYMMETRIC_TOL
    diag = {"grid": opts.grid, "n_degradable": int(mask.sum()),
            "n_grid": int(mask.size)}
    if not mask.any():  # nothing to refine: a record of zero restarts
        return CapacityResult(0.0, diagnostics={**diag, "raw_value": 0.0, **_record([], 0, 0)})

    kraus = batch_effective_kraus(v, etas[mask])
    scores = _coherent_info(kraus[:, None], bloch_density(_RHO_CANDIDATES))
    cell_best = scores.max(axis=1)
    order = np.argsort(cell_best)[::-1][: opts.restarts]
    midx = np.nonzero(mask)[0]
    starts = [np.concatenate([[thetas[midx[o]], phis[midx[o]]],
                              _RHO_CANDIDATES[int(np.argmax(scores[o]))]]) for o in order]
    # when no run beats the best cell, its start point is the argmax
    z, raw, record = _maximize(
        lambda z: _coherent_info(batch_effective_kraus(v, bloch_state(z[:, 0], z[:, 1])),
                                 bloch_density(z[:, 2:])),
        starts, 0.2, opts.tol, 4 * opts.max_iters, best=(starts[0], float(cell_best[order[0]])))
    return CapacityResult(max(0.0, raw), argmax_input=bloch_density(z[2:]),
                          argmax_env=bloch_state(z[0], z[1]),
                          diagnostics={**diag, "raw_value": raw, **record})


# ---------------------------------------------------------------------------
# adversarial (jammer) value, single copy
# ---------------------------------------------------------------------------

def jammer_value(v, opts: OptimizerOptions | None = None) -> CapacityResult:
    """Single-copy max-min coherent information against an adversarial
    environment, in closed form.

    A canonical gate commutes with X(x)X, Y(x)Y and Z(x)Z, so at the input
    I/2 the map eta -> I_c(I/2, N_eta) is invariant under the Pauli group.
    It is convex: with R purifying the input, the output rho_RB is affine
    in eta, and I_c = -S(R|B) is convex in rho_RB.  Its minimum is
    therefore at eta = I/2, which local dressing leaves fixed, and every
    gate has

        max(0, L) <= J <= U,   L = I_c(I/2, N_{I/2}),   U = Q1(N_{I/2}),

    with J >= 0 because a pure input gives zero.  The value max(0, L) is
    exact: L is :func:`coherent_info` of the channel N_{I/2}, whose
    canonical complement has the spectrum of rho_RB.  U is the
    :func:`max_coherent_info` estimate of that channel, so the bracket
    ``(value, U)`` in the diagnostics, reported with U's restart record,
    is certified only from below.  The argmax is (I/2, I/2) when L > 0,
    and (|0><0|, I/2), which reaches zero, otherwise.
    """
    opts = opts or OptimizerOptions()
    mixed = bloch_density(np.zeros(3))
    channel = effective_channel(v, mixed)
    low = coherent_info(channel, mixed)
    value = max(0.0, low)
    upper = max_coherent_info(channel, opts)
    return CapacityResult(
        value=value,
        argmax_input=mixed if low > 0 else projector(np.array([1, 0], complex)),
        argmax_env=mixed,
        diagnostics={**upper.diagnostics, "raw_value": value,
                     "bracket": (value, upper.value)},
    )


# ---------------------------------------------------------------------------
# two parallel gates on an entangled environment
# ---------------------------------------------------------------------------

def two_copy_curve(w, v, theta: float | None = None):
    """S(B'B) - S(F'F) of gate matrices w, v (..., 4, 4) run side by side,
    broadcast together and taken as given: an array of their leading
    shape, a scalar for one pair.

    ``w`` acts on the primed pair (A', E'), ``v`` on (A, E), and a
    reference qubit R purifies the input.  The inputs are |0> on A' and
    maximally entangled pairs on E'E and AR; at ``theta``, |1> on A', the
    pair on E'E, and sqrt(theta)|00> + sqrt(1-theta)|11> on AR.  The
    global state is (W (x) V (x) I_R) applied to them, with wires ordered
    A', E', A, E, R at the input and B', F', B, F, R at the output.
    """
    if theta is None:
        aprime, inp = np.array([1, 0], complex), maximally_entangled(2)
    elif 0.0 <= theta <= 1.0:
        aprime = np.array([0, 1], complex)
        inp = np.array([np.sqrt(theta), 0, 0, np.sqrt(1.0 - theta)], complex)
    else:
        raise ValueError("theta must lie in [0, 1]")
    psi = np.kron(np.kron(aprime, maximally_entangled(2)), inp)
    # input factors arrive as A', E', E, A, R; the gates act on (A',E'), (A,E)
    psi = psi.reshape(2, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(32)

    def stack(w, v):  # np.kron(np.kron(w, v), I_2) over (n, 4, 4) stacks
        wv = (w[:, :, None, :, None] * v[:, None, :, None, :]).reshape(-1, 16, 16)
        g = (wv[:, :, None, :, None] * np.eye(2, dtype=complex)[:, None, :]).reshape(-1, 32, 32)
        out = projector(g @ psi)
        dims = (2, 2, 2, 2, 2)
        rho_bb = partial_trace(out, dims, keep=(0, 2))
        rho_ff = partial_trace(out, dims, keep=(1, 3))
        return entropy(rho_bb, validate=False) - entropy(rho_ff, validate=False)

    w, v = np.broadcast_arrays(np.asarray(w, complex), np.asarray(v, complex))
    vals = in_chunks(stack, _TWO_COPY_CHUNK, w.reshape(-1, 4, 4), v.reshape(-1, 4, 4))
    return vals.reshape(w.shape[:-2])[()]


def find_zero_crossing(f, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Bisection root of ``f`` on [lo, hi]; endpoints must straddle zero.

    Raises ``ValueError`` unless ``lo < hi`` and ``tol > 0``, and
    :class:`BracketError` when f(lo) and f(hi) have the same sign.
    """
    if not lo < hi:
        raise ValueError(f"bracket [{lo}, {hi}] is empty: need lo < hi")
    if not tol > 0:
        raise ValueError(f"bisection tolerance must be positive, got {tol}")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise BracketError(
            f"f({lo}) = {flo:.3e} and f({hi}) = {fhi:.3e} have the same sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # tol below the float spacing at the root
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# entangled helper
# ---------------------------------------------------------------------------

def _helper_terms(gamma, lam, mu):
    """Closed-form entries of the entangled-helper outputs: the diagonal of
    rho_hb, its |00><11| coherence as root * z, and the diagonal of rho_f."""
    stay = np.cos(np.pi * gamma / 2) ** 2
    hop = np.sin(np.pi * gamma / 2) ** 2
    p00 = lam * (mu + (1 - mu) * hop)
    p11 = (1 - lam) * ((1 - mu) + mu * hop)
    root = np.sqrt(np.maximum(lam * (1 - lam), 0.0))
    z = (0.5 - mu / 2 * np.exp(-1j * np.pi * gamma)
         - (1 - mu) / 2 * np.exp(1j * np.pi * gamma))
    p01 = lam * (1 - mu) * stay
    p10 = mu * (1 - lam) * stay
    f0 = lam * mu + lam * (1 - mu) * stay + mu * (1 - lam) * hop
    f1 = (1 - lam) * (1 - mu) + lam * (1 - mu) * hop + mu * (1 - lam) * stay
    return (p00, p01, p10, p11), root, z, (f0, f1)


def _helper_objective(gamma, lam, mu):
    """Vectorized entropy difference of the closed-form output states."""
    (p00, p01, p10, p11), root, z, f = _helper_terms(
        gamma, np.asarray(lam, dtype=float), np.asarray(mu, dtype=float))
    half = (p00 + p11) / 2
    r = np.sqrt(((p00 - p11) / 2) ** 2 + (root * np.abs(z)) ** 2)
    return (entropy_from_eigvals(np.stack([half + r, half - r, p01, p10], -1))
            - entropy_from_eigvals(np.stack(f, -1)))


def swap_power_helper_capacity(gamma: float, opts: OptimizerOptions | None = None) -> CapacityResult:
    """Maximum entangled-helper coherent information of the fractional swap.

    Maximizes the closed-form objective over the helper Schmidt weight
    lam and the diagonal input weight mu on a uniform grid, then refines
    with simplex runs seeded from the best cell and from fixed
    geometrically spaced points next to the mu corners (the optimum
    migrates there as gamma grows).  Values below the resolution floor
    are reported as exactly zero; the raw optimum is kept in the
    diagnostics.  ``opts.tol`` is unused: the 1e-5 simplex tolerance is tied to the floor.
    """
    opts = opts or OptimizerOptions()
    n = opts.grid
    xs = np.linspace(0.0, 1.0, n)
    lam_g, mu_g = np.meshgrid(xs, xs, indexing="ij")
    vals = _helper_objective(gamma, lam_g, mu_g)
    i = np.unravel_index(int(np.argmax(vals)), vals.shape)
    starts = [[lam_g[i], mu_g[i]]] + [[0.5, m] for m0 in _CORNER_SEEDS for m in (m0, 1.0 - m0)]
    z, raw, record = _maximize(lambda z: _helper_objective(gamma, *np.clip(z, 0.0, 1.0).T),
                               starts, max(0.5 / (n - 1), 2e-5), 1e-5, opts.max_iters,
                               best=(starts[0], float(vals[i])))
    value = raw if raw > HELPER_CAPACITY_FLOOR else 0.0
    lam, mu = np.clip(z, 0.0, 1.0).tolist()
    kappa = np.zeros(4, complex)
    kappa[0], kappa[3] = np.sqrt(lam), np.sqrt(1 - lam)
    return CapacityResult(
        value=float(value),
        argmax_input=np.diag([mu, 1 - mu]).astype(complex),
        argmax_env=kappa,
        diagnostics={"raw_value": float(raw), "lam": lam, "mu": mu,
                     "grid": n, "floor": HELPER_CAPACITY_FLOOR, **record},
    )
