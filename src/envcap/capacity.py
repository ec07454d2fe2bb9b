"""Coherent-information objectives and their optimizers.

The coherent information of a channel N at input rho is
S(N(rho)) - S(N~(rho)), with N~(rho) the environment output of the
canonical dilation of the Kraus stack.  On top of that single quantity
this module provides:

* the maximum over inputs for a fixed channel (a Bloch-ball simplex search that
  evaluates the outputs as affine maps of the Bloch vector, best candidates first),
* the maximum over environment states and inputs for a two-qubit gate
  (the separable-helper capacity): the amplitude-damping capacity in closed
  form for gates that commute with every u (x) u, such as the swap powers,
  and a grid-seeded simplex search for the rest,
* the max-min value against an adversarial environment (single copy), in
  closed form at the maximally mixed input and environment, bracketed
  above by the input maximum of that one channel: exactly 0 where a
  symmetric-extension test on its Choi state finds it anti-degradable,
  a search estimate elsewhere,
* coherent information of two gates run in parallel on an entangled
  environment (five-qubit output state read off the gates' columns, no
  32 x 32 matrix, stacked over gate pairs), and
* the entangled-helper capacity of the fractional swaps, from a
  closed-form objective over the helper's Schmidt weight and the input:
  its centre in closed form below gamma_c = 0.642893..., where the centre
  stops being a maximum, and nested 1-d maxima from there on: over the
  helper weight by Newton, over the input weight by Illinois steps on one
  bracket, the objective's value and slopes taken from one set of closed-form terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .canonical import SWAP
from .channels import (
    BipartiteUnitary,
    KrausChannel,
    as_two_qubit,
    batch_effective_kraus,
    effective_channel,
)
from .degradability import SYMMETRIC_TOL, batch_degradability_index, bloch_sphere_grid
from .linalg import (
    _in_ball,
    bloch_density,
    bloch_state,
    check_count,
    check_density_matrix,
    entropy,
    entropy_from_eigvals,
    entropy_terms,
    in_chunks,
    maximally_entangled,
    projector,
)

#: Optimizer values at or below this floor are reported as exactly zero by
#: the helper-capacity routines.  The entangled-helper curve touches zero
#: tangentially: its maximum moves into a mu corner and thins out
#: exponentially (6.3e-7 at gamma = 0.7778, 2.6e-10 at 0.8095), so the floor,
#: not the optimizer, fixes where the reported curve ends.
HELPER_CAPACITY_FLOOR = 5e-6

#: Gate pairs per stacked two-copy evaluation; bounds its (n, 4, 4, 8) temporaries.
_TWO_COPY_CHUNK = 256

#: Symmetric-extension slack above which :func:`jammer_value` takes N_{I/2} as
#: anti-degradable: round-off in sqrt(det J) is about 1e-8 at worst, when an
#: eigenvalue of the Choi state J is near zero.
_EXTENSION_MARGIN = 1e-6

#: Nelder-Mead reflection, expansion, outside and inside contraction as
#: a * centroid - c * worst vertex, in scipy's arithmetic: rows (a, c).
_NM_TRIAL = np.array([[2.0, 3.0, 1.5, 0.5], [1.0, 2.0, 0.5, -0.5]])[..., None]


@dataclass(frozen=True)
class OptimizerOptions:
    """Settings of the optimizer routines, each of which reads only some of them.

    ``restarts``, ``tol`` and ``max_iters`` drive the Nelder-Mead searches of
    :func:`max_coherent_info` (behind :func:`jammer_value`'s upper end too) and of the
    generic branch of :func:`separable_helper_capacity`, which allows 4 * ``max_iters``
    iterations; ``grid`` is the side of that branch's (theta, phi) sphere.
    :func:`swap_power_helper_capacity` reads only ``max_iters``, the cap on the steps of its
    refinement past gamma_c, and :func:`_symmetric_helper_capacity` reads none.  A count
    that is not an integer or is below 1 (``grid`` below 3: grid 2 holds only the poles |0>
    and |1>), or a ``tol`` that is not a finite positive real, raises ``ValueError``; bools
    are neither.
    """
    restarts: int = 8
    grid: int = 64
    tol: float = 1e-8
    max_iters: int = 500

    def __post_init__(self):
        check_count("restarts", self.restarts, 1)
        check_count("grid", self.grid, 3)
        check_count("max_iters", self.max_iters, 1)
        if isinstance(self.tol, (bool, np.bool_)) or not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, not {self.tol!r}")


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
    rho = check_density_matrix(rho)
    if rho.shape != (c.dim_in, c.dim_in):
        raise ValueError(f"input shape {rho.shape} != channel input dim {c.dim_in}")
    return float(_coherent_info(c.kraus, rho))


def _coherent_info(kraus: np.ndarray, rho: np.ndarray):
    """Coherent information from Kraus stacks (..., k, out, in) and inputs
    (..., in, in), broadcast over the leading axes."""
    out, comp = _outputs(kraus, rho)
    return entropy(out, validate=False) - entropy(comp, validate=False)


def _outputs(kraus: np.ndarray, rho: np.ndarray):
    """N(rho) and N~(rho), the complement from the canonical dilation of the Kraus stack."""
    kc = kraus.conj()
    return (np.einsum("...kba,...ac,...kdc->...bd", kraus, rho, kc),
            np.einsum("...kba,...ac,...lbc->...kl", kraus, rho, kc))


def _bloch_coherent_info(kraus: np.ndarray):
    """Coherent information of a Kraus stack (k, out, 2) at Bloch vectors (B, 3), clipped as by
    :func:`bloch_density`: N and N~ are affine in r, their maps read off I/2 and (I + sigma_i)/2."""
    maps = [(m[0], (m[1:] - m[0]).reshape(3, -1))
            for m in _outputs(kraus, bloch_density(np.eye(4, 3, -1)))]

    def objective(x):
        r = _in_ball(x)
        out, comp = (m0 + (r @ m).reshape(-1, *m0.shape) for m0, m in maps)
        return entropy(out, validate=False) - entropy(comp, validate=False)
    return objective


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
    ``tol / 100``, or after ``maxiter`` iterations.  An iteration evaluates
    the four trial points of every live simplex in one call and shrinks in
    a second, but counts only the points a lone run evaluates, so a restart
    does not depend on its batch.
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
        conv = (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= tol) \
            & (np.abs(fs[:, 1:] - fs[:, :1]).max(axis=1) <= tol * 1e-2) & (iters < maxiter)
        stop = conv | (iters >= maxiter)
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
        r = np.flatnonzero(pick >= 0)
        s[r, -1], fs[r, -1] = trial[r, pick[r]], ft[r, pick[r]]
        shrink = pick < 0
        if shrink.any():  # towards the best vertex
            pts = s[shrink, :1] + 0.5 * (s[shrink, 1:] - s[shrink, :1])
            s[shrink, 1:], fs[shrink, 1:] = pts, f(pts.reshape(-1, d)).reshape(-1, d)
        calls += 1 + ~mid + d * shrink
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


#: Bloch vectors of the scored input states that seed the input searches.
_RHO_CANDIDATES = np.vstack([np.zeros(3)] + [r * np.vstack([np.eye(3), -np.eye(3)])
                                             for r in (0.5, 0.97)])


def max_coherent_info(c: KrausChannel, opts: OptimizerOptions | None = None) -> CapacityResult:
    """Maximum coherent information over the Bloch ball of qubit inputs.

    Multi-restart downhill-simplex search from the ``opts.restarts`` best-scoring
    inputs of ``_RHO_CANDIDATES`` (13 at most; best first, ties in candidate order),
    the best score a floor on the value.  The search evaluates the channel's outputs
    as affine maps of the Bloch vector, so the Kraus stack is contracted once.  For
    degradable channels the objective is concave, and restarts agree to the tolerance.
    """
    opts = opts or OptimizerOptions()
    if c.dim_in != 2:
        raise ValueError("input maximization is implemented for qubit inputs")
    scores = _coherent_info(c.kraus, bloch_density(_RHO_CANDIDATES))
    starts = _RHO_CANDIDATES[np.argsort(-scores, kind="stable")[: opts.restarts]]
    x, value, record = _maximize(_bloch_coherent_info(c.kraus), starts, 0.25, opts.tol,
                                 opts.max_iters, best=(starts[0], float(scores.max())))
    return CapacityResult(value=float(value), argmax_input=bloch_density(x),
                          diagnostics={"raw_value": float(value), **record})


# ---------------------------------------------------------------------------
# separable-helper capacity of a two-qubit gate
# ---------------------------------------------------------------------------

_KET0 = np.array([1, 0], dtype=complex)


def _swap_symmetric(v: BipartiteUnitary) -> bool:
    """Whether ``v`` commutes with every u (x) u: whether it is aI + bSWAP, the gates that do,
    with a = V[1, 1] and b = V[1, 2], to 1e-12.  Swap powers and the gates (a, a, a) are."""
    m = v.matrix
    return bool(np.abs(m - m[1, 1] * np.eye(4) - m[1, 2] * SWAP).max() <= 1e-12)


def _symmetric_helper_capacity(v: BipartiteUnitary) -> CapacityResult:
    """Separable-helper capacity of a gate that commutes with every u (x) u,
    in closed form.

    Every pure environment u|0> gives the channel rho -> u N(u^dag rho u) u^dag
    of N = N_{|0>}, so |0> is the only environment to evaluate.  The gate is
    aI + bSWAP, and N is amplitude damping of |1> with p = |<01|V|10>|^2, up
    to a unitary on the output; its degradability index is (1 - p)^2 - p^2 =
    1 - 2p.  Anti-degradable and symmetric N (p >= 1/2) give exactly zero.
    Otherwise N is degradable, and its capacity is the maximum over the |1>
    population q of the concave
    f(q) = h((1 - p) q) - h(p q) (Giovannetti & Fazio, 2005): the root of
    f' by :func:`_newton_root` to float resolution, valued as f(q) itself.
    Concavity bounds the maximum by f(q) + |f'(q)|, the ``bracket``.
    """
    p = float(abs(v.matrix[1, 2]) ** 2)
    degradable = 1 - 2 * p > SYMMETRIC_TOL
    diag = {"n_degradable": int(degradable), "n_grid": 1, "damping": p, **_record([], 0, 0)}
    if not degradable:
        return CapacityResult(0.0, diagnostics={**diag, "raw_value": 0.0, "bracket": (0.0, 0.0)})

    def slopes(q):  # f'(q), f''(q) in nats, logs apart: tiny p neither underflows nor rounds off
        return ((1 - p) * (math.log(1 - q + p * q) - math.log1p(-p) - math.log(q))
                - p * (math.log1p(-p * q) - (math.log(p) if p else 0.0) - math.log(q)),
                p * p / (1 - p * q) - (1 - p) ** 2 / (1 - q + p * q) - (1 - 2 * p) / q)

    q, (slope, _), _ = _newton_root(slopes, 0.5)
    h = entropy_terms(np.array([(1 - p) * q, 1 - q + p * q, p * q, 1 - p * q]))
    raw = float(h[0] + h[1] - (h[2] + h[3]))
    value = max(0.0, raw)
    rho = bloch_density(np.array([0.0, 0.0, 1.0 - 2.0 * q]))  # diag(1 - q, q)
    return CapacityResult(value, argmax_input=rho, argmax_env=_KET0, diagnostics={
        **diag, "raw_value": raw, "bracket": (value, value + abs(slope) / math.log(2))})


def separable_helper_capacity(v, opts: OptimizerOptions | None = None) -> CapacityResult:
    """Capacity of a two-qubit gate with a product-state helper.

    A gate that commutes with every u (x) u, as the swap powers and the
    gates (a, a, a) do, acts as an amplitude-damping channel, whose capacity
    :func:`_symmetric_helper_capacity` gives in closed form with a certified
    ``bracket`` in the diagnostics, from no optimizer call; its argmax is in
    the caller's frame.  Every other gate, locally dressed copies of those
    included, takes the search.

    The search scans a (theta, phi) grid of pure environment states; points whose
    induced channel is anti-degradable or symmetric contribute zero and
    are skipped.  The remaining cells are scored against a coarse set of
    input states, and the best cells seed a joint simplex refinement
    over (theta, phi, Bloch vector).  The result is clamped at zero (the
    zero rate is always achievable); the raw optimum stays available in
    the diagnostics.  Only the search reads ``opts``.
    """
    v = as_two_qubit(v)
    if _swap_symmetric(v):
        return _symmetric_helper_capacity(v)
    opts = opts or OptimizerOptions()
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

def _extension_slack(j_b: np.ndarray, w: np.ndarray) -> float:
    """Tr J_B^2 - Tr J^2 + 4 sqrt(det J) of the Choi state J of a qubit channel, from
    J_B = N(I/2) and the ascending spectrum w of N~(I/2): J and N~(I/2) are marginals of
    one pure state, so J's spectrum is the top four of w padded with zeros.

    A two-qubit state has a symmetric extension on B iff this is >= 0 (Myhr &
    Lutkenhaus, "Spectrum conditions for symmetric extendible states", 2009; Chen,
    Ji, Kribs, Lutkenhaus & Zeng, "Symmetric extension of two-qubit states", 2014),
    and a channel is anti-degradable iff its Choi state has one on the output.  The
    slack is invariant under unitaries on the input and the output.
    """
    w = np.concatenate([np.zeros(4), w])[-4:]
    return float(np.vdot(j_b, j_b).real - w @ w + 4 * np.sqrt(max(0.0, np.prod(w))))


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
    exact: L is :func:`coherent_info` of N_{I/2} at I/2 bit for bit, from one
    contraction and one eigensolve of the complement's output, which has the
    spectrum of rho_RB; it is ``raw_value``, before the clamp.  The argmax is
    (I/2, I/2) when L > 0, and (|0><0|, I/2), which reaches zero, otherwise.

    The diagnostics hold the bracket ``(value, U)`` with U's restart record,
    and the :func:`_extension_slack` of N_{I/2}, read off the same output and
    spectrum, as ``extension_slack``.  Where
    the slack exceeds 1e-6 and L <= 0, N_{I/2} is anti-degradable, so U = 0
    exactly, with no optimizer call and a record of zero restarts; this needs
    no canonical form, as the slack is invariant under local dressing.  On
    the other gates, those with L > 0 and those whose slack is at most 1e-6
    (CNOT's is 0), U is the :func:`max_coherent_info` estimate of that
    channel, and the bracket is certified only from below.
    """
    mixed = bloch_density(np.zeros(3))
    channel = effective_channel(v, mixed)
    out, comp = _outputs(channel.kraus, mixed)
    w = np.linalg.eigvalsh(comp)
    low = float(entropy(out, validate=False) - entropy_from_eigvals(w))
    value = max(0.0, low)
    slack = _extension_slack(out, w)
    if slack > _EXTENSION_MARGIN and low <= 0:  # anti-degradable: Q1 = 0
        upper = CapacityResult(0.0, diagnostics=_record([], 0, 0))
    else:
        upper = max_coherent_info(channel, opts)
    return CapacityResult(
        value=value,
        argmax_input=mixed if low > 0 else projector(_KET0),
        argmax_env=mixed,
        diagnostics={**upper.diagnostics, "raw_value": low,
                     "bracket": (value, upper.value), "extension_slack": slack},
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
    A', E', A, E, R at the input and B', F', B, F, R at the output.  No
    32 x 32 matrix is formed, and the values are those of the Kronecker
    product route bit for bit where each output amplitude is one product,
    as with the canonical and swap-power gates of the curves; generic
    pairs agree with it to round-off (a few 1e-15).
    """
    if theta is None:
        a, inp = 0, maximally_entangled(2)
    elif 0.0 <= theta <= 1.0:
        a, inp = 1, np.array([np.sqrt(theta), 0, 0, np.sqrt(1.0 - theta)], complex)
    else:
        raise ValueError("theta must lie in [0, 1]")
    # only |a, e, e, r, r> on A', E', E, A, R has an amplitude: |ee> of E'E times |rr> of AR
    p = np.outer(maximally_entangled(2)[::3], inp[::3])

    def reduced(phi, order):  # order: the kept wires, then F' or B', F or B, R
        x = phi.reshape(-1, 2, 2, 2, 2, 2).transpose(0, *order).reshape(-1, 4, 8)
        q = x[:, :, None] * x.conj()[:, None]
        while q.shape[-1] > 1:  # partial_trace's sums: R, then the inner, then the outer wire
            q = q[..., ::2] + q[..., 1::2]
        return entropy(q[..., 0], validate=False)

    def stack(w, v):  # phi[b'f', bf, r] = sum_e W[b'f', (a, e)] V[bf, (r, e)] p[e, r]
        phi = (w[:, :, None, None, 2 * a:2 * a + 2] * v.reshape(-1, 1, 4, 2, 2) * p.T).sum(-1)
        return reduced(phi, (1, 3, 2, 4, 5)) - reduced(phi, (2, 4, 1, 3, 5))

    w, v = np.broadcast_arrays(np.asarray(w, complex), np.asarray(v, complex))
    vals = in_chunks(stack, _TWO_COPY_CHUNK, w.reshape(-1, 4, 4), v.reshape(-1, 4, 4))
    return vals.reshape(w.shape[:-2])[()]


def find_zero_crossing(f, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Bisection root of ``f`` on [lo, hi]; endpoints must straddle zero.

    Raises ``ValueError`` unless ``lo < hi`` are finite and ``tol > 0``, and
    :class:`BracketError` when f(lo) and f(hi) have the same sign, or when f
    is NaN or infinite at an endpoint or a midpoint.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket [{lo}, {hi}] must have finite endpoints")
    if not lo < hi:
        raise ValueError(f"bracket [{lo}, {hi}] is empty: need lo < hi")
    if not tol > 0:
        raise ValueError(f"bisection tolerance must be positive, got {tol}")

    def finite(x):
        fx = f(x)
        if not math.isfinite(fx):
            raise BracketError(f"f({x}) = {fx} is not finite")
        return fx

    flo, fhi = finite(lo), finite(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(
            f"f({lo}) = {flo:.3e} and f({hi}) = {fhi:.3e} have the same sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # tol below the float spacing at the root
            break
        fm = finite(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: Step cap of :func:`_newton_root`, far above the 10 calls of the swap powers' qh roots and
#: the 17 of their qeh roots (largest seen on 1,001 gammas).
_NEWTON_STEPS = 100


def _newton_root(slopes, x):
    """Maximum on (0, 1) of a concave function: the root of its slope g by Newton from ``x``,
    ``slopes(x)`` = (g, g', ...), with g > 0 near 0 and g <= 0 near 1.  Steps go in logit(x),
    at most 8; one leaving the bracket bisects it, one below float resolution moves x a float,
    so a one-sided approach closes the bracket.  Stops at g == 0 or a float-resolution
    bracket; returns (x, slopes(x), calls)."""
    lo, hi = 0.0, 1.0
    for calls in range(1, _NEWTON_STEPS + 1):
        at = slopes(x)
        g, h = at[:2]
        newton = h < 0
        step = g / h if newton else 0.0
        lo, hi = (x, hi) if g > 0 else (lo, x)
        mid = (lo + hi) / 2
        if g == 0 or not lo < mid < hi:
            break
        y = x / (x + (1 - x) * math.exp(max(-8.0, min(8.0, step / (x * (1 - x))))))
        if y == x:
            y = math.nextafter(x, hi if g > 0 else lo)
        x = y if newton and lo < y < hi else mid
    return x, at, calls


# ---------------------------------------------------------------------------
# entangled helper
# ---------------------------------------------------------------------------

def _helper_slopes(stay, hop, mu):
    """lam -> (f_lam, f_lamlam, f_mu, f) of the entangled-helper objective f = S(rho_hb) - S(rho_f)
    at 0 < mu < 1, c = ``stay`` = cos^2(pi gamma / 2), s = ``hop`` = sin^2: slopes in nats, no
    floor, f_mu and f (bits, through :func:`entropy_terms`) as functions of no arguments.
    The spectra are w+-, lam (1 - mu) c, (1 - lam) mu c and f0 = mu s + lam c,
    1 - f0, with w+ = half + r from p00 = lam (s + mu c), p11 = (1 - lam)(1 - mu c) and
    r = sqrt(d^2 + lam (1 - lam) |z|^2), d = (p00 - p11) / 2, |z|^2 = s^2 + (1 - 2mu)^2 s c;
    w- = lam (1 - lam) mu (1 - mu) c (1 + 3s) / w+ is free of half - r's cancellation.  Terms in
    mu alone are taken once; products holding lam are left whole, so the floats are those of the
    formula unsplit; trace 1 makes the -dw of d(-w ln w) cancel."""
    c, s, mu1 = stay, hop, 1 - mu
    zz = s * s + (1 - 2 * mu) ** 2 * s * c
    a, b, mus = s + mu * c, 1 - mu * c, mu * s
    wp_l0, rll0 = c * (2 * mu - 1) / 2, (1 + s) ** 2 / 4 - zz

    def at(lam):
        lam1, tilt = 1 - lam, 1 - 2 * lam
        ll, p11 = lam * lam1, lam1 * b
        d = (lam * a - p11) / 2  # (p00 - p11) / 2
        r = math.sqrt(d * d + ll * zz)
        wp = d + p11 + r
        wm = ll * mu * mu1 * c * (1 + 3 * s) / wp
        p01, p10 = lam * mu1 * c, lam1 * mu * c
        f0 = mus + lam * c
        f1 = 1 - f0
        lp, lm, lf = math.log(wp), math.log(wm), math.log(f0 / f1)
        l01, l10 = math.log(p01), math.log(p10)
        rl = ((1 + s) / 2 * d + tilt * zz / 2) / r
        wp_l = wp_l0 + rl
        q = tilt / ll - wp_l / wp  # d ln w- / d lam
        rll, wmq = (rll0 - rl * rl) / r, wm * q
        f_l = c * lf - (wp_l * lp + wmq * lm + c * (mu1 * l01 - mu * l10))
        f_ll = (c * c / (f0 * f1) - rll * (lp - lm) - wp_l * wp_l / wp - wmq * q
                - c * (mu1 / lam + mu / lam1))

        def f_mu():
            wp_m = c * (2 * lam - 1) / 2 + (c * d / 2 - 2 * ll * (1 - 2 * mu) * s * c) / r
            wm_m = wm * ((1 - 2 * mu) / (mu * mu1) - wp_m / wp)
            return s * lf - (wp_m * lp + wm_m * lm + c * (lam1 * l10 - lam * l01))

        def f():
            h = entropy_terms(np.array([wp, wm, p01, p10, f0, f1]))
            return h[0] + h[1] + h[2] + h[3] - (h[4] + h[5])
        return f_l, f_ll, f_mu, f
    return at


def _helper_peak(stay, hop, lo, lam, max_iters):
    """Root of the envelope slope F'(mu) = f_mu(lam*(mu), mu) between ``lo`` = (mu, F'(mu))
    with F' > 0 and the centre mu = 1/2, where F' = 0 by symmetry, by Illinois steps (regula
    falsi that halves the value of an end kept twice) in ln mu.  The steps bisect while the
    upper end is the centre, from which regula falsi would only return the centre, and where
    a step leaves the bracket; they stop at 1e-12 in ln mu or after ``max_iters``.  lam*(mu)
    is the root of f_lam by :func:`_newton_root`, warm-started from ``lam`` and then from the
    last step's.  Returns (lam, mu, f, calls, converged) at the last step."""
    (t0, s0), (t1, s1) = (math.log(lo[0]), lo[1]), (math.log(0.5), 0.0)
    kept, calls = 0, 0
    for _ in range(max_iters):
        t = t0 - s0 * (t1 - t0) / (s1 - s0)
        if not s1 or not t0 < t < t1:  # s1 = 0: the centre, t = t1 up to round-off
            t = (t0 + t1) / 2
        lam, (_, _, f_mu, f), n = _newton_root(_helper_slopes(stay, hop, math.exp(t)), lam)
        st, calls = f_mu(), calls + n
        if st > 0:
            t0, s0, s1 = t, st, s1 / 2 if kept > 0 else s1
            kept = 1
        elif st < 0:
            t1, s1, s0 = t, st, s0 / 2 if kept < 0 else s0
            kept = -1
        if st == 0.0 or t1 - t0 <= 1e-12:
            return lam, math.exp(t), float(f()), calls, True
    return lam, math.exp(t), float(f()), calls, False


def _centre_curvature(s):
    """Determinant of the objective's Hessian in (lam, mu) at the centre (1/2, 1/2), in
    closed form for 0 < s < 1, s = sin^2(pi gamma / 2): 2 (s - 1) g / (s ln^2 2), with
    g = (1 + 3s)(4s^2 - 2s - 1) ln((1 + 3s)/(1 - s)) + 4s.  The lam-lam entry
    (s - 1)((1 + 3s) ln((1 + 3s)/(1 - s)) + 4s(2s - 1)) / (2s ln 2) is negative, so the
    centre is a local maximum while the determinant is positive: up to its one sign
    change on (0, 1)."""
    a = np.log1p(3 * s) - np.log1p(-s)
    return 2 * (s - 1) * ((1 + 3 * s) * (4 * s * s - 2 * s - 1) * a + 4 * s) / (s * np.log(2) ** 2)


@cache
def _symmetric_branch_end() -> float:
    """s_c = 0.71699..., gamma_c = 0.642893...: the sign change of :func:`_centre_curvature`,
    bisected to float resolution on the first call that asks for it."""
    return find_zero_crossing(_centre_curvature, 0.5, 0.9, 1e-300)


def swap_power_helper_capacity(gamma: float, opts: OptimizerOptions | None = None) -> CapacityResult:
    """Maximum entangled-helper coherent information of the fractional swap.

    The closed-form objective, over the helper Schmidt weight lam and the
    diagonal input weight mu, depends on gamma only through
    s = sin^2(pi gamma / 2) and is symmetric under (lam, mu) -> (1 - lam, 1 - mu),
    so the centre (1/2, 1/2) is always stationary.  Below s_c
    (gamma_c = 0.642893...), where :func:`_centre_curvature` changes sign, the
    result is the centre: helper (|00> + |11>)/sqrt(2), input I/2, and the value
    H((1 + 3s)/4, (1 - s)/4 x 3) - 1, the a1 curve's, with no optimizer call.
    That value is exact at the centre; that the centre is the global maximum
    is an estimate: the Hessian makes it a local one (at gamma = 0, where the
    Hessian is singular, it reaches the one-bit bound), and the search of
    ``tests/oracles.py`` finds nothing higher there.  The diagnostics report the
    ``curvature`` and an empty restart record.

    From s_c on, the optimum splits into a mirror pair that moves to the mu
    corners, and the function takes nested 1-d maxima on the half mu <= 1/2
    (mu = 0, a pure input, scores exactly 0).  At each input weight the maximum
    over lam is the root of the closed-form f_lam by :func:`_newton_root`, to float
    resolution, and the envelope F(mu) = max_lam f has the slope f_mu there.  F' is
    taken at mu = 1e-12 and is 0 at the centre by symmetry; where it is positive at
    1e-12, :func:`_helper_peak` refines its root on that bracket, at most
    ``opts.max_iters`` steps.  That F' changes sign once on (0, 1/2) is measured, not
    proved.  ``opts.grid``, ``opts.restarts`` and ``opts.tol`` are unused.  The value
    is the best of the pure input, the centre in closed form and the refined point,
    the last from the objective's slopes' own terms: an estimate, its inner maximum
    resting on measured concavity in lam, and a peak below mu = 1e-12 reads as 0.
    The restart record counts the refinement as one run, and ``nfev`` the slope
    evaluations and the values taken, one call each.  On both
    branches values at or below the resolution floor are reported as exactly
    zero; the raw optimum is kept in the diagnostics.  A non-finite gamma raises
    ``ValueError``.
    """
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    s = float(np.sin(np.pi * gamma / 2) ** 2)
    centre = float(entropy_terms(np.array([1 + 3 * s, 1 - s, 1 - s, 1 - s]) / 4).sum() - 1)
    if s < _symmetric_branch_end():
        raw, lam, mu = centre, 0.5, 0.5
        # at s = 0 the objective is h(mu) whatever lam is: the Hessian is singular
        diag = {"curvature": float(_centre_curvature(s)) if s else 0.0, **_record([], 0, 0)}
    else:
        opts = opts or OptimizerOptions()
        stay = float(np.cos(np.pi * gamma / 2) ** 2)
        lam, (_, _, f_mu, _), nfev = _newton_root(_helper_slopes(stay, s, 1e-12), 0.5)
        slope = f_mu()
        best = [(0.0, 0.5, 0.0), (centre, 0.5, 0.5)]
        runs, converged = [], 0
        if slope > 0:  # the peak lies in (1e-12, 1/2)
            lam, mu, f, calls, ok = _helper_peak(stay, s, (1e-12, slope), lam, opts.max_iters)
            runs, converged = [f], int(ok)
            best.append((f, lam, mu))
            nfev += calls + 1
        raw, lam, mu = max(best, key=lambda b: b[0])  # the first of equal values
        diag = _record(runs, nfev, converged)
    value = raw if raw > HELPER_CAPACITY_FLOOR else 0.0
    kappa = np.zeros(4, complex)
    kappa[0], kappa[3] = np.sqrt(lam), np.sqrt(1 - lam)
    return CapacityResult(
        value=float(value),
        argmax_input=np.diag([mu, 1 - mu]).astype(complex),
        argmax_env=kappa,
        diagnostics={"raw_value": float(raw), "lam": lam, "mu": mu,
                     "floor": HELPER_CAPACITY_FLOOR, **diag},
    )
