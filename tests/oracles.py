"""Reference computations used only by the tests.

They are slow, independent routes to numbers the library computes in
closed form, kept here so the tests can check one against the other;
one-at-a-time versions of the stacked kernels, whose arithmetic the
kernels must reproduce bit for bit; and the reference channels and
helpers that only tests need:

* the gate :data:`DCNOT`; states and products: :func:`tensor`,
  :func:`partial_trace`, :func:`binary_entropy`, :func:`maximally_mixed`, :func:`random_pure_state`,
  :func:`random_density_matrix`;
* the amplitude-damping objective h((1 - p) q) - h(p q) to 40 digits
  (:func:`damping_value_by_decimal`), and the fractional swap's
  entangled-helper objective to 50 (:func:`helper_value_by_decimal`);
* channels of a two-qubit gate besides the effective one: the channel
  into the environment (:func:`complementary_channel`), the channel to
  the receiver and an entangled helper (:func:`entangled_env_channel`),
  the closed-form helper outputs of the fractional swap
  (:func:`swap_power_helper_outputs`) from their diagonals and coherence
  (:func:`swap_factors`, :func:`helper_terms`), its objective with the
  lower eigenvalue of rho_hb as half - r (:func:`helper_objective`), its
  entangled-helper capacity by
  grid-and-simplex search over (lam, mu) at every gamma
  (:func:`swap_power_helper_by_search`), its envelope over lam at given input
  weights (:func:`helper_envelope`) on a 64-point scan of the input weight
  (:func:`helper_scan`), and the Hessian of its objective at the centre of the
  (lam, mu) square (:func:`centre_hessian`);
* Kraus-list operations: :func:`apply_channel`,
  :func:`complement_channel`, :func:`choi_state`,
  :func:`channel_reduction_b`, and the Choi-spectrum
  anti-degradability criterion (:func:`is_antidegradable_choi`);
* the degradability index as det T_N - det T_Nc by Pauli traces
  (:func:`bloch_determinant_index`);
* the local invariants of a gate from traces alone, the oracle of the
  canonical-parameter extraction (:func:`makhlin_invariants`);
* the jammer's coherent information through a purification of the input,
  affine in the environment's Bloch vector (:func:`jammer_affine`,
  :func:`jammer_ic`), the objective of the nested max-min search
  :func:`jammer_search`, and the symmetric-extension slack of the
  canonical gate's channel at the mixed environment from its Pauli weights
  (:func:`extension_slack_by_pauli_weights`);
* the separable-helper capacity of a swap-symmetric gate by golden
  section over diagonal inputs, bracketed by the concave upper envelope
  of its last points (:func:`golden_max`, :func:`concave_upper`,
  :func:`symmetric_helper_by_golden`);
* the fold and the region tests one point at a time in Python floats
  (:func:`fold_by_python`, :func:`in_antidegradable_by_python`,
  :func:`in_degradable_by_python`), the states where the normal form's
  two Kraus weights tie (:func:`degenerate_weights`), the CLI's CSV
  text formatted cell by cell (:func:`csv_by_value`) and its JSON text
  with one ``json.dumps`` per row (:func:`json_by_row`).
"""

from __future__ import annotations

import decimal
import json
from decimal import Decimal
from typing import Sequence

import numpy as np

from envcap import __version__
from envcap.canonical import (
    CNOT,
    SWAP,
    canonical_unitary,
    decompose_params,
    fold_to_fundamental,
    in_antidegradable_region,
)
from envcap.capacity import (
    HELPER_CAPACITY_FLOOR,
    CapacityResult,
    OptimizerOptions,
    _helper_slopes,
    _maximize,
    _newton_root,
    coherent_info,
)
from envcap.channels import (
    KRAUS_WEIGHT_FLOOR,
    BipartiteUnitary,
    KrausChannel,
    as_two_qubit,
    effective_channel,
    normal_form_stack,
)
from envcap.cli import _format_value
from envcap.degradability import batch_effective_kraus
from envcap.experiments import B2_THETAS, b2_curve
from envcap.linalg import (
    ENTROPY_EIG_FLOOR,
    as_complex_matrix,
    bloch_density,
    check_state_vector,
    eigvals2,
    entropy,
    entropy_from_eigvals,
    entropy_terms,
    maximally_entangled,
    projector,
)


#: |a, e> -> |e, a XOR e>: a CNOT in each direction.
DCNOT = CNOT @ SWAP


# -- states and products -------------------------------------------------


def tensor(a, b, *rest) -> np.ndarray:
    """Kronecker product of two or more matrices (or vectors)."""
    out = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    for m in rest:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def partial_trace(m, dims: Sequence[int], keep) -> np.ndarray:
    """Trace out all subsystems of ``m`` except those listed in ``keep``.

    ``dims`` gives the dimension of each tensor factor (row-major order)
    and must multiply to the side of ``m``.  ``keep`` is a subsystem
    index or an iterable of indices; the kept factors stay in their
    original relative order.  Leading axes of ``m`` index a stack.
    """
    m = np.asarray(m, dtype=complex)
    dims = [int(d) for d in dims]
    side = int(np.prod(dims))
    if m.shape[-2:] != (side, side):
        raise ValueError(
            f"matrix of shape {m.shape} does not match subsystem split {tuple(dims)}")
    lead = m.shape[:-2]
    keep = sorted({int(keep)} if isinstance(keep, (int, np.integer)) else {int(k) for k in keep})
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")
    cur, cur_dims = m, list(dims)
    for i in [i for i in reversed(range(len(dims))) if i not in keep]:
        k = len(lead) + i
        cur = np.trace(cur.reshape(lead + tuple(cur_dims) * 2), axis1=k, axis2=k + len(cur_dims))
        cur_dims.pop(i)
        cur = cur.reshape(lead + (int(np.prod(cur_dims)),) * 2)  # np.prod([]) is 1
    return cur


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2(1-x), with H2(0) = H2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x!r} outside [0, 1]")
    return float(sum(-p * np.log2(p) for p in (x, 1.0 - x) if p > ENTROPY_EIG_FLOOR))


def damping_value_by_decimal(p: float, q: float) -> float:
    """h((1 - p) q) - h(p q) in bits at the floats p and q, in 40-digit decimal arithmetic,
    terms at or below ENTROPY_EIG_FLOOR dropped as the library drops them."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        p, q, floor = Decimal(p), Decimal(q), Decimal(ENTROPY_EIG_FLOOR)

        def h(x):
            return sum(-y * y.ln() / Decimal(2).ln() for y in (x, 1 - x) if y > floor)
        return float(h((1 - p) * q) - h(p * q))


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# -- reference channels --------------------------------------------------


def complementary_channel(v, eta) -> KrausChannel:
    """Channel A -> F leaking into the environment output, for pure ``eta``.

    Mixed environment states are rejected: with a mixed eta this
    construction no longer complements the effective channel.
    """
    v = as_two_qubit(v)
    eta = np.asarray(eta, dtype=complex)
    if eta.ndim != 1:
        raise ValueError("complementary_channel requires a pure environment state")
    k = np.einsum("bfae,e->bfa", v.matrix.reshape(2, 2, 2, 2), check_state_vector(eta))
    return KrausChannel(k)


def entangled_env_channel(v, kappa, dim_h: int | None = None) -> KrausChannel:
    """Channel A -> B (x) H from an environment entangled with a helper H.

    ``kappa`` is a pure state on E (x) H.  The output orders B before H.
    """
    v = as_two_qubit(v)
    kappa = check_state_vector(kappa)
    dim_h = kappa.shape[0] // 2 if dim_h is None else dim_h
    if kappa.shape[0] != 2 * dim_h:
        raise ValueError(f"kappa dimension {kappa.shape[0]} != 2 * dim_h = {2 * dim_h}")
    m = np.einsum("bfae,eh->fbha", v.matrix.reshape(2, 2, 2, 2), kappa.reshape(2, dim_h))
    return KrausChannel(m.reshape(2, 2 * dim_h, 2))


def entangled_helper_coherent_info(v, kappa, rho, dim_h: int | None = None) -> float:
    """Coherent information of the channel A -> B (x) H at input rho."""
    return coherent_info(entangled_env_channel(v, kappa, dim_h), rho)


def swap_factors(gamma):
    """cos^2 and sin^2 of pi gamma / 2, then e^{-i pi gamma} and e^{i pi gamma}."""
    return (np.cos(np.pi * gamma / 2) ** 2, np.sin(np.pi * gamma / 2) ** 2,
            np.exp(-1j * np.pi * gamma), np.exp(1j * np.pi * gamma))


def helper_terms(factors, lam, mu):
    """The diagonal of rho_hb, its |00><11| coherence as root * z and the diagonal
    of rho_f: the entangled-helper outputs at the :func:`swap_factors` of gamma."""
    stay, hop, down, up = factors
    lam1, mu1 = 1 - lam, 1 - mu
    p00 = lam * (mu + mu1 * hop)
    p11 = lam1 * (mu1 + mu * hop)
    root = np.sqrt(np.maximum(lam * lam1, 0.0))
    z = 0.5 - mu / 2 * down - mu1 / 2 * up
    p01 = lam * mu1 * stay
    p10 = mu * lam1 * stay
    f0 = lam * mu + p01 + mu * lam1 * hop
    f1 = lam1 * mu1 + lam * mu1 * hop + p10
    return (p00, p01, p10, p11), root, z, (f0, f1)


def helper_objective(factors, lam, mu):
    """Vectorized entropy difference of the closed-form outputs at :func:`swap_factors`,
    the lower eigenvalue of rho_hb taken as half - r."""
    (p00, p01, p10, p11), root, z, (f0, f1) = helper_terms(
        factors, np.asarray(lam, dtype=float), np.asarray(mu, dtype=float))
    half = (p00 + p11) / 2
    r = np.sqrt(((p00 - p11) / 2) ** 2 + (root * np.abs(z)) ** 2)
    w = np.empty((6,) + half.shape)  # the spectra of rho_hb and rho_f
    w[0], w[1], w[2], w[3], w[4], w[5] = half + r, half - r, p01, p10, f0, f1
    h = entropy_terms(w)
    return h[0] + h[1] + h[2] + h[3] - (h[4] + h[5])


def helper_value_by_decimal(stay: float, hop: float, lam: float, mu: float) -> float:
    """The entangled-helper objective S(rho_hb) - S(rho_f) in bits at the floats
    c = ``stay``, s = ``hop``, lam and mu, in 50-digit decimal arithmetic: the terms of
    :func:`helper_terms` with |z|^2 = s^2 + (1 - 2 mu)^2 s c, the lower eigenvalue of
    rho_hb as half - r.  An eigenvalue whose nearest float is at or below ENTROPY_EIG_FLOOR
    is dropped as the library drops it: at gamma = 1, c = 3.7e-33 lifts mu s = 1e-12 above
    the floor only past the 16th digit."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        c, s, lam, mu = map(Decimal, (stay, hop, lam, mu))
        lam1, mu1 = 1 - lam, 1 - mu
        p00, p11 = lam * (mu + mu1 * s), lam1 * (mu1 + mu * s)
        p01, p10 = lam * mu1 * c, mu * lam1 * c
        half = (p00 + p11) / 2
        r = (((p00 - p11) / 2) ** 2 + lam * lam1 * (s * s + (1 - 2 * mu) ** 2 * s * c)).sqrt()

        def h(*ws):
            return sum(-w * w.ln() / Decimal(2).ln() for w in ws if float(w) > ENTROPY_EIG_FLOOR)
        return float(h(half + r, half - r, p01, p10)
                     - h(lam * mu + p01 + mu * lam1 * s, lam1 * mu1 + lam * mu1 * s + p10))


def swap_power_helper_outputs(gamma: float, lam: float, mu: float):
    """Closed-form output states of the fractional swap with an entangled
    helper.

    The helper state is sqrt(lam)|00> + sqrt(1-lam)|11> on E (x) H and
    the input is diag(mu, 1-mu).  Returns (rho_hb, rho_f): the receiver
    state on H (x) B (helper slot first) and the diagonal environment
    state on F.
    """
    if not (0.0 <= lam <= 1.0 and 0.0 <= mu <= 1.0):
        raise ValueError("lam and mu must lie in [0, 1]")
    diag_hb, root, z, diag_f = helper_terms(swap_factors(gamma), lam, mu)
    rho_hb = np.diag(diag_hb).astype(complex)
    rho_hb[0, 3], rho_hb[3, 0] = root * z, root * np.conj(z)
    return rho_hb, np.diag(diag_f).astype(complex)


#: Geometric seeds pushed toward the mu in {0, 1} corners, where the
#: helper-capacity optimum migrates as the swap exponent grows.
_CORNER_SEEDS = (1e-2, 1e-3, 1e-4, 1e-5)


def swap_power_helper_by_search(gamma: float, opts: OptimizerOptions | None = None) -> CapacityResult:
    """Entangled-helper capacity of the fractional swap by a 2-d search at every
    gamma: the objective on a uniform (lam, mu) grid, then 9 lockstep simplex runs
    (tolerance 1e-5) seeded from the best cell and from geometrically spaced points
    next to the mu corners, with the resolution floor applied.  The library takes
    the centre's closed form below gamma_c and nested 1-d maxima past it."""
    opts = opts or OptimizerOptions()
    n = opts.grid
    xs = np.linspace(0.0, 1.0, n)
    lam_g, mu_g = np.meshgrid(xs, xs, indexing="ij")
    factors = swap_factors(gamma)
    vals = helper_objective(factors, lam_g, mu_g)
    i = np.unravel_index(int(np.argmax(vals)), vals.shape)
    starts = [[lam_g[i], mu_g[i]]] + [[0.5, m] for m0 in _CORNER_SEEDS for m in (m0, 1.0 - m0)]
    z, raw, record = _maximize(lambda z: helper_objective(factors, *np.clip(z, 0.0, 1.0).T),
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


def helper_envelope(gamma: float, mus):
    """lam*(mu), the envelope slope F'(mu) = f_mu there and F(mu) = f in bits at each input
    weight in ``mus``, past gamma_c: lam*(mu) is the root of f_lam by the library's
    :func:`_newton_root`, started from lam = 1/2 at the first weight and from the last root
    after it.  Returns three arrays."""
    c, s = float(np.cos(np.pi * gamma / 2) ** 2), float(np.sin(np.pi * gamma / 2) ** 2)
    lam, out = 0.5, []
    for mu in np.asarray(mus, dtype=float).tolist():
        lam, (_, _, f_mu, f), _ = _newton_root(_helper_slopes(c, s, mu), lam)
        out.append((lam, f_mu(), float(f())))
    return tuple(np.array(col) for col in zip(*out))


def helper_scan(n: int = 64) -> np.ndarray:
    """n input weights in (0, 1/2] for a scan of the entangled helper's envelope past
    gamma_c, a floor for the library's bracketed maximum: 3n/8 geometric ones from
    1e-12, where the maximum sits past gamma = 0.76, then linear ones from 1e-2 to 1/2."""
    k = 3 * n // 8
    return np.concatenate([np.geomspace(1e-12, 1e-2, k, endpoint=False),
                           np.linspace(1e-2, 0.5, n - k)])


def centre_hessian(s):
    """Hessian (2, 2, ...) in (lam, mu) of the fractional swap's entangled-helper
    objective at the centre (1/2, 1/2), in closed form at s = sin^2(pi gamma / 2)
    in (0, 1), derived symbolically."""
    a = np.log1p(3 * s) - np.log1p(-s)
    ll = (s - 1) * ((1 + 3 * s) * a + 4 * s * (2 * s - 1))
    lm = (1 - s) * (4 * s * (2 * s + 1) - (1 + 3 * s) * a)
    mm = (s - 1) * (1 + 3 * s) * a + 4 * s * (2 * s - 1) * (s + 1)
    return np.array([[ll, lm], [lm, mm]]) / (2 * s * np.log(2))


def apply_channel(c: KrausChannel, rho) -> np.ndarray:
    """Channel output sum_i K_i rho K_i^dag."""
    rho = as_complex_matrix(rho)
    if rho.shape != (c.dim_in, c.dim_in):
        raise ValueError(f"input shape {rho.shape} != channel input dim {c.dim_in}")
    return sum(k @ rho @ k.conj().T for k in c.kraus)


def complement_channel(c: KrausChannel) -> KrausChannel:
    """Complementary channel from the canonical dilation of the Kraus list.

    The dilation W|psi> = sum_i (K_i|psi>) (x) |i> fixes the environment
    basis; the complement maps A into that index space.
    """
    return KrausChannel(c.kraus.swapaxes(0, 1))


def choi_state(c: KrausChannel) -> np.ndarray:
    """Choi state (id (x) c)(|Phi><Phi|) on R (x) B, unit trace."""
    d = c.dim_in
    # (I_R (x) K) |Phi> for each Kraus operator (R-major), summed as a mixture
    vecs = (c.kraus @ maximally_entangled(d).reshape(d, d).T).swapaxes(-1, -2)
    return projector(vecs.reshape(len(c.kraus), -1)).sum(0)


def channel_reduction_b(c: KrausChannel) -> np.ndarray:
    """B-side reduction of the Choi state, i.e. c applied to I/d."""
    return partial_trace(choi_state(c), (c.dim_in, c.dim_out), keep=1)


def is_antidegradable_choi(c: KrausChannel, tol: float = 1e-10) -> bool:
    """Choi-spectrum anti-degradability test for qubit channels:
    lambda_max(rho_RB) <= lambda_max(rho_B).

    Requires dim_in = dim_out = 2 and a qubit environment (at most two
    Kraus operators above the weight floor after normal form); raises
    otherwise.
    """
    if c.dim_in != 2 or c.dim_out != 2:
        raise ValueError("Choi criterion applies to qubit-to-qubit channels")
    ops, weights = normal_form_stack(c.kraus)
    rank = int((weights > KRAUS_WEIGHT_FLOOR).sum())
    if rank > 2:
        raise ValueError(f"environment rank {rank} > 2: Choi criterion inapplicable")
    nf = KrausChannel(ops[:rank])
    lmax_rb = float(np.linalg.eigvalsh(choi_state(nf)).max())
    lmax_b = float(np.linalg.eigvalsh(channel_reduction_b(nf)).max())
    return lmax_rb <= lmax_b + tol


# -- searches and one-at-a-time kernels ----------------------------------


def _clip_ball(x: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(x)
    return x / r if r > 1.0 else x


def ball_grid(n: int) -> np.ndarray:
    """Points of the n x n x n Cartesian grid on [-1, 1]^3 inside the unit ball."""
    xs = np.linspace(-1.0, 1.0, n)
    x, y, z = np.meshgrid(xs, xs, xs, indexing="ij")
    pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    return pts[np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12]


def jammer_affine(v: BipartiteUnitary, rho: np.ndarray):
    """Rows (D_0, ..., D_3) of the jammer output rho_RB(r) = D_0 + sum_i r_i D_i
    on B (x) R, with R purifying ``rho`` by the amplitudes u sqrt(w) of its
    spectrum, flattened to (4, 16); and those of rho_B = Tr_R rho_RB, (4, 4)."""
    w, u = np.linalg.eigh(rho)
    x = np.einsum("bfae,ak->bfke", v.matrix.reshape(2, 2, 2, 2), u * np.sqrt(np.maximum(w, 0.0)))
    etas = bloch_density(np.vstack([np.zeros(3), np.eye(3)]))
    rb = np.einsum("bfke,ned,cfld->nbkcl", x, etas, x.conj())
    rb[1:] -= rb[0]  # the map at I/2, then at sigma_i/2
    return rb.reshape(4, 16), np.einsum("nbkck->nbc", rb).reshape(4, 4)


def jammer_ic(coeffs, r):
    """S(rho_B) - S(rho_RB) at environment Bloch vectors ``r`` (clipped to the
    ball) over its leading axes; rho_RB has the canonical complement's spectrum."""
    rb, b = coeffs
    r = r / np.maximum(np.linalg.norm(r, axis=-1, keepdims=True), 1.0)
    rho_rb = (rb[0] + r @ rb[1:]).reshape(r.shape[:-1] + (4, 4))
    rho_b = (b[0] + r @ b[1:]).reshape(r.shape[:-1] + (2, 2))
    return entropy_from_eigvals(eigvals2(rho_b)) - entropy_from_eigvals(np.linalg.eigvalsh(rho_rb))


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
        coeffs = jammer_affine(v, bloch_density(_clip_ball(r)))
        vals = jammer_ic(coeffs, eta_grid)
        i = int(np.argmin(vals))
        x, negv, _ = _maximize(lambda e: -jammer_ic(coeffs, e),
                               [eta_grid[i]], 0.15, 1e-7, max_iters,
                               best=(eta_grid[i], -float(vals[i])))
        argmins[r.tobytes()] = _clip_ball(x)
        return -negv

    rho_grid = ball_grid(rho_grid_n)
    scores = np.array([jammer_ic(jammer_affine(v, bloch_density(x)), eta_grid).min()
                       for x in rho_grid])
    i0 = int(np.argmax(scores))
    x, val, _ = _maximize(lambda rs: np.array([inner_min(r) for r in rs]), [rho_grid[i0]],
                          0.2, 1e-6, max(60, max_iters // 4))
    return float(val), _clip_ball(x), argmins[x.tobytes()]


def extension_slack_by_pauli_weights(params) -> float:
    """1/2 - sum p^2 + 4 sqrt(prod p) for the canonical gate at ``params``: its channel at
    the environment I/2 is the Pauli channel of Bloch factors lam_x = cos a_y cos a_z
    (and permutations), with weights p = (1 +- lam_x +- lam_y +- lam_z)/4 over the
    sign patterns with an even number of minus signs, the spectrum of its Choi state,
    whose output marginal is I/2."""
    ax, ay, az = params
    lam = np.array([np.cos(ay) * np.cos(az), np.cos(ax) * np.cos(az), np.cos(ax) * np.cos(ay)])
    signs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    p = (1 + signs @ lam) / 4
    return float(0.5 - p @ p + 4 * np.sqrt(max(0.0, np.prod(p))))


#: 1/phi, the golden-section ratio.
INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, tol: float, max_iters: int):
    """Golden-section search for the maximum of a concave ``f`` on [0, 1],
    until the bracket is ``tol`` wide or after ``max_iters`` steps.

    Returns the final points a < c < d < b and their values.
    """
    a, c, d, b = 0.0, 1.0 - INV_PHI, INV_PHI, 1.0
    fa, fc, fd, fb = map(f, (a, c, d, b))
    for _ in range(max_iters):
        if b - a <= tol:
            break
        if fc >= fd:  # the maximum lies in [a, d]
            b, fb, d, fd = d, fd, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:  # in [c, b]
            a, fa, c, fc = c, fc, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    return np.array([a, c, d, b]), np.array([fa, fc, fd, fb])


def concave_upper(x: np.ndarray, y: np.ndarray) -> float:
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


def symmetric_helper_by_golden(v, tol: float = 1e-8, max_iters: int = 500):
    """(best value, concave upper bound) of I_c over the inputs diag(1 - q, q)
    at the environment |0>, by golden section over q: the separable-helper
    capacity of a gate that commutes with every u (x) u.  (0.0, 0.0) where the
    Choi criterion finds that channel anti-degradable."""
    channel = effective_channel(v, np.array([1, 0], dtype=complex))
    if is_antidegradable_choi(channel):
        return 0.0, 0.0
    x, y = golden_max(lambda q: coherent_info(channel, np.diag([1 - q, q])), tol, max_iters)
    return float(y.max()), concave_upper(x, y)


def b2_best_over_theta(t: float, extra_grid: int = 33) -> tuple[float, float]:
    """Best b2 value over the default theta slices plus a log-spaced grid.

    Returns (value, argmax theta), locating the theta window where b2
    stays positive.
    """
    thetas = list(B2_THETAS) + list(np.geomspace(2.0 ** -16, 0.5, extra_grid))
    vals = [b2_curve(t, th) for th in thetas]
    i = int(np.argmax(vals))
    return vals[i], thetas[i]


def in_degradable_region_by_swap(params) -> bool:
    """Universal degradability by composing the gate with SWAP and extracting
    the canonical angles of the product numerically."""
    swapped = SWAP @ canonical_unitary(params).matrix
    folded = fold_to_fundamental(decompose_params(swapped))
    return in_antidegradable_region(folded, tol=1e-9)


#: Makhlin's magic basis, kept apart from ``envcap.canonical.MAGIC``.
MAKHLIN_Q = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]) / np.sqrt(2)


def makhlin_invariants(u) -> tuple[complex, complex]:
    """The local invariants (G1, G2) of a two-qubit gate (Makhlin, "Nonlocal
    properties of two-qubit gates and mixed states", 2002), from traces of
    m = U_B^T U_B with U_B the gate in Makhlin's magic basis; no eigenphase
    enters.  G2 is real, and complex conjugation of the gate conjugates both."""
    ub = MAKHLIN_Q.conj().T @ as_two_qubit(u).matrix @ MAKHLIN_Q
    m = ub.T @ ub
    det, tr = np.linalg.det(ub), np.trace(m)
    return tr ** 2 / (16 * det), (tr ** 2 - np.trace(m @ m)) / (4 * det)


def same_bits(a, b) -> bool:
    """Whether two arrays (or numbers) hold the same doubles bit for bit,
    signs of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def fold_by_python(raw) -> tuple:
    """:func:`fold_to_fundamental` of one point, an angle at a time in
    Python floats."""
    folded = (float(a) % np.pi for a in raw)
    return tuple(sorted((np.pi - a if a > np.pi / 2 else a for a in folded), reverse=True))


def in_antidegradable_by_python(params, tol: float = 1e-12) -> bool:
    """:func:`in_antidegradable_region` of one point in Python floats."""
    ax, ay, az = map(float, params)
    cut = np.pi / 2 - tol
    return ax + ay >= cut and ay + az >= cut and az + ax >= cut


def in_degradable_by_python(params) -> bool:
    """:func:`in_degradable_region` of one point in Python floats."""
    return in_antidegradable_by_python(fold_by_python(float(a) + np.pi / 2 for a in params),
                                       tol=1e-9)


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


def degenerate_weights(v, etas) -> np.ndarray:
    """States whose two Kraus weights agree to 1e-6: the Gram spectrum of
    the effective Kraus pair is (1, 1)."""
    k = batch_effective_kraus(v, etas)
    w = eigvals2(np.einsum("niba,njba->nij", k.conj(), k))
    return w[:, 1] - w[:, 0] <= 1e-6


#: The Pauli matrices sigma_x, sigma_y, sigma_z.
PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, -1j], [1j, 0]]),
          np.array([[1, 0], [0, -1]], dtype=complex))


def bloch_determinant_index(v, eta) -> float:
    """det T_N - det T_Nc of one pure environment state, with the Bloch
    matrices T[i, j] = Tr(sigma_i N(sigma_j)) / 2 of the effective and the
    complementary channel taken by Pauli traces of their Kraus lists."""
    def det_t(ch):
        return np.linalg.det([[np.trace(si @ apply_channel(ch, sj)).real / 2 for sj in PAULIS]
                              for si in PAULIS])
    return float(det_t(effective_channel(v, eta)) - det_t(complementary_channel(v, eta)))


def two_copy_output(w, v, theta: float | None = None) -> np.ndarray:
    """Five-qubit output state on B', F', B, F, R of the gate matrices w, v
    run side by side, through explicit Kronecker products: |0> on A' and
    maximally entangled pairs on E'E and AR, or at ``theta`` |1> on A' and
    sqrt(theta)|00> + sqrt(1-theta)|11> on AR."""
    if theta is None:
        aprime, inp = np.array([1, 0], complex), maximally_entangled(2)
    else:
        aprime = np.array([0, 1], complex)
        inp = np.array([np.sqrt(theta), 0, 0, np.sqrt(1.0 - theta)], complex)
    psi = np.kron(np.kron(aprime, maximally_entangled(2)), inp)
    # wires A', E', E, A, R -> A', E', A, E, R
    psi = psi.reshape(2, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(32)
    phi = np.kron(np.kron(w, v), np.eye(2, dtype=complex)) @ psi
    return np.outer(phi, phi.conj())


def two_copy_by_kron(w, v, theta: float | None = None) -> float:
    """S(B'B) - S(F'F) of :func:`two_copy_output`."""
    out = two_copy_output(w, v, theta)
    rho_bb = partial_trace(out, (2,) * 5, keep=(0, 2))
    rho_ff = partial_trace(out, (2,) * 5, keep=(1, 3))
    return entropy(rho_bb, validate=False) - entropy(rho_ff, validate=False)


def csv_by_value(cfg, header, rows) -> str:
    """The CLI's CSV text with every cell formatted on its own, as a plain
    join of ``_format_value``; ``cfg.no_timestamp`` must be set."""
    lines = [f"# envcap {__version__}", f"# config: {cfg.to_json()}", ",".join(header)]
    lines += [",".join(_format_value(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def json_by_row(header, rows) -> str:
    """The CLI's JSON text with one ``json.dumps(..., sort_keys=True)`` per
    row: numpy bools and integers as Python's, Python bools and numbers as
    they are, every other value as its text."""
    def value(x):
        if isinstance(x, (np.bool_, np.integer)):
            return x.item()
        return x if isinstance(x, (bool, int, float)) else str(x)
    return "\n".join(json.dumps({key: value(x) for key, x in zip(header, row)}, sort_keys=True)
                     for row in rows) + "\n"
