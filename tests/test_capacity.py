import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from envcap.canonical import (
    CNOT,
    SWAP,
    canonical_unitary,
    decompose_params,
    in_antidegradable_region,
    swap_power,
)
from envcap.channels import BipartiteUnitary, KrausChannel, effective_channel
from envcap import capacity
from envcap.capacity import (
    _EXTENSION_MARGIN,
    _NEWTON_STEPS,
    _RHO_CANDIDATES,
    BracketError,
    OptimizerOptions,
    _bloch_coherent_info,
    _centre_curvature,
    _coherent_info,
    _extension_slack,
    _helper_slopes,
    _symmetric_branch_end,
    coherent_info,
    find_zero_crossing,
    jammer_value,
    max_coherent_info,
    separable_helper_capacity,
    swap_power_helper_capacity,
    two_copy_curve,
)
from envcap.degradability import (
    SYMMETRIC_TOL,
    Degradability,
    batch_degradability_index,
    bloch_sphere_grid,
    classify_envs,
    is_universally_antidegradable,
)
from envcap.experiments import A3_FAMILIES
from envcap.linalg import (
    bloch_density,
    check_density_matrix,
    entropy,
    entropy_from_eigvals,
    entropy_terms,
    haar_unitary,
    maximally_entangled,
    projector,
)
from oracles import (
    apply_channel,
    binary_entropy,
    centre_hessian,
    choi_state,
    damping_value_by_decimal,
    entangled_env_channel,
    entangled_helper_coherent_info,
    extension_slack_by_pauli_weights,
    helper_envelope,
    helper_objective,
    helper_scan,
    helper_terms,
    helper_value_by_decimal,
    jammer_affine,
    jammer_ic,
    jammer_search,
    maximally_mixed,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    region_points,
    same_bits,
    swap_factors,
    swap_power_helper_by_search,
    swap_power_helper_outputs,
    symmetric_helper_by_golden,
    tensor,
    two_copy_by_kron,
    two_copy_output,
)

PI = np.pi
SRC = Path(__file__).resolve().parents[1] / "src"
KET0 = np.array([1, 0], dtype=complex)
FAST_OPTS = OptimizerOptions(restarts=4, grid=32, max_iters=400)
#: Where the entangled helper's maximum leaves the centre (1/2, 1/2).
GAMMA_C = 2 / PI * np.arcsin(np.sqrt(_symmetric_branch_end()))

#: (canonical point in units of pi, jammer value) of gates with a positive
#: value, frozen from the nested max-min search at its default 17/9 grids.
JAMMER_POSITIVE = (((0.1, 0.05, 0.02), 0.7697479960752763),
                   ((0.2, 0.1, 0.0), 0.379600589431458),
                   ((0.3, 0.1, 0.05), 0.06457670876978083))

#: (canonical point in units of pi, upper end U of the jammer bracket) at
#: default options.  The first four are frozen from the random-restart input
#: search that the candidate seeding replaced; the other 16, the benchmark's
#: pool gates at its reference parameters (their U a round-off zero), from the
#: search that still contracted the Kraus stack at every step.
JAMMER_UPPER = (((0.25, 0.25, 0.25), 6.661338147750939e-16),
                ((0.1, 0.05, 0.02), 0.7697479960752799),
                ((0.2, 0.1, 0.0), 0.3796005894314599),
                ((0.3, 0.1, 0.05), 0.06457670876978316),
                ((0.3927966448643869, 0.16212729795071423, 0.11234086378628369),
                 8.881784197001252e-16),
                ((0.4241014394766692, 0.2248282051731368, 0.06375268142580087),
                 8.881784197001252e-16),
                ((0.49337097066572316, 0.30501913240630707, 0.08875010472836255),
                 4.440892098500626e-16),
                ((0.41904530025296743, 0.24598895991767808, 0.2164876450903192),
                 6.661338147750939e-16),
                ((0.4575791256758162, 0.33139507472342133, 0.10886605650760382),
                 4.440892098500626e-16),
                ((0.3955819443088661, 0.1541508970436157, 0.07241714456933292),
                 8.881784197001252e-16),
                ((0.4883469095578362, 0.22466607598870428, 0.03203193192136637),
                 7.771561172376096e-16),
                ((0.4886358164866866, 0.17931186341636074, 0.07279574325764455),
                 9.992007221626409e-16),
                ((0.48814155232539413, 0.09754465189774429, 0.05120872985951821),
                 9.43689570931383e-16),
                ((0.37192379708197715, 0.12797243582305626, 0.018246611998741575),
                 8.881784197001252e-16),
                ((0.4802025802026752, 0.04340389359936946, 0.02023769436871627),
                 1.0685896612017132e-15),
                ((0.45174428799179484, 0.3051946493755954, 0.10683154188954425),
                 4.440892098500626e-16),
                ((0.47032814652337157, 0.32148973323513447, 0.06966360636838063),
                 4.440892098500626e-16),
                ((0.4493294736541343, 0.23401146143146992, 0.20686872409512094),
                 6.661338147750939e-16),
                ((0.41049333797718157, 0.2611709387181033, 0.03615874833259403),
                 6.661338147750939e-16),
                ((0.39085497934030433, 0.3124834901262781, 0.037642871691026925),
                 5.551115123125783e-16))


def mixed_env_kraus(v) -> np.ndarray:
    """The Kraus stack of N_{I/2}, the channel whose upper end the jammer bounds."""
    return effective_channel(v, maximally_mixed(2)).kraus


def slack_input(kraus) -> tuple:
    """The input of :func:`_extension_slack` for a qubit Kraus stack (k, 2, 2): N(I/2)
    and the ascending spectrum of N~(I/2), the complement's output."""
    out, comp = capacity._outputs(kraus, maximally_mixed(2))
    return out, np.linalg.eigvalsh(comp)


def dress(u, rng):
    """``u`` between two random local gates."""
    return (tensor(haar_unitary(2, rng), haar_unitary(2, rng)) @ u
            @ tensor(haar_unitary(2, rng), haar_unitary(2, rng)))


def identity_channel():
    return KrausChannel((np.eye(2, dtype=complex),))


def a1_eigenvalue_formula(gamma):
    """Receiver spectrum of the swap-edge family, evaluated directly."""
    e1 = (5 - 3 * np.cos(PI * gamma)) / 8
    e3 = (1 + np.cos(PI * gamma)) / 8
    s = 0.0
    for lam, mult in ((e1, 1), (e3, 3)):
        if lam > 1e-12:
            s -= mult * lam * np.log2(lam)
    return s - 1.0


class TestCoherentInfo:
    def test_identity_channel_maximally_mixed(self):
        assert coherent_info(identity_channel(), maximally_mixed(2)) == pytest.approx(
            1.0, abs=1e-12)

    def test_sqrt_swap_vanishes_everywhere(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            ch = effective_channel(swap_power(0.5), random_pure_state(2, rng))
            rho = random_density_matrix(2, rng)
            assert abs(coherent_info(ch, rho)) < 1e-9

    def test_constant_channel(self):
        rng = np.random.default_rng(71)
        ch = effective_channel(SWAP, random_pure_state(2, rng))
        pure = projector(random_pure_state(2, rng))
        assert coherent_info(ch, pure) == pytest.approx(0.0, abs=1e-10)
        assert coherent_info(ch, maximally_mixed(2)) == pytest.approx(-1.0, abs=1e-10)

    def test_purity_balance(self):
        # with a unitary dilation, pure environment and pure input the
        # global output is pure, so both reductions share a spectrum
        rng = np.random.default_rng(72)
        for _ in range(25):
            ch = effective_channel(haar_unitary(4, rng), random_pure_state(2, rng))
            rho = projector(random_pure_state(2, rng))
            assert abs(coherent_info(ch, rho)) < 1e-9

    def test_input_of_the_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="input shape"):
            coherent_info(identity_channel(), np.eye(3) / 3)


class TestMaxCoherentInfo:
    def test_identity(self):
        res = max_coherent_info(identity_channel(), FAST_OPTS)
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert np.abs(res.argmax_input - maximally_mixed(2)).max() < 1e-3

    def test_antidegradable_swap_power(self):
        ch = effective_channel(swap_power(0.75), KET0)
        res = max_coherent_info(ch, FAST_OPTS)
        assert res.value <= 1e-9

    def test_completely_dephasing(self):
        ch = effective_channel(CNOT, KET0)
        res = max_coherent_info(ch, FAST_OPTS)
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_concavity_on_degradable_channels(self):
        rng = np.random.default_rng(73)
        checked = 0
        while checked < 50:
            v = haar_unitary(4, rng)
            eta = random_pure_state(2, rng)
            if classify_envs(v, eta[None])[0].tag is not Degradability.DEGRADABLE:
                continue
            ch = effective_channel(v, eta)
            r1 = random_density_matrix(2, rng)
            r2 = random_density_matrix(2, rng)
            mid = coherent_info(ch, (r1 + r2) / 2)
            avg = (coherent_info(ch, r1) + coherent_info(ch, r2)) / 2
            assert mid >= avg - 1e-9
            checked += 1

    def test_antidegradable_zero_bound(self):
        rng = np.random.default_rng(74)
        checked = 0
        while checked < 10:
            v = haar_unitary(4, rng)
            eta = random_pure_state(2, rng)
            if classify_envs(v, eta[None])[0].tag is not Degradability.ANTI_DEGRADABLE:
                continue
            res = max_coherent_info(effective_channel(v, eta), FAST_OPTS)
            assert res.value <= 1e-6
            checked += 1

    @pytest.mark.parametrize("restarts", [1, 4, 8, 13, 20])
    def test_starts_are_the_best_scoring_candidates(self, restarts, monkeypatch):
        # best first, ties in candidate order, 13 at most; the record counts the runs
        seen, minimize = [], capacity.minimize

        def recorded(f, starts, *args):
            seen.append(np.array(starts))
            return minimize(f, starts, *args)

        monkeypatch.setattr(capacity, "minimize", recorded)
        rng = np.random.default_rng(75)
        mixed = maximally_mixed(2)
        channels = [identity_channel(), effective_channel(swap_power(0.3), KET0),
                    effective_channel(canonical_unitary((PI / 4,) * 3), mixed)]
        channels += [effective_channel(haar_unitary(4, rng), random_pure_state(2, rng))
                     for _ in range(3)]
        for ch in channels:
            scores = _coherent_info(ch.kraus, bloch_density(_RHO_CANDIDATES))
            for r, score in zip(_RHO_CANDIDATES, scores):
                assert abs(score - coherent_info(ch, bloch_density(r))) < 1e-12
            order = sorted(range(13), key=lambda i: -scores[i])[:restarts]
            seen.clear()
            res = max_coherent_info(ch, OptimizerOptions(restarts=restarts, max_iters=100))
            assert len(seen) == 1
            assert same_bits(seen[0], _RHO_CANDIDATES[order])
            d = res.diagnostics
            assert d["restarts"] == len(d["restart_values"]) == min(restarts, 13)
            assert res.value >= scores.max()
        # the identity channel ties its axes: its order is the candidates' own
        ties = _coherent_info(np.eye(2, dtype=complex)[None], bloch_density(_RHO_CANDIDATES))
        assert (ties[1:7] == ties[1]).sum() > 1


    def test_affine_objective_matches_contraction(self):
        # 1, 2 and 4 Kraus operators; Bloch vectors inside, on and outside the ball
        rng = np.random.default_rng(79)
        channels = [identity_channel(),
                    KrausChannel((haar_unitary(2, rng),)),
                    effective_channel(canonical_unitary((PI / 4,) * 3), maximally_mixed(2))]
        channels += [effective_channel(haar_unitary(4, rng), env)
                     for env in (random_pure_state(2, rng), projector(KET0),
                                 random_density_matrix(2, rng), random_density_matrix(2, rng))]
        assert {len(ch.kraus) for ch in channels} == {1, 2, 4}
        unit = rng.standard_normal((64, 3))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        inside = unit * rng.uniform(0.0, 1.0, (64, 1))
        outside = unit * rng.uniform(1.0, 4.0, (64, 1))
        x = np.vstack([inside, unit, outside, np.zeros(3), _RHO_CANDIDATES, 0.5 * np.eye(3)])
        for ch in channels:
            kraus = ch.kraus
            got = _bloch_coherent_info(kraus)(x)
            assert got.shape == (len(x),)
            assert np.abs(got - _coherent_info(kraus, bloch_density(x))).max() <= 1e-14
            # points outside the ball take the value of their surface point
            assert np.abs(got[128:192] - got[64:128]).max() <= 1e-14

    def test_best_candidate_score_is_a_floor(self, monkeypatch):
        # the best candidate seeds the result, so round-off in the affine
        # objective cannot leave U below a candidate's coherent information:
        # shifted far down, the search never beats the seed, which stands
        rng = np.random.default_rng(80)
        channels = [identity_channel(), effective_channel(swap_power(0.3), KET0)]
        channels += [effective_channel(canonical_unitary(tuple(PI * a for a in p)),
                                       maximally_mixed(2)) for p, _ in JAMMER_UPPER[:4]]
        channels += [effective_channel(haar_unitary(4, rng), env)
                     for env in (random_pure_state(2, rng), random_density_matrix(2, rng))
                     for _ in range(4)]
        scores = [_coherent_info(ch.kraus, bloch_density(_RHO_CANDIDATES))
                  for ch in channels]
        for ch, s in zip(channels, scores):
            for max_iters in (1, 2, 500):
                res = max_coherent_info(ch, OptimizerOptions(restarts=3, max_iters=max_iters))
                assert res.value == res.diagnostics["raw_value"] >= s.max()
        affine = capacity._bloch_coherent_info
        monkeypatch.setattr(capacity, "_bloch_coherent_info",
                            lambda kraus: lambda x: affine(kraus)(x) - 10.0)
        for ch, s in zip(channels, scores):
            res = max_coherent_info(ch, OptimizerOptions(restarts=3, max_iters=20))
            assert res.value == s.max()
            assert max(res.diagnostics["restart_values"]) < s.max() - 8.0
            assert same_bits(res.argmax_input, bloch_density(_RHO_CANDIDATES[np.argmax(s)]))


class TestSeparableHelperCapacity:
    def test_identity_gate(self):
        res = separable_helper_capacity(np.eye(4, dtype=complex), FAST_OPTS)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_cnot(self):
        res = separable_helper_capacity(CNOT, FAST_OPTS)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("gamma", [0.5, 0.7, 1.0])
    def test_swap_powers_vanish(self, gamma):
        res = separable_helper_capacity(swap_power(gamma), FAST_OPTS)
        assert res.value == 0.0

    def test_bounded_by_one_qubit(self):
        rng = np.random.default_rng(75)
        for _ in range(3):
            res = separable_helper_capacity(haar_unitary(4, rng), FAST_OPTS)
            assert res.value <= 1.0 + 1e-9

    def test_grid_of_poles_rejected(self):
        # grid 2 holds only |0> and |1>, which gives CNOT the value 0
        with pytest.raises(ValueError, match="grid"):
            separable_helper_capacity(CNOT, OptimizerOptions(grid=2))
        res = separable_helper_capacity(CNOT, OptimizerOptions(grid=3))
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_closed_form_builds_no_options(self, monkeypatch):
        # only the search reads opts, so a swap-symmetric gate never builds the defaults
        monkeypatch.setattr(capacity, "OptimizerOptions", None)
        assert separable_helper_capacity(swap_power(0.3)).value > 0

    def test_local_unitary_and_canonical_invariance(self):
        # the capacity depends only on the canonical point: local unitaries
        # on A, E (before) and B, F (after) and complex conjugation keep it
        rng = np.random.default_rng(80)  # three gates with positive capacity
        opts = OptimizerOptions(grid=16)
        for _ in range(3):
            u = haar_unitary(4, rng)
            c = canonical_unitary(decompose_params(u)).matrix
            dressed = (tensor(haar_unitary(2, rng), haar_unitary(2, rng)) @ c
                       @ tensor(haar_unitary(2, rng), haar_unitary(2, rng)))
            vals = [separable_helper_capacity(g, opts).value
                    for g in (u, c, dressed, dressed.conj())]
            assert vals[0] > 0.1
            assert np.ptp(vals) < 1e-7, vals


    def test_symmetric_skip_rule_is_the_index_at_ket0(self):
        # for aI + bSWAP the index at |0> is (1 - p)^2 - p^2 = 1 - 2p, with p the damping
        # near gamma = 1/2 the index 1 - 2p ~ -pi (gamma - 1/2) straddles SYMMETRIC_TOL
        gammas = np.concatenate([np.linspace(-1.0, 2.0, 61), 0.5 + 1e-10 * np.arange(-6, 7)])
        gates = [swap_power(g) for g in gammas]
        gates += [canonical_unitary((a, a, a)) for a in np.linspace(-PI, PI, 61)]
        for v in gates:
            assert capacity._swap_symmetric(v)
            index = batch_degradability_index(v, KET0[None])[0]
            res = separable_helper_capacity(v)
            assert abs(index - (1 - 2 * res.diagnostics["damping"])) < 1e-14
            assert res.diagnostics["n_degradable"] == int(index > SYMMETRIC_TOL)

    def test_skip_rule_is_the_universal_scan(self):
        # the search skips the states whose index is at most SYMMETRIC_TOL, so it
        # has a state to refine exactly where the universal scan fails
        etas = bloch_sphere_grid(32, 32)[0]
        for p in region_points(5):
            v = canonical_unitary(p)
            universal = is_universally_antidegradable(v, 32)
            assert (batch_degradability_index(v, etas) > SYMMETRIC_TOL).any() == (not universal), p
            if universal and not capacity._swap_symmetric(v):
                diag = separable_helper_capacity(v, OptimizerOptions(grid=32)).diagnostics
                assert diag["n_degradable"] == 0 and diag["restarts"] == 0, p
        # a point of A that is not swap-symmetric skips every state at the default grid
        p = (PI / 2, PI / 2, 0.0)
        assert in_antidegradable_region(p) and not capacity._swap_symmetric(canonical_unitary(p))
        res = separable_helper_capacity(canonical_unitary(p))
        assert res.value == 0.0
        assert res.diagnostics["n_degradable"] == 0 and res.diagnostics["restarts"] == 0


class TestSeparableHelperSymmetry:
    """Gates that commute with every u (x) u take a closed-form branch, which
    rests on three facts: every pure environment gives a channel unitarily
    equivalent to that of |0>, that channel is amplitude damping up to an
    output unitary, and on degradable channels I_c is concave, so diagonal
    inputs suffice.  The golden-section oracle checks the closed form."""

    #: Values of the swap powers, frozen from the grid-and-simplex search.
    FROZEN = ((8 / 63, 0.8607382628039882), (16 / 63, 0.6015333406333623),
              (24 / 63, 0.2984930490900881), (31 / 63, 0.02003278056585578))

    def test_collective_commutator(self):
        rng = np.random.default_rng(90)
        for g in (0.0, 0.3, 0.5, 1.0):
            assert capacity._swap_symmetric(swap_power(g))
        for a in (0.1, 0.7, PI / 4):
            assert capacity._swap_symmetric(canonical_unitary((a, a, a)))
        assert not capacity._swap_symmetric(BipartiteUnitary(CNOT))
        assert not capacity._swap_symmetric(BipartiteUnitary(haar_unitary(4, rng)))

    def test_environments_unitarily_equivalent(self):
        rng = np.random.default_rng(91)
        for g in (0.2, 0.4, 0.7):
            v = swap_power(g)
            n0 = effective_channel(v, KET0)
            for _ in range(10):
                u = haar_unitary(2, rng)
                rho = random_density_matrix(2, rng)
                want = coherent_info(n0, rho)
                got = coherent_info(effective_channel(v, u @ KET0), u @ rho @ u.conj().T)
                assert abs(got - want) < 1e-12

    def test_diagonal_inputs_suffice(self):
        rng = np.random.default_rng(92)
        for g in (8 / 63, 0.3, 31 / 63):
            value = separable_helper_capacity(swap_power(g)).value
            n0 = effective_channel(swap_power(g), KET0)
            for _ in range(200):
                assert coherent_info(n0, random_density_matrix(2, rng)) <= value + 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 8 / 63, 16 / 63, 24 / 63, 0.6, 1.0])
    def test_dressed_gate_takes_the_search(self, gamma):
        rng = np.random.default_rng(93)
        dressed = (tensor(haar_unitary(2, rng), haar_unitary(2, rng)) @ swap_power(gamma).matrix
                   @ tensor(haar_unitary(2, rng), haar_unitary(2, rng)))
        assert not capacity._swap_symmetric(BipartiteUnitary(dressed))
        searched = separable_helper_capacity(dressed)
        branch = separable_helper_capacity(swap_power(gamma))
        assert "bracket" not in searched.diagnostics
        assert "bracket" in branch.diagnostics
        assert abs(searched.value - branch.value) < 1e-7

    def test_frozen_values(self):
        for g, want in self.FROZEN:
            res = separable_helper_capacity(swap_power(g))
            assert res.value == pytest.approx(want, abs=1e-9)
            lo, hi = res.diagnostics["bracket"]
            assert lo == res.value <= hi <= lo + 1e-9
        assert separable_helper_capacity(swap_power(32 / 63)).value == 0.0

    def test_bracket_holds_before_convergence(self):
        # the golden-section oracle's (best point, concave upper) bounds the
        # closed form after any number of steps
        for g in (0.0, 8 / 63, 0.3, 31 / 63):
            want = separable_helper_capacity(swap_power(g)).value
            for steps in range(1, 25):
                lo, hi = symmetric_helper_by_golden(swap_power(g), max_iters=steps)
                assert lo - 1e-15 <= want <= hi + 1e-15

    def test_closed_form_matches_golden_section(self):
        # a = pi/4 gives p = 1/2 up to round-off, where I_c vanishes only to
        # a few 1e-16: the degradability test, not the root, makes it zero;
        # a = 1e-13 gives p = 1e-26, below what 1 - p and p * q resolve
        gates = [swap_power(g) for g in np.linspace(0.0, 1.0, 64)]
        gates += [canonical_unitary((a, a, a)) for a in [*np.linspace(0.0, PI / 2, 41), 1e-13]]
        for v in gates:
            res = separable_helper_capacity(v)
            want, _ = symmetric_helper_by_golden(v)
            assert abs(res.value - want) < 1e-12
            assert (res.value == 0.0) == (want == 0.0)
            lo, hi = res.diagnostics["bracket"]
            assert lo == res.value <= hi <= lo + 1e-9
            assert res.diagnostics["nfev"] == res.diagnostics["restarts"] == 0

    def test_root_contract(self, monkeypatch):
        # on a log grid of the damping p up to the degradability edge and on every eh_swap
        # row at grid 200: q lies one float from a sign change of the slope (or on a zero),
        # the value is f(q) to round-off and the bracket is at round-off; the Newton loop
        # ends well under its cap, also where every iterate between the first and the last
        # lies on one side of the root.  The value is checked against coherent_info on the
        # rows; on the grid, against f(q) in decimal arithmetic, as coherent_info's small
        # eigenvalue half - r is off by up to 1e-16, which -x log x makes 1.9e-15 at
        # p = 2.9e-11
        newton, runs = capacity._newton_root, []

        def recorded(slopes, *args, **kwargs):
            signs = []

            def probe(q):
                at = slopes(q)
                signs.append(at[0] > 0)
                return at
            out = newton(probe, *args, **kwargs)
            runs.append((out[0], slopes, signs, out[2]))
            return out

        monkeypatch.setattr(capacity, "_newton_root", recorded)
        ps = np.geomspace(1e-30, 0.5 - 2 * SYMMETRIC_TOL, 120)
        gates = [swap_power(2 / PI * np.arcsin(np.sqrt(p))) for p in ps]
        gates += [swap_power(g) for g in np.linspace(0.0, 1.0, 200)]
        one_sided = 0
        for k, v in enumerate(gates):
            row = k >= ps.size
            n = len(runs)
            res = separable_helper_capacity(v)
            p = res.diagnostics["damping"]
            if 1 - 2 * p <= SYMMETRIC_TOL:
                assert len(runs) == n
                continue
            assert len(runs) == n + 1, p
            q, slopes, signs, calls = runs[-1]
            slope = slopes(q)[0]
            assert slope == 0.0 or any((slopes(math.nextafter(q, end))[0] > 0) != (slope > 0)
                                       for end in (0.0, 1.0)), p
            raw = res.diagnostics["raw_value"]
            assert abs(raw - damping_value_by_decimal(p, q)) <= 5e-16, p
            if row:
                want = coherent_info(effective_channel(v, KET0), np.diag([1 - q, q]))
                assert abs(raw - want) <= 1e-15, p
            lo, hi = res.diagnostics["bracket"]
            assert lo == res.value and hi - lo <= 1e-15, p
            assert calls <= 16 < _NEWTON_STEPS, p  # Newton's pace; bisection takes about 55
            one_sided += len(signs) > 2 and len(set(signs[1:-1])) == 1
        assert len(runs) == 120 + 100 and one_sided >= 50

    def test_amplitude_damping_closed_form(self):
        # the value is h((1 - p) q) - h(p q) at the |1> population q
        for g in np.linspace(0.0, 1.0, 64):
            res = separable_helper_capacity(swap_power(g))
            p = res.diagnostics["damping"]
            assert abs(p - np.sin(PI * g / 2) ** 2) < 1e-15
            if res.value > 0.0:
                q = res.argmax_input[1, 1].real
                want = binary_entropy((1 - p) * q) - binary_entropy(p * q)
                assert abs(res.value - want) < 1e-14

    def test_identity_gate_exact(self):
        res = separable_helper_capacity(np.eye(4, dtype=complex))
        assert res.value == 1.0
        assert np.array_equal(res.argmax_input, np.eye(2) / 2)
        assert res.diagnostics["bracket"] == (1.0, 1.0)

    def test_argmax_in_the_callers_frame(self):
        res = separable_helper_capacity(swap_power(0.3))
        assert np.allclose(res.argmax_env, KET0)
        ch = effective_channel(swap_power(0.3), res.argmax_env)
        assert coherent_info(ch, res.argmax_input) == pytest.approx(res.value, abs=1e-15)


class TestJammer:
    def test_product_gate(self):
        rng = np.random.default_rng(76)
        v = tensor(haar_unitary(2, rng), haar_unitary(2, rng))
        res = jammer_value(v, FAST_OPTS)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_swap(self):
        # clamped at zero like the separable helper; raw_value is L itself
        mixed = maximally_mixed(2)
        for v, low in ((SWAP, -1.0), (swap_power(0.5).matrix, -0.5487949406953986)):
            res = jammer_value(v, FAST_OPTS)
            assert res.value == 0.0
            raw = res.diagnostics["raw_value"]
            assert raw == pytest.approx(coherent_info(effective_channel(v, mixed), mixed),
                                        abs=1e-12)
            assert raw == pytest.approx(low, abs=1e-12)

    def test_raw_value_is_coherent_info_bit_for_bit(self):
        # one coherent-information route: jammer_value's own contraction and
        # eigensolve give coherent_info's value to the last bit
        rng = np.random.default_rng(78)
        mixed = maximally_mixed(2)
        gates = [canonical_unitary(tuple(PI * a for a in p)).matrix for p, _ in JAMMER_UPPER]
        gates += [haar_unitary(4, rng) for _ in range(50)]
        for v in gates:
            raw = jammer_value(v, FAST_OPTS).diagnostics["raw_value"]
            assert same_bits(raw, coherent_info(effective_channel(v, mixed), mixed))

    def test_certified_call_makes_two_eigensolves(self, monkeypatch):
        # the check of I/2 in effective_channel, and N~(I/2) for L and the slack
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        res = jammer_value(swap_power(0.5))
        assert res.diagnostics["restarts"] == 0
        assert calls == [(2, 2), (4, 4)]

    def test_mixed_env_objective_matches_effective_channel(self):
        # the affine objective must be the coherent information of the
        # channel of eta itself, not of its y-mirror conj(eta)
        rng = np.random.default_rng(77)
        for _ in range(20):
            v = BipartiteUnitary(haar_unitary(4, rng))
            self.check_lower_value_against_purification(v)
            r = rng.uniform(-1, 1, 3)
            r[1] = np.sign(r[1]) * max(abs(r[1]), 0.2)
            r *= rng.uniform(0.3, 1.0) / np.linalg.norm(r)
            rho = random_density_matrix(2, rng)
            coeffs = jammer_affine(v, rho)
            want = coherent_info(effective_channel(v, bloch_density(r)), rho)
            got = jammer_ic(coeffs, r)
            assert abs(got - want) < 1e-12
            stacked = jammer_ic(coeffs, np.stack([r, -r]))
            assert abs(stacked[0] - got) < 1e-14
            # outside the ball: clipped onto the surface, as bloch_density does
            unit = r / np.linalg.norm(r)
            assert abs(jammer_ic(coeffs, 2 * unit) - jammer_ic(coeffs, unit)) < 1e-14
            # a pure input keeps its reference out of the output: zero
            pure = jammer_affine(v, random_density_matrix(2, rng, rank=1))
            assert abs(jammer_ic(pure, r)) < 1e-12
        for params, _ in JAMMER_POSITIVE:
            self.check_lower_value_against_purification(
                canonical_unitary(tuple(PI * a for a in params)))

    @staticmethod
    def check_lower_value_against_purification(v):
        # at r = 0 and rho = I/2 the purification route gives L, which
        # jammer_value takes as coherent_info of the channel N_{I/2}
        mixed = maximally_mixed(2)
        low = jammer_ic(jammer_affine(v, mixed), np.zeros(3))
        assert abs(low - coherent_info(effective_channel(v, mixed), mixed)) < 1e-12
        res = jammer_value(v, FAST_OPTS)
        assert abs(low - res.diagnostics["raw_value"]) < 1e-12
        assert res.value == max(0.0, res.diagnostics["raw_value"])

    @pytest.mark.parametrize("case", ["product", "haar"])
    def test_argmax_consistent_with_value(self, case):
        rng = np.random.default_rng(78)
        if case == "product":
            v = tensor(haar_unitary(2, rng), haar_unitary(2, rng))
        else:
            v = haar_unitary(4, rng)
        res = jammer_value(v, FAST_OPTS)
        ic = coherent_info(effective_channel(v, res.argmax_env), res.argmax_input)
        assert abs(ic - res.value) < 1e-9

    def test_cnot_matches_dense_grid_oracle(self):
        # frozen from an independent dense double-grid scan (mixed input
        # and environment Bloch-ball grids): the max-min value is zero,
        # attained by pure inputs against dephasing environments
        res = jammer_value(CNOT, FAST_OPTS)
        assert res.value == pytest.approx(0.0, abs=2e-3)
        # I_c(I/2, N_{I/2}) is exactly 0.0 for CNOT: no round-off survives
        assert res.value == res.diagnostics["raw_value"] == 0.0

    @pytest.mark.parametrize("params,want", JAMMER_POSITIVE + (((0.0, 0.0, 0.0), 1.0),))
    def test_positive_gates_match_nested_search(self, params, want):
        res = jammer_value(canonical_unitary(tuple(PI * a for a in params)), FAST_OPTS)
        assert abs(res.value - want) < 1e-12
        assert res.value == res.diagnostics["raw_value"]
        np.testing.assert_allclose(res.argmax_input, maximally_mixed(2), atol=0)
        lo, hi = res.diagnostics["bracket"]
        assert lo == res.value
        assert hi - lo <= 1e-9

    @pytest.mark.parametrize("params,upper", JAMMER_UPPER)
    def test_upper_end_frozen(self, params, upper):
        res = jammer_value(canonical_unitary(tuple(PI * a for a in params)))
        lo, hi = res.diagnostics["bracket"]
        assert abs(hi - upper) <= 1e-12
        assert lo == res.value <= hi

    @pytest.mark.parametrize("case", ["product", "cnot", "positive"])
    def test_nested_search_oracle_agrees(self, case):
        # the old nested max-min search on shrunk grids; its outer simplex
        # tolerance is 1e-6, the resolution the two must agree to
        if case == "product":
            rng = np.random.default_rng(76)
            v = tensor(haar_unitary(2, rng), haar_unitary(2, rng))
        elif case == "cnot":
            v = CNOT
        else:
            v = canonical_unitary(tuple(PI * a for a in JAMMER_POSITIVE[0][0]))
        searched, _, _ = jammer_search(v, eta_grid_n=7, rho_grid_n=5, max_iters=400)
        assert searched == pytest.approx(jammer_value(v, FAST_OPTS).value, abs=1e-6)


class TestJammerClosedFormHypotheses:
    """The closed form rests on three facts: canonical gates commute with
    the Pauli pairs, I_c(I/2, N_eta) is least at eta = I/2, and the value
    depends only on the gate's local-equivalence class."""

    def test_canonical_gate_commutes_with_pauli_pairs(self):
        rng = np.random.default_rng(80)
        paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  np.diag([1.0, -1.0])]
        for _ in range(20):
            u = canonical_unitary(rng.uniform(-PI, PI, 3)).matrix
            for s in paulis:
                ss = np.kron(s, s)
                assert np.abs(u @ ss - ss @ u).max() < 1e-14

    def test_mixed_environment_minimizes_at_mixed_input(self):
        rng = np.random.default_rng(81)
        mixed = maximally_mixed(2)
        gates = [haar_unitary(4, rng) for _ in range(4)]
        gates.append(tensor(haar_unitary(2, rng), haar_unitary(2, rng))
                     @ canonical_unitary(tuple(PI * a for a in JAMMER_POSITIVE[0][0])).matrix
                     @ tensor(haar_unitary(2, rng), haar_unitary(2, rng)))
        for v in gates:
            low = coherent_info(effective_channel(v, mixed), mixed)
            for _ in range(50):
                eta = random_density_matrix(2, rng)
                assert coherent_info(effective_channel(v, eta), mixed) >= low - 1e-12

    @pytest.mark.parametrize("params", [p for p, _ in JAMMER_POSITIVE] + [None])
    def test_invariant_under_dressing_and_conjugation(self, params):
        rng = np.random.default_rng(82)
        if params is None:
            u = haar_unitary(4, rng)
        else:
            u = canonical_unitary(tuple(PI * a for a in params)).matrix
        want = jammer_value(u, FAST_OPTS).value
        dressed = dress(u, rng)
        assert abs(jammer_value(dressed, FAST_OPTS).value - want) < 1e-12
        assert abs(jammer_value(u.conj(), FAST_OPTS).value - want) < 1e-12

    def test_bracket_closes(self):
        rng = np.random.default_rng(83)
        gates = [haar_unitary(4, rng) for _ in range(20)]
        gates += [canonical_unitary(point(t)) for _, point in A3_FAMILIES
                  for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        for v in gates:
            lo, hi = jammer_value(v, FAST_OPTS).diagnostics["bracket"]
            assert 0.0 <= lo
            assert hi - lo <= 1e-9


class TestExtensionSlack:
    """Tr J_B^2 - Tr J^2 + 4 sqrt(det J) of the Choi state J: non-negative exactly
    where the channel is anti-degradable, where the jammer's upper end is 0."""

    def test_amplitude_damping_threshold(self):
        # anti-degradable from decay probability 1/2 on
        for g in np.linspace(0.0, 1.0, 21):
            kraus = np.array([[[1, 0], [0, np.sqrt(1 - g)]], [[0, np.sqrt(g)], [0, 0]]], complex)
            assert abs(_extension_slack(*slack_input(kraus)) - (g - 0.5)) < 1e-15

    def test_depolarizing_gates_cross_at_two_thirds(self):
        # (a, a, a) at I/2 is depolarizing with Bloch factor cos^2 a: extendible to 2/3
        def slack(a):
            return _extension_slack(*slack_input(mixed_env_kraus(canonical_unitary((a, a, a)))))

        a_c = np.arccos(np.sqrt(2 / 3))
        assert abs(slack(a_c)) < 1e-12
        assert abs(find_zero_crossing(slack, 0.0, PI / 4, 1e-12) - a_c) < 1e-10
        for a in np.linspace(0.0, PI / 2, 33):
            assert np.sign(slack(a)) == np.sign(a - a_c)

    def test_matches_choi_and_pauli_weight_oracles(self):
        rng = np.random.default_rng(90)
        for _ in range(200):
            a = rng.uniform(-PI, PI, 3)
            got = _extension_slack(*slack_input(mixed_env_kraus(canonical_unitary(a))))
            assert abs(got - extension_slack_by_pauli_weights(a)) < 1e-12
        for k in (1, 2, 4):  # any qubit Kraus stack: columns of a Haar isometry
            for _ in range(20):
                kraus = haar_unitary(2 * k, rng)[:, :2].reshape(k, 2, 2)
                j = choi_state(KrausChannel(kraus))
                j_b = partial_trace(j, (2, 2), keep=1)
                want = (np.trace(j_b @ j_b) - np.trace(j @ j)).real \
                    + 4 * np.sqrt(max(0.0, np.linalg.det(j).real))
                assert abs(_extension_slack(*slack_input(kraus)) - want) < 1e-12

    def test_invariant_under_dressing_and_conjugation(self):
        def slack(u):
            return _extension_slack(*slack_input(mixed_env_kraus(u)))

        rng = np.random.default_rng(91)
        gates = [haar_unitary(4, rng) for _ in range(10)] + [CNOT]
        gates += [canonical_unitary(tuple(PI * a for a in p)).matrix for p, _ in JAMMER_POSITIVE]
        for u in gates:
            want = slack(u)
            assert abs(slack(dress(u, rng)) - want) < 1e-12
            assert abs(slack(u.conj()) - want) < 1e-12

    def test_certificate_is_sound(self):
        # certified: the input search finds nothing above round-off either; and a
        # positive L, which an anti-degradable channel cannot have, never certifies
        rng = np.random.default_rng(92)
        gates = [haar_unitary(4, rng) for _ in range(100)]
        gates += [canonical_unitary(tuple(PI * a for a in p)) for p, _ in JAMMER_UPPER[4:]]
        gates += [canonical_unitary(tuple(PI * a for a in p)) for p, _ in JAMMER_POSITIVE]
        certified = 0
        for v in gates:
            kraus = mixed_env_kraus(v)
            res = jammer_value(v)
            d = res.diagnostics
            assert d["extension_slack"] == _extension_slack(*slack_input(kraus))
            assert d["raw_value"] <= 0 or d["extension_slack"] <= _EXTENSION_MARGIN
            if d["extension_slack"] > _EXTENSION_MARGIN:
                certified += 1
                assert d["bracket"] == (res.value, 0.0)
                assert d["restarts"] == 0
                channel = KrausChannel(kraus)
                assert max_coherent_info(channel).value <= 1e-13
            else:
                assert d["restarts"] == 8
        assert certified >= 100

    def test_certified_gate_runs_no_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("max_coherent_info called on a certified gate")

        monkeypatch.setattr(capacity, "max_coherent_info", no_search)
        res = jammer_value(swap_power(0.5))
        d = res.diagnostics
        assert d["extension_slack"] > _EXTENSION_MARGIN
        assert d["raw_value"] == pytest.approx(-0.5487949406953986, abs=1e-12)
        assert res.value == 0.0
        assert d["bracket"] == (0.0, 0.0)
        assert {k: d[k] for k in RESTART_RECORD} == {
            "restart_values": [], "nfev": 0, "converged": 0, "restarts": 0}

    def test_cnot_sits_on_the_boundary_and_searches(self):
        assert abs(_extension_slack(*slack_input(mixed_env_kraus(CNOT)))) < 1e-15
        d = jammer_value(CNOT, FAST_OPTS).diagnostics
        assert d["restarts"] == 4
        assert d["extension_slack"] <= _EXTENSION_MARGIN


class TestTwoCopy:
    @pytest.mark.parametrize("gamma", [0.5, 0.6, 0.8])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_swap_edge_family_closed_form(self, gamma, t):
        w = canonical_unitary((PI / 2, PI / 2, t * PI / 2))
        got = two_copy_curve(w.matrix, swap_power(gamma).matrix)
        assert got == pytest.approx(a1_eigenvalue_formula(gamma), abs=1e-9)

    def test_environment_output_structure(self):
        w = canonical_unitary((PI / 2, PI / 2, 0.35 * PI / 2))
        out = two_copy_output(w.matrix, swap_power(0.7).matrix)
        rho_ff = partial_trace(out, (2,) * 5, keep=(1, 3))
        expected = tensor(projector(KET0), maximally_mixed(2))
        assert np.abs(rho_ff - expected).max() < 1e-10

    def test_sqrt_swap_self_pairing_vanishes(self):
        g = canonical_unitary((PI / 4, PI / 4, PI / 4))
        assert abs(two_copy_curve(g.matrix, g.matrix)) < 1e-9

    def test_frozen_positive_values(self):
        # golden fixtures computed by this five-qubit path and
        # cross-checked against the closed-form spectra where available
        w = canonical_unitary((PI / 2, PI / 2, 0.0))
        assert two_copy_curve(w.matrix, swap_power(0.55).matrix) == (
            pytest.approx(0.40173599778915814, abs=1e-10))
        v = canonical_unitary((PI / 4 + PI / 8, PI / 4, PI / 4))
        assert two_copy_curve(SWAP, v.matrix) == (
            pytest.approx(0.3200086998669489, abs=1e-10))
        g = canonical_unitary((PI / 4 + PI / 8, PI / 4 + PI / 8, PI / 4 - PI / 8))
        assert two_copy_curve(g.matrix, g.matrix) == (
            pytest.approx(0.10889606751172232, abs=1e-10))

    def test_theta_family_positive_slices(self):
        g = canonical_unitary((PI / 2, PI / 4 + PI / 8, PI / 4 - PI / 8))
        for theta, expected in ((0.5, 0.0634534988903066),
                                (2 ** -6, 0.024322369533690602),
                                (2 ** -10, 0.0030800722084326493)):
            got = two_copy_curve(g.matrix, g.matrix, theta)
            assert got == pytest.approx(expected, abs=1e-10)
            assert got > 1e-3

    def test_stack_past_a_chunk_equals_single_pairs(self):
        rng = np.random.default_rng(15)
        n = capacity._TWO_COPY_CHUNK + 37  # two chunks, the second one partial
        w = np.stack([haar_unitary(4, rng) for _ in range(n)])
        v = np.stack([haar_unitary(4, rng) for _ in range(n)])
        for theta in (None, 0.3):
            vals = two_copy_curve(w, v, theta)
            assert vals.shape == (n,)
            for val, a, b in zip(vals, w, v):
                assert same_bits(val, two_copy_curve(a, b, theta))

    @pytest.mark.parametrize("theta", [0.0, 1.0, 2.0 ** -10])
    def test_q2_family_matches_kronecker_bits(self, theta):
        # canonical gates have structural zeros: each amplitude is one product
        for t in np.linspace(0.0, 1.0, 9):
            g = canonical_unitary(dict(A3_FAMILIES)["q2"](t)).matrix
            assert same_bits(two_copy_curve(g, g, theta),
                             np.float64(two_copy_by_kron(g, g, theta)))

    def test_haar_pairs_match_kronecker_to_round_off(self):
        rng = np.random.default_rng(20)
        w = np.stack([haar_unitary(4, rng) for _ in range(20)])
        v = np.stack([haar_unitary(4, rng) for _ in range(20)])
        for theta in (None, 0.5):
            want = [two_copy_by_kron(a, b, theta) for a, b in zip(w, v)]
            assert np.abs(two_copy_curve(w, v, theta) - want).max() <= 1e-14

    def test_helper_sharing_equivalence(self):
        # swapping in the primed slot hands the helper's entanglement to
        # the receiver: the two-copy value equals the entangled-helper
        # coherent information of the unprimed gate at the maximally
        # mixed input
        rng = np.random.default_rng(77)
        for _ in range(5):
            g = BipartiteUnitary(haar_unitary(4, rng))
            lhs = two_copy_curve(SWAP, g.matrix)
            rhs = entangled_helper_coherent_info(
                g, maximally_entangled(2), maximally_mixed(2))
            assert abs(lhs - rhs) < 1e-9


class TestZeroCrossing:
    def test_linear_function(self):
        assert find_zero_crossing(lambda x: x - 0.3, 0.0, 1.0, 1e-8) == (
            pytest.approx(0.3, abs=1e-7))

    def test_swap_edge_root(self):
        w = canonical_unitary((PI / 2, PI / 2, 0.0))

        def f(g):
            return two_copy_curve(w.matrix, swap_power(g).matrix)

        root = find_zero_crossing(f, 0.5, 1.0, 1e-6)
        assert root == pytest.approx(0.6649, abs=5e-4)

    def test_closed_form_agrees_with_state_path(self):
        root_closed = find_zero_crossing(a1_eigenvalue_formula, 0.5, 1.0, 1e-8)
        w = canonical_unitary((PI / 2, PI / 2, 0.0))
        root_path = find_zero_crossing(
            lambda g: two_copy_curve(w.matrix, swap_power(g).matrix),
            0.5, 1.0, 1e-8)
        assert abs(root_closed - root_path) < 1e-6

    def test_same_sign_bracket_rejected(self):
        with pytest.raises(BracketError):
            find_zero_crossing(lambda x: x + 1.0, 0.0, 1.0, 1e-6)

    @pytest.mark.parametrize("bad,at", [(math.nan, None), (np.float64(np.nan), 0.0),
                                        (math.nan, 1.0), (math.nan, 0.25),
                                        (math.inf, 0.25), (-math.inf, 1.0)])
    def test_non_finite_value_rejected(self, bad, at):
        # at None f is bad everywhere; 0.25 is the second midpoint, after 0.5
        def f(x):
            return bad if at is None or x == at else x - 0.3

        with pytest.raises(BracketError, match="not finite"):
            find_zero_crossing(f, 0.0, 1.0, 1e-6)

    @pytest.mark.parametrize("lo,hi,tol", [(0.0, 1.0, 0.0), (0.0, 1.0, -1.0),
                                           (0.0, 1.0, float("nan")),
                                           (0.9, 0.5, 1e-6), (0.5, 0.5, 1e-6),
                                           (-math.inf, math.inf, 1e-6), (0.0, math.inf, 1e-6),
                                           (-math.inf, 1.0, 1e-6)])
    def test_bad_inputs_rejected_before_evaluation(self, lo, hi, tol):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.7

        with pytest.raises(ValueError) as exc:
            find_zero_crossing(f, lo, hi, tol)
        assert not isinstance(exc.value, BracketError)
        assert calls == []

    def test_tolerance_below_float_spacing_terminates(self):
        root = find_zero_crossing(lambda x: x - 0.3, 0.0, 1.0, 1e-300)
        assert root == pytest.approx(0.3, abs=1e-15)


class TestEntangledHelper:
    def test_product_helper_reduces(self):
        rng = np.random.default_rng(78)
        v = haar_unitary(4, rng)
        eta = random_pure_state(2, rng)
        kappa = tensor(eta, KET0).reshape(-1)
        rho = random_density_matrix(2, rng)
        lhs = entangled_helper_coherent_info(v, kappa, rho)
        rhs = coherent_info(effective_channel(v, eta), rho)
        assert abs(lhs - rhs) < 1e-10

    def test_trivial_gate(self):
        rng = np.random.default_rng(79)
        kappa = random_pure_state(4, rng)
        got = entangled_helper_coherent_info(np.eye(4, dtype=complex), kappa,
                                             maximally_mixed(2))
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_matches_closed_form_value(self):
        for gamma, lam, mu in ((0.6, 0.5, 0.5), (0.31, 0.9, 0.2), (0.8, 0.3, 0.7)):
            kappa = np.zeros(4, complex)
            kappa[0], kappa[3] = np.sqrt(lam), np.sqrt(1 - lam)
            rho = np.diag([mu, 1 - mu]).astype(complex)
            generic = entangled_helper_coherent_info(swap_power(gamma), kappa, rho)
            rho_hb, rho_f = swap_power_helper_outputs(gamma, lam, mu)
            closed = entropy(rho_hb) - entropy(rho_f)
            assert abs(generic - closed) < 1e-10

    def test_z_covariance(self):
        # diagonal-Schmidt helper states commute with Z x Z^dag, so the
        # channel is covariant under Z on the input
        z = np.diag([1.0, -1.0]).astype(complex)
        rng = np.random.default_rng(80)
        for gamma, lam in ((0.37, 0.42), (0.71, 0.9)):
            kappa = np.zeros(4, complex)
            kappa[0], kappa[3] = np.sqrt(lam), np.sqrt(1 - lam)
            ch = entangled_env_channel(swap_power(gamma), kappa)
            rho = random_density_matrix(2, rng)
            lhs = apply_channel(ch, z @ rho @ z.conj().T)
            zz = tensor(z, z.conj().T)
            rhs = zz @ apply_channel(ch, rho) @ zz.conj().T
            assert np.abs(lhs - rhs).max() < 1e-10


class TestHelperOutputs:
    def test_identity_case(self):
        rho_hb, rho_f = swap_power_helper_outputs(0.0, 0.5, 0.5)
        check_density_matrix(rho_hb)
        check_density_matrix(rho_f)
        assert entropy(rho_hb) - entropy(rho_f) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_full_swap_pure_input(self, mu):
        rho_hb, rho_f = swap_power_helper_outputs(1.0, 0.25, mu)
        assert entropy(rho_hb) - entropy(rho_f) == pytest.approx(0.0, abs=1e-12)

    def test_cross_path_agreement(self):
        gamma, lam, mu = 0.6, 0.5, 0.5
        kappa = np.zeros(4, complex)
        kappa[0], kappa[3] = np.sqrt(lam), np.sqrt(1 - lam)
        out = apply_channel(entangled_env_channel(swap_power(gamma), kappa),
                            np.diag([mu, 1 - mu]).astype(complex))
        # channel orders B before H; the closed form is helper-first
        out_hb = out.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        rho_hb, _ = swap_power_helper_outputs(gamma, lam, mu)
        assert np.abs(out_hb - rho_hb).max() < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            swap_power_helper_outputs(0.5, -0.1, 0.5)

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0])
    def test_objective_is_entropy_from_eigvals(self, gamma):
        # the objective's six eigenvalues through entropy_from_eigvals, bit for bit
        lam, mu = np.meshgrid(np.linspace(0.0, 1.0, 33), np.linspace(0.0, 1.0, 33), indexing="ij")
        factors = swap_factors(gamma)
        (p00, p01, p10, p11), root, z, (f0, f1) = helper_terms(factors, lam, mu)
        half = (p00 + p11) / 2
        r = np.sqrt(((p00 - p11) / 2) ** 2 + (root * np.abs(z)) ** 2)
        hb, f = np.stack([half + r, half - r, p01, p10], -1), np.stack([f0, f1], -1)
        want = entropy_from_eigvals(hb) - entropy_from_eigvals(f)
        assert same_bits(helper_objective(factors, lam, mu), want)
        # and they are the spectra of the closed-form outputs
        for i, j in ((0, 0), (5, 17), (32, 9), (20, 32)):
            rho_hb, rho_f = swap_power_helper_outputs(gamma, lam[i, j], mu[i, j])
            assert np.abs(np.sort(hb[i, j]) - np.linalg.eigvalsh(rho_hb)).max() < 1e-12
            assert np.abs(np.sort(f[i, j]) - np.linalg.eigvalsh(rho_f)).max() < 1e-12


def test_optimizer_options_validation():
    with pytest.raises(ValueError):
        OptimizerOptions(restarts=0)
    with pytest.raises(ValueError):
        OptimizerOptions(tol=0.0)
    for bad in (dict(grid=0), dict(grid=1), dict(max_iters=0), dict(tol=float("nan")),
                dict(max_iters=float("nan")), dict(tol=float("inf")), dict(grid=2.5),
                dict(restarts=2.5)):
        with pytest.raises(ValueError):
            OptimizerOptions(**bad)
    # 0 < True < inf holds, and True is an int: a bool is still not a count or a tolerance
    for flag in (True, np.True_):
        for name in ("restarts", "grid", "max_iters", "tol"):
            with pytest.raises(ValueError, match=name):
                OptimizerOptions(**{name: flag})
    opts = OptimizerOptions(restarts=np.int64(3), grid=np.int32(8), max_iters=np.int64(5))
    assert (opts.restarts, opts.grid, opts.max_iters) == (3, 8, 5)


RESTART_RECORD = {"restart_values", "nfev", "converged", "restarts"}


class TestRestartRecord:
    def test_every_optimizer_reports_the_same_record(self):
        opts = OptimizerOptions(restarts=2, grid=8, max_iters=1)
        results = [max_coherent_info(identity_channel(), opts),
                   separable_helper_capacity(CNOT, opts),
                   separable_helper_capacity(SWAP, opts),  # anti-degradable 1-d branch
                   separable_helper_capacity(swap_power(0.3), opts),  # 1-d branch
                   # a dressed SWAP takes the search and has no degradable cell
                   separable_helper_capacity(np.kron(np.diag([1, 1j]), np.eye(2)) @ SWAP, opts),
                   swap_power_helper_capacity(0.6, opts),  # the centre, no search
                   swap_power_helper_capacity(0.7, opts),  # the search past gamma_c
                   jammer_value(CNOT, opts),
                   jammer_value(swap_power(0.5), opts)]  # certified: no search
        for res in results:
            d = res.diagnostics
            assert RESTART_RECORD <= set(d)
            assert d["restarts"] == len(d["restart_values"])
            assert 0 <= d["converged"] <= d["restarts"]
            assert d["nfev"] >= d["restarts"]
        assert results[2].diagnostics["restarts"] == results[4].diagnostics["restarts"] == 0
        assert "bracket" not in results[4].diagnostics
        assert results[-1].diagnostics["restarts"] == 0
        lo, hi = separable_helper_capacity(swap_power(0.3)).diagnostics["bracket"]
        assert hi - lo <= 1e-9

    def test_helper_refinement_is_one_run(self):
        # past gamma_c the entangled helper refines one bracket: one run, whatever
        # opts.grid, opts.restarts and opts.tol are; max_iters caps its steps
        d = swap_power_helper_capacity(0.7).diagnostics
        assert d["restarts"] == d["converged"] == 1
        assert d["restart_values"] == [d["raw_value"]]
        assert "grid" not in d
        other = OptimizerOptions(restarts=2, grid=3, tol=1e-3)
        assert d == swap_power_helper_capacity(0.7, other).diagnostics
        capped = swap_power_helper_capacity(0.7, OptimizerOptions(max_iters=1)).diagnostics
        assert (capped["restarts"], capped["converged"]) == (1, 0)
        assert capped["nfev"] < d["nfev"]
        assert 0.0 < capped["raw_value"] <= d["raw_value"]
        # at 0.9 the envelope falls from mu = 1e-12 on: no run, and mu = 0 scores exactly 0
        d = swap_power_helper_capacity(0.9).diagnostics
        assert (d["restarts"], d["raw_value"], d["mu"]) == (0, 0.0, 0.0)
        assert d["nfev"] >= 1  # the slopes at mu = 1e-12

    def test_jammer_counts_its_runs(self, monkeypatch):
        # the record is that of the upper bound's input search: one batched
        # minimize call, which advances all of the jammer's restarts
        runs, minimize = [], capacity.minimize

        def counted(*args, **kwargs):
            res = minimize(*args, **kwargs)
            runs.append(res)
            return res

        monkeypatch.setattr(capacity, "minimize", counted)
        d = jammer_value(CNOT, OptimizerOptions(max_iters=40)).diagnostics
        assert len(runs) == 1
        assert len(runs[0].calls) == d["restarts"] == 8
        assert runs[0].nfev == d["nfev"]
        assert int(runs[0].converged.sum()) == d["converged"]
        assert np.array_equal(-runs[0].fun, d["restart_values"])

    def test_kraus_stack_contracted_once_per_use(self, monkeypatch):
        # L, the candidate scores and the upper end's affine maps contract the
        # Kraus stack once each, at any iteration cap: the objective does not
        calls, outputs = [], capacity._outputs

        def counted(kraus, rho):
            calls.append(rho.shape[:-2])
            return outputs(kraus, rho)

        monkeypatch.setattr(capacity, "_outputs", counted)
        v = canonical_unitary(tuple(PI * a for a in JAMMER_POSITIVE[0][0]))
        nfev = []
        for max_iters in (40, 500):
            calls.clear()
            nfev.append(jammer_value(v, OptimizerOptions(max_iters=max_iters)).diagnostics["nfev"])
            assert calls == [(), (13,), (4,)]
        assert nfev[0] < nfev[1]

    def test_max_coherent_info_raw_value(self):
        res = max_coherent_info(identity_channel(), FAST_OPTS)
        assert res.diagnostics["raw_value"] == res.value

    def test_unconverged_restarts_counted(self):
        # one iteration per restart cannot meet the tolerance
        d = max_coherent_info(identity_channel(), OptimizerOptions(max_iters=1)).diagnostics
        assert d["restarts"] == 8
        assert d["converged"] < d["restarts"]
        d = max_coherent_info(identity_channel(), FAST_OPTS).diagnostics
        assert d["converged"] == d["restarts"] == 4


def bumpy(z):
    """A smooth objective with many local minima, row by row."""
    return (np.sin(3 * z) * z + 0.1 * z ** 2).sum(axis=1)


def terraced(z):
    """Plateaus with a gentle slope: many shrinks and tied values."""
    return (np.floor(4 * np.abs(z)) + 0.01 * z ** 2).sum(axis=1)


class TestNelderMead:
    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("maxiter", [12, 500])
    def test_batch_independence(self, d, maxiter):
        starts = np.random.default_rng(d).uniform(-2, 2, (6, d))
        batch = capacity.minimize(bumpy, starts, 0.2, 1e-8, maxiter)
        for i, x0 in enumerate(starts):
            alone = capacity.minimize(bumpy, x0[None], 0.2, 1e-8, maxiter)
            assert np.array_equal(alone.x[0], batch.x[i])
            assert alone.fun[0] == batch.fun[i]
            assert alone.calls[0] == batch.calls[i]
            assert alone.converged[0] == batch.converged[i]
        assert batch.nfev == batch.calls.sum()
        assert batch.success == batch.converged.all()

    def test_known_minimum(self):
        centre, weight = np.array([0.3, -1.2, 0.7]), np.array([1.0, 4.0, 0.5])
        starts = np.random.default_rng(5).uniform(-2, 2, (5, 3))
        res = capacity.minimize(lambda z: ((z - centre) ** 2 * weight).sum(axis=1),
                                starts, 0.25, 1e-8, 500)
        assert res.success
        assert np.abs(res.x - centre).max() <= 1e-8
        assert res.fun.max() <= 1e-15

    def test_iteration_cap(self):
        starts = np.random.default_rng(6).uniform(-2, 2, (4, 3))
        res = capacity.minimize(bumpy, starts, 0.2, 1e-8, 1)
        assert not res.converged.any() and not res.success
        assert np.array_equal(res.calls, [3 + 1] * 4)
        d = max_coherent_info(identity_channel(), OptimizerOptions(max_iters=1)).diagnostics
        assert d["converged"] == 0 and d["nfev"] == 8 * (3 + 1)

    @pytest.mark.parametrize("gamma, value, nfev", [(0.3, 0.9172845820863875, 879),
                                                    (0.6, 0.23610676138740194, 783),
                                                    (0.74, 0.00013491156838341123, 637)])
    def test_frozen_helper_values(self, gamma, value, nfev):
        # frozen from sequential scipy Nelder-Mead runs with the same step rules, which
        # the search oracle keeps; the library takes the centre below gamma_c, and past
        # it nested 1-d maxima that give the same value
        res = swap_power_helper_by_search(gamma)
        d = res.diagnostics
        assert res.value == pytest.approx(value, abs=1e-12)
        assert d["nfev"] == nfev
        assert d["converged"] == d["restarts"] == 9
        if gamma > GAMMA_C:
            assert swap_power_helper_capacity(gamma).value == pytest.approx(value, abs=1e-12)

    def test_strictly_larger_replaces_best(self):
        starts = np.random.default_rng(8).uniform(-1, 1, (3, 2))

        def flat(z):
            return np.zeros(len(z))

        x, v, _ = capacity._maximize(flat, starts, 0.1, 1e-8, 50, best=("grid", 0.0))
        assert (x, v) == ("grid", 0.0)
        x, v, _ = capacity._maximize(flat, starts, 0.1, 1e-8, 50)
        assert np.array_equal(x, starts[0]) and v == 0.0  # the first of equal runs

    @pytest.mark.parametrize("f", [bumpy, terraced])
    @pytest.mark.parametrize("d, maxiter", [(2, 3), (2, 500), (3, 8), (3, 500), (5, 5), (5, 40)])
    def test_matches_scipy_step_by_step(self, f, d, maxiter, monkeypatch):
        optimize = pytest.importorskip("scipy.optimize")
        # scipy breaks ties with numpy's default sort, which need not be stable
        sort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda a, **kw: sort(a, **{"kind": "stable", **kw}))
        starts = np.random.default_rng(7).uniform(-2, 2, (6, d))
        res = capacity.minimize(f, starts, 0.2, 1e-8, maxiter)
        for i, x0 in enumerate(starts):
            ref = optimize.minimize(
                lambda x: f(x[None])[0], x0, method="Nelder-Mead",
                options=dict(initial_simplex=np.vstack([x0, x0 + 0.2 * np.eye(d)]),
                             xatol=1e-8, fatol=1e-10, maxiter=maxiter, maxfev=np.inf))
            assert np.array_equal(ref.x, res.x[i]) and ref.fun == res.fun[i]
            assert ref.nfev == res.calls[i] and ref.success == res.converged[i]

    def test_iterations_bound_the_calls(self):
        # the first simplex, then at most one shrink of d points after two trial points
        d, maxiter = 5, 40
        starts = np.random.default_rng(7).uniform(-2, 2, (6, d))
        res = capacity.minimize(terraced, starts, 0.2, 1e-8, maxiter)
        assert (res.calls <= (d + 1) + maxiter * (d + 2)).all()
        assert res.calls.max() > 2 * maxiter  # no call budget stops a restart early


def test_import_leaves_scipy_out():
    code = "import sys, envcap; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "False"


class TestHelperCapacity:
    def test_identity(self):
        res = swap_power_helper_capacity(0.0, FAST_OPTS)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_helper_beats_product_at_intermediate_gamma(self):
        qeh = swap_power_helper_capacity(0.6, FAST_OPTS)
        qh = separable_helper_capacity(swap_power(0.6), FAST_OPTS)
        assert qeh.value == pytest.approx(0.23610676138740194, abs=1e-8)
        assert qh.value == 0.0
        assert qeh.value > qh.value

    def test_vanishes_past_threshold(self):
        assert swap_power_helper_capacity(0.9, FAST_OPTS).value == 0.0
        assert swap_power_helper_capacity(1.0, FAST_OPTS).value == 0.0

    def test_positive_below_threshold(self):
        assert swap_power_helper_capacity(0.74, FAST_OPTS).value > 1e-5

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="finite"):
            swap_power_helper_capacity(gamma)

    def test_depends_on_gamma_through_sin_squared(self):
        # s = sin^2(pi gamma / 2) is the same at 1.5 and 0.5 to round-off, and at
        # -0.2 and 0.2 bit for bit
        assert swap_power_helper_capacity(1.5).value == pytest.approx(
            swap_power_helper_capacity(0.5).value, abs=1e-15)
        assert swap_power_helper_capacity(-0.2).value == swap_power_helper_capacity(0.2).value


class TestHelperCentre:
    """Below gamma_c the maximum is the centre (1/2, 1/2) of the (lam, mu)
    square, in closed form; past it, nested 1-d maxima."""

    def test_every_eh_swap_row_matches_the_search_oracle(self):
        below = 0
        for gamma in np.linspace(0.0, 1.0, 64):
            got, want = swap_power_helper_capacity(gamma), swap_power_helper_by_search(gamma)
            assert (got.value > 0) == (want.value > 0), gamma  # the same floor verdict
            if want.value > 0:
                assert abs(got.value - want.value) <= 1e-10, gamma
            assert got.diagnostics["raw_value"] >= want.diagnostics["raw_value"] - 1e-15, gamma
            if gamma < GAMMA_C:
                below += 1
                assert got.diagnostics["nfev"] == 0
        assert below == 41

    def test_closed_form_reports_the_centre(self):
        res = swap_power_helper_capacity(0.5)
        d = res.diagnostics
        # the a2 curve at t = 0: SWAP paired with sqrt(SWAP)
        assert res.value == pytest.approx(0.5487949406953987, abs=1e-15)
        assert np.allclose(res.argmax_env, maximally_entangled(2), atol=0, rtol=1e-15)
        assert np.array_equal(res.argmax_input, np.eye(2) / 2)
        assert d["lam"] == d["mu"] == 0.5 and d["raw_value"] == res.value
        assert d["floor"] == capacity.HELPER_CAPACITY_FLOOR and d["curvature"] > 0
        assert {k: d[k] for k in RESTART_RECORD} == capacity._record([], 0, 0)
        assert swap_power_helper_capacity(0.0).value == 1.0

    def test_closed_form_is_the_objective_at_the_centre(self):
        for gamma in (0.05, 0.2, 0.4, 0.6, 0.64):
            got = swap_power_helper_capacity(gamma).value
            assert got == pytest.approx(float(helper_objective(swap_factors(gamma), 0.5, 0.5)),
                                        abs=1e-14)
            assert got == pytest.approx(a1_eigenvalue_formula(gamma), abs=1e-14)

    @pytest.mark.parametrize("gamma", [0.1, 0.45, 0.7, 0.95])
    def test_objective_mirror_symmetry(self, gamma):
        lam, mu = np.random.default_rng(int(gamma * 100)).uniform(0.0, 1.0, (2, 1000))
        factors = swap_factors(gamma)
        assert np.abs(helper_objective(factors, lam, mu)
                      - helper_objective(factors, 1 - lam, 1 - mu)).max() <= 1e-14

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5, 0.64, 0.7, 0.9])
    def test_hessian_matches_central_differences(self, gamma):
        h, factors = 1e-4, swap_factors(gamma)

        def f(dl, dm):
            return float(helper_objective(factors, 0.5 + dl * h, 0.5 + dm * h))

        fd = np.array([[f(1, 0) - 2 * f(0, 0) + f(-1, 0),
                        (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / 4],
                       [0.0, f(0, 1) - 2 * f(0, 0) + f(0, -1)]]) / h ** 2
        fd[1, 0] = fd[0, 1]
        s = np.sin(PI * gamma / 2) ** 2
        hess = centre_hessian(s)
        assert np.abs(hess - fd).max() <= 1e-6
        assert _centre_curvature(s) == pytest.approx(np.linalg.det(hess), rel=1e-12)

    def test_curvature_changes_sign_once(self):
        s = np.linspace(0.0, 1.0, 4001)[1:-1]
        det = _centre_curvature(s)
        assert np.count_nonzero(np.diff(np.sign(det))) == 1
        assert (det[s < _symmetric_branch_end()] > 0).all()
        assert (centre_hessian(s)[0, 0] < 0).all()
        assert abs(GAMMA_C - 0.642893) <= 1e-6


#: The eh_swap rows past gamma_c, where the entangled helper takes nested 1-d maxima.
SEARCHED_GAMMAS = np.linspace(0.0, 1.0, 64)[41:]

#: Past gamma_c as well: 40 gammas strictly between gamma_c and 1.
MORE_GAMMAS = np.linspace(GAMMA_C, 1.0, 42)[1:-1]

#: (nfev, restarts, converged, lam, mu, raw_value) of the SEARCHED_GAMMAS rows at default
#: options, frozen from the bracket (1e-12, 1/2) and Newton roots at float resolution.
SEARCHED_DIAGNOSTICS = (
    (61, 1, 1, 0.5206170227079344, 0.20156001408070165, 0.057390024733227296),
    (48, 1, 1, 0.5280100631496474, 0.07395450930996876, 0.026777739351023122),
    (68, 1, 1, 0.5281367976553499, 0.029463668656381715, 0.011494009180304854),
    (59, 1, 1, 0.5254405142594948, 0.011198940091233246, 0.004373236810349068),
    (57, 1, 1, 0.521383881752853, 0.0037729288731154593, 0.0014092752761089566),
    (56, 1, 1, 0.5166879848610748, 0.0010467950962670415, 0.00036251014594929076),
    (43, 1, 1, 0.5117585647923557, 0.0002190555459002064, 6.881376946948903e-05),
    (44, 1, 1, 0.5068124874621659, 3.093156970922137e-05, 8.6789668924947e-06),
    (39, 1, 1, 0.501937485195288, 2.5458483384579493e-06, 6.303321908873727e-07),
    (35, 1, 1, 0.4971461388025775, 9.977900750734406e-08, 2.1548909379109915e-08),
    (49, 1, 1, 0.4924208580245007, 1.3878354602179295e-09, 2.5814400617107935e-10),
    (26, 1, 1, 0.5, 0.0, 0.0),
    (4, 0, 0, 0.5, 0.0, 0.0),
    (6, 0, 0, 0.5, 0.0, 0.0),
    (5, 0, 0, 0.5, 0.0, 0.0),
    (4, 0, 0, 0.5, 0.0, 0.0),
    (5, 0, 0, 0.5, 0.0, 0.0),
    (5, 0, 0, 0.5, 0.0, 0.0),
    (7, 0, 0, 0.5, 0.0, 0.0),
    (14, 0, 0, 0.5, 0.0, 0.0),
    (7, 0, 0, 0.5, 0.0, 0.0),
    (13, 0, 0, 0.5, 0.0, 0.0),
    (12, 0, 0, 0.5, 0.0, 0.0),
)


def helper_slopes(factors, lam, mu):
    """(f_lam, f_lamlam, f_mu, f) of the entangled-helper objective at :func:`swap_factors`."""
    f_l, f_ll, f_mu, f = _helper_slopes(float(factors[0]), float(factors[1]), mu)(lam)
    return f_l, f_ll, f_mu(), f()


class TestHelperNested:
    """Past gamma_c: the maximum over lam by Newton on closed-form slopes, over mu
    by Illinois steps on the envelope's slope between mu = 1e-12 and the centre."""

    @pytest.mark.parametrize("gamma", [0.65, 0.7, 0.76, 0.9])
    def test_slopes_match_central_differences(self, gamma):
        factors = swap_factors(gamma)

        def f(lam, mu):  # in nats, as the slopes are
            return float(helper_objective(factors, lam, mu)) * math.log(2)

        for lam, mu in [(0.3, 0.2), (0.52, 1e-3), (0.9, 0.45), (0.1, 0.7), (0.5, 0.5)]:
            h, hm = 1e-5, min(1e-5, mu / 1000)
            fd = ((f(lam + h, mu) - f(lam - h, mu)) / (2 * h),
                  (f(lam + 10 * h, mu) - 2 * f(lam, mu) + f(lam - 10 * h, mu)) / (10 * h) ** 2,
                  (f(lam, mu + hm) - f(lam, mu - hm)) / (2 * hm))
            got = helper_slopes(factors, lam, mu)
            assert np.abs(np.subtract(got[:3], fd)).max() <= 1e-6, (lam, mu)

    def test_objective_concave_in_lam(self):
        lam = np.linspace(0.0, 1.0, 401)[:, None]
        mu = np.concatenate([helper_scan(), np.linspace(0.0, 1.0, 101)])
        for gamma in SEARCHED_GAMMAS:
            f = helper_objective(swap_factors(gamma), lam, mu)
            assert (f[2:] - 2 * f[1:-1] + f[:-2]).max() <= 1e-9, gamma

    @pytest.mark.parametrize("gamma", [0.65, 0.7, 0.75])
    def test_never_below_a_dense_grid(self, gamma):
        lam = np.linspace(0.0, 1.0, 401)[:, None]
        edge = np.geomspace(1e-9, 1e-2, 101)
        mu = np.concatenate([edge, np.linspace(0.0, 1.0, 401), 1 - edge])
        grid = helper_objective(swap_factors(gamma), lam, mu).max()
        res = swap_power_helper_capacity(gamma)
        assert res.diagnostics["raw_value"] >= grid
        assert res.diagnostics["mu"] <= 0.5  # the mirror half

    def test_peak_next_to_the_centre_is_refined(self):
        # just past gamma_c the peak lies next to the centre, whose slope is zero by
        # symmetry (round-off either way) and which the bracket's bisection steps
        # approach first: the refinement still finds the peak
        for gamma in GAMMA_C + np.linspace(1e-7, 3e-6, 30):
            d = swap_power_helper_capacity(gamma).diagnostics
            centre = float(helper_objective(swap_factors(gamma), 0.5, 0.5))
            assert d["restarts"] == d["converged"] == 1, gamma
            assert d["mu"] < 0.5 and d["raw_value"] > centre, gamma

    def test_never_below_the_centre(self):
        # the centre is a candidate, valued by the same expression as below gamma_c: at
        # gamma_c and gamma_c + 1e-10 the refined point reads 2.2e-16 and 3.3e-16 below it
        for gamma in GAMMA_C + np.array([0.0, 1e-15, 1e-14, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7]):
            s = np.sin(PI * gamma / 2) ** 2
            centre = float(entropy_terms(np.array([1 + 3 * s, 1 - s, 1 - s, 1 - s]) / 4).sum() - 1)
            assert swap_power_helper_capacity(gamma).diagnostics["raw_value"] >= centre, gamma

    def test_edges_stay_finite(self):
        # the iterates stay inside (0, 1): no log(0) warning, which pytest makes an error
        for gamma in (GAMMA_C + 1e-12, GAMMA_C + 1e-6, 0.9999, 1 - 1e-12, 1.0, 3.0):
            centre = float(helper_objective(swap_factors(gamma), 0.5, 0.5))
            d = swap_power_helper_capacity(gamma).diagnostics
            assert d["raw_value"] >= max(0.0, centre)
            assert 0.0 < d["lam"] < 1.0 and 0.0 <= d["mu"] <= 0.5
        # the slopes and the value, at extreme factors and lam
        for lam in (1e-30, 0.5, 1 - 2 ** -53):
            for mu in (1e-12, 0.5):
                assert np.isfinite(helper_slopes((1e-33, 1.0), lam, mu)).all()
                assert np.isfinite(helper_slopes((0.3, 0.7), lam, mu)).all()
        # the value is the oracle's objective on the open square
        axis = np.linspace(0.0, 1.0, 65)[1:-1].tolist()
        for gamma in (GAMMA_C, 0.7, 0.8, 0.9, 1.0):
            factors = swap_factors(gamma)
            got = [[helper_slopes(factors, lam, mu)[3] for mu in axis] for lam in axis]
            want = helper_objective(factors, *np.meshgrid(axis, axis, indexing="ij"))
            assert np.abs(np.subtract(got, want)).max() <= 1e-14, gamma

    def test_value_matches_decimal(self):
        # at every point of the oracle's 64-point scan on the searched eh_swap rows,
        # with lam* there from the oracle, and at each refined point
        mus = helper_scan()
        for gamma in SEARCHED_GAMMAS:
            c, s = float(np.cos(PI * gamma / 2) ** 2), float(np.sin(PI * gamma / 2) ** 2)
            lams, _, vals = helper_envelope(gamma, mus)
            points = list(zip(lams.tolist(), mus.tolist(), vals.tolist()))
            d = swap_power_helper_capacity(gamma).diagnostics
            # the refined point scores best, but at 0.8254, where it reads -1.9e-11
            # and the pure input's exact 0 wins
            if d["restarts"] and d["mu"] > 0:
                assert d["restart_values"] == [d["raw_value"]], gamma
                points.append((d["lam"], d["mu"], d["raw_value"]))
            for lam, mu, got in points:
                assert abs(got - helper_value_by_decimal(c, s, lam, mu)) <= 2e-15, (gamma, mu)

    def test_frozen_diagnostics(self):
        for gamma, (nfev, restarts, converged, lam, mu, raw) in zip(SEARCHED_GAMMAS,
                                                                     SEARCHED_DIAGNOSTICS,
                                                                     strict=True):
            d = swap_power_helper_capacity(gamma).diagnostics
            assert (d["nfev"], d["restarts"], d["converged"]) == (nfev, restarts, converged)
            assert abs(d["lam"] - lam) <= 1e-12 and abs(d["mu"] - mu) <= 1e-12, gamma
            assert abs(d["raw_value"] - raw) <= 1e-12, gamma

    @pytest.mark.parametrize("gamma", [*SEARCHED_GAMMAS, *MORE_GAMMAS])
    def test_never_below_a_scan(self, gamma):
        # the bracket's refined maximum is at least the best of a 64-point scan
        _, _, vals = helper_envelope(gamma, helper_scan())
        assert swap_power_helper_capacity(gamma).diagnostics["raw_value"] >= vals.max() - 1e-15

    @pytest.mark.parametrize("gamma", SEARCHED_GAMMAS)
    def test_envelope_slope_changes_sign_once(self, gamma):
        # the bracket (1e-12, 1/2) rests on this, measured: F' > 0 up to the peak and < 0
        # after it, or < 0 throughout; mu = 1/2 is left out, its F' zero up to round-off
        mus = np.geomspace(1e-12, 0.5, 2001)[:-1]
        _, slopes, _ = helper_envelope(gamma, mus)
        assert np.count_nonzero(np.diff(slopes > 0)) <= 1
        assert (slopes != 0).all()
