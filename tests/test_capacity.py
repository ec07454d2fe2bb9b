import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from envcap.canonical import CNOT, SWAP, canonical_unitary, decompose_params, swap_power
from envcap.channels import BipartiteUnitary, KrausChannel, effective_channel
from envcap import capacity
from envcap.capacity import (
    BracketError,
    OptimizerOptions,
    coherent_info,
    find_zero_crossing,
    jammer_value,
    max_coherent_info,
    separable_helper_capacity,
    swap_power_helper_capacity,
    two_copy_curve,
)
from envcap.degradability import Degradability, classify_envs
from envcap.experiments import A3_FAMILIES
from envcap.linalg import (
    bloch_density,
    check_density_matrix,
    entropy,
    haar_unitary,
    maximally_entangled,
    partial_trace,
    projector,
)
from oracles import (
    apply_channel,
    entangled_env_channel,
    entangled_helper_coherent_info,
    jammer_affine,
    jammer_ic,
    jammer_search,
    maximally_mixed,
    random_density_matrix,
    random_pure_state,
    swap_power_helper_outputs,
    tensor,
    two_copy_output,
)

PI = np.pi
SRC = Path(__file__).resolve().parents[1] / "src"
KET0 = np.array([1, 0], dtype=complex)
FAST_OPTS = OptimizerOptions(restarts=4, grid=32, max_iters=400)

#: (canonical point in units of pi, jammer value) of gates with a positive
#: value, frozen from the nested max-min search at its default 17/9 grids.
JAMMER_POSITIVE = (((0.1, 0.05, 0.02), 0.7697479960752763),
                   ((0.2, 0.1, 0.0), 0.379600589431458),
                   ((0.3, 0.1, 0.05), 0.06457670876978083))


def identity_channel():
    return KrausChannel((np.eye(2, dtype=complex),), dim_in=2, dim_out=2)


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


class TestSeparableHelperSymmetry:
    """Gates that commute with every u (x) u take a 1-d certified branch,
    which rests on three facts: every pure environment gives a channel
    unitarily equivalent to that of |0>, that channel is z-covariant, and
    on degradable channels I_c is concave, so diagonal inputs suffice."""

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
        # the certificate bounds the maximum after any number of steps
        for g in (0.0, 8 / 63, 0.3, 31 / 63):
            want = separable_helper_capacity(swap_power(g)).value
            for steps in range(1, 25):
                res = separable_helper_capacity(swap_power(g), OptimizerOptions(max_iters=steps))
                lo, hi = res.diagnostics["bracket"]
                assert lo - 1e-15 <= want <= hi + 1e-15
                assert res.diagnostics["converged"] == 0

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
        res = jammer_value(SWAP, FAST_OPTS)
        assert res.value == pytest.approx(0.0, abs=1e-6)
        # clamped at zero like the separable helper; the raw optimum is a
        # round-off negative
        assert res.value == 0.0
        assert -1e-12 < res.diagnostics["raw_value"] <= 0.0

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
        assert abs(max(0.0, low) - jammer_value(v, FAST_OPTS).diagnostics["raw_value"]) < 1e-12

    @pytest.mark.parametrize("case", ["product", "haar"])
    def test_argmax_consistent_with_value(self, case):
        rng = np.random.default_rng(78)
        if case == "product":
            v = tensor(haar_unitary(2, rng), haar_unitary(2, rng))
        else:
            v = haar_unitary(4, rng)
        res = jammer_value(v, FAST_OPTS)
        ic = coherent_info(effective_channel(v, res.argmax_env), res.argmax_input)
        assert abs(ic - res.diagnostics["raw_value"]) < 1e-9

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
        dressed = (tensor(haar_unitary(2, rng), haar_unitary(2, rng)) @ u
                   @ tensor(haar_unitary(2, rng), haar_unitary(2, rng)))
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

    @pytest.mark.parametrize("lo,hi,tol", [(0.0, 1.0, 0.0), (0.0, 1.0, -1.0),
                                           (0.0, 1.0, float("nan")),
                                           (0.9, 0.5, 1e-6), (0.5, 0.5, 1e-6)])
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


def test_optimizer_options_validation():
    with pytest.raises(ValueError):
        OptimizerOptions(restarts=0)
    with pytest.raises(ValueError):
        OptimizerOptions(tol=0.0)
    for bad in (dict(grid=0), dict(grid=1), dict(max_iters=0), dict(tol=float("nan"))):
        with pytest.raises(ValueError):
            OptimizerOptions(**bad)


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
                   swap_power_helper_capacity(0.6, opts),
                   jammer_value(CNOT, opts)]
        for res in results:
            d = res.diagnostics
            assert RESTART_RECORD <= set(d)
            assert d["restarts"] == len(d["restart_values"])
            assert 0 <= d["converged"] <= d["restarts"]
            assert d["nfev"] >= d["restarts"]
        assert results[2].diagnostics["restarts"] == results[4].diagnostics["restarts"] == 0
        assert "bracket" not in results[4].diagnostics
        lo, hi = separable_helper_capacity(swap_power(0.3)).diagnostics["bracket"]
        assert hi - lo <= 1e-9

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
        # frozen from sequential scipy Nelder-Mead runs with the same step rules
        res = swap_power_helper_capacity(gamma)
        d = res.diagnostics
        assert res.value == pytest.approx(value, abs=1e-12)
        assert d["nfev"] == nfev
        assert d["converged"] == d["restarts"] == 9

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
                             xatol=1e-8, fatol=1e-10, maxiter=maxiter, maxfev=2 * maxiter))
            assert np.array_equal(ref.x, res.x[i]) and ref.fun == res.fun[i]
            assert ref.nfev == res.calls[i] and ref.success == res.converged[i]


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
