import numpy as np
import pytest

from envcap.canonical import (
    CNOT,
    SWAP,
    canonical_matrix,
    canonical_unitary,
    decompose_params,
    swap_power,
)
from envcap.channels import (
    KRAUS_WEIGHT_FLOOR,
    KrausChannel,
    batch_effective_kraus,
    effective_channel,
    normal_form_stack,
)
from envcap.degradability import (
    SYMMETRIC_TOL,
    Degradability,
    batch_degradability_index,
    bloch_sphere_grid,
    classify_envs,
    degradability_index,
    is_universally_antidegradable,
    universally_antidegradable,
)
from envcap.degradability import _cubic_coefficients, _sphere_monomials
from envcap.experiments import REGION_UNIVERSAL_GRID
from envcap.linalg import bloch_state, haar_unitary
from oracles import (
    bloch_determinant_index,
    complementary_channel,
    degenerate_weights,
    degradability_index_by_list,
    is_antidegradable_choi,
    random_pure_state,
    region_points,
    same_bits,
)

KET0 = np.array([1, 0], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
PI = np.pi


class TestIndex:
    @pytest.mark.parametrize("gamma", [0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_swap_power_closed_form(self, gamma):
        # the fractional swap damps with cos^2(pi gamma / 2), so the index
        # is cos(pi gamma) for every pure environment state
        rng = np.random.default_rng(60)
        for eta in [KET0] + [random_pure_state(2, rng) for _ in range(5)]:
            idx = degradability_index(swap_power(gamma), eta)
            assert idx == pytest.approx(np.cos(PI * gamma), abs=1e-12)

    def test_identity_gate(self):
        rng = np.random.default_rng(61)
        assert degradability_index(np.eye(4, dtype=complex),
                                   random_pure_state(2, rng)) == 1.0

    def test_sqrt_swap_symmetric_everywhere(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            idx = degradability_index(swap_power(0.5), random_pure_state(2, rng))
            assert abs(idx) < 1e-9

    def test_ordering_invariance(self):
        # in a two-operator normal form the index does not depend on which
        # operator is labeled first: K1^dag K1 = I - K0^dag K0 and
        # det(-M) = det(M) in two dimensions
        rng = np.random.default_rng(63)
        for _ in range(100):
            ch = effective_channel(haar_unitary(4, rng), random_pure_state(2, rng))
            ops, weights = normal_form_stack(ch.kraus)
            if weights[1] <= KRAUS_WEIGHT_FLOOR:
                continue
            dets = [np.linalg.det(2 * k.conj().T @ k - np.eye(2)).real for k in ops]
            assert abs(dets[0] - dets[1]) < 1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            v = haar_unitary(4, rng)
            eta = random_pure_state(2, rng)
            batch = batch_degradability_index(v, eta[None, :])[0]
            assert abs(batch - degradability_index(v, eta)) < 1e-12


    def test_batch_kraus_leading_axes(self):
        rng = np.random.default_rng(65)
        v = haar_unitary(4, rng)
        etas = np.array([random_pure_state(2, rng) for _ in range(6)])
        stacked = batch_effective_kraus(v, etas.reshape(2, 3, 2))
        assert stacked.shape == (2, 3, 2, 2, 2)
        for eta, k in zip(etas, stacked.reshape(6, 2, 2, 2)):
            single = batch_effective_kraus(v, eta)
            assert np.abs(k - single).max() < 1e-15
            assert np.abs(single - effective_channel(v, eta).kraus).max() < 1e-15


class TestClassify:
    def test_damping_side_of_swap_family(self):
        cl = classify_envs(swap_power(0.75), KET0[None])[0]
        assert cl.tag is Degradability.ANTI_DEGRADABLE
        assert cl.index == pytest.approx(np.cos(0.75 * PI), abs=1e-12)

    def test_identity_gate(self):
        rng = np.random.default_rng(65)
        cl = classify_envs(np.eye(4, dtype=complex), random_pure_state(2, rng)[None])[0]
        assert cl.tag is Degradability.DEGRADABLE

    def test_sqrt_swap_symmetric(self):
        cl = classify_envs(swap_power(0.5), KET_PLUS[None])[0]
        assert cl.tag is Degradability.SYMMETRIC


@pytest.mark.parametrize("entry", [effective_channel, degradability_index,
                                   lambda v, eta: classify_envs(v, eta[None]),
                                   lambda v, eta: batch_degradability_index(v, eta[None])],
                         ids=["effective_channel", "degradability_index", "classify_envs",
                              "batch_degradability_index"])
def test_qutrit_environment_rejected_at_the_boundary(entry):
    # one check and one message for every entry point, not an einsum's broadcast error
    eta = random_pure_state(3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="dimension"):
        entry(swap_power(0.3), eta)


class TestChoiCriterion:
    def test_identity_channel_not_antidegradable(self):
        ch = KrausChannel((np.eye(2, dtype=complex),))
        assert not is_antidegradable_choi(ch)

    def test_constant_channel_antidegradable(self):
        rng = np.random.default_rng(66)
        ch = effective_channel(SWAP, random_pure_state(2, rng))
        assert is_antidegradable_choi(ch)

    def test_high_rank_environment_rejected(self):
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        depol = KrausChannel(tuple(0.5 * np.asarray(p, complex) for p in paulis))
        with pytest.raises(ValueError):
            is_antidegradable_choi(depol)

    def test_cross_agreement_with_determinant(self):
        rng = np.random.default_rng(67)
        checked = 0
        for _ in range(100):
            v = haar_unitary(4, rng)
            eta = random_pure_state(2, rng)
            idx = degradability_index(v, eta)
            if abs(idx) <= 1e-6:
                continue
            ch = effective_channel(v, eta)
            assert is_antidegradable_choi(ch) == (idx < 0)
            checked += 1
        assert checked > 80

    def test_complement_swaps_classification(self):
        rng = np.random.default_rng(68)
        checked = 0
        for _ in range(60):
            v = haar_unitary(4, rng)
            eta = random_pure_state(2, rng)
            idx = degradability_index(v, eta)
            if abs(idx) <= 1e-6:
                continue
            direct = is_antidegradable_choi(effective_channel(v, eta))
            leaked = is_antidegradable_choi(complementary_channel(v, eta))
            assert direct != leaked
            checked += 1
        assert checked > 40


class TestUniversal:
    def test_swap(self):
        assert is_universally_antidegradable(SWAP)

    def test_cnot(self):
        # the environment state (|0>+|1>)/sqrt(2) induces the identity channel
        assert not is_universally_antidegradable(CNOT)
        assert degradability_index(CNOT, KET_PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_antidegradable_tetrahedron_vertex(self):
        v = canonical_unitary((PI / 2, PI / 4, PI / 4))
        assert is_universally_antidegradable(v)

    def test_region_consistency_sample(self):
        from envcap.canonical import in_antidegradable_region
        rng = np.random.default_rng(69)
        count = 0
        while count < 60:
            p = tuple(np.sort(rng.uniform(0, PI / 2, 3))[::-1])
            sums = (p[0] + p[1], p[1] + p[2], p[2] + p[0])
            if min(abs(s - PI / 2) for s in sums) <= 0.05:
                continue
            assert (in_antidegradable_region(p)
                    == is_universally_antidegradable(canonical_unitary(p)))
            count += 1


    @pytest.mark.parametrize("grid", [0, 1, 2.5, 8.0])
    def test_grid_without_two_points_rejected(self, grid):
        # grid 0 would scan no state, and every state of an empty scan passes; a
        # float grid, even a whole one, is rejected as OptimizerOptions rejects it
        with pytest.raises(ValueError, match="grid"):
            is_universally_antidegradable(CNOT, grid)
        with pytest.raises(ValueError, match="grid"):
            universally_antidegradable(CNOT[None], grid)


@pytest.mark.parametrize("etas", [[[2, 0]], [[np.nan, 0]], [KET0, 1.001 * KET_PLUS]],
                         ids=["norm-2", "nan", "one-row-off"])
def test_unnormalized_states_rejected(etas):
    with pytest.raises(ValueError, match="normalized"):
        classify_envs(CNOT, etas)
    with pytest.raises(ValueError, match="normalized"):
        batch_degradability_index(CNOT, etas)


def test_single_state_entry_points_reject_a_stack():
    # stacks pass the norm check, so the one-state API checks the shape itself
    etas = np.array([KET0, KET_PLUS])
    assert batch_degradability_index(CNOT, etas).shape == (2,)
    with pytest.raises(ValueError, match="one state vector"):
        degradability_index(CNOT, etas)
    with pytest.raises(ValueError):
        effective_channel(CNOT, np.array([KET0, KET_PLUS, KET0]))


@pytest.mark.parametrize("counts", [(0,), (True,), (2.5,), (3, 0), (3, True), (3, 2.5)])
def test_bloch_sphere_grid_counts_checked(counts):
    with pytest.raises(ValueError):
        bloch_sphere_grid(*counts)


def test_bloch_sphere_grid_shape():
    states, thetas, phis = bloch_sphere_grid(8, 16)
    assert states.shape == (128, 2)
    assert np.abs(np.linalg.norm(states, axis=1) - 1).max() < 1e-12
    assert thetas.min() == 0.0 and thetas.max() == pytest.approx(PI)
    assert phis.max() < 2 * PI
    assert np.array_equal(states, bloch_state(thetas, phis))


def pool_gates() -> list:
    """The benchmark's gate pool: 16 Haar gates from seed 20140730, reduced
    to canonical form."""
    rng = np.random.default_rng(20140730)
    return [canonical_unitary(decompose_params(haar_unitary(4, rng))) for _ in range(16)]


def tags(index: np.ndarray) -> np.ndarray:
    """-1, 0, +1 for anti-degradable, symmetric and degradable indices."""
    return np.where(np.abs(index) <= SYMMETRIC_TOL, 0, np.sign(index))


class TestStackedIndex:
    def test_classify_envs_equals_scalar_bit_for_bit(self):
        etas, _, _ = bloch_sphere_grid(12, 12)
        for v in pool_gates() + [canonical_unitary((PI / 2, 0.0, 0.0))]:
            stacked = classify_envs(v, etas)
            for eta, cl in zip(etas, stacked):
                assert same_bits(cl.index, degradability_index(v, eta))
                assert same_bits(cl.index, degradability_index_by_list(v, eta))
                assert cl == classify_envs(v, eta[None])[0]

    def test_chunks_do_not_change_values(self):
        # 33 x 33 states run as two chunks; every state equals its lone call
        etas, _, _ = bloch_sphere_grid(33, 33)
        v = pool_gates()[3]
        index = [cl.index for cl in classify_envs(v, etas)]
        assert same_bits(index, [degradability_index(v, eta) for eta in etas])
        assert classify_envs(v, etas[:0]) == []

    def test_single_state_kraus_unchanged(self):
        # one state takes the stacked contraction; it must give the bits of
        # the single-state contraction
        rng = np.random.default_rng(66)
        for _ in range(20):
            v = haar_unitary(4, rng)
            eta = random_pure_state(2, rng)
            single = np.einsum("bfae,e->fba", v.reshape(2, 2, 2, 2), eta)
            assert same_bits(batch_effective_kraus(v, eta), single)


class TestBatchedAgainstNormalForm:
    """The basis-free batched index against the normal-form kernel on the
    states that ``region_scan --grid 5`` scans.  Where both Kraus weights
    are 1 the normal form leads with any unit combination of the two, and
    its value depends on that pick; there the batched index is checked
    against the Pauli-trace oracle instead."""

    ETAS = bloch_sphere_grid(REGION_UNIVERSAL_GRID, REGION_UNIVERSAL_GRID)[0]

    def test_tags_agree_and_values_where_the_gram_gap_is_open(self):
        for p in region_points(5):
            v = canonical_unitary(p)
            batch = batch_degradability_index(v, self.ETAS)
            exact = np.array([cl.index for cl in classify_envs(v, self.ETAS)])
            open_gap = ~degenerate_weights(v, self.ETAS)
            assert np.array_equal(tags(batch)[open_gap], tags(exact)[open_gap]), p
            assert np.abs(batch - exact)[open_gap].max(initial=0.0) <= 1e-10, p

    def test_degenerate_states_match_the_pauli_trace_oracle(self):
        checked = 0
        for p in region_points(5):
            v = canonical_unitary(p)
            etas = self.ETAS[degenerate_weights(v, self.ETAS)]
            oracle = [bloch_determinant_index(v, eta) for eta in etas]
            assert np.abs(batch_degradability_index(v, etas) - oracle).max(initial=0.0) <= 1e-12, p
            checked += len(etas)
        assert checked >= 124

    def test_degenerate_weights_leave_the_value_open(self):
        # at (pi/2, 0, 0) both Kraus weights are 1 on 124 states; the
        # invariant reads 0 (symmetric) there, where the normal form reads
        # 60 of them anti-degradable, which a symmetric channel also is
        v = canonical_unitary((PI / 2, 0.0, 0.0))
        deg = degenerate_weights(v, self.ETAS)
        batch = batch_degradability_index(v, self.ETAS[deg])
        exact = np.array([cl.index for cl in classify_envs(v, self.ETAS[deg])])
        assert deg.sum() == 124
        assert np.abs(batch).max() <= 1e-15
        assert (exact < -SYMMETRIC_TOL).sum() == 60 and np.abs(batch - exact).max() > 0.5
        assert not is_universally_antidegradable(v, REGION_UNIVERSAL_GRID)


class TestInvariance:
    """Symmetries the physics guarantees, and the scan kernel's forms."""

    def test_local_unitaries(self):
        # (A (x) B) V (C (x) D) with environment eta induces the channel of V
        # with environment D eta, rotated by C at the input and A at the
        # output; its complement is rotated by B.  Rotations keep both
        # determinants.
        rng = np.random.default_rng(70)
        for _ in range(20):
            v = haar_unitary(4, rng)
            a, b, c, d = (haar_unitary(2, rng) for _ in range(4))
            etas = np.array([random_pure_state(2, rng) for _ in range(8)])
            dressed = np.kron(a, b) @ v @ np.kron(c, d)
            assert np.abs(batch_degradability_index(dressed, etas)
                          - batch_degradability_index(v, etas @ d.T)).max() <= 1e-12

    def test_matches_the_pauli_trace_oracle(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            v = haar_unitary(4, rng)
            eta = random_pure_state(2, rng)
            assert abs(batch_degradability_index(v, eta[None])[0]
                       - bloch_determinant_index(v, eta)) <= 1e-12

    def test_cubic_equals_the_transfer_determinants(self):
        # the closed-form coefficients times the grid monomials give the
        # determinants of the transfer matrices taken by Pauli traces, state by state
        rng = np.random.default_rng(72)
        gates = np.array([haar_unitary(4, rng) for _ in range(8)])
        cubic = _cubic_coefficients(gates) @ _sphere_monomials(16)
        etas, _, _ = bloch_sphere_grid(16, 16)
        for v, row in zip(gates, cubic):
            oracle = [bloch_determinant_index(v, eta) for eta in etas]
            assert np.abs(row - oracle).max() <= 1e-13

    def test_stacked_verdicts_equal_per_gate(self):
        points = region_points(9)
        stacked = universally_antidegradable(canonical_matrix(points), REGION_UNIVERSAL_GRID)
        assert stacked.shape == (len(points),)
        assert stacked.tolist() == [is_universally_antidegradable(canonical_unitary(p),
                                                                  REGION_UNIVERSAL_GRID)
                                    for p in points]
        assert universally_antidegradable(np.zeros((0, 4, 4)), 8).shape == (0,)
