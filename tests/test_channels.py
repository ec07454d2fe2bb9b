import numpy as np
import pytest

from envcap.canonical import SWAP, swap_power
from envcap import channels
from envcap.channels import (
    KRAUS_WEIGHT_FLOOR,
    BipartiteUnitary,
    KrausChannel,
    as_two_qubit,
    batch_effective_kraus,
    effective_channel,
    normal_form_stack,
)
from envcap.degradability import batch_degradability_index
from envcap.linalg import entropy, haar_unitary, maximally_entangled, projector
from oracles import (
    apply_channel,
    channel_reduction_b,
    choi_state,
    complement_channel,
    complementary_channel,
    entangled_env_channel,
    kraus_normal_form_by_list,
    maximally_mixed,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    same_bits,
    tensor,
)

KET0 = np.array([1, 0], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
CNOT_M = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                  dtype=complex)


def random_two_kraus_qubit_channel(rng):
    """Qubit channel from a random dilation with a pure qubit environment."""
    v = haar_unitary(4, rng)
    return effective_channel(v, random_pure_state(2, rng))


def normal_form(c: KrausChannel) -> tuple[KrausChannel, np.ndarray]:
    """:func:`normal_form_stack` of one channel, as a channel, and its weights."""
    ops, weights = normal_form_stack(c.kraus)
    return KrausChannel(ops), weights


class TestAsTwoQubit:
    def test_wraps_raw_matrix_and_passes_gates_through(self):
        g = as_two_qubit(CNOT_M)
        assert isinstance(g, BipartiteUnitary)
        assert np.array_equal(g.matrix, CNOT_M)
        assert as_two_qubit(g) is g

    @pytest.mark.parametrize("bad", [
        np.eye(6, dtype=complex),
        np.eye(8, dtype=complex),
        np.ones((4, 4), dtype=complex),
        np.full((4, 4), np.nan),
    ])
    def test_rejects_other_gates(self, bad):
        with pytest.raises(ValueError):
            as_two_qubit(bad)

    def test_checks_a_raw_matrix_once_and_a_gate_never(self, monkeypatch):
        calls = []

        def counting(u):
            calls.append(1)
            return np.asarray(u, dtype=complex)

        monkeypatch.setattr(channels, "check_unitary", counting)
        g = as_two_qubit(CNOT_M)
        assert len(calls) == 1
        assert as_two_qubit(g) is g and len(calls) == 1


class TestEffectiveChannel:
    def test_swap_is_constant(self):
        rng = np.random.default_rng(30)
        eta = random_pure_state(2, rng)
        ch = effective_channel(SWAP, eta)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            assert np.abs(apply_channel(ch, rho) - projector(eta)).max() < 1e-12

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.63, 1.0])
    def test_swap_power_kraus_pair(self, gamma):
        ch = effective_channel(swap_power(gamma), KET0)
        a = (1 + np.exp(1j * np.pi * gamma)) / 2
        b = (1 - np.exp(1j * np.pi * gamma)) / 2
        assert np.abs(ch.kraus[0] - np.array([[1, 0], [0, a]])).max() < 1e-14
        assert np.abs(ch.kraus[1] - np.array([[0, b], [0, 0]])).max() < 1e-14

    def test_cnot_with_plus_env_is_identity(self):
        ch = effective_channel(CNOT_M, KET_PLUS)
        for rho in (maximally_mixed(2), projector(KET_PLUS)):
            assert np.abs(apply_channel(ch, rho) - rho).max() < 1e-12

    def test_mixed_env_completeness(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            v = haar_unitary(4, rng)
            eta = random_density_matrix(2, rng)
            ch = effective_channel(v, eta)
            comp = sum(k.conj().T @ k for k in ch.kraus)
            assert np.abs(comp - np.eye(2)).max() < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            effective_channel(SWAP, random_pure_state(3, np.random.default_rng(0)))

    def test_pure_env_is_the_stacked_contraction(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            v, eta = haar_unitary(4, rng), random_pure_state(2, rng)
            assert same_bits(effective_channel(v, eta).kraus, batch_effective_kraus(v, eta))

    def test_mixed_env_weights_the_stacks_at_its_eigenvectors(self):
        # sqrt(p_j) times the stack at each eigenvector of eigh, by descending weight;
        # a pure density matrix keeps its one nonzero component
        rng = np.random.default_rng(33)
        envs = [random_density_matrix(2, rng) for _ in range(20)] + [projector(KET_PLUS)]
        for eta in envs:
            v = haar_unitary(4, rng)
            w, u = np.linalg.eigh(eta)
            keep = np.flatnonzero(w > KRAUS_WEIGHT_FLOOR)[::-1]
            want = np.sqrt(w[keep])[:, None, None, None] * batch_effective_kraus(v, u[:, keep].T)
            assert same_bits(effective_channel(v, eta).kraus, want.reshape(-1, 2, 2))


class TestComplementaryChannel:
    def test_swap_routes_input_to_environment(self):
        rng = np.random.default_rng(33)
        ch = complementary_channel(SWAP, random_pure_state(2, rng))
        rho = random_density_matrix(2, rng)
        assert np.abs(apply_channel(ch, rho) - rho).max() < 1e-12

    def test_trivial_gate_gives_constant(self):
        rng = np.random.default_rng(34)
        eta = random_pure_state(2, rng)
        ch = complementary_channel(np.eye(4, dtype=complex), eta)
        rho = random_density_matrix(2, rng)
        assert np.abs(apply_channel(ch, rho) - projector(eta)).max() < 1e-12

    def test_entropy_matches_channel_on_pure_input(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            v = haar_unitary(4, rng)
            eta = random_pure_state(2, rng)
            rho = projector(random_pure_state(2, rng))
            s_b = entropy(apply_channel(effective_channel(v, eta), rho))
            s_f = entropy(apply_channel(complementary_channel(v, eta), rho))
            assert abs(s_b - s_f) < 1e-9

    def test_mixed_env_rejected(self):
        with pytest.raises(ValueError):
            complementary_channel(SWAP, maximally_mixed(2))

    def test_choi_matches_global_state_reduction(self):
        rng = np.random.default_rng(36)
        v = haar_unitary(4, rng)
        eta = random_pure_state(2, rng)
        ch = complementary_channel(v, eta)
        phi = maximally_entangled(2)
        glob = tensor(np.eye(2), v) @ tensor(phi.reshape(2, 2), eta).reshape(-1)
        # wires R, A, E -> R, B, F
        rho_rf = partial_trace(projector(glob), (2, 2, 2), keep=(0, 2))
        assert np.abs(choi_state(ch) - rho_rf).max() < 1e-10


class TestEntangledEnvChannel:
    def test_product_helper_reduces_to_effective(self):
        rng = np.random.default_rng(37)
        v = haar_unitary(4, rng)
        eta = random_pure_state(2, rng)
        kappa = tensor(eta, KET0).reshape(-1)
        ch = entangled_env_channel(v, kappa)
        eff = effective_channel(v, eta)
        rho = random_density_matrix(2, rng)
        expected = tensor(apply_channel(eff, rho), projector(KET0))
        assert np.abs(apply_channel(ch, rho) - expected).max() < 1e-12

    def test_swap_outputs_helper_state(self):
        rng = np.random.default_rng(38)
        kappa = random_pure_state(4, rng)
        ch = entangled_env_channel(SWAP, kappa)
        rho = random_density_matrix(2, rng)
        assert np.abs(apply_channel(ch, rho) - projector(kappa)).max() < 1e-12

    def test_trivial_helper_dimension_matches_effective(self):
        rng = np.random.default_rng(39)
        v = haar_unitary(4, rng)
        eta = random_pure_state(2, rng)
        ch = entangled_env_channel(v, eta, dim_h=1)
        eff = effective_channel(v, eta)
        rho = random_density_matrix(2, rng)
        assert np.abs(apply_channel(ch, rho) - apply_channel(eff, rho)).max() < 1e-12


class TestNormalForm:
    def test_swap_power_pair_already_normal(self):
        ch = effective_channel(swap_power(0.63), KET0)
        nf, w = normal_form(ch)
        assert len(nf) == 2 and w[1] > KRAUS_WEIGHT_FLOOR
        gram01 = np.trace(nf.kraus[0].conj().T @ nf.kraus[1])
        assert abs(gram01) < 1e-10
        assert np.abs(choi_state(nf) - choi_state(ch)).max() < 1e-10
        # input was already normal: output equals it up to per-operator
        # phases and ordering
        for got, orig in zip(nf.kraus, ch.kraus):
            assert np.abs(np.abs(got) - np.abs(orig)).max() < 1e-12
        assert w[0] >= w[1]

    def test_single_kraus_unchanged(self):
        rng = np.random.default_rng(40)
        u = haar_unitary(2, rng)
        ch = KrausChannel((u,))
        nf, _ = normal_form(ch)
        assert len(nf) == 1
        assert np.abs(choi_state(nf) - choi_state(ch)).max() < 1e-12

    def test_random_channels_gram_orthogonal(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            ch = random_two_kraus_qubit_channel(rng)
            nf, _ = normal_form(ch)
            for i in range(len(nf)):
                for j in range(i + 1, len(nf)):
                    assert abs(np.trace(nf.kraus[i].conj().T @ nf.kraus[j])) < 1e-10
            assert np.abs(choi_state(nf) - choi_state(ch)).max() < 1e-10

    def test_idempotent_up_to_phases(self):
        rng = np.random.default_rng(42)
        ch = random_two_kraus_qubit_channel(rng)
        once, _ = normal_form(ch)
        twice, _ = normal_form(once)
        assert np.abs(choi_state(once) - choi_state(twice)).max() < 1e-10
        gram01 = np.trace(twice.kraus[0].conj().T @ twice.kraus[1])
        assert abs(gram01) < 1e-10

    def test_zero_operators_dropped(self):
        # a zero operator sorts last, with a weight under the floor that drops it
        k0 = np.eye(2, dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        nf, w = normal_form(KrausChannel((zero, k0)))
        assert w[0] > KRAUS_WEIGHT_FLOOR >= w[1]
        assert np.abs(nf.kraus[1]).max() == 0.0


class TestNormalFormStack:
    def test_stack_equals_each_channel_bit_for_bit(self):
        rng = np.random.default_rng(43)
        gates = [haar_unitary(4, rng) for _ in range(6)]
        for n_env in (1, 2):  # two Kraus operators from pure states, four from mixed
            envs = [random_density_matrix(2, rng) if n_env == 2 else random_pure_state(2, rng)
                    for _ in range(4)]
            chans = [[effective_channel(v, e) for e in envs] for v in gates]
            ops, weights = normal_form_stack([[c.kraus for c in row] for row in chans])
            assert ops.shape == (6, 4, 2 * n_env, 2, 2) and weights.shape == (6, 4, 2 * n_env)
            for row_ops, row_w, row in zip(ops, weights, chans):
                for k, w, ch in zip(row_ops, row_w, row):
                    nf, nf_w = normal_form(ch)
                    assert same_bits(k, nf.kraus) and same_bits(w, nf_w)
                    want_ops, want_w = kraus_normal_form_by_list(ch.kraus)
                    assert same_bits(k, np.stack(want_ops)) and same_bits(w, want_w)

    def test_equal_weights_sorted_by_entries(self):
        # sigma_x and sigma_z have equal weight and orthogonal Gram columns;
        # sigma_x comes first because its first entry is the smaller
        sx = np.array([[0, 1], [1, 0]], complex) / np.sqrt(2)
        sz = np.array([[1, 0], [0, -1]], complex) / np.sqrt(2)
        ops, weights = normal_form_stack([[sz, sx], [sx, sz]])
        for pair in ops:
            assert np.abs(np.abs(pair[0]) - np.abs(sx)).max() < 1e-15
        nf, _ = normal_form(KrausChannel((sz, sx)))
        assert same_bits(nf.kraus, ops[0])


class TestChoiState:
    def test_identity_channel(self):
        ch = KrausChannel((np.eye(2, dtype=complex),))
        assert np.abs(choi_state(ch) - projector(maximally_entangled(2))).max() < 1e-14

    def test_depolarizing(self):
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        ch = KrausChannel(tuple(0.5 * np.asarray(p, complex) for p in paulis))
        assert np.abs(choi_state(ch) - np.eye(4) / 4).max() < 1e-14

    def test_elementwise_assembly_oracle(self):
        rng = np.random.default_rng(43)
        ch = random_two_kraus_qubit_channel(rng)
        d = ch.dim_in
        expected = np.zeros((4, 4), complex)
        for i in range(d):
            for j in range(d):
                eij = np.zeros((d, d), complex)
                eij[i, j] = 1.0 / d
                block = sum(k @ eij @ k.conj().T for k in ch.kraus)
                expected[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2] = block
        assert np.abs(choi_state(ch) - expected).max() < 1e-12

    def test_b_reduction(self):
        rng = np.random.default_rng(44)
        ch = random_two_kraus_qubit_channel(rng)
        expected = apply_channel(ch, maximally_mixed(2))
        assert np.abs(channel_reduction_b(ch) - expected).max() < 1e-12


class TestApplyAndComplement:
    def test_identity(self):
        rng = np.random.default_rng(45)
        ch = KrausChannel((np.eye(2, dtype=complex),))
        rho = random_density_matrix(2, rng)
        assert np.abs(apply_channel(ch, rho) - rho).max() < 1e-14

    def test_trace_preserving(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            ch = random_two_kraus_qubit_channel(rng)
            rho = random_density_matrix(2, rng)
            assert abs(np.trace(apply_channel(ch, rho)) - 1) < 1e-12

    def test_dimension_mismatch(self):
        ch = KrausChannel((np.eye(2, dtype=complex),))
        with pytest.raises(ValueError):
            apply_channel(ch, np.eye(3) / 3)

    def test_complement_is_cptp(self):
        rng = np.random.default_rng(47)
        ch = random_two_kraus_qubit_channel(rng)
        comp = complement_channel(ch)
        assert comp.dim_out == len(ch.kraus)
        rho = random_density_matrix(2, rng)
        assert abs(np.trace(apply_channel(comp, rho)) - 1) < 1e-12

    def test_complement_entries_are_kraus_overlaps(self):
        rng = np.random.default_rng(48)
        ch = random_two_kraus_qubit_channel(rng)
        rho = random_density_matrix(2, rng)
        out = apply_channel(complement_channel(ch), rho)
        expected = np.array([[np.trace(a @ rho @ b.conj().T) for b in ch.kraus]
                             for a in ch.kraus])
        assert np.abs(out - expected).max() < 1e-12


def test_completeness_validation():
    bad = (np.eye(2, dtype=complex) * 0.9,)
    with pytest.raises(ValueError):
        KrausChannel(bad)


@pytest.mark.parametrize("bad", [
    np.full((1, 2, 2), np.nan),
    np.full((1, 2, 2), np.inf),
    (np.eye(2), np.eye(3)),
    np.eye(2),
    np.zeros((0, 2, 2)),
], ids=["nan", "inf", "mixed-shapes", "bare-matrix", "empty"])
def test_malformed_stack_rejected(bad):
    # a NaN deviation fails the completeness test instead of passing it
    with pytest.raises(ValueError):
        KrausChannel(bad)


def test_stack_fixes_the_dimensions():
    ch = entangled_env_channel(SWAP, np.kron(KET0, KET_PLUS))
    assert ch.kraus.shape == (2, 4, 2) and (ch.dim_in, ch.dim_out) == (2, 4)
    comp = complement_channel(ch)  # built from a swapped-axes view: stored contiguous
    assert comp.kraus.flags.c_contiguous and (comp.dim_in, comp.dim_out) == (2, 2)
    assert len(comp) == 4


def test_built_channel_cannot_be_changed():
    # the channel holds a read-only copy: validation cannot be undone afterwards
    ops = np.eye(2, dtype=complex)[None]
    ch = KrausChannel(ops)
    ops[:] = 0
    assert np.array_equal(ch.kraus, np.eye(2)[None])
    with pytest.raises(ValueError):
        ch.kraus[:] = 0
    assert np.array_equal(ch.kraus, np.eye(2)[None])


def test_built_gate_cannot_be_changed():
    # the gate holds a read-only copy: zeroing the caller's array after the
    # unitarity check changes neither the matrix nor the index read from it
    m = CNOT_M.copy()
    g = BipartiteUnitary(m)
    before = batch_degradability_index(g, [KET0, KET_PLUS])
    m[:] = 0
    assert np.array_equal(g.matrix, CNOT_M)
    assert np.array_equal(batch_degradability_index(g, [KET0, KET_PLUS]), before)
    assert not g.matrix.flags.writeable
    with pytest.raises(ValueError):
        g.matrix[:] = 0


def test_channels_and_gates_compare_by_identity():
    a, b = KrausChannel(np.eye(2)[None]), KrausChannel(np.eye(2)[None])
    u, w = BipartiteUnitary(CNOT_M), BipartiteUnitary(CNOT_M)
    assert a == a and a != b and u == u and u != w
    assert len({a, b, a}) == 2 and len({u, w, u}) == 2
    assert hash(a) == hash(a) and hash(u) == hash(u)


def test_unitarity_validation():
    with pytest.raises(ValueError):
        BipartiteUnitary(np.eye(4) * 1.001)
