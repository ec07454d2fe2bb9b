import numpy as np
import pytest

from envcap.linalg import (
    bloch_density,
    bloch_state,
    check_density_matrix,
    check_state_vector,
    eigvals2,
    entropy,
    haar_unitary,
    in_chunks,
    maximally_entangled,
    partial_trace,
    projector,
)
from oracles import (
    binary_entropy,
    maximally_mixed,
    random_density_matrix,
    random_pure_state,
    same_bits,
    tensor,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def ptrace_index_sum(m, d1, d2, keep):
    """Independent oracle: explicit index summation."""
    m = m.reshape(d1, d2, d1, d2)
    if keep == 0:
        return np.einsum("ijkj->ik", m)
    return np.einsum("ijil->jl", m)


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_projector_block(self):
        out = tensor(projector([1, 0]), SX)
        expected = np.zeros((4, 4), complex)
        expected[:2, :2] = SX
        assert np.abs(out - expected).max() == 0

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                          for _ in range(4))
            lhs = tensor(a, b) @ tensor(c, d)
            rhs = tensor(a @ c, b @ d)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_associative(self):
        # products are reassociated, so only up to rounding
        rng = np.random.default_rng(12)
        a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
        assert np.abs(tensor(tensor(a, b), c) - tensor(a, tensor(b, c))).max() < 1e-15


class TestPartialTrace:
    def test_maximally_entangled_reduction(self):
        rho = projector(maximally_entangled(2))
        for keep in (0, 1):
            out = partial_trace(rho, (2, 2), keep)
            assert np.abs(out - np.eye(2) / 2).max() < 1e-14

    def test_product_state(self):
        rng = np.random.default_rng(13)
        rho = random_density_matrix(2, rng)
        sigma = random_density_matrix(2, rng)
        out = partial_trace(tensor(rho, sigma), (2, 2), 0)
        assert np.abs(out - rho).max() < 1e-13

    def test_against_index_sum_oracle(self):
        rng = np.random.default_rng(14)
        for keep in (0, 1):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = m + m.conj().T
            out = partial_trace(m, (2, 2), keep)
            assert np.abs(out - ptrace_index_sum(m, 2, 2, keep)).max() < 1e-13

    def test_trace_preserved(self):
        rng = np.random.default_rng(15)
        for dims in ((2, 2), (2, 4), (4, 2)):
            m = rng.standard_normal((dims[0] * dims[1],) * 2) * 1j
            m = m + rng.standard_normal(m.shape)
            for keep in (0, 1):
                out = partial_trace(m, dims, keep)
                assert abs(np.trace(out) - np.trace(m)) < 1e-12

    def test_multi_subsystem(self):
        rng = np.random.default_rng(16)
        rho = random_density_matrix(8, rng)
        a = partial_trace(rho, (2, 2, 2), keep=(0, 2))
        b = partial_trace(partial_trace(rho, (2, 4), 1), (2, 2), 1)
        # keep (0,2) then drop nothing vs trace middle qubit stepwise
        c = partial_trace(rho, (4, 2), 1)
        assert a.shape == (4, 4)
        assert abs(np.trace(a) - 1) < 1e-12
        assert np.abs(b - partial_trace(a, (2, 2), 1)).max() < 1e-12
        assert np.abs(c - partial_trace(a, (2, 2), 1)).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), (2, 2), 0)
        with pytest.raises(ValueError):
            partial_trace(np.ones(16), (2, 2), 0)

    def test_stack_equals_each_matrix_bit_for_bit(self):
        rng = np.random.default_rng(17)
        rhos = np.array([[random_density_matrix(8, rng) for _ in range(3)] for _ in range(2)])
        for keep in ((0, 2), (1,), 2):
            out = partial_trace(rhos, (2, 2, 2), keep)
            for got, rho in zip(out.reshape(6, *out.shape[2:]), rhos.reshape(6, 8, 8)):
                assert same_bits(got, partial_trace(rho, (2, 2, 2), keep))


def test_projector_stack():
    rng = np.random.default_rng(18)
    psis = np.array([random_pure_state(4, rng) for _ in range(5)])
    stack = projector(psis)
    assert stack.shape == (5, 4, 4)
    for p, psi in zip(stack, psis):
        assert same_bits(p, np.outer(psi, psi.conj()))


def test_in_chunks_joins_slices():
    a, b = np.arange(10.0), np.arange(10.0, 20.0)
    calls = []

    def f(x, y):
        calls.append(len(x))
        return x * y

    assert same_bits(in_chunks(f, 4, a, b), a * b)
    assert calls == [4, 4, 2]
    assert in_chunks(f, 4, a[:0], b[:0]).shape == (0,)  # one call on the empty stack


class TestHermEigvals:
    """``eigvals2``, the package's spectrum of Hermitian qubit operators."""

    @staticmethod
    def check_against_eigvalsh(m):
        w = eigvals2(m)
        assert w.shape == m.shape[:-1]
        assert (w[..., 0] <= w[..., 1]).all()
        assert np.abs(w - np.linalg.eigvalsh(m)).max() < 1e-12

    def test_pauli_z(self):
        assert np.allclose(eigvals2(SZ), [-1.0, 1.0])
        # diagonal and nearly diagonal, in either order
        self.check_against_eigvalsh(np.array(
            [SZ, np.diag([0.3, 0.7]), np.diag([0.7, 0.3]), [[0.5, 0.5j], [-0.5j, 0.5]],
             [[1.0, 1e-9], [1e-9, 0.0]], [[0.0, 1e-9j], [-1e-9j, 1.0]]], dtype=complex))

    def test_maximally_mixed(self):
        assert np.allclose(eigvals2(maximally_mixed(2)), [0.5, 0.5])
        # degenerate, and nearly scalar
        self.check_against_eigvalsh(np.array(
            [maximally_mixed(2), np.diag([-1.0, -1.0]), np.zeros((2, 2)),
             [[1.0 - 2e-16, 1e-300], [1e-300, 1.0]]], dtype=complex))

    def test_quadratic_formula_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = h + h.conj().T
            tr = np.trace(h).real
            det = np.linalg.det(h).real
            disc = np.sqrt(tr * tr / 4 - det)
            expected = np.sort([tr / 2 - disc, tr / 2 + disc])
            assert np.abs(eigvals2(h) - expected).max() < 1e-12
            self.check_against_eigvalsh(h)

    def test_sum_is_trace(self):
        rng = np.random.default_rng(18)
        h = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
        h = h + h.conj().swapaxes(-1, -2)
        assert np.abs(eigvals2(h).sum(-1) - np.trace(h, axis1=-2, axis2=-1).real).max() < 1e-12
        # a stack with leading axes
        h = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
        self.check_against_eigvalsh(h + h.conj().swapaxes(-1, -2))

    def test_projector_spectrum(self):
        rng = np.random.default_rng(19)
        p = projector([random_pure_state(2, rng) for _ in range(5)])
        assert np.abs(eigvals2(p) - [0.0, 1.0]).max() < 1e-12


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert entropy(maximally_mixed(2)) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state(self):
        rng = np.random.default_rng(20)
        assert entropy(projector(random_pure_state(3, rng))) == pytest.approx(0.0, abs=1e-9)

    def test_binary_value(self):
        assert entropy(np.diag([0.75, 0.25]).astype(complex)) == pytest.approx(
            0.811278, abs=1e-6)

    def test_matches_binary_entropy(self):
        for x in (0.1, 0.25, 0.5, 0.9):
            assert entropy(np.diag([x, 1 - x]).astype(complex)) == pytest.approx(
                binary_entropy(x), abs=1e-12)

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            entropy(np.diag([0.9, 0.3]))
        with pytest.raises(ValueError):
            entropy(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            entropy(np.full((2, 2), np.nan))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            rho = random_density_matrix(4, rng)
            u = haar_unitary(4, rng)
            assert entropy(u @ rho @ u.conj().T) == pytest.approx(
                entropy(rho), abs=1e-9)


class TestBinaryEntropy:
    @pytest.mark.parametrize("x,expected", [(0.5, 1.0), (0.0, 0.0), (1.0, 0.0)])
    def test_exact_points(self, x, expected):
        assert binary_entropy(x) == pytest.approx(expected, abs=1e-15)

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.811278, abs=1e-6)

    def test_symmetry(self):
        for x in np.linspace(0, 1, 21):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-14)

    @pytest.mark.parametrize("x", [-0.1, 1.1])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            binary_entropy(x)


class TestStackedEntropy:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_matches_per_matrix(self, dim):
        rng = np.random.default_rng(26)
        rhos = np.array([random_density_matrix(dim, rng) for _ in range(12)]
                        + [projector(random_pure_state(dim, rng)),
                           maximally_mixed(dim)])
        stacked = entropy(rhos.reshape(2, 7, dim, dim), validate=False)
        assert stacked.shape == (2, 7)
        single = [entropy(r, validate=False) for r in rhos]
        assert np.abs(stacked.ravel() - single).max() < 1e-12


@pytest.mark.parametrize("bad", [[1.0, 1.0], [np.nan, 0.0]])
def test_state_vector_validation(bad):
    with pytest.raises(ValueError):
        check_state_vector(bad)


def test_bloch_density_validity():
    rng = np.random.default_rng(22)
    rs = rng.uniform(-2, 2, (20, 3))
    for r in rs:
        check_density_matrix(bloch_density(r))
    # a stack clips each vector the way single calls do
    stacked = bloch_density(rs.reshape(4, 5, 3))
    assert stacked.shape == (4, 5, 2, 2)
    assert np.abs(stacked.reshape(20, 2, 2)
                  - np.array([bloch_density(r) for r in rs])).max() < 1e-15


def test_bloch_state_broadcasts():
    rng = np.random.default_rng(23)
    thetas, phis = rng.uniform(0, np.pi, (3, 4)), rng.uniform(0, 2 * np.pi, (3, 4))
    stacked = bloch_state(thetas, phis)
    assert stacked.shape == (3, 4, 2) and stacked.dtype == complex
    single = [[bloch_state(float(t), float(p)) for t, p in zip(*row)] for row in zip(thetas, phis)]
    assert np.abs(stacked - np.array(single)).max() < 1e-15
    assert bloch_state(0.3, phis).shape == (3, 4, 2)  # a scalar angle broadcasts
    assert np.array_equal(bloch_state(np.pi, 0.0), [np.cos(np.pi / 2), 1.0])
