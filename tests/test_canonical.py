import numpy as np
import pytest

from envcap.canonical import (
    CNOT,
    MAGIC,
    SWAP,
    CanonicalParams,
    canonical_matrix,
    canonical_unitary,
    decompose_params,
    fold_to_fundamental,
    half_phases,
    in_antidegradable_region,
    in_degradable_region,
    swap_power,
    swap_power_matrix,
)
from envcap.linalg import haar_unitary
from oracles import (
    DCNOT,
    fold_by_python,
    in_antidegradable_by_python,
    in_degradable_by_python,
    in_degradable_region_by_swap,
    makhlin_invariants,
    region_points,
    same_bits,
    tensor,
)

PI = np.pi


def dressed(u, rng):
    """Random single-qubit unitaries before and after the gate."""
    return (tensor(haar_unitary(2, rng), haar_unitary(2, rng)) @ u
            @ tensor(haar_unitary(2, rng), haar_unitary(2, rng)))


def random_tetrahedron_point(rng):
    return tuple(np.sort(rng.uniform(0.0, PI / 2, 3))[::-1])


def boundary_points(rng, n=10):
    """Points on the faces ax = ay, ay = az, az = 0 and ax = pi/2, on the
    six edges, and the four vertices of the tetrahedron."""
    pts = []
    for _ in range(n):
        a, b, c = random_tetrahedron_point(rng)
        pts += [(a, a, c), (a, b, b), (a, b, 0.0), (PI / 2, b, c),
                (a, a, a), (a, a, 0.0), (a, 0.0, 0.0),
                (PI / 2, b, 0.0), (PI / 2, b, b), (PI / 2, PI / 2, c)]
    return pts + [(0.0, 0.0, 0.0), (PI / 2, 0.0, 0.0), (PI / 2, PI / 2, 0.0), (PI / 2,) * 3]


BAD_ANGLES = [(np.nan, 0.0, 0.0), (np.inf, 0.1, 0.0), (0.1, -np.inf, 0.0), (1.0, 2.0),
              (0.1, 0.2, 0.3, 0.4),
              # complex angles, a non-finite entry of a stack, a last axis other than 3
              np.array([0.9 + 1j, 0.9, 0.0]), (1j, 0.0, 0.0), np.array([0.1, 0.2, 0.3], complex),
              np.array([[0.1, 0.2, 0.3], [0.4, np.nan, 0.0]]), np.zeros((3, 2)), 0.5]


class TestMagicBasis:
    def test_listed_vectors(self):
        vs = MAGIC.T
        s2 = 1 / np.sqrt(2)
        assert np.abs(vs[0] - np.array([s2, 0, 0, s2])).max() < 1e-15
        assert np.abs(vs[1] - np.array([-1j * s2, 0, 0, 1j * s2])).max() < 1e-15
        assert np.abs(vs[2] - np.array([0, s2, -s2, 0])).max() < 1e-15
        assert np.abs(vs[3] - np.array([0, -1j * s2, -1j * s2, 0])).max() < 1e-15

    def test_orthonormal(self):
        vs = MAGIC.T
        gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
        assert np.abs(gram - np.eye(4)).max() < 1e-15


class TestCanonicalUnitary:
    def test_origin_is_identity(self):
        u = canonical_unitary((0.0, 0.0, 0.0))
        assert np.abs(u.matrix - np.eye(4)).max() < 1e-15

    def test_swap_vertex(self):
        u = canonical_unitary((PI / 2, PI / 2, PI / 2))
        phase = np.exp(-1j * PI / 4)
        assert np.abs(u.matrix - phase * SWAP).max() < 1e-12

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
    def test_matches_swap_power_up_to_phase(self, gamma):
        u = canonical_unitary((gamma * PI / 2,) * 3).matrix
        w = swap_power(gamma).matrix
        z = np.trace(w.conj().T @ u) / 4
        assert abs(abs(z) - 1) < 1e-12
        assert np.abs(u - z * w).max() < 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            u = canonical_unitary(rng.uniform(-2, 2, 3)).matrix
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    def test_half_phase_sum_vanishes(self):
        rng = np.random.default_rng(51)
        assert abs(half_phases(rng.uniform(0, 1, 3)).sum()) < 1e-15


class TestSwapPower:
    def test_endpoints(self):
        assert np.abs(swap_power(0.0).matrix - np.eye(4)).max() < 1e-15
        assert np.abs(swap_power(1.0).matrix - SWAP).max() < 1e-15

    def test_square_root_squares_to_swap(self):
        m = swap_power(0.5).matrix
        assert np.abs(m @ m - SWAP).max() < 1e-12

    def test_one_parameter_group(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            g1, g2 = rng.uniform(0, 1, 2)
            lhs = swap_power(g1).matrix @ swap_power(g2).matrix
            assert np.abs(lhs - swap_power(g1 + g2).matrix).max() < 1e-12


class TestDecompose:
    def test_cnot(self):
        p = decompose_params(CNOT)
        assert np.abs(np.array(p) - [PI / 2, 0, 0]).max() < 1e-10

    def test_dcnot(self):
        p = decompose_params(DCNOT)
        assert np.abs(np.array(p) - [PI / 2, PI / 2, 0]).max() < 1e-10

    def test_swap_and_identity(self):
        assert np.abs(np.array(decompose_params(SWAP)) - PI / 2).max() < 1e-10
        assert np.abs(np.array(decompose_params(np.eye(4, dtype=complex)))).max() < 1e-10

    @pytest.mark.parametrize("d", [0.3, 1.2, PI / 2])
    def test_controlled_unitary(self, d):
        rng = np.random.default_rng(53)
        q = haar_unitary(2, rng)
        u1 = q @ np.diag([np.exp(1j * d), np.exp(-1j * d)]) @ q.conj().T
        v = np.zeros((4, 4), complex)
        v[:2, :2] = np.eye(2)
        v[2:, 2:] = u1
        expected = d if d <= PI / 2 else PI - d
        assert np.abs(np.array(decompose_params(v)) - [expected, 0, 0]).max() < 1e-8

    def test_roundtrip_with_local_dressing(self):
        rng = np.random.default_rng(54)
        points = [random_tetrahedron_point(rng) for _ in range(50)] + boundary_points(rng)
        for p in points:
            u = dressed(canonical_unitary(p).matrix, rng)
            for gate in (u, u.conj()):
                got = decompose_params(gate)
                assert np.abs(np.array(got) - np.array(p)).max() < 1e-8, p

    def test_local_invariants_of_the_canonical_point(self):
        # Makhlin's G1 (up to conjugation) and G2 come from traces alone
        rng = np.random.default_rng(55)
        for _ in range(200):
            u = haar_unitary(4, rng)
            g1, g2 = makhlin_invariants(u)
            h1, h2 = makhlin_invariants(canonical_unitary(decompose_params(u)))
            assert min(abs(g1 - h1), abs(g1 - np.conj(h1))) < 1e-12
            assert abs(g2 - h2) < 1e-12

    @pytest.mark.parametrize("gamma", [0.1, 0.37, 0.5, 0.62, 0.9])
    def test_swap_power_line(self, gamma):
        got = decompose_params(swap_power(gamma))
        assert np.abs(np.array(got) - gamma * PI / 2).max() < 1e-9

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            decompose_params(np.eye(4) + 1e-3)


class TestFold:
    def test_reflection(self):
        p = fold_to_fundamental((PI / 2 + 0.3, 0.1, 0.0))
        assert np.abs(np.array(p) - [PI / 2 - 0.3, 0.1, 0.0]).max() < 1e-12
        # agrees with extraction from the synthesized gate
        q = decompose_params(canonical_unitary((PI / 2 + 0.3, 0.1, 0.0)))
        assert np.abs(np.array(p) - np.array(q)).max() < 1e-9

    def test_sorting_only(self):
        p = fold_to_fundamental((0.2, 0.5, 0.1))
        assert np.allclose(p, (0.5, 0.2, 0.1))

    def test_pi_shift(self):
        p = fold_to_fundamental((PI + 0.1, 0.0, 0.0))
        assert np.abs(np.array(p) - [0.1, 0.0, 0.0]).max() < 1e-12
        q = decompose_params(canonical_unitary((PI + 0.1, 0.0, 0.0)))
        assert np.abs(np.array(p) - np.array(q)).max() < 1e-9

    def test_extraction_is_the_fold_of_raw_angles(self):
        rng = np.random.default_rng(56)
        for raw in rng.uniform(-2 * PI, 2 * PI, (200, 3)):
            got = decompose_params(canonical_unitary(raw))
            assert np.abs(np.array(got) - np.array(fold_to_fundamental(raw))).max() < 1e-12, raw

    @pytest.mark.parametrize("raw", BAD_ANGLES)
    def test_rejects_anything_but_three_finite_angles(self, raw):
        with pytest.raises(ValueError):
            fold_to_fundamental(raw)


class TestRegions:
    def test_antidegradable_examples(self):
        assert in_antidegradable_region((PI / 4, PI / 4, PI / 4))
        assert not in_antidegradable_region((0.0, 0.0, 0.0))
        for t in (0.0, 0.5, 1.0):
            assert in_antidegradable_region((PI / 2, PI / 2, t * PI / 2))

    def test_degradable_examples(self):
        assert in_degradable_region((0.0, 0.0, 0.0))
        assert in_degradable_region((PI / 2, 0.0, 0.0))
        assert not in_degradable_region((PI / 2, PI / 2, PI / 2))

    @pytest.mark.parametrize("params", BAD_ANGLES)
    def test_rejects_anything_but_three_finite_angles(self, params):
        with pytest.raises(ValueError):
            in_antidegradable_region(params)
        with pytest.raises(ValueError):
            in_degradable_region(params)

    def test_sqrt_swap_unique_intersection(self):
        # on an exact pi/8 lattice of the tetrahedron only the midpoint
        # belongs to both regions
        axis = np.arange(0, 5) * PI / 8
        both = []
        for ax in axis:
            for ay in axis[axis <= ax]:
                for az in axis[axis <= ay]:
                    if (in_antidegradable_region((ax, ay, az))
                            and in_degradable_region((ax, ay, az))):
                        both.append((ax, ay, az))
        assert both == [(PI / 4, PI / 4, PI / 4)]


class TestDegradableClosedForm:
    """SWAP U(p) is U(p + pi/2) up to a phase, so the closed form has to
    give the same answer as extracting the swapped gate's angles."""

    @pytest.mark.parametrize("n", [5, 9, 17, 33])
    def test_region_grids(self, n):
        for p in region_points(n):
            assert in_degradable_region(p) == in_degradable_region_by_swap(p), p

    def test_random_tetrahedron_points(self):
        rng = np.random.default_rng(91)
        hits = 0
        for _ in range(3000):
            p = random_tetrahedron_point(rng)
            assert in_degradable_region(p) == in_degradable_region_by_swap(p), p
            hits += in_degradable_region(p)
        assert 0 < hits < 3000

    def test_swap_is_the_shifted_vertex(self):
        u = canonical_unitary((PI / 2,) * 3).matrix
        assert np.abs(SWAP - np.exp(1j * PI / 4) * u).max() < 1e-15


#: Where :func:`in_antidegradable_region` cuts at its default tolerance.
CUT = PI / 2 - 1e-12


def raw_angle_sample(rng, n=3000):
    """n raw points in [-2 pi, 2 pi]: a tenth with ax + ay exactly pi/2,
    a tenth each with ax + ay, ay + az and az + ax exactly at the cut, and
    ay = -0.0 in every seventh of the rest."""
    raw = rng.uniform(-2 * PI, 2 * PI, (n, 3))
    m = n // 10
    for k, ((i, j), total) in enumerate((((0, 1), PI / 2), ((0, 1), CUT), ((1, 2), CUT),
                                         ((2, 0), CUT))):
        x = rng.uniform(0.0, total, 4 * m)
        x = x[x + (total - x) == total][:m]
        raw[k * m:(k + 1) * m, i], raw[k * m:(k + 1) * m, j] = x, total - x
    raw[4 * m::7, 1] = -0.0
    return raw


class TestArrayRegions:
    """The fold and the region tests take points (..., 3) at once: the
    stack gives what each point gives alone, and what the Python-float
    route of the oracles gives, bit for bit."""

    @staticmethod
    def check(points):
        folded = fold_to_fundamental(points)
        anti, deg = in_antidegradable_region(points), in_degradable_region(points)
        assert folded.shape == points.shape and anti.shape == deg.shape == points.shape[:1]
        assert anti.dtype == deg.dtype == bool
        lone = points.tolist()
        assert same_bits(folded, np.array([fold_to_fundamental(p) for p in lone]))
        assert same_bits(folded, np.array([fold_by_python(p) for p in lone]))
        assert anti.tolist() == [in_antidegradable_region(p) for p in lone]
        assert anti.tolist() == [in_antidegradable_by_python(p) for p in lone]
        assert deg.tolist() == [in_degradable_region(p) for p in lone]
        assert deg.tolist() == [in_degradable_by_python(p) for p in lone]

    @pytest.mark.parametrize("n", [5, 9, 17, 33, 65])
    def test_region_grids(self, n):
        self.check(np.array(region_points(n)))

    def test_raw_angles(self):
        raw = raw_angle_sample(np.random.default_rng(94))
        ax, ay, az = raw.T
        assert (ax + ay == PI / 2).sum() >= 300
        assert min((ax + ay == CUT).sum(), (ay + az == CUT).sum(), (az + ax == CUT).sum()) >= 300
        assert np.signbit(ay).sum() >= 1800 // 7
        self.check(raw)

    def test_leading_axes(self):
        raw = raw_angle_sample(np.random.default_rng(95), 60).reshape(3, 4, 5, 3)
        flat = raw.reshape(-1, 3)
        assert same_bits(fold_to_fundamental(raw), fold_to_fundamental(flat).reshape(raw.shape))
        for test in (in_antidegradable_region, in_degradable_region):
            assert same_bits(test(raw), test(flat).reshape(raw.shape[:-1]))

    @pytest.mark.parametrize("point", [(0.1, 0.2, 0.3), [PI / 4] * 3, (1, 2, 3),
                                       np.array([PI / 2, -0.0, 7.0]),
                                       np.array([0.5, 1.0, 1.5], np.float32)])
    def test_one_point_gives_python_scalars(self, point):
        assert type(in_antidegradable_region(point)) is bool
        assert type(in_degradable_region(point)) is bool
        folded = fold_to_fundamental(point)
        assert type(folded) is CanonicalParams
        assert [type(a) for a in folded] == [float] * 3

    @pytest.mark.parametrize("n", [5, 9, 17, 33])
    def test_degradable_stack_matches_the_swap_route(self, n):
        points = region_points(n)
        assert (in_degradable_region(np.array(points)).tolist()
                == [in_degradable_region_by_swap(p) for p in points])


class TestStackedBuilders:
    def test_canonical_matrix_is_the_gate_bit_for_bit(self):
        rng = np.random.default_rng(92)
        params = rng.uniform(-2.0, 2.0, (5, 7, 3))
        stack = canonical_matrix(params)
        assert stack.shape == (5, 7, 4, 4)
        for p, m in zip(params.reshape(-1, 3), stack.reshape(-1, 4, 4)):
            assert same_bits(m, canonical_unitary(tuple(p.tolist())).matrix)

    def test_swap_power_matrix_is_the_gate_bit_for_bit(self):
        gammas = np.linspace(0.0, 1.0, 33)
        stack = swap_power_matrix(gammas)
        assert stack.shape == (33, 4, 4)
        for g, m in zip(gammas, stack):
            assert same_bits(m, swap_power(float(g)).matrix)

    def test_half_phases_broadcast(self):
        rng = np.random.default_rng(93)
        params = rng.uniform(0.0, 1.0, (4, 3))
        stacked = half_phases(params)
        for p, lam in zip(params, stacked):
            assert same_bits(lam, half_phases(tuple(p)))
