"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criteria with runtime budgets assert them with a monotonic clock.
"""

import time

import numpy as np

from envcap.canonical import (
    CNOT,
    SWAP,
    canonical_unitary,
    decompose_params,
    in_antidegradable_region,
    swap_power,
)
from envcap.capacity import (
    OptimizerOptions,
    coherent_info,
    max_coherent_info,
    separable_helper_capacity,
    two_copy_curve,
)
from envcap.channels import KrausChannel, effective_channel, normal_form_stack
from envcap.cli import main
from envcap.degradability import degradability_index, is_universally_antidegradable
from envcap.linalg import haar_unitary, maximally_entangled, projector
from oracles import (
    DCNOT,
    choi_state,
    entangled_helper_coherent_info,
    is_antidegradable_choi,
    maximally_mixed,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    tensor,
)

PI = np.pi


def report(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_gamma_star(capsys):
    start = time.monotonic()
    rc = main(["locate", "a1"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    root = float(out.strip().splitlines()[-1])
    with capsys.disabled():
        report(1, f"locate a1 = {root:.6f} (target 0.6649 +- 5e-4), "
                  f"{elapsed:.2f}s < 5s",
               rc == 0 and abs(root - 0.6649) <= 5e-4 and elapsed < 5.0)


def test_criterion_2_gamma_double_star(capsys):
    start = time.monotonic()
    rc = main(["locate", "eh_swap"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    root = float(out.strip().splitlines()[-1])
    with capsys.disabled():
        report(2, f"locate eh_swap = {root:.6f} (target 0.7662 +- 1e-2), "
                  f"{elapsed:.2f}s < 30s",
               rc == 0 and abs(root - 0.7662) <= 1e-2 and elapsed < 30.0)


def test_criterion_3_swap_edge_closed_form():
    worst = 0.0
    for gamma in (0.5, 0.6, 0.8):
        e1 = (5 - 3 * np.cos(PI * gamma)) / 8
        e3 = (1 + np.cos(PI * gamma)) / 8
        expected = -(e1 * np.log2(e1) + 3 * e3 * np.log2(e3)) - 1.0
        w = canonical_unitary((PI / 2, PI / 2, 0.0))
        got = two_copy_curve(w.matrix, swap_power(gamma).matrix)
        worst = max(worst, abs(got - expected))
    report(3, f"two-copy path matches eigenvalue formula, worst dev {worst:.2e} <= 1e-9",
           worst <= 1e-9)


def test_criterion_4_region_equivalence():
    rng = np.random.default_rng(404)
    points = []
    while len(points) < 500:
        p = tuple(np.sort(rng.uniform(0.0, PI / 2, 3))[::-1])
        sums = (p[0] + p[1], p[1] + p[2], p[2] + p[0])
        if min(abs(s - PI / 2) for s in sums) > 0.05:
            points.append(p)
    disagreements = sum(
        in_antidegradable_region(p) != is_universally_antidegradable(
            canonical_unitary(p), grid=64)
        for p in points)
    report(4, f"region inequality vs universal scan on 500 points: "
              f"{disagreements} disagreements", disagreements == 0)


def test_criterion_5_criterion_cross_agreement():
    rng = np.random.default_rng(97)
    disagreements = 0
    tested = 0
    while tested < 500:
        v = haar_unitary(4, rng)
        eta = random_pure_state(2, rng)
        idx = degradability_index(v, eta)
        if abs(idx) <= 1e-6:
            continue
        tested += 1
        if is_antidegradable_choi(effective_channel(v, eta)) != (idx < 0):
            disagreements += 1
    report(5, f"determinant vs Choi-spectrum criterion on 500 pairs: "
              f"{disagreements} disagreements", disagreements == 0)


def test_criterion_6_swap_power_dichotomy():
    start = time.monotonic()
    opts = OptimizerOptions()
    zeros = {g: separable_helper_capacity(swap_power(g), opts).value
             for g in (0.5, 0.75, 1.0)}
    low = separable_helper_capacity(swap_power(0.25), opts).value
    elapsed = time.monotonic() - start
    ok = all(v <= 1e-6 for v in zeros.values()) and low >= 0.1 and elapsed < 60.0
    report(6, f"separable-helper capacity: zeros {zeros}, "
              f"gamma=0.25 -> {low:.4f} >= 0.1, {elapsed:.1f}s < 60s", ok)


def test_criterion_7_decomposition_roundtrip():
    rng = np.random.default_rng(1105)
    worst = 0.0
    for _ in range(200):
        p = tuple(np.sort(rng.uniform(0.0, PI / 2, 3))[::-1])
        dressed = (tensor(haar_unitary(2, rng), haar_unitary(2, rng))
                   @ canonical_unitary(p).matrix
                   @ tensor(haar_unitary(2, rng), haar_unitary(2, rng)))
        got = decompose_params(dressed)
        worst = max(worst, np.abs(np.array(got) - np.array(p)).max())
    cnot_dev = np.abs(np.array(decompose_params(CNOT)) - [PI / 2, 0, 0]).max()
    dcnot_dev = np.abs(np.array(decompose_params(DCNOT)) - [PI / 2, PI / 2, 0]).max()
    report(7, f"roundtrip worst {worst:.2e} <= 1e-8; CNOT dev {cnot_dev:.2e}, "
              f"DCNOT dev {dcnot_dev:.2e} <= 1e-10",
           worst <= 1e-8 and cnot_dev <= 1e-10 and dcnot_dev <= 1e-10)


def test_criterion_8_symmetric_gate():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        eta = random_pure_state(2, rng)
        rho = random_density_matrix(2, rng)
        ch = effective_channel(swap_power(0.5), eta)
        worst = max(worst, abs(coherent_info(ch, rho)))
    report(8, f"sqrt-swap coherent information |I_c| worst {worst:.2e} <= 1e-9",
           worst <= 1e-9)


def test_criterion_9_superactivation():
    opts = OptimizerOptions()
    mid_edge = canonical_unitary((PI / 4 + PI / 8, PI / 4 + PI / 8, PI / 4 - PI / 8)).matrix
    cases = {
        "swap-edge at gamma=0.55": (
            canonical_unitary((PI / 2, PI / 2, 0.0)).matrix, swap_power(0.55).matrix),
        "swap with mid-edge gate": (
            SWAP, canonical_unitary((PI / 4 + PI / 8, PI / 4, PI / 4)).matrix),
        "self-pairing mid-edge": (mid_edge, mid_edge),
    }
    ok = True
    details = []
    for name, (w, v) in cases.items():
        joint = two_copy_curve(w, v)
        qw = separable_helper_capacity(w, opts).value
        qv = separable_helper_capacity(v, opts).value
        good = joint > 1e-3 and qw <= 1e-6 and qv <= 1e-6
        ok = ok and good
        details.append(f"{name}: joint {joint:.4f}, parts ({qw:.1e}, {qv:.1e})")
    report(9, "; ".join(details), ok)


def test_criterion_10_property_suites():
    start = time.monotonic()
    rng = np.random.default_rng(1010)
    checks = []

    # purity balance: pure environment + pure input leave the global state pure
    worst = max(abs(coherent_info(
        effective_channel(haar_unitary(4, rng), random_pure_state(2, rng)),
        projector(random_pure_state(2, rng)))) for _ in range(50))
    checks.append(("purity balance", worst <= 1e-9))

    # concavity of the objective on degradable channels
    concave = True
    tested = 0
    while tested < 50:
        v = haar_unitary(4, rng)
        eta = random_pure_state(2, rng)
        if degradability_index(v, eta) <= 1e-6:
            continue
        ch = effective_channel(v, eta)
        r1, r2 = random_density_matrix(2, rng), random_density_matrix(2, rng)
        mid = coherent_info(ch, (r1 + r2) / 2)
        avg = (coherent_info(ch, r1) + coherent_info(ch, r2)) / 2
        concave = concave and mid >= avg - 1e-9
        tested += 1
    checks.append(("degradable concavity", concave))

    # anti-degradable channels never optimize above zero
    fast = OptimizerOptions(restarts=4, max_iters=300)
    adequate = True
    tested = 0
    while tested < 10:
        v = haar_unitary(4, rng)
        eta = random_pure_state(2, rng)
        if degradability_index(v, eta) >= -1e-6:
            continue
        adequate = adequate and max_coherent_info(
            effective_channel(v, eta), fast).value <= 1e-6
        tested += 1
    checks.append(("anti-degradable zero bound", adequate))

    # CPTP completeness including mixed environments
    complete = True
    for _ in range(20):
        ch = effective_channel(haar_unitary(4, rng), random_density_matrix(2, rng))
        dev = np.abs(sum(k.conj().T @ k for k in ch.kraus) - np.eye(2)).max()
        complete = complete and dev <= 1e-9
    checks.append(("CPTP completeness", complete))

    # Gram orthogonality of the normal form
    ortho = True
    for _ in range(20):
        ch = effective_channel(haar_unitary(4, rng), random_pure_state(2, rng))
        ops, _ = normal_form_stack(ch.kraus)
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                ortho = ortho and abs(np.trace(ops[i].conj().T @ ops[j])) <= 1e-10
        nf = KrausChannel(ops)
        ortho = ortho and np.abs(choi_state(nf) - choi_state(ch)).max() <= 1e-10
    checks.append(("Gram orthogonality", ortho))

    # partial trace against the explicit index-summation oracle
    ptrace_ok = True
    for _ in range(20):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = m + m.conj().T
        r = m.reshape(2, 2, 2, 2)
        ptrace_ok = ptrace_ok and np.abs(
            partial_trace(m, (2, 2), 0) - np.einsum("ijkj->ik", r)).max() <= 1e-13
        ptrace_ok = ptrace_ok and np.abs(
            partial_trace(m, (2, 2), 1) - np.einsum("ijil->jl", r)).max() <= 1e-13
    checks.append(("partial-trace oracle", ptrace_ok))

    # two-path consistency: swap in the primed slot hands the helper
    # entanglement to the receiver
    consistent = True
    for _ in range(10):
        g = haar_unitary(4, rng)
        lhs = two_copy_curve(SWAP, g)
        rhs = entangled_helper_coherent_info(g, maximally_entangled(2),
                                             maximally_mixed(2))
        consistent = consistent and abs(lhs - rhs) <= 1e-9
    checks.append(("helper-sharing consistency", consistent))

    elapsed = time.monotonic() - start
    summary = ", ".join(f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in checks)
    report(10, f"{summary} ({elapsed:.1f}s)",
           all(ok for _, ok in checks) and elapsed < 300.0)
