"""Inputs, items and reference checks of the envcap benchmark workloads.

Each workload is a list of :class:`Item`: ``call`` is what a user of
envcap waits for and is the only part timed; ``check`` compares its raw
output with ``refs.json`` (generated at a fixed commit by
``make_refs.py``) and returns an error message or ``None``.  Nothing is
clamped or rounded before comparison, so the round-off negatives that
``jammer_value`` returns for zero-capacity gates stay visible.

Workloads and why they were chosen:

* ``helper_sweep`` -- the rows of ``envcap eh_swap`` at its default grid
  of 64 gammas, one entangled-helper and one separable-helper capacity
  per row.  Almost all of its time is scipy Nelder-Mead on 2x2 arrays;
  gamma > 1/2 rows are anti-degradable everywhere, so both sides of the
  degradability skip-mask run.  Seed-independent.
* ``jammer_gates`` -- ``jammer_value`` at default options on the
  square-root-of-swap point plus two gates chosen by the seed: a
  Python-loop coarse scan and about 140 nested simplex runs per gate.
* ``tables`` -- the optimizer-free CLI experiments through
  ``envcap.cli.main``: five two-copy curve families, the region scan,
  ``classify`` on a seed-chosen gate, and ``locate a1``.  It makes no
  optimizer calls, so optimizer changes should leave it unchanged.

Seed gates come from a fixed pool: ``haar_unitary(4, rng)`` draws with
``POOL_SEED``, reduced by ``decompose_params`` and rebuilt with
``canonical_unitary``.  ``--seed`` picks which pool gates a run uses, so
every seed's outputs have reference values.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import envcap
from envcap import capacity, canonical, cli, degradability, experiments

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs.json"

WORKLOADS = ("helper_sweep", "jammer_gates", "tables")

POOL_SEED = 20140730
POOL_SIZE = 16
JAMMER_SEED_GATES = 2
SQRT_SWAP = (np.pi / 4, np.pi / 4, np.pi / 4)

#: Reference tolerances on raw returned values.
HELPER_TOL = 1e-7
JAMMER_TOL = 1e-6
POOL_PARAMS_TOL = 1e-9
INDEX_AGREEMENT_TOL = 1e-10

HELPER_GRID = 64
TABLE_GRID = 257
REGION_GRID = 17
CLASSIFY_GRID = 64
INDEX_GRID = 48


@dataclass
class Item:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def load_refs() -> dict:
    refs = json.loads(REFS.read_text())
    if refs["pool_seed"] != POOL_SEED:
        raise ValueError(f"{REFS.name} was made for another gate pool; rerun make_refs.py")
    return refs


def pool_unitaries() -> list[np.ndarray]:
    rng = np.random.default_rng(POOL_SEED)
    return [envcap.haar_unitary(4, rng) for _ in range(POOL_SIZE)]


def choose_gates(seed: int) -> tuple[list[int], int]:
    """Pool indices of the seed's jammer gates and of its classify gate."""
    order = np.random.default_rng(seed).permutation(POOL_SIZE)
    return [int(i) for i in order[:JAMMER_SEED_GATES]], int(order[JAMMER_SEED_GATES])


def classify_argv(params) -> list[str]:
    """``--params`` takes gate angles in units of pi."""
    angles = ",".join(repr(float(p) / np.pi) for p in params)
    return ["classify", "--grid", str(CLASSIFY_GRID), "--params", angles]


def table_argvs(classify_params) -> list[list[str]]:
    argvs = [[name, "--grid", str(TABLE_GRID)] for name in ("a1", "a2", "a3", "b1", "b2")]
    argvs.append(["region_scan", "--grid", str(REGION_GRID)])
    argvs.append(classify_argv(classify_params))
    argvs.append(["locate", "a1"])
    return argvs


def run_cli(argv: list[str], out_dir: Path) -> tuple[int, str]:
    """Run ``envcap.cli.main``; returns its exit code and, for ``locate``,
    what it printed, else the path of the CSV it wrote."""
    buf = io.StringIO()
    if argv[0] == "locate":
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()
    path = out_dir / f"{argv[0]}.csv"
    rc = cli.main([*argv, "--out", str(path), "--no-timestamp"])
    return rc, str(path)


def table_label(argv: list[str]) -> str:
    return " ".join(argv[:2]) if argv[0] == "locate" else argv[0]


def cli_value(argv: list[str], out: str) -> str:
    """What a CLI call is checked by: the root ``locate`` prints, or the
    SHA-256 of the CSV an experiment writes."""
    if argv[0] == "locate":
        return out.strip()
    return hashlib.sha256(Path(out).read_bytes()).hexdigest()


def helper_row(gamma: float, opts) -> tuple[float, float]:
    """One ``eh_swap`` row, exactly as ``run_experiment`` computes it."""
    qeh = capacity.swap_power_helper_capacity(gamma, opts).value
    qh = capacity.separable_helper_capacity(canonical.swap_power(gamma), opts).value
    return qeh, qh


def helper_gammas() -> np.ndarray:
    return np.linspace(0.0, 1.0, HELPER_GRID)


# -- checks ---------------------------------------------------------------


def _close(label: str, got, want, tol: float) -> str | None:
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape or not np.all(np.abs(got - want) <= tol):
        return f"{label}: got {got.tolist()}, reference {want.tolist()} (tol {tol:g})"
    return None


def pool_params_check(idx: int, refs: dict) -> tuple[tuple, str | None]:
    """Regenerate pool gate ``idx`` and compare its canonical parameters.

    Returns the reference parameters, which the program then receives,
    so that CSV digests do not depend on the last bit of the reduction.
    """
    got = tuple(canonical.decompose_params(pool_unitaries()[idx]))
    want = tuple(refs["pool_params"][idx])
    return want, _close(f"pool gate {idx} params", got, want, POOL_PARAMS_TOL)


def index_kernel(seed: int) -> dict:
    """Batched degradability index against the scalar path on one gate.

    The gate is the seed's classify gate before reduction; the two paths
    must agree to ``INDEX_AGREEMENT_TOL`` at every grid state.
    """
    gate = pool_unitaries()[choose_gates(seed)[1]]
    etas, _, _ = degradability.bloch_sphere_grid(INDEX_GRID, INDEX_GRID)
    t0 = perf_counter()
    batch = degradability.batch_degradability_index(gate, etas)
    t1 = perf_counter()
    scalar = np.array([degradability.degradability_index(gate, eta) for eta in etas])
    t2 = perf_counter()
    dev = float(np.abs(batch - scalar).max())
    n = len(etas)
    return {"states": n, "batched_us_per_state": (t1 - t0) / n * 1e6,
            "scalar_us_per_state": (t2 - t1) / n * 1e6, "max_deviation": dev,
            "error": None if dev <= INDEX_AGREEMENT_TOL else
            f"index kernel deviates from the scalar path by {dev:.3e}"}


# -- workloads ------------------------------------------------------------


def build(workload: str, seed: int, refs: dict,
          out_dir: Path) -> tuple[list[Item], list[str | None]]:
    """Items of one workload, and the outcome of each check made while
    building them (an error message or ``None``)."""
    checks: list[str | None] = []
    if workload == "helper_sweep":
        opts = experiments.ExperimentConfig("eh_swap").optimizer_options()
        items = []
        for gamma, want in zip(helper_gammas(), refs["helper_sweep"], strict=True):
            label = f"gamma={gamma:.6f}"
            items.append(Item(label, lambda g=gamma: helper_row(g, opts),
                              lambda got, w=want, lb=label: _close(lb, got, w, HELPER_TOL)))
        return items, checks

    if workload == "jammer_gates":
        jam_idx, _ = choose_gates(seed)
        points = [("sqrt_swap", SQRT_SWAP, refs["jammer"]["sqrt_swap"])]
        for i in jam_idx:
            params, err = pool_params_check(i, refs)
            checks.append(err)
            points.append((f"pool{i}", params, refs["jammer"]["pool"][i]))
        items = []
        for label, params, want in points:
            gate = canonical.canonical_unitary(params)
            items.append(Item(label, lambda g=gate: capacity.jammer_value(g).value,
                              lambda got, w=want, lb=label: _close(lb, got, w, JAMMER_TOL)))
        return items, checks

    if workload == "tables":
        _, cls_idx = choose_gates(seed)
        params, err = pool_params_check(cls_idx, refs)
        checks.append(err)
        wants = dict(refs["tables"], classify=refs["classify"][cls_idx])
        items = []
        for argv in table_argvs(params):
            label = table_label(argv)
            items.append(Item(label, lambda a=argv: run_cli(a, out_dir),
                              lambda got, a=argv, w=wants[label]: _check_cli(a, got, w)))
        return items, checks

    raise ValueError(f"unknown workload {workload!r}")


def _check_cli(argv: list[str], got: tuple[int, str], want: str) -> str | None:
    rc, out = got
    if rc != 0:
        return f"{table_label(argv)}: exit code {rc}"
    value = cli_value(argv, out)
    if value != want:
        return f"{table_label(argv)}: got {value}, reference {want}"
    return None
