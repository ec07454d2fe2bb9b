#!/usr/bin/env python3
"""Regenerate ``perfbench/refs.json``, the benchmark's reference outputs.

Run from the repository root at the commit whose outputs are the
reference (several minutes: one ``jammer_value`` per pool gate):

    python3 perfbench/make_refs.py

The ``helper_sweep`` rows come from ``run_experiment`` itself, so the
benchmark's per-row calls are checked against the experiment table.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from envcap import canonical, capacity, experiments  # noqa: E402


def checked_cli_value(argv: list[str], out_dir: Path) -> str:
    rc, out = wl.run_cli(argv, out_dir)
    if rc != 0:
        raise SystemExit(f"{argv}: exit code {rc}")
    return wl.cli_value(argv, out)


def main() -> int:
    pool = [tuple(float(x) for x in canonical.decompose_params(u))
            for u in wl.pool_unitaries()]

    _, rows = experiments.run_experiment(experiments.ExperimentConfig("eh_swap"))
    if not np.array_equal([r[0] for r in rows], wl.helper_gammas()):
        raise SystemExit("eh_swap grid differs from the benchmark's gammas")
    helper = [[float(r[1]), float(r[2])] for r in rows]

    def jam(params):
        return float(capacity.jammer_value(canonical.canonical_unitary(params)).value)

    jammer = {"sqrt_swap": jam(wl.SQRT_SWAP), "pool": [jam(p) for p in pool]}

    (HERE / "out").mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="refs-", dir=HERE / "out"))
    try:
        tables = {}
        for argv in wl.table_argvs(pool[0]):
            if argv[0] != "classify":
                tables[wl.table_label(argv)] = checked_cli_value(argv, out_dir)
        classify = [checked_cli_value(wl.classify_argv(p), out_dir) for p in pool]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    # the paper's super-activation crossing
    if not tables["locate a1"].startswith("0.6649"):
        raise SystemExit(f"locate a1 gave {tables['locate a1']}, expected 0.6649...")

    refs = {"pool_seed": wl.POOL_SEED, "pool_params": pool, "helper_sweep": helper,
            "jammer": jammer, "tables": tables, "classify": classify}
    wl.REFS.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {wl.REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
