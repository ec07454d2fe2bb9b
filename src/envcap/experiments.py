"""Dataset builders for the command-line experiments.

Each experiment produces a header and a list of rows with deterministic
values; the CLI handles formatting and I/O.  Gate angles arriving from
the command line are in units of pi.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .canonical import (
    SWAP,
    canonical_unitary,
    in_antidegradable_region,
    in_degradable_region,
    swap_power,
)
from .capacity import (
    OptimizerOptions,
    find_zero_crossing,
    jammer_value,
    separable_helper_capacity,
    standard_two_copy,
    swap_power_helper_capacity,
    theta_two_copy,
    two_copy_coherent_info,
)
from .channels import BipartiteUnitary
from .degradability import (
    bloch_sphere_grid,
    classify_env,
    is_universally_antidegradable,
)
from .linalg import bloch_state

LOCATE_TARGETS = ("a1", "eh_swap")

#: Default theta slices for the b2 family.
B2_THETAS = (0.5, 2.0 ** -6, 2.0 ** -10)

#: Resolution of the embedded universal anti-degradability scan in
#: region_scan rows.
REGION_UNIVERSAL_GRID = 32

_DEFAULT_GRID = {"region_scan": 9, "classify": 32}


@dataclass
class ExperimentConfig:
    experiment: str
    grid: int | None = None
    tol: float | None = None
    seed: int = 1234
    params: tuple = ()
    output_path: str | None = None
    fmt: str = "csv"
    no_timestamp: bool = False
    bracket: tuple | None = None

    def resolved_grid(self) -> int:
        if self.grid is not None:
            return self.grid
        return _DEFAULT_GRID.get(self.experiment, 64)

    def optimizer_options(self) -> OptimizerOptions:
        kw = {"seed": self.seed, "grid": self.resolved_grid()}
        if self.tol is not None:
            kw["tol"] = self.tol
        return OptimizerOptions(**kw)

    def to_json(self) -> str:
        # output_path is deliberately excluded: the echo describes the
        # computation, and files written to different paths must still be
        # byte-identical
        d = {"experiment": self.experiment, "grid": self.resolved_grid(),
             "tol": self.tol, "seed": self.seed, "params": list(self.params),
             "format": self.fmt,
             "bracket": list(self.bracket) if self.bracket else None}
        return json.dumps(d, sort_keys=True)


def _gate_from_params(params, default=(0.25, 0.25, 0.25)) -> BipartiteUnitary:
    """Canonical gate from CLI params (angles in units of pi)."""
    angles = params if params else default
    if len(angles) != 3:
        raise ValueError("gate parameters need three angles (in units of pi)")
    return canonical_unitary(tuple(np.pi * a for a in angles))


# -- curve families ---------------------------------------------------------

def a1_curve(gamma: float, t: float = 0.0) -> float:
    """Coherent info of a swap-dcnot edge gate paired with a fractional swap."""
    w = canonical_unitary((np.pi / 2, np.pi / 2, t * np.pi / 2))
    return two_copy_coherent_info(standard_two_copy(w, swap_power(gamma)))


_SQRT_SWAP_POINT = (np.pi / 4, np.pi / 4, np.pi / 4)

#: (label, W-family) pairs paired with the square-root-of-swap partner.
A3_FAMILIES = (
    ("s", lambda t: (np.pi / 2, np.pi / 2, t * np.pi / 2)),
    ("p1", lambda t: (np.pi / 4 + t * np.pi / 4, np.pi / 4 + t * np.pi / 4,
                      np.pi / 4 - t * np.pi / 4)),
    ("p2", lambda t: (np.pi / 4 + t * np.pi / 4, np.pi / 4 + t * np.pi / 4,
                      np.pi / 4 + t * np.pi / 4)),
    ("q1", lambda t: (np.pi / 2, np.pi / 4 + t * np.pi / 4,
                      np.pi / 4 + t * np.pi / 4)),
    ("q2", lambda t: (np.pi / 2, np.pi / 4 + t * np.pi / 4,
                      np.pi / 4 - t * np.pi / 4)),
    ("r", lambda t: (np.pi / 4 + t * np.pi / 4, np.pi / 4, np.pi / 4)),
)


def a3_curve(label: str, t: float) -> float:
    fam = dict(A3_FAMILIES)[label]
    w = canonical_unitary(fam(t))
    return two_copy_coherent_info(standard_two_copy(w, canonical_unitary(_SQRT_SWAP_POINT)))


def a2_curve(t: float) -> float:
    v = canonical_unitary((np.pi / 4 + t * np.pi / 4, np.pi / 4, np.pi / 4))
    return two_copy_coherent_info(standard_two_copy(SWAP, v))


def b1_curve(t: float) -> float:
    g = canonical_unitary((np.pi / 4 + t * np.pi / 4, np.pi / 4 + t * np.pi / 4,
                           np.pi / 4 - t * np.pi / 4))
    return two_copy_coherent_info(standard_two_copy(g, g))


def b2_curve(t: float, theta: float) -> float:
    g = canonical_unitary((np.pi / 2, np.pi / 4 + t * np.pi / 4,
                           np.pi / 4 - t * np.pi / 4))
    return two_copy_coherent_info(theta_two_copy(g, g, theta))


def b2_best_over_theta(t: float, extra_grid: int = 33) -> tuple[float, float]:
    """Best b2 value over the default theta slices plus a log-spaced grid.

    Returns (value, argmax theta); used to record the positivity window
    in diagnostics rather than to assert any published endpoints.
    """
    thetas = list(B2_THETAS) + list(np.geomspace(2.0 ** -16, 0.5, extra_grid))
    vals = [b2_curve(t, th) for th in thetas]
    i = int(np.argmax(vals))
    return vals[i], thetas[i]


# -- experiment tables ------------------------------------------------------

def _a1_rows(cfg, grid, opts):
    ts = list(cfg.params) if cfg.params else [0.0]
    gammas = np.linspace(0.5, 1.0, grid)
    rows = [(g, t, a1_curve(g, t)) for t in ts for g in gammas]
    return ("gamma", "t", "coherent_info"), rows


def _a2_rows(cfg, grid, opts):
    ts = np.linspace(0.0, 1.0, grid)
    return ("t", "curve_label", "coherent_info"), [(t, "a2", a2_curve(t)) for t in ts]


def _a3_rows(cfg, grid, opts):
    ts = np.linspace(0.0, 1.0, grid)
    rows = [(t, label, a3_curve(label, t)) for label, _ in A3_FAMILIES for t in ts]
    return ("t", "curve_label", "coherent_info"), rows


def _b1_rows(cfg, grid, opts):
    ts = np.linspace(0.0, 1.0, grid)
    return ("t", "curve_label", "coherent_info"), [(t, "m", b1_curve(t)) for t in ts]


def _b2_rows(cfg, grid, opts):
    thetas = list(cfg.params) if cfg.params else list(B2_THETAS)
    ts = np.linspace(0.0, 1.0, grid)
    rows = [(t, th, b2_curve(t, th)) for th in thetas for t in ts]
    return ("t", "theta", "coherent_info"), rows


def _eh_swap_rows(cfg, grid, opts):
    rows = []
    for g in np.linspace(0.0, 1.0, grid):
        qeh = swap_power_helper_capacity(g, opts).value
        qh = separable_helper_capacity(swap_power(g), opts).value
        rows.append((g, qeh, qh))
    return ("gamma", "qeh_tensor", "qh_tensor"), rows


def _region_scan_rows(cfg, grid, opts):
    axis = np.linspace(0.0, np.pi / 2, grid)
    rows = []
    for ax in axis:
        for ay in axis[axis <= ax + 1e-12]:
            for az in axis[axis <= ay + 1e-12]:
                p = (float(ax), float(ay), float(az))
                rows.append((p[0], p[1], p[2],
                             in_antidegradable_region(p),
                             in_degradable_region(p),
                             is_universally_antidegradable(
                                 canonical_unitary(p), REGION_UNIVERSAL_GRID)))
    return ("alpha_x", "alpha_y", "alpha_z", "in_A", "in_D", "universal_numeric"), rows


def _classify_rows(cfg, grid, opts):
    gate = _gate_from_params(cfg.params)
    _, thetas, phis = bloch_sphere_grid(grid, grid)
    rows = []
    for th, ph in zip(thetas, phis):
        cl = classify_env(gate, bloch_state(th, ph))
        rows.append((th, ph, cl.index, cl.tag.value))
    return ("theta", "phi", "index", "class"), rows


def _qhtens_rows(cfg, grid, opts):
    res = separable_helper_capacity(_gate_from_params(cfg.params), opts)
    return ("value", "argmax"), [(res.value, _argmax_json(res))]


def _jammer_rows(cfg, grid, opts):
    res = jammer_value(_gate_from_params(cfg.params), opts)
    return ("value", "argmax"), [(res.value, _argmax_json(res))]


#: Experiment name -> builder of (header, rows) from (config, grid, options).
_BUILDERS = {"a1": _a1_rows, "a2": _a2_rows, "a3": _a3_rows, "b1": _b1_rows,
             "b2": _b2_rows, "eh_swap": _eh_swap_rows,
             "region_scan": _region_scan_rows, "classify": _classify_rows,
             "qhtens": _qhtens_rows, "jammer": _jammer_rows}
EXPERIMENTS = tuple(_BUILDERS)


def run_experiment(cfg: ExperimentConfig):
    """Compute (header, rows) for an experiment configuration."""
    if cfg.experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {cfg.experiment!r}")
    grid = cfg.resolved_grid()
    if grid < 2:
        raise ValueError("grid must be >= 2")
    return _BUILDERS[cfg.experiment](cfg, grid, cfg.optimizer_options())


def _argmax_json(res) -> str:
    def enc(m):
        if m is None:
            return None
        arr = np.asarray(m)
        return [[float(x.real), float(x.imag)] for x in arr.reshape(-1)]

    return json.dumps({"input": enc(res.argmax_input), "env": enc(res.argmax_env)},
                      sort_keys=True)


def locate(cfg: ExperimentConfig) -> float:
    """Root of the selected curve by bisection.

    ``a1`` locates the sign change of the two-copy coherent information
    along the fractional-swap axis; ``eh_swap`` locates the point where
    the entangled-helper maximum drops to the resolution floor (the
    curve touches zero there rather than crossing, so the floor acts as
    the zero level).
    """
    if cfg.experiment == "a1":
        t = float(cfg.params[0]) if cfg.params else 0.0
        lo, hi = cfg.bracket if cfg.bracket else (0.5, 1.0)
        tol = cfg.tol if cfg.tol is not None else 1e-5
        return find_zero_crossing(lambda g: a1_curve(g, t), lo, hi, tol)
    if cfg.experiment == "eh_swap":
        lo, hi = cfg.bracket if cfg.bracket else (0.5, 1.0)
        tol = cfg.tol if cfg.tol is not None else 1e-4
        opts = OptimizerOptions(seed=cfg.seed, grid=cfg.resolved_grid())

        def f(g):
            return swap_power_helper_capacity(g, opts).value - 1e-9

        return find_zero_crossing(f, lo, hi, tol)
    raise ValueError(f"locate supports {LOCATE_TARGETS}, not {cfg.experiment!r}")
