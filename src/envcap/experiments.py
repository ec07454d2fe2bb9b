"""The command table: dataset builders and zero-crossing targets of the CLI.

Each experiment produces a header and a list of rows with deterministic
values, each ``locate`` target a root; the CLI handles formatting and
I/O.  Gate angles arriving from the command line are in units of pi.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .canonical import (
    SWAP,
    canonical_matrix,
    canonical_unitary,
    in_antidegradable_region,
    in_degradable_region,
    swap_power,
    swap_power_matrix,
)
from .capacity import (
    OptimizerOptions,
    find_zero_crossing,
    jammer_value,
    separable_helper_capacity,
    swap_power_helper_capacity,
    two_copy_curve,
)
from .channels import BipartiteUnitary
from .degradability import (
    Degradability,
    _classify,
    bloch_sphere_grid,
    universally_antidegradable,
)

#: Default theta slices for the b2 family.
B2_THETAS = (0.5, 2.0 ** -6, 2.0 ** -10)

#: Resolution of the embedded universal anti-degradability scan in
#: region_scan rows.
REGION_UNIVERSAL_GRID = 32


def _is_real(x) -> bool:
    """A finite number: NaN and infinities stop here, not in a kernel."""
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and math.isfinite(x))


def _is_reals(x) -> bool:
    return isinstance(x, (list, tuple)) and all(map(_is_real, x))


#: What each config field may hold; None takes the command's default.
_FIELD_CHECKS = {
    "grid": ("an integer", lambda x: x is None or _is_real(x) and isinstance(x, int)),
    "tol": ("a finite real number", lambda x: x is None or _is_real(x)),
    "params": ("a list of finite real numbers", _is_reals),
    "output_path": ("a path string", lambda x: x is None or isinstance(x, str)),
    "format": ("csv or json", lambda x: x in ("csv", "json")),
    "no_timestamp": ("true or false", lambda x: isinstance(x, bool)),
    "bracket": ("two finite real numbers", lambda x: x is None or _is_reals(x) and len(x) == 2),
}


@dataclass
class ExperimentConfig:
    """One run of a :data:`COMMANDS` entry; None fields take its defaults."""

    experiment: str
    grid: int | None = None
    tol: float | None = None
    params: tuple = ()
    output_path: str | None = None
    format: str = "csv"
    no_timestamp: bool = False
    bracket: tuple | None = None

    def __post_init__(self):
        entry = COMMANDS.get(self.experiment)
        if entry is None:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for name, (what, ok) in _FIELD_CHECKS.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {what}, not {value!r}")
        self.grid = entry.grid if self.grid is None else self.grid
        self.tol = entry.tol if self.tol is None else self.tol
        self.bracket = self.bracket or entry.bracket

    def optimizer_options(self) -> OptimizerOptions:
        tol = OptimizerOptions.tol if self.tol is None else self.tol
        return OptimizerOptions(grid=self.grid, tol=tol)

    def to_json(self) -> str:
        # output_path is left out, so files written to different paths match byte
        # for byte; "seed" is a retired setting, echoed at its old value likewise.
        d = {"experiment": self.experiment, "grid": self.grid,
             "tol": self.tol, "seed": 1234, "params": list(self.params),
             "format": self.format,
             "bracket": list(self.bracket) if self.bracket else None}
        return json.dumps(d, sort_keys=True)


def _gate_from_params(params, default=(0.25, 0.25, 0.25)) -> BipartiteUnitary:
    """Canonical gate from CLI params (angles in units of pi)."""
    angles = params if params else default
    if len(angles) != 3:
        raise ValueError("gate parameters need three angles (in units of pi)")
    return canonical_unitary(tuple(np.pi * a for a in angles))


# -- curve families ---------------------------------------------------------

_SQRT_SWAP_POINT = (np.pi / 4, np.pi / 4, np.pi / 4)

#: (label, canonical point as a function of t) of every gate family the
#: curves use; a3 pairs each with the square-root-of-swap partner.
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


def _family_matrix(label: str, t):
    point = dict(A3_FAMILIES)[label](np.asarray(t, dtype=float))
    return canonical_matrix(np.stack(np.broadcast_arrays(*point), -1))


def a1_curve(gamma, t=0.0):
    """Coherent info of a swap-dcnot edge gate paired with a fractional swap
    (this curve and the ones below take arrays of gamma and t too)."""
    return two_copy_curve(_family_matrix("s", t), swap_power_matrix(gamma))


def a3_curve(label: str, t):
    return two_copy_curve(_family_matrix(label, t), canonical_matrix(_SQRT_SWAP_POINT))


def a2_curve(t):
    return two_copy_curve(SWAP, _family_matrix("r", t))


def b1_curve(t):
    g = _family_matrix("p1", t)
    return two_copy_curve(g, g)


def b2_curve(t, theta: float):
    g = _family_matrix("q2", t)
    return two_copy_curve(g, g, theta)


# -- command table ---------------------------------------------------------

def _curve_rows(header, x_range, tags, curve):
    """Builder of the rows (x, tag, curve(x, tag)) over ``cfg.grid`` points
    of ``x_range``, tag by tag; ``--params`` replaces the tags."""
    def build(cfg, opts):
        xs = np.linspace(*x_range, cfg.grid)
        return header, [(x, tag, c) for tag in cfg.params or tags
                        for x, c in zip(xs.tolist(), curve(xs, tag).tolist())]
    return build


def _eh_swap_rows(cfg, opts):
    rows = [(g, swap_power_helper_capacity(g, opts).value,
             separable_helper_capacity(swap_power(g), opts).value)
            for g in np.linspace(0.0, 1.0, cfg.grid)]
    return ("gamma", "qeh_tensor", "qh_tensor"), rows


def _region_scan_rows(cfg, opts):
    axis = np.linspace(0.0, np.pi / 2, cfg.grid)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    ax, ay, az = grid.T
    points = grid[(ay <= ax + 1e-12) & (az <= ay + 1e-12)]  # ax slowest, az fastest
    universal = universally_antidegradable(canonical_matrix(points), REGION_UNIVERSAL_GRID)
    columns = (*points.T, in_antidegradable_region(points), in_degradable_region(points), universal)
    return (("alpha_x", "alpha_y", "alpha_z", "in_A", "in_D", "universal_numeric"),
            list(zip(*(c.tolist() for c in columns))))


def _classify_rows(cfg, opts):
    etas, thetas, phis = bloch_sphere_grid(cfg.grid, cfg.grid)
    index, tags = _classify(_gate_from_params(cfg.params), etas,
                            [tag.value for tag in Degradability])
    rows = list(zip(thetas.tolist(), phis.tolist(), index, tags))
    return ("theta", "phi", "index", "class"), rows


def _qhtens_rows(cfg, opts):
    res = separable_helper_capacity(_gate_from_params(cfg.params), opts)
    return ("value", "argmax"), [(res.value, _argmax_json(res))]


def _jammer_rows(cfg, opts):
    res = jammer_value(_gate_from_params(cfg.params), opts)
    return ("value", "argmax"), [(res.value, _argmax_json(res))]


def _locate_a1(cfg, opts):
    """Sign change of the a1 two-copy coherent information."""
    lo, hi = cfg.bracket
    return find_zero_crossing(a1_curve, lo, hi, cfg.tol)


def _locate_eh_swap(cfg, opts):
    """Where the entangled-helper maximum drops to the resolution floor: the
    curve touches zero there rather than crossing, so the floor is the zero."""
    lo, hi = cfg.bracket
    return find_zero_crossing(lambda g: swap_power_helper_capacity(g, opts).value - 1e-9,
                              lo, hi, cfg.tol)


@dataclass(frozen=True)
class Command:
    """Builder, config fields it reads besides ``experiment``, defaults."""

    build: Callable
    reads: frozenset
    grid: int = 64
    tol: float | None = None
    bracket: tuple | None = None


_OUTPUT = frozenset({"output_path", "format", "no_timestamp"})
_LABELLED = ("t", "curve_label", "coherent_info")

#: Every command the CLI runs, keyed by its words.  Experiments build
#: (header, rows); ``locate`` targets return a root, ``tol`` bisects it.
#: The curve rows call each curve by its module name, so rebinding it reaches them.
COMMANDS = {
    "a1": Command(_curve_rows(("gamma", "t", "coherent_info"), (0.5, 1.0), (0.0,),
                              lambda g, t: a1_curve(g, t)), _OUTPUT | {"grid", "params"}),
    "a2": Command(_curve_rows(_LABELLED, (0.0, 1.0), ("a2",), lambda t, _: a2_curve(t)),
                  _OUTPUT | {"grid"}),
    "a3": Command(_curve_rows(_LABELLED, (0.0, 1.0), tuple(dict(A3_FAMILIES)),
                              lambda t, label: a3_curve(label, t)), _OUTPUT | {"grid"}),
    "b1": Command(_curve_rows(_LABELLED, (0.0, 1.0), ("m",), lambda t, _: b1_curve(t)),
                  _OUTPUT | {"grid"}),
    "b2": Command(_curve_rows(("t", "theta", "coherent_info"), (0.0, 1.0), B2_THETAS,
                              lambda t, theta: b2_curve(t, theta)), _OUTPUT | {"grid", "params"}),
    "eh_swap": Command(_eh_swap_rows, _OUTPUT | {"grid"}),
    "region_scan": Command(_region_scan_rows, _OUTPUT | {"grid"}, grid=9),
    "classify": Command(_classify_rows, _OUTPUT | {"grid", "params"}, grid=32),
    "qhtens": Command(_qhtens_rows, _OUTPUT | {"grid", "tol", "params"}),
    "jammer": Command(_jammer_rows, _OUTPUT | {"params"}),
    "locate a1": Command(_locate_a1, frozenset({"bracket", "tol"}),
                         tol=1e-5, bracket=(0.5, 1.0)),
    "locate eh_swap": Command(_locate_eh_swap, frozenset({"bracket", "tol"}),
                              tol=1e-4, bracket=(0.5, 1.0)),
}
EXPERIMENTS = tuple(name for name in COMMANDS if not name.startswith("locate "))


def run_experiment(cfg: ExperimentConfig):
    """Run a table entry: (header, rows) for an experiment, the root for a
    ``locate`` target."""
    return COMMANDS[cfg.experiment].build(cfg, cfg.optimizer_options())


def _argmax_json(res) -> str:
    def enc(m):
        return None if m is None else [[float(x.real), float(x.imag)]
                                       for x in np.asarray(m).reshape(-1)]
    return json.dumps({"input": enc(res.argmax_input), "env": enc(res.argmax_env)},
                      sort_keys=True)
