#!/usr/bin/env python3
"""The envcap benchmark: one workload per process, outputs checked
against reference values.

    python3 perfbench/run.py --workload helper_sweep --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` for what each runs and why):
``helper_sweep``, ``jammer_gates`` and ``tables``.

With ``--trace 0`` the run makes one pass over the workload's items and
then goes on through them in the same order while the next item is
expected to end within ``--seconds``.  It reports the end-to-end metrics,
with nothing wrapped:

* ``setup_s`` -- median over fresh processes of the time to import
  envcap and build the inputs;
* ``wall_s`` -- one pass: the sum over items of each item's median time;
* ``peak_rss_mb`` -- peak resident memory of this process.

It also prints, without putting them in the JSON result:

* ``item_s.p50`` -- median over items (a gamma row, a gate, a CLI call)
  of each item's median time.  Half of the ``eh_swap`` rows are
  anti-degradable and an order of magnitude cheaper than the rest, so
  on ``helper_sweep`` this median falls in the gap between two groups
  and moves by a quarter from run to run: too much for a gated metric;
* ``item_s.tail`` -- the highest whole percentile of the item samples
  with at least ten samples above it, where there are that many;
* ``error_rate`` -- failed checks over checks attempted, which the JSON
  result carries as ``failed`` and ``attempted``.

With ``--trace 1`` the run makes two traced passes over the workload's
trace set between two untraced ones, and reports per-layer metrics from
the first traced pass (spans come from :mod:`tracer`).  The two traced
passes must give identical counts; the spans of both are written to
``perfbench/out/``.  ``trace.overhead_frac`` is the mean inclusive time of
the top-level spans over the mean untraced pass time, minus one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
with the host description goes to ``perfbench/out/``.  The exit code is
0 only when every output matched its reference.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("helper_sweep", "jammer_gates", "tables")
#: Items of each workload's pass that the traced run covers: a fixed
#: prefix, so traced counts repeat exactly from run to run.  The jammer's
#: trace covers only the seed-independent square-root-of-swap point,
#: which keeps the four passes over it short.
TRACE_ITEMS = {"helper_sweep": None, "jammer_gates": 1, "tables": None}
#: Fresh-process set-up samples taken before and again after the timed
#: items, so that their median spans the run rather than one moment of it.
SETUP_SAMPLES = 2
SETUP_TIMEOUT_S = 120
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Per-layer metrics ``<span>.<quantity>`` read from span totals.
SPAN_METRICS = (
    ("capacity.separable_helper_capacity", "calls", "count"),
    ("capacity.separable_helper_capacity", "incl_s", "s"),
    ("capacity.swap_power_helper_capacity", "calls", "count"),
    ("capacity.swap_power_helper_capacity", "incl_s", "s"),
    ("capacity.jammer_value", "calls", "count"),
    ("capacity.jammer_value", "self_s", "s"),
    ("capacity.two_copy_coherent_info", "calls", "count"),
    ("capacity.two_copy_coherent_info", "us_per_call", "us"),
    ("capacity.find_zero_crossing", "calls", "count"),
    ("degradability.batch_degradability_index", "calls", "count"),
    ("degradability.batch_degradability_index", "states", "count"),
    ("degradability.batch_degradability_index", "us_per_state", "us"),
    ("degradability.batch_effective_kraus", "calls", "count"),
    ("degradability.batch_effective_kraus", "states", "count"),
    ("degradability.batch_effective_kraus", "us_per_state", "us"),
    ("degradability.classify_env", "calls", "count"),
    ("degradability.classify_env", "us_per_call", "us"),
    ("channels.kraus_normal_form", "calls", "count"),
    ("channels.kraus_normal_form", "self_s", "s"),
    ("channels.effective_channel", "calls", "count"),
    ("canonical.canonical_unitary", "calls", "count"),
    ("canonical.canonical_unitary", "us_per_call", "us"),
    ("canonical.swap_power", "calls", "count"),
    ("linalg.partial_trace", "calls", "count"),
    ("linalg.partial_trace", "self_s", "s"),
    ("linalg.entropy_from_eigvals", "calls", "count"),
    ("linalg.entropy_from_eigvals", "self_s", "s"),
    ("linalg.bloch_density", "calls", "count"),
    ("linalg.bloch_state", "calls", "count"),
    ("experiments.run_experiment", "self_s", "s"),
    ("experiments.a1_curve", "calls", "count"),
    ("cli.main", "self_s", "s"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use; numpy reads
    these variables when it is first imported."""
    n = nproc()
    for var in BLAS_VARS:
        try:
            want = int(os.environ.get(var, n))
        except ValueError:
            want = n
        os.environ[var] = str(min(max(want, 1), n))


def blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            try:
                get = getattr(ctypes.CDLL(path), fn)
            except (OSError, AttributeError):
                continue
            get.restype = ctypes.c_int
            return int(get())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host() -> dict:
    import numpy
    import scipy

    return {"nproc": nproc(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads()}


# -- timing ---------------------------------------------------------------


class Outcomes:
    """Checks attempted and the messages of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def add(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.errors.append(error)


def run_pass(items, outcomes: Outcomes, wrap=None) -> list[float]:
    """Run every item once; returns the item times.  Only ``call`` is
    timed; ``wrap`` (a tracer's span) encloses it in a traced pass."""
    times = []
    for item in items:
        call = item.call if wrap is None else (lambda c=item.call: wrap(c))
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a raising item is a failed item
            times.append(time.perf_counter() - t0)
            outcomes.add(f"{item.label}: raised {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - t0)
        outcomes.add(item.check(out))
    return times


def timed_samples(items, seconds: float, outcomes: Outcomes) -> list[list[float]]:
    """Times of each item: one whole pass, then the items again in pass
    order for as long as the next one, taking as long as it last did,
    ends within ``seconds``."""
    start = time.perf_counter()
    samples = [[t] for t in run_pass(items, outcomes)]
    for k in itertools.count():
        i = k % len(items)
        if time.perf_counter() - start + samples[i][-1] > seconds:
            return samples
        samples[i] += run_pass(items[i:i + 1], outcomes)


def tail(samples: list[float]):
    """(percentile, value) of the highest whole percentile with at least
    ten samples above it, or None when there are too few samples."""
    n = len(samples)
    if n < 11:
        return None
    q = math.floor(100 * (n - 10) / n)
    rank = math.ceil(q / 100 * n)
    return q, sorted(samples)[rank - 1]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Import-and-build time of fresh processes, each reported by itself."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


# -- runs -----------------------------------------------------------------


def end_to_end(wl, items, workload, seed, seconds, outcomes) -> tuple[dict, dict]:
    setup = measure_setup(workload, seed)
    samples = timed_samples(items, seconds, outcomes)
    setup += measure_setup(workload, seed)
    index = wl.index_kernel(seed)
    outcomes.add(index["error"])
    per_item = [statistics.median(ts) for ts in samples]
    pooled = [t for ts in samples for t in ts]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(per_item), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    t = tail(pooled)
    info = {"items": len(items), "item_samples": len(pooled), "setup_samples_s": setup,
            "item_p50_s": statistics.median(per_item),
            "item_tail": None if t is None else {"percentile": t[0], "value_s": t[1]},
            "item_samples_s": {it.label: ts for it, ts in zip(items, samples)}}
    return metrics, info


def traced(wl, items, workload, seed, outcomes) -> tuple[dict, dict]:
    from tracer import Tracer

    items = items[:TRACE_ITEMS[workload]]
    # untraced, traced, traced, untraced: a steady drift in machine speed
    # cancels out of the overhead estimate
    untraced = [sum(run_pass(items, outcomes))]
    tracers = []
    for _ in range(2):
        with Tracer() as tr:
            run_pass(items, outcomes, wrap=tr.span)
        tracers.append(tr)
    untraced.append(sum(run_pass(items, outcomes)))
    first, second = (tr.exact_counts() for tr in tracers)
    mismatch = sorted(k for k in first.keys() | second.keys()
                      if first.get(k, 0) != second.get(k, 0))
    outcomes.add(f"trace self-check: counts differ between traced passes: {mismatch}"
                 if mismatch else None)
    index = wl.index_kernel(seed)
    outcomes.add(index["error"])

    tr = tracers[0]
    tot = tr.totals()
    traced_s = statistics.mean(t.root_seconds() for t in tracers)
    untraced_s = statistics.mean(untraced)
    metrics = {}
    for span, qty, unit in SPAN_METRICS:
        s = tot.get(span, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        if qty == "states":
            value = tr.counts[span + ".states"]
        elif qty == "us_per_call":
            value = s["incl_s"] / s["calls"] * 1e6 if s["calls"] else 0.0
        elif qty == "us_per_state":
            n = tr.counts[span + ".states"]
            value = s["incl_s"] / n * 1e6 if n else 0.0
        else:
            value = s[qty]
        metrics[f"{span}.{qty}"] = (value, unit)
    opt = tot.get("optimizer.minimize", {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    runs, nfev = opt["calls"], tr.counts["optimizer.nfev"]
    metrics.update({
        "optimizer.runs": (runs, "count"),
        "optimizer.nfev": (nfev, "count"),
        "optimizer.converged_frac": (tr.counts["optimizer.converged"] / runs if runs else 0.0,
                                     "ratio"),
        "optimizer.self_s": (opt["self_s"], "s"),
        "optimizer.obj_calls_per_s": (nfev / opt["incl_s"] if runs else 0.0, "1/s"),
        "degradability.index.batched_us_per_state": (index["batched_us_per_state"], "us"),
        "degradability.index.scalar_us_per_state": (index["scalar_us_per_state"], "us"),
        "trace.overhead_frac": (traced_s / untraced_s - 1, "ratio"),
    })
    OUT.mkdir(exist_ok=True)
    spans = []
    for k, t in enumerate(tracers, 1):
        path = OUT / f"spans-{workload}-seed{seed}-pass{k}.npz"
        t.save(path)
        spans.append(str(path.relative_to(ROOT)))
    info = {"items": [it.label for it in items], "untraced_wall_s": untraced_s,
            "traced_root_spans_s": traced_s, "spans": spans, "counts": first,
            "index_kernel": index}
    return metrics, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, print the seconds it took")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "envcap" / "__init__.py").is_file():
        print(f"perfbench: no envcap sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import envcap

    if Path(envcap.__file__).resolve().parent != SRC / "envcap":
        print(f"perfbench: imported envcap from {envcap.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        refs = wl.load_refs()
        items, build_checks = wl.build(args.workload, args.seed, refs, work_dir)
        if args.setup_only:
            print(repr(time.perf_counter() - _T0))
            return 0
        outcomes = Outcomes()
        for check in build_checks:
            outcomes.add(check)
        if args.trace:
            metrics, info = traced(wl, items, args.workload, args.seed, outcomes)
        else:
            metrics, info = end_to_end(wl, items, args.workload, args.seed, args.seconds,
                                       outcomes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(outcomes.errors)
    result = {"correct": failed == 0, "attempted": outcomes.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host(), **result, "errors": outcomes.errors,
              "info": info}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"host: {json.dumps(record['host'], sort_keys=True)}")
    for err in outcomes.errors:
        print(f"FAILED: {err}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<55} {value:>14.6g} {unit}")
    print(f"{'error_rate':<55} {failed / outcomes.attempted:>14.6g} ratio")
    if "item_p50_s" in info:
        print(f"{'item_s.p50':<55} {info['item_p50_s']:>14.6g} s "
              f"(median of {info['items']} items)")
    t = info.get("item_tail")
    if t is not None:
        print(f"{'item_s.tail':<55} {t['value_s']:>14.6g} s "
              f"(p{t['percentile']} of {info['item_samples']} samples)")
    if args.trace:
        print(f"top-level spans {info['traced_root_spans_s']:.4f} s against untraced "
              f"{info['untraced_wall_s']:.4f} s")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
