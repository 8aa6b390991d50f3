"""The repository benchmark: one workload per run, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload allreduce|kvs|fabric|all \
        [--seed N] [--seconds S] [--trace 0|1]

``all`` runs the three workloads one after another in this process, each
printing its report and result line (``peak_rss_mb`` is then the
process's peak so far).

Workloads and their parameters live in ``perfbench/workloads.json``. Each
run is one process and one thread:

1. **Set-up**, repeated ``setups`` times on fresh deployments: compile,
   deploy, hot-key install and the warm-up unit (the first round or ops).
   ``setup_s`` is the median, at reference speed (see 2). Every
   deployment's warm-up must give the same simulated results and work
   counts (same seed).
2. ``--trace 0``: the last deployment runs measured units until
   ``--seconds`` have passed (and at least ``measured_units``). Only the
   call into the program is timed. ``windows_per_s`` is the median over
   units of windows completed per second *at reference speed*
   (``speed.py``: the wall time scaled by how fast a fixed pure-Python
   loop ran during the unit). On a shared machine whose speed drifts by
   tens of percent within a minute, this keeps the program's own speed
   and cancels the machine's; the report also prints the plain
   wall-clock figures. The simulated metrics come from the first
   ``measured_units`` units.
3. ``--trace 1``: the last set-up deployment (untraced) and one more,
   fresh deployment with layer spans recorded (``tracing.py``) run the
   same ``measured_units`` units alternately (``--seconds`` is not used).
   The per-layer metrics cover the traced deployment from compile to its
   last unit; its simulated metrics and work counts must equal the
   untraced one's.

Every unit's output is checked against an oracle; failed ops or windows
are counted and each failed check is named. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics untraced, the per-layer ones traced).
Imports are timed apart (``import_s``, printed in the report).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, help="default: the workload's default_seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's own sources first on the path and import them."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


def merge(into, samples) -> None:
    for key, values in samples.items():
        into.setdefault(key, []).extend(values)


def drive(wl, dep, index, clock, checks, samples=None):
    """Run unit *index* on *dep*; only the call into the program is timed.
    Returns (the unit's :class:`speed.Timing`, windows in the unit)."""
    inputs = wl.unit(index)
    with clock.timed() as timing:
        output = dep.run(inputs)
    unit_samples = dep.check(inputs, output, checks)
    if samples is not None:
        merge(samples, unit_samples)
    return timing, wl.windows(inputs)


def set_up(wl, clock, checks, samples):
    """A fresh deployment and its warm-up unit, timed together. Returns
    (deployment, timing)."""
    inputs = wl.unit(0)
    with clock.timed() as timing:
        dep = wl.deploy()
        output = dep.run(inputs)
    merge(samples, dep.check(inputs, output, checks))
    return dep, timing


def measure(wl, dep, units, clock, checks, seconds):
    """Measured units 1..: at least *units*, then more until *seconds*
    have passed. Returns (per-unit windows per wall second, the same at
    reference speed, snapshot of the simulated metrics and work counts
    right after unit *units*)."""
    samples, wall_rates, ref_rates, snapshot = {}, [], [], None
    start = perf_counter()
    index = 1
    while index <= units or perf_counter() - start < seconds:
        gc.collect()
        timing, windows = drive(
            wl, dep, index, clock, checks, samples if index <= units else None
        )
        wall_rates.append(windows / timing.wall_s)
        ref_rates.append(windows / timing.ref_s)
        if index == units:
            snapshot = {"sim": wl.sim_metrics(samples), "counts": dep.counts()}
        index += 1
    return wall_rates, ref_rates, snapshot


def trace_units(wl, dep, units, clock, checks, tracing):
    """Run a traced deployment next to the untraced *dep*, alternating
    units so that drift in machine speed cancels out of the overhead.
    *clock* is not entered: no sampling signals interrupt the spans.
    Returns (tracer, traced wall s from deploy to the last unit, tracing
    overhead on the measured units, traced snapshot, untraced snapshot)."""
    tracer = tracing.Tracer()
    with tracer.installed():
        start = perf_counter()
        traced_dep = wl.deploy()
        tracer.bind_hosts(traced_dep.cluster)
        drive(wl, traced_dep, 0, clock, checks)
        wall_traced = perf_counter() - start
    units_plain = units_traced = 0.0
    samples, samples_traced = {}, {}
    for index in range(1, units + 1):
        gc.collect()
        units_plain += drive(wl, dep, index, clock, checks, samples)[0].wall_s
        gc.collect()
        with tracer.installed():
            timing, _ = drive(wl, traced_dep, index, clock, checks, samples_traced)
        units_traced += timing.wall_s
    plain = {"sim": wl.sim_metrics(samples), "counts": dep.counts()}
    traced = {"sim": wl.sim_metrics(samples_traced), "counts": traced_dep.counts()}
    overhead = units_traced / units_plain - 1
    return tracer, wall_traced + units_traced, overhead, traced, plain


def fingerprint(snapshot) -> str:
    """Digest of the simulated metrics and work counts: equal across runs
    of one seed, traced or not."""
    blob = json.dumps(snapshot, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def report(title, rows) -> None:
    print(f"== {title}")
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<26} {shown:>14} {unit:<6} {note}")


def run_workload(name, spec, seed, seconds, trace, import_s):
    """Run one workload; print its report and, last, its result line."""
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](seed, spec["params"])
    checks = workloads.Checks()
    units = spec["measured_units"]
    print(f"workload {name}, seed {seed}, trace {trace}")

    with speed.SpeedClock() as clock:
        setups, warm_prints, dep = [], [], None
        for _ in range(spec["setups"]):
            dep = None
            gc.collect()
            warm = {}
            dep, timing = set_up(wl, clock, checks, warm)
            setups.append(timing)
            warm_prints.append(fingerprint({"sim": wl.sim_metrics(warm), "counts": dep.counts()}))
        if not trace:
            wall_rates, ref_rates, snapshot = measure(wl, dep, units, clock, checks, seconds)
    if len(set(warm_prints)) != 1:
        checks.fail("determinism.same_seed_deployments", counts_as_failed_ops=False)

    if not trace:
        metrics = {
            "setup_s": (statistics.median(t.ref_s for t in setups), "s"),
            "windows_per_s": (statistics.median(ref_rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        rows = [
            ("setup_s", metrics["setup_s"][0], "s",
             f"median of {len(setups)} set-ups, at reference speed"),
            ("wall_setup_s", statistics.median(t.wall_s for t in setups), "s", "wall clock"),
            ("windows_per_s", metrics["windows_per_s"][0], "1/s",
             f"median of {len(ref_rates)} units, at reference speed"),
            ("wall_windows_per_s", statistics.median(wall_rates), "1/s", "wall clock"),
            ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", "whole process"),
        ]
        if name == "kvs":  # one op is one request window
            rows.append(("ops_per_s", metrics["windows_per_s"][0], "1/s", "= windows_per_s"))
    else:
        tracer, wall_traced, overhead, traced, snapshot = trace_units(
            wl, dep, units, clock, checks, tracing
        )
        if traced != snapshot:
            checks.fail("determinism.traced_equals_untraced", counts_as_failed_ops=False)
        metrics = tracing.layer_metrics(tracer, traced["counts"], wall_traced, overhead)
        for metric in ("pisa.packets", "nir.kernel_runs"):
            if metrics[metric][0] != traced["counts"][metric]:
                checks.fail(f"trace.{metric}_matches_program", counts_as_failed_ops=False)
        trace_path = HERE / "out" / f"{name}-seed{seed}.trace.json"
        tracer.write_chrome(trace_path)
        notes = {"pisa.table_hit_ratio": "base: pisa.table_lookups"}
        rows = [(k, v, u, notes.get(k, "")) for k, (v, u) in metrics.items()]
        rows.append(("trace.spans", len(tracer.spans), "count", str(trace_path.relative_to(ROOT))))
        rows.append(("trace.wall_s", wall_traced, "s", "deploy to last unit"))

    error_rate = checks.failed / checks.attempted if checks.attempted else 1.0
    rows.append(("error_rate", error_rate, "ratio", f"{checks.failed} of {checks.attempted}"))
    rows.append(("import_s", import_s, "s", "once per process, not in setup_s"))
    report("per-layer (traced deployment)" if trace else "end to end", rows)
    report(
        f"simulated, first {units} measured units (deterministic)",
        [(k, v, u, f"n={n}") for k, (v, u, n) in snapshot["sim"].items()],
    )
    print(f"fingerprint {fingerprint(snapshot)} (simulated metrics + work counts)")
    for check, n in sorted(checks.failures.items()):
        print(f"FAILED check {check}: {n}")

    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    t0 = perf_counter()
    config = json.loads((HERE / "workloads.json").read_text())
    args = parse_args(argv, sorted(config) + ["all"])
    import_program()
    import tracing  # noqa: F401 -- imported here so import_s covers it
    import workloads  # noqa: F401

    import_s = perf_counter() - t0
    names = list(config) if args.workload == "all" else [args.workload]
    for name in names:
        spec = config[name]
        seed = spec["default_seed"] if args.seed is None else args.seed
        run_workload(name, spec, seed, args.seconds, args.trace, import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
