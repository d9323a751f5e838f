"""The repository's benchmark: four workloads, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload md_water_allegro --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Workloads (inputs are generated from ``--seed``; the model is fixed):

* ``md_water_allegro`` - compiled Allegro MD of the 192-atom water cell.
* ``md_lj_parallel`` - 1000-atom LJ liquid on 4 virtual ranks, with dumps
  and checkpoints.
* ``serve_allegro_poisson`` - open-loop Poisson requests into the force
  server at 15, 30 and 60 req/s.
* ``train_allegro_water`` - force-only Allegro training on water.

End-to-end metrics (``--trace 0``), the same names on every workload; a
unit of work is an MD step, an optimizer step or a request:

* ``throughput_per_s`` - MD steps/s or optimizer steps/s over the whole
  measured window, or for serving the goodput: requests answered within
  250 ms per second of the whole schedule.
* ``setup_s`` - median of several set-ups in the run: building the
  workload, the first capture and a fixed warm-up.
* ``peak_rss_mb`` - peak resident memory of the run's process.

Every run also reports the latency of a unit of work - the wall time of an
MD or optimizer step, or for serving the request latency from its due time
in the 30 req/s step, a failed or shed request counting as missing every
limit - as its median and its tail: the highest percentile (at most p99)
with at least ten samples beyond it, with that percentile and the sample
count.  Latency is not gated.  The step time of a shared host drifts by
+-20% in phases of a few seconds; queueing amplifies that on serving,
where the median's spread across ten seeds reached 0.90 of the median and
the tail's 1.29 (plan captures on the request path make the tail), wider
than any bound the benchmark may set.  ``--trace 1`` reports them as
``obs.latency_p50_ms`` and ``obs.latency_tail_ms`` from its untraced half.

``--trace 1`` runs the workload untraced and then again with spans around
the calls into each layer's public functions (nothing inside ``src/`` is
changed), and reports the per-layer metrics: seconds and counts per unit
of work, ``obs.coverage`` (traced self time over wall time) and
``obs.trace_overhead`` (traced over untraced median unit latency, minus
one).

The last stdout line is the JSON result ``{correct, attempted, failed,
metrics}``; every line before it is the human-readable report.  A failed
output check prints ``CHECK FAILED`` lines and sets ``correct`` to false.
Without the program's sources the run exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

WORKLOADS = (
    "md_water_allegro",
    "md_lj_parallel",
    "serve_allegro_poisson",
    "train_allegro_water",
)
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def declared(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def conform(metrics: dict, kind: str) -> dict:
    """Every declared metric, in declared order; a layer the workload never
    calls reads 0.  An undeclared metric or a unit mismatch is a bug here."""
    units = declared(kind)
    extra = sorted(set(metrics) - set(units))
    if extra:
        raise ValueError(f"metrics missing from BENCHMARK.json {kind}: {extra}")
    out = {}
    for name, unit in units.items():
        value, got = metrics.get(name, (0.0, unit))
        if got != unit:
            raise ValueError(f"{name}: unit {got!r}, declared {unit!r}")
        out[name] = (value, unit)
    return out


def workload_class(name: str):
    """The workload's class; imported here, once ``src`` is importable."""
    from workload_md import LJParallelMD, WaterAllegroMD
    from workload_serve import ServeAllegroPoisson
    from workload_train import TrainAllegroWater

    classes = (WaterAllegroMD, LJParallelMD, ServeAllegroPoisson, TrainAllegroWater)
    return {cls.name: cls for cls in classes}[name]


def untraced(cls, seed: int, seconds: float, workdir: Path):
    setups, wl = [], None
    for k in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
            wl = None
            gc.collect()
        t0 = time.perf_counter()
        wl = cls(seed, workdir / f"setup{k}")
        setups.append(time.perf_counter() - t0)
    meas = wl.measure(seconds)
    wl.close()
    problems = wl.check()
    lat = meas["latencies"]
    tail, pct, n = harness.tail_percentile(lat)
    values = {
        "throughput_per_s": meas["rate"],
        "setup_s": harness.median(setups),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    report = meas["report"] + [
        f"  latency p50 = {harness.median(lat) * 1e3:.6g} ms, p{pct:.1f} = "
        f"{tail * 1e3:.6g} ms over {n} {cls.unit} samples",
        "  set-ups (s): " + ", ".join(f"{s:.4f}" for s in setups),
    ]
    units = declared("end_to_end")
    if set(values) != set(units):
        raise ValueError(f"end-to-end metrics {sorted(values)} != {sorted(units)}")
    metrics = {k: (v, units[k]) for k, v in values.items()}
    return metrics, meas, problems, report


def traced(cls, seed: int, seconds: float, workdir: Path):
    half = seconds / 2.0
    wl = cls(seed, workdir / "untraced")
    base = wl.measure(half)
    wl.close()
    problems = wl.check()
    del wl
    gc.collect()

    trace = harness.Trace()
    cls.install_trace(trace)
    try:
        wl = cls(seed, workdir / "traced")
        # Spans of the set-up (its captures) apart from the measured window.
        setup = SimpleNamespace(total=trace.total, calls=trace.calls)
        trace.reset()
        meas = wl.measure(half)
        wl.close()
        metrics = wl.layer_metrics(trace, setup, meas)
        problems += wl.check()
    finally:
        trace.restore()
    overhead = harness.median(meas["latencies"]) / harness.median(base["latencies"]) - 1
    metrics["obs.trace_overhead"] = (overhead, "ratio")
    tail, pct, n = harness.tail_percentile(base["latencies"])
    metrics["obs.latency_p50_ms"] = (harness.median(base["latencies"]) * 1e3, "ms")
    metrics["obs.latency_tail_ms"] = (tail * 1e3, "ms")
    metrics["obs.latency_tail_pct"] = (pct, "%")
    metrics["obs.latency_samples"] = (n, "count")
    metrics = conform(metrics, "per_layer")
    report = meas["report"] + [
        f"  {name} = {value:.6g} {unit}"
        for name, (value, unit) in sorted(metrics.items())
    ]
    return metrics, meas, problems, report


def run_one(args) -> int:
    cls = workload_class(args.workload)
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        run = traced if args.trace else untraced
        metrics, meas, problems, report = run(cls, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  metadata {harness.metadata()}")
    for line in report:
        print(line)
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(
        harness.result_line(
            not problems, meas["attempted"], meas["failed"], metrics
        ),
        flush=True,
    )
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, so set-up time and peak memory
    belong to one workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args)
    # Before numpy is first imported, so every run uses the same BLAS threads
    # and huge-page policy.
    for var in harness.BLAS_ENV_VARS:
        os.environ[var] = str(harness.BLAS_THREADS)
    os.environ.update(harness.NUMPY_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
