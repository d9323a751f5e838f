"""The serving workload: an open-loop Poisson stream into ``ForceServer``.

It uses the engine differently from the MD workloads: many plan-cache
capacity buckets, with captures on the request path, and it is the only
workload that exercises admission, QoS, batching and the plan cache.

Load: one generator thread sends requests at their due times whatever the
server does (independent users make an open loop), stepping through 15,
30 and 60 req/s.  Arrival times, structures and priority classes all come
from the workload seed; the server only ever sees the generated
structures.  Each step holds exactly ``rate x duration`` arrivals placed
as a Poisson process conditioned on that count, so the number of requests
does not vary with the seed.

Plan-cache counts: captures and replays come from the server's
``plan_captures`` / ``plan_replays`` counters, and hits, misses and
evictions from the ``PlanCache`` attributes.  ``PlanCache.stats()``'s
``n_captures`` and ``replay_rate`` are not used: they sum only the buckets
still alive, so after evictions they undercount captures (8 against the
server's 206 in one 1200-request run at 60 req/s) and overstate the replay
rate.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from harness import (
    TAIL_BEYOND,
    Trace,
    due_time_latencies,
    median,
    tail_percentile,
    within_limit,
)
from repro.data.molecules import random_molecule
from repro.models import AllegroModel
from repro.serve import DeadlineExceeded, ForceServer, QoSPolicy, ServerOverloaded
from repro.serve.batching import MicroBatcher
from repro.serve.plancache import PlanCache
from workload_md import engine_layers, small_allegro, trace_engine

#: (rate in req/s, share of the run) for each step of the schedule.
SCHEDULE = ((15, 0.1), (30, 0.7), (60, 0.2))
#: The step whose latencies are the end-to-end p50 and tail.
REPORT_RATE = 30
LIMIT_S = 0.25
INTERACTIVE_SHARE = 0.25
POOL = 256
ATOMS = (6, 23)
#: One worker.  Two workers share the module-level row-block scratch of
#: ``repro.autodiff.kernels._blocked_matmul`` (``_mm_scratch``); numpy
#: releases the GIL inside ``matmul``, so concurrent replays overwrite each
#: other's scratch and about 2 % of responses carry wrong forces, which the
#: bitwise check below reports.  Set this back to 2 once that scratch is
#: per thread.
WORKERS = 1
MAX_BATCH = 8
MAX_QUEUE = 64
#: Every this many-th successful response is checked against a direct
#: evaluation of the same structure.
CHECK_EVERY = 50


def molecule_pool(rng: np.random.Generator) -> list:
    """``POOL`` distinct molecules of 6-23 atoms."""
    pool = []
    while len(pool) < POOL:
        mol = random_molecule(n_heavy=int(rng.integers(2, 9)), rng=rng)
        if ATOMS[0] <= mol.n_atoms <= ATOMS[1]:
            pool.append(mol)
    return pool


def step_windows(seconds: float) -> list:
    """``(rate, begin_s, end_s)`` of each step; every step is long enough
    for a tail percentile, however short the run."""
    out, t0 = [], 0.0
    for rate, share in SCHEDULE:
        span = max(share * seconds, (TAIL_BEYOND + 1) / rate)
        out.append((rate, t0, t0 + span))
        t0 += span
    return out


def arrivals(rng: np.random.Generator, seconds: float) -> list:
    """``(due_s, rate, pool_index, priority)`` for every request, by due time."""
    out = []
    for rate, t0, t1 in step_windows(seconds):
        n = int(round(rate * (t1 - t0)))
        dues = np.sort(rng.uniform(t0, t1, size=n))
        idx = rng.integers(POOL, size=n)
        interactive = rng.random(n) < INTERACTIVE_SHARE
        out += [
            (float(d), rate, int(i), "interactive" if x else "batch")
            for d, i, x in zip(dues, idx, interactive)
        ]
    return out


def outstanding(records, t: float) -> int:
    """Requests due by ``t`` whose response had not arrived at ``t``."""
    return sum(1 for r in records if r["due"] <= t < r["end"])


def step_summary(records, rate: int, t_begin: float, t_end: float) -> dict:
    """Counts, latencies and the limit test for one rate step."""
    lat = due_time_latencies(records)
    tail, pct, n = tail_percentile(lat)
    ok = sum(r["ok"] for r in records)
    growth = outstanding(records, t_end) - outstanding(records, t_begin)
    return {
        "rate": rate,
        "sent": len(records),
        "ok": ok,
        "shed": sum(r["kind"] == "shed" for r in records),
        "expired": sum(r["kind"] == "expired" for r in records),
        "failed": sum(r["kind"] == "error" for r in records),
        "latencies": lat,
        "p50": median(lat),
        "tail": tail,
        "tail_pct": pct,
        "within": within_limit(lat, LIMIT_S),
        "backlog_growth": growth,
        # The backlog "grows" when the step ends with more than one full
        # batch queued beyond what was outstanding when it began.
        "meets": tail <= LIMIT_S and ok >= 0.99 * len(records) and growth <= MAX_BATCH,
    }


class ServeAllegroPoisson:
    """Compiled ``ForceServer`` (1 worker, batch 8, queue 64) under QoS."""

    name = "serve_allegro_poisson"
    unit = "request"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.pool = molecule_pool(self.rng)
        self.model = small_allegro()
        self.server = ForceServer(
            self.model,
            n_workers=WORKERS,
            max_batch=MAX_BATCH,
            max_queue=MAX_QUEUE,
            engine="compiled",
            qos=QoSPolicy(deadlines={"interactive": LIMIT_S}),
        )
        # Fixed warm-up: one full batch of the largest pool structures, so
        # the biggest capture of the run happens here, not at a random
        # point of the schedule.
        largest = sorted(self.pool, key=lambda m: m.n_atoms)[-MAX_BATCH:]
        for fut in [self.server.submit(m) for m in largest]:
            fut.result()

    @staticmethod
    def install_trace(trace: Trace) -> None:
        def queue_waits(batch):
            if batch:
                now = time.monotonic()
                trace.samples["serve.queue_wait"] += [now - r.t_enqueue for r in batch]

        trace.plans = {}

        def plan_entry(entry):
            trace.plans[entry.key] = entry

        trace.patch(ForceServer, "submit", "serve.submit")
        trace.patch(MicroBatcher, "get_batch", "serve.idle", after=queue_waits)
        trace.patch(AllegroModel, "prepare_neighbors", "serve.nl_build")
        trace.patch(PlanCache, "acquire", "serve.plan_acquire", after=plan_entry)
        trace_engine(trace)

    def _counters(self) -> dict:
        stats = self.server.stats()
        c, batcher = stats["counters"], stats["batcher"]
        cache = self.server.registry.get().ensure_cache()
        return {
            "captures": c.get("plan_captures", 0),
            "replays": c.get("plan_replays", 0),
            "hits": cache.n_hits,
            "misses": cache.n_misses,
            "evictions": cache.n_evictions,
            "shed": c.get("requests_shed", 0),
            "expired": c.get("requests_expired", 0),
            "batches": batcher["n_batches"],
            "coalesced": batcher["n_coalesced"],
            "transitions": stats["health"]["transitions"],
        }

    def measure(self, seconds: float) -> dict:
        schedule = arrivals(self.rng, seconds)
        self._before = self._counters()
        records, late = [], []
        t0 = time.monotonic() + 0.01
        for k, (due, rate, idx, priority) in enumerate(schedule):
            due_abs = t0 + due
            wait = due_abs - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            late.append(time.monotonic() - due_abs)
            rec = {"due": due_abs, "rate": rate, "idx": idx, "end": math.inf,
                   "ok": False, "kind": None, "check": k % CHECK_EVERY == 0}
            records.append(rec)
            try:
                fut = self.server.submit(self.pool[idx], priority=priority)
            except ServerOverloaded:
                rec["end"], rec["kind"] = time.monotonic(), "shed"
            else:
                fut.add_done_callback(lambda f, rec=rec: _finish(rec, f))
        if not self.server.drain(timeout=60.0):
            raise RuntimeError("server did not drain within 60 s")
        wall = time.monotonic() - t0
        self._after = self._counters()

        windows = step_windows(seconds)
        steps = [
            step_summary([r for r in records if r["rate"] == rate], rate,
                         t0 + begin, t0 + end)
            for rate, begin, end in windows
        ]
        self.records, self.steps = records, steps
        self.late_tail_ms = tail_percentile(late)[0] * 1e3
        self.max_ok = max([s["rate"] for s in steps if s["meets"]], default=0)
        main = next(s for s in steps if s["rate"] == REPORT_RATE)
        report = [
            f"  step {s['rate']:>2} req/s: sent {s['sent']}, ok {s['ok']}, "
            f"shed {s['shed']}, expired {s['expired']}, failed {s['failed']}, "
            f"p50 {s['p50'] * 1e3:.1f} ms, p{s['tail_pct']:.1f} "
            f"{s['tail'] * 1e3:.1f} ms, within {LIMIT_S * 1e3:.0f} ms "
            f"{s['within']}, backlog growth {s['backlog_growth']}, "
            f"{'meets' if s['meets'] else 'misses'} the limit"
            for s in steps
        ]
        report.append(
            f"  max ok rate {self.max_ok} req/s; generator late tail "
            f"{self.late_tail_ms:.2f} ms"
        )
        return {
            "units": len(records),
            "wall": wall,
            # Goodput: requests answered within the limit, per second of
            # the whole schedule.
            "rate": sum(s["within"] for s in steps) / windows[-1][2],
            "latencies": main["latencies"],
            "attempted": len(records),
            # Shed and expired requests are the QoS policy working; they
            # count against latency and goodput.  ``failed`` counts errors.
            "failed": sum(s["failed"] for s in steps),
            "report": report,
        }

    def close(self) -> None:
        self.server.stop(drain=True, timeout=30.0)

    def check(self) -> list:
        problems = []
        for rec in self.records:
            if not (rec["check"] and rec["ok"]):
                continue
            mol = self.pool[rec["idx"]]
            e, f = self.model.energy_and_forces(mol, self.model.prepare_neighbors(mol))
            e_s, f_s = rec["result"]
            if not (e_s == e and np.array_equal(f_s, f)):
                problems.append(
                    f"served result for pool structure {rec['idx']} differs from "
                    f"a direct evaluation (dE = {e_s - e:.3e})"
                )
            if not (np.isfinite(e_s) and np.isfinite(f_s).all()):
                problems.append("non-finite served result")
        return problems

    def layer_metrics(self, trace: Trace, setup, meas: dict) -> dict:
        n = meas["units"]
        d = {k: self._after[k] - self._before[k] for k in self._after}
        served = sum(s["ok"] for s in self.steps)
        waits = trace.samples["serve.queue_wait"]
        idle = trace.self_time["serve.idle"]
        workers = [f"force-worker-{k}" for k in range(WORKERS)]
        busy = WORKERS * meas["wall"] - idle
        lookups = d["hits"] + d["misses"]
        live = self.server.registry.get().ensure_cache().keys()
        arena = sum(
            trace.plans[k].compiled.stats().get("arena_bytes", 0)
            for k in live if k in trace.plans
        )
        out = {
            # Arenas of the plan-cache buckets alive at the end of the run.
            "engine.arena_bytes": (arena, "B"),
            "serve.submit_s": (trace.total["serve.submit"] / n, "s"),
            "serve.queue_wait_p50_s": (median(waits), "s"),
            "serve.queue_wait_tail_s": (tail_percentile(waits)[0], "s"),
            "serve.batch_occupancy": (d["coalesced"] / max(d["batches"], 1), "count"),
            "serve.nl_build_s": (trace.total["serve.nl_build"] / max(served, 1), "s"),
            "serve.eval_s": (trace.total["engine.evaluate"] / max(served, 1), "s"),
            "serve.plan_hit_ratio": (d["hits"] / max(lookups, 1), "ratio"),
            "serve.plan_captures": (d["captures"], "count"),
            "serve.plan_replays": (d["replays"], "count"),
            "serve.plan_misses": (d["misses"], "count"),
            "serve.plan_evictions": (d["evictions"], "count"),
            "serve.shed": (d["shed"], "count"),
            "serve.expired": (d["expired"], "count"),
            "health.transitions": (d["transitions"], "count"),
            "serve.generator_late_tail_ms": (self.late_tail_ms, "ms"),
            "serve.max_ok_rps": (self.max_ok, "1/s"),
            "obs.coverage": ((trace.covered(workers) - idle) / busy, "ratio"),
        }
        for s in self.steps:
            for key in ("sent", "ok", "shed", "expired", "failed"):
                out[f"serve.step{s['rate']}.{key}"] = (s[key], "count")
        out.update(engine_layers(trace, setup, max(served, 1)))
        return out


def _finish(rec: dict, fut) -> None:
    rec["end"] = time.monotonic()
    exc = fut.exception()
    if exc is None:
        rec["ok"], rec["kind"] = True, "ok"
        if rec["check"]:
            rec["result"] = fut.result()
    elif isinstance(exc, ServerOverloaded):
        rec["kind"] = "shed"
    elif isinstance(exc, DeadlineExceeded):
        rec["kind"] = "expired"
    else:
        rec["kind"] = "error"
