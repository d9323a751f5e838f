"""Workload-independent pieces of the benchmark: statistics, the layer
trace, the kernel-class map, run metadata and the result line.

Nothing here imports ``repro`` at module level, so the helpers (and their
tests) load without the program under test.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import platform
import resource
import statistics
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

#: BLAS threads pinned for every run (set before numpy is imported, see
#: ``run.py``), so a parent and a child commit cannot differ by environment.
BLAS_THREADS = 1
BLAS_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
#: numpy asks for transparent huge pages on arrays of 4 MiB and more;
#: whether the host grants them depends on its free memory at the time, so
#: peak RSS and speed would depend on host state.  Pinned off, like the
#: BLAS threads.
NUMPY_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}

#: Fewest samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10
#: The tail never goes past this percentile, however many samples there are.
TAIL_CAP = 99


# -- statistics ---------------------------------------------------------------


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile (capped at p99) with ≥10 samples beyond it.

    Returns ``(value, percentile, n)``.  With ``n`` sorted samples the
    reported sample is the one with ``max(10, n - floor(0.99 n))`` samples
    above it, so a short run reports a lower percentile instead of a p99
    that rests on one or two samples.  Failed operations enter as ``inf``
    and so rank beyond every success.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < TAIL_BEYOND + 1:
        raise ValueError(
            f"need at least {TAIL_BEYOND + 1} samples for a tail percentile, got {n}"
        )
    idx = min(n * TAIL_CAP // 100 - 1, n - TAIL_BEYOND - 1)
    return xs[idx], 100.0 * (idx + 1) / n, n


def median(samples: Iterable[float]) -> float:
    return statistics.median(list(samples))


def due_time_latencies(records: Sequence[dict]) -> List[float]:
    """Latency of each open-loop request, measured from its *due* time.

    Each record has ``due`` (when the schedule said to send it), ``end``
    (when its response or refusal arrived) and ``ok``.  Timing from the
    due time, not the send time, charges a generator stall to every
    request it delayed.  A failed or refused request gets ``inf``: it
    misses any latency limit.
    """
    return [
        (r["end"] - r["due"]) if r["ok"] else math.inf for r in records
    ]


def within_limit(latencies: Sequence[float], limit_s: float) -> int:
    """Requests that completed successfully within ``limit_s``."""
    return sum(1 for x in latencies if x <= limit_s)


# -- kernel classes -----------------------------------------------------------

CONTRACTION = "contraction"
SCATTER_GATHER = "scatter_gather"
ELEMENTWISE = "elementwise"

#: Every kernel of ``repro.autodiff.kernels.KERNELS`` by class.  The map is
#: explicit so a kernel added to the program fails the benchmark's test
#: (and any traced run) until it is classified, instead of silently
#: dropping out of the split.
KERNEL_CLASSES: Dict[str, str] = {
    "matmul": CONTRACTION,
    "einsum": CONTRACTION,
    "gather": SCATTER_GATHER,
    "scatter_add": SCATTER_GATHER,
    "put_at": SCATTER_GATHER,
    "getitem": SCATTER_GATHER,
    "slice": SCATTER_GATHER,
    **{
        name: ELEMENTWISE
        for name in (
            "abs", "add", "astype", "broadcast_to", "clip", "concat", "cos",
            "div", "erfc", "exp", "expand_dims", "ge_mask", "le_mask", "less",
            "log", "maximum", "minimum", "mul", "neg", "pad_rows", "pow",
            "range_mask", "relu", "reshape", "select", "sigmoid", "sign",
            "silu", "sin", "softplus", "sqrt", "squeeze", "stack",
            "step_mask", "sub", "sum", "tanh", "transpose", "where",
        )
    },
}


def kernel_class(name: str) -> str:
    """Class of a replay kernel; raises ``KeyError`` for an unmapped one."""
    try:
        return KERNEL_CLASSES[name]
    except KeyError:
        raise KeyError(
            f"kernel {name!r} has no class in perfbench.harness.KERNEL_CLASSES"
        ) from None


# -- layer trace --------------------------------------------------------------


class Trace:
    """Outside-in span timer over a program's public callables.

    :meth:`patch` replaces a function (a class attribute, a module
    attribute or a mapping entry) with a timing wrapper; :meth:`restore`
    puts every original back.  Spans nest per thread: a span's *self* time
    is its duration minus that of the spans it called, so the self times
    of all spans add up to the time covered by traced calls.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Zero every accumulator (patches stay installed)."""
        with self._lock:
            self.total: Dict[str, float] = defaultdict(float)
            self.self_time: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.thread_self: Dict[str, float] = defaultdict(float)
            #: Per-event values a patch's ``after`` hook chooses to keep.
            self.samples: Dict[str, List[float]] = defaultdict(list)

    def wrap(self, name: str, fn, after=None):
        local = self._local
        lock = self._lock
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out)
                return out
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                own = dt - child
                with lock:
                    self.total[name] += dt
                    self.self_time[name] += own
                    self.calls[name] += 1
                    self.thread_self[threading.current_thread().name] += own

        timed.__wrapped__ = fn
        return timed

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr`` (a class or module) as ``name``.

        ``after``, if given, is called with each call's return value.
        """
        raw = inspect.getattr_static(owner, attr)
        had_own = attr in vars(owner)
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, raw.__func__, after))
        else:
            new = self.wrap(name, raw, after)
        setattr(owner, attr, new)
        self._undo.append(("attr", owner, attr, raw, had_own))

    def patch_item(self, mapping, key, name: str) -> None:
        """Time every call of ``mapping[key]`` fetched after this call."""
        raw = mapping[key]
        mapping[key] = self.wrap(name, raw)
        self._undo.append(("item", mapping, key, raw, True))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            kind, owner, key, raw, had_own = self._undo.pop()
            if kind == "item":
                owner[key] = raw
            elif had_own:
                setattr(owner, key, raw)
            else:
                delattr(owner, key)

    def covered(self, threads: Sequence[str]) -> float:
        """Self time summed over every span that ran on ``threads``."""
        with self._lock:
            return sum(self.thread_self.get(t, 0.0) for t in threads)


class StepClock:
    """Timestamps the end of each unit of work in an untraced run.

    Wraps one bound method that the program calls exactly once per unit
    (the thermostat once per MD step, the optimizer once per training
    step) on that one instance; the only cost is one clock read per unit.
    """

    def __init__(self, obj, attr: str) -> None:
        self.stamps: List[float] = []
        bound = getattr(obj, attr)
        stamps = self.stamps
        clock = time.perf_counter

        def stamped(*args, **kwargs):
            out = bound(*args, **kwargs)
            stamps.append(clock())
            return out

        setattr(obj, attr, stamped)

    def durations(self, t_start: float) -> List[float]:
        """Per-unit wall times of the units that ended after ``t_start``."""
        prev, out = t_start, []
        for t in self.stamps:
            if t > t_start:
                out.append(t - prev)
                prev = t
        return out


# -- run metadata and output --------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def metadata() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV_VARS},
        **{v: os.environ.get(v) for v in NUMPY_ENV},
        "platform": platform.platform(),
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The benchmark's last stdout line: ``{correct, attempted, failed, metrics}``."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
