"""Multi-rank force evaluation: the decomposed force backend of
:class:`repro.md.simulation.Simulation`.

There is one MD driver.  As LAMMPS runs one integrator loop and
``pair_allegro`` supplies forces per rank, :class:`ParallelForceEvaluator`
plugs into ``Simulation`` in place of a potential; per force call:

1. forward halo exchange of positions,
2. every rank evaluates the potential on its owned-center edges,
3. reverse halo exchange adds ghost force contributions back to owners.

Reneighboring (triggered by the Verlet-skin criterion on the global
system) rebuilds the partition, migrating atoms between ranks and
reconstructing ghost sets.  :class:`ParallelSimulation` is only a
constructor: ``Simulation`` over an evaluator built from ``n_ranks``.

The evaluator is *exact*: assembled energies and forces equal the serial
backend's up to floating-point summation order (asserted in tests), which
is the reproduction of the paper's claim that strict locality makes
spatial decomposition semantically invisible.

Fault tolerance: dropped/delayed exchanges are retransmitted inside
:class:`~repro.parallel.comm.VirtualCluster`; when retransmission is
exhausted (:class:`~repro.parallel.comm.CommError`) or a rank failure is
injected (:class:`RankFailure`), the evaluator purges in-flight traffic,
rebuilds the decomposition — reassigning the failed rank's atoms exactly
as a restarted replacement node would repartition — and retries the step,
bounded by ``max_retries``.  Because all authoritative state (positions,
velocities) lives in the global :class:`System`, recovery is a pure
recompute: the retried step produces the same forces as an undisturbed
one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .. import autodiff as ad
from ..md.neighborlist import prune_to_pair_cutoffs
from ..md.simulation import Simulation
from ..md.system import System
from ..obs import LATENCY_BUCKETS, MONOTONIC, Registry, get_tracer, span
from .comm import CommError, VirtualCluster
from .decomposition import DomainDecomposition, RankShard
from .topology import ProcessGrid


class RankFailure(RuntimeError):
    """A (simulated) rank loss during a force evaluation."""

    def __init__(self, rank: int) -> None:
        super().__init__(f"rank {rank} failed")
        self.rank = rank


@dataclass
class RankWorkStats:
    """Per-rank work for load-balance analysis and the performance model."""

    n_owned: np.ndarray
    n_ghost: np.ndarray
    n_edges: np.ndarray

    @property
    def load_imbalance(self) -> float:
        """max/mean of per-rank edge counts (1.0 = perfect balance)."""
        mean = self.n_edges.mean()
        return float(self.n_edges.max() / mean) if mean > 0 else 1.0


class ParallelForceEvaluator:
    """Evaluates a strictly-local potential across a process grid."""

    def __init__(
        self,
        potential,
        grid: ProcessGrid,
        cluster: Optional[VirtualCluster] = None,
        skin: float = 0.0,
        engine: str = "eager",
        fault_plan=None,
        max_retries: int = 3,
        registry: Optional[Registry] = None,
    ) -> None:
        if engine not in ("eager", "compiled"):
            raise ValueError(f"unknown engine {engine!r} (use 'eager' or 'compiled')")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.potential = potential
        self.grid = grid
        self.obs = registry if registry is not None else Registry()
        self.cluster = cluster or VirtualCluster(
            grid.n_ranks, fault_plan=fault_plan, registry=self.obs
        )
        self.fault_plan = fault_plan
        self.max_retries = int(max_retries)
        self._c_failures = self.obs.counter("parallel.failures")
        self._c_recoveries = self.obs.counter("parallel.recoveries")
        self._rank_force_hist: dict = {}
        self.skin = float(skin)
        self.engine = engine
        # One compiled evaluator per rank: each rank captures at its own
        # shard capacity (atoms + edges fluctuate independently per domain),
        # so a migration on one rank never forces recapture on another.
        self._compiled: dict = {}
        self.decomp = DomainDecomposition(
            grid, potential.cutoff + self.skin, self.cluster
        )
        self._shards: Optional[List[RankShard]] = None
        self._ref_positions: Optional[np.ndarray] = None
        #: Decomposition builds so far (the VerletList.n_builds analogue).
        self.n_builds = 0

    # Legacy attribute API: the counters now live in the registry.
    @property
    def n_failures(self) -> int:
        return self._c_failures.value

    @property
    def n_recoveries(self) -> int:
        return self._c_recoveries.value

    def stats(self) -> dict:
        """Unified observability view: one registry tree + phase times.

        The snapshot carries the comm traffic (``comm.*``), per-rank engine
        counters (``engine.*{rank=...}``), and failure/recovery totals
        (``parallel.*``); ``phases`` holds span timings for
        decompose/exchange/force/halo when tracing is enabled.
        """
        out = self.obs.snapshot()
        out["resilience"] = self.resilience_stats()
        out["engine"] = self.engine_stats()
        out["phases"] = get_tracer().phase_totals("parallel.")
        return out

    def resilience_stats(self) -> dict:
        """Failure/recovery counters plus the cluster's fault accounting."""
        out = {
            "n_failures": self.n_failures,
            "n_recoveries": self.n_recoveries,
            "max_retries": self.max_retries,
        }
        out.update(self.cluster.fault_stats())
        return out

    def engine_stats(self) -> Optional[dict]:
        """Aggregated per-rank capture/replay counters (None when eager)."""
        if self.engine != "compiled":
            return None
        per_rank = {rank: cp.stats() for rank, cp in sorted(self._compiled.items())}
        return {
            "n_captures": sum(s["n_captures"] for s in per_rank.values()),
            "n_replays": sum(s["n_replays"] for s in per_rank.values()),
            "recaptures": sum(s["recaptures"] for s in per_rank.values()),
            "per_rank": per_rank,
        }

    # -- checkpointable state -------------------------------------------------
    def get_state(self) -> dict:
        """Decomposition bookkeeping: shards, reference positions, owners.

        Restoring it (:meth:`set_state`) makes a resumed run follow the
        identical reneighbor/migration schedule, so it reproduces the
        uninterrupted trajectory bitwise.
        """
        prev = self.decomp._prev_owner
        return {
            "shards": copy.deepcopy(self._shards),
            "ref_positions": (
                None if self._ref_positions is None else self._ref_positions.copy()
            ),
            "prev_owner": None if prev is None else prev.copy(),
        }

    def set_state(self, state: dict) -> None:
        """Restore :meth:`get_state` output (extra keys are ignored)."""
        self._shards = copy.deepcopy(state["shards"])
        ref = state["ref_positions"]
        self._ref_positions = None if ref is None else np.array(ref)
        prev = state["prev_owner"]
        self.decomp._prev_owner = None if prev is None else np.array(prev)

    # -- shard management ---------------------------------------------------
    def _needs_rebuild(self, system: System) -> bool:
        if self._shards is None or self._ref_positions is None:
            return True
        if len(self._ref_positions) != system.n_atoms:
            return True
        if self.skin == 0.0:
            return True
        disp = system.positions - self._ref_positions
        disp = system.cell.minimum_image(disp)
        return bool(np.sqrt((disp * disp).sum(axis=1).max()) > self.skin / 2)

    def _prepare(self, system: System) -> List[RankShard]:
        if self._needs_rebuild(system):
            with span("parallel.decompose"):
                system.wrap()
                self._shards = self.decomp.build(system)
                for shard in self._shards:
                    shard.nl = prune_to_pair_cutoffs(
                        self.decomp.local_neighbor_list(
                            shard, self.potential.cutoff + self.skin
                        ),
                        shard.positions,
                        shard.species,
                        self.potential,
                        self.skin,
                    )
                self._ref_positions = system.positions.copy()
                self.n_builds += 1
        else:
            with span("parallel.exchange"):
                self.decomp.update_ghost_positions(self._shards, system)
        return self._shards

    # -- evaluation ----------------------------------------------------------------
    def compute(self, system: System) -> Tuple[float, np.ndarray, RankWorkStats]:
        """(total energy, assembled forces, per-rank work stats).

        Retries on :class:`~repro.parallel.comm.CommError` (retransmission
        exhausted) and :class:`RankFailure` (injected rank loss): in-flight
        traffic is purged, the decomposition is rebuilt from the global
        system — reassigning the lost rank's shard — and the evaluation
        reruns, up to ``max_retries`` times.
        """
        attempts = 0
        while True:
            try:
                return self._compute_once(system)
            except (CommError, RankFailure) as exc:
                self._c_failures.inc()
                attempts += 1
                if attempts > self.max_retries:
                    raise
                self._recover(exc)
                self._c_recoveries.inc()

    def _recover(self, exc: BaseException) -> None:
        """Reset comm + decomposition state so the next attempt is clean."""
        self.cluster.purge()
        self._shards = None
        self._ref_positions = None
        if isinstance(exc, RankFailure):
            # The replacement node arrives empty: its compiled capture
            # state is gone and gets rebuilt on first use.
            self._compiled.pop(exc.rank, None)

    def _rank_hist(self, rank: int):
        hist = self._rank_force_hist.get(rank)
        if hist is None:
            hist = self.obs.histogram(
                "parallel.rank_force_seconds",
                buckets=LATENCY_BUCKETS,
                labels={"rank": str(rank)},
            )
            self._rank_force_hist[rank] = hist
        return hist

    def _compute_once(
        self, system: System
    ) -> Tuple[float, np.ndarray, RankWorkStats]:
        with span("parallel.step") as sp:
            out = self._compute_body(system, sp)
        return out

    def _compute_body(
        self, system: System, sp
    ) -> Tuple[float, np.ndarray, RankWorkStats]:
        if self.fault_plan is not None:
            from ..resilience.faults import RANK_FAIL

            if self.fault_plan.fires(RANK_FAIL):
                # Deterministic victim: cycle through the grid.
                victim = (self.fault_plan.draws(RANK_FAIL) - 1) % self.grid.n_ranks
                raise RankFailure(victim)
        shards = self._prepare(system)
        n = system.n_atoms
        forces = np.zeros((n, 3))
        energy = 0.0
        ghost_blocks: List[np.ndarray] = []
        n_owned = np.zeros(self.grid.n_ranks, dtype=int)
        n_ghost = np.zeros(self.grid.n_ranks, dtype=int)
        n_edges = np.zeros(self.grid.n_ranks, dtype=int)
        # Per-rank wall times feed load-imbalance histograms, but only when
        # tracing is on — the clock calls are not free in the hot path.
        timed = get_tracer().enabled

        with span("parallel.force"):
            for shard in shards:
                n_owned[shard.rank] = shard.n_owned
                n_ghost[shard.rank] = shard.n_ghost
                n_edges[shard.rank] = shard.nl.n_edges if shard.nl is not None else 0
                if shard.n_owned == 0:
                    ghost_blocks.append(np.zeros((shard.n_ghost, 3)))
                    continue
                t_rank = MONOTONIC() if timed else 0.0
                if self.engine == "compiled":
                    cp = self._compiled.get(shard.rank)
                    if cp is None:
                        from ..engine import CompiledPotential

                        cp = CompiledPotential(
                            self.potential,
                            registry=self.obs,
                            labels={"rank": str(shard.rank)},
                        )
                        self._compiled[shard.rank] = cp
                    # n_active masks the energy seed to owned-center rows, the
                    # compiled analogue of e_atoms[:n_owned].sum(); gradients
                    # on ghost rows are exactly the halo force contributions.
                    e_atoms, local_f = cp.evaluate(
                        shard.positions, shard.species, shard.nl, n_active=shard.n_owned
                    )
                    energy += float(np.sum(e_atoms[: shard.n_owned]))
                else:
                    pos = ad.Tensor(shard.positions, requires_grad=True)
                    e_atoms = self.potential.atomic_energies(
                        pos, shard.species, shard.nl
                    )
                    e_owned = e_atoms[: shard.n_owned].sum()
                    e_owned.backward()
                    local_f = -pos.grad.data
                    energy += float(e_owned.data)
                if timed:
                    self._rank_hist(shard.rank).observe(MONOTONIC() - t_rank)
                forces[shard.owned_ids] += local_f[: shard.n_owned]
                ghost_blocks.append(local_f[shard.n_owned :])

        bytes_before = self.cluster.stats.total_bytes()
        with span("parallel.halo"):
            ghost_corr = self.decomp.reverse_force_exchange(shards, ghost_blocks)
        sp.add("halo_bytes", self.cluster.stats.total_bytes() - bytes_before)
        sp.add("edges", int(n_edges.sum()))
        if len(ghost_corr) < n:
            ghost_corr = np.concatenate(
                [ghost_corr, np.zeros((n - len(ghost_corr), 3))], axis=0
            )
        forces += ghost_corr[:n]
        return energy, forces, RankWorkStats(n_owned, n_ghost, n_edges)


class ParallelSimulation(Simulation):
    """:class:`~repro.md.Simulation` over a :class:`ParallelForceEvaluator`.

    Builds the process grid (``grid_dims`` pins a factorization of
    ``n_ranks``, e.g. a tuned profile's measured-best grid; the default
    minimizes surface), the virtual cluster and the evaluator, all on one
    registry tree, and hands the evaluator to the shared step loop.  The
    loop, checkpoints (which also hold the decomposition bookkeeping, so a
    restored run reproduces the uninterrupted one bitwise), dumps of the
    gathered global system, watchdog and callbacks are ``Simulation``'s.
    """

    def __init__(
        self,
        system: System,
        potential,
        n_ranks: int,
        dt: float = 0.5,
        thermostat=None,
        skin: float = 0.4,
        engine: str = "eager",
        fault_plan=None,
        max_retries: int = 3,
        registry: Optional[Registry] = None,
        grid_dims=None,
    ) -> None:
        if system.cell is None:
            raise ValueError("parallel MD requires a periodic cell")
        if grid_dims is not None:
            dims = tuple(int(d) for d in grid_dims)
            if int(np.prod(dims)) != int(n_ranks):
                raise ValueError(
                    f"grid_dims {dims} does not factor n_ranks={n_ranks}"
                )
            self.grid = ProcessGrid(dims, system.cell)
        else:
            self.grid = ProcessGrid.create(n_ranks, system.cell)
        registry = registry if registry is not None else Registry()
        self.cluster = VirtualCluster(
            n_ranks, fault_plan=fault_plan, registry=registry
        )
        evaluator = ParallelForceEvaluator(
            potential,
            self.grid,
            self.cluster,
            skin=skin,
            engine=engine,
            fault_plan=fault_plan,
            max_retries=max_retries,
            registry=registry,
        )
        super().__init__(
            system, evaluator, dt=dt, thermostat=thermostat, registry=registry
        )
