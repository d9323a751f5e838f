"""The two MD workloads: compiled Allegro water and decomposed LJ liquid.

``md_water_allegro`` is the paper's headline metric on its deployment path
(compiled engine, Langevin NVT, the 192-atom water cell).  Plan replay
takes nearly all of each step, so kernel and engine changes show here and
driver or neighbor-list changes barely do.

``md_lj_parallel`` is the spatial-decomposition driver on 4 virtual ranks
with a cheap force, a ``.rtrj`` dump every 10 steps and a checkpoint every
50.  Partitioning, local neighbor lists and halo exchange do most of the
work, so driver changes show here and kernel changes barely do.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from harness import Trace, StepClock, kernel_class, median
from repro.autodiff.kernels import KERNELS
from repro.data import water_unit_cell
from repro.engine import CompiledPotential, ExecutionPlan
from repro.md import Cell, LangevinThermostat, Simulation, System, VerletList
from repro.md.integrators import VelocityVerlet
from repro.models import AllegroConfig, AllegroModel, LennardJones
from repro.parallel import ParallelSimulation
from repro.parallel.decomposition import DomainDecomposition
from repro.resilience import CheckpointManager
from repro.traj import TrajectoryReader, TrajectoryWriter


def small_allegro(seed: int = 5) -> AllegroModel:
    """The small Allegro model of the repository's engine ablation."""
    return AllegroModel(
        AllegroConfig(
            n_species=4,
            lmax=2,
            n_tensor=4,
            n_layers=2,
            latent_dim=24,
            two_body_hidden=(24,),
            latent_hidden=(32,),
            edge_energy_hidden=(16,),
            r_cut=3.5,
            avg_num_neighbors=14.0,
            seed=seed,
        )
    )


def trace_engine(trace: Trace) -> None:
    """Engine and replay-kernel spans; install before the first capture,
    because a plan binds its kernel functions when it is captured."""
    trace.patch(CompiledPotential, "evaluate", "engine.evaluate")
    # The capture entry point is private; it is the only boundary that
    # separates capture time from replay inside ``evaluate``.
    trace.patch(CompiledPotential, "_capture", "engine.capture")
    trace.patch(ExecutionPlan, "execute", "engine.execute")
    for name in list(KERNELS):
        trace.patch_item(KERNELS, name, "autodiff." + kernel_class(name))


def trace_integrator(trace: Trace) -> None:
    trace.patch(VelocityVerlet, "half_kick", "md.integrate")
    trace.patch(VelocityVerlet, "drift", "md.integrate")
    trace.patch(LangevinThermostat, "apply", "md.thermostat")


def engine_layers(trace: Trace, setup, n: int) -> dict:
    """Engine and kernel-class metrics per unit of work (``n`` units);
    ``setup`` holds the span totals and calls of the set-up."""
    kernel_calls = sum(c for k, c in trace.calls.items() if k.startswith("autodiff."))
    return {
        "engine.evaluate_s": (trace.total["engine.evaluate"] / n, "s"),
        "engine.execute_s": (trace.total["engine.execute"] / n, "s"),
        "engine.captures": (
            setup.calls["engine.capture"] + trace.calls["engine.capture"], "count"
        ),
        "engine.capture_s": (
            setup.total["engine.capture"] + trace.total["engine.capture"], "s"
        ),
        "engine.kernel_calls": (kernel_calls / n, "count"),
        "autodiff.contraction_s": (trace.total["autodiff.contraction"] / n, "s"),
        "autodiff.scatter_gather_s": (
            trace.total["autodiff.scatter_gather"] / n, "s"
        ),
        "autodiff.elementwise_s": (trace.total["autodiff.elementwise"] / n, "s"),
    }


def _measure_blocks(run_block, block: int, seconds: float):
    """Run ``block``-step chunks until ``seconds`` pass.

    Returns ``(t_start, wall, n_blocks)``.  The rate is steps over the whole
    window: on a shared host the step time drifts by +-20% in phases of a
    few seconds, and the run-long mean varied less from run to run than
    the median block rate did.
    """
    t_start = time.perf_counter()
    deadline = t_start + seconds
    n_blocks = 0
    while True:
        run_block(block)
        n_blocks += 1
        t1 = time.perf_counter()
        if t1 >= deadline:
            return t_start, t1 - t_start, n_blocks


class WaterAllegroMD:
    """Compiled Allegro MD of the 192-atom water cell, Langevin NVT 300 K."""

    name = "md_water_allegro"
    unit = "step"
    BLOCK = 10
    WARMUP_STEPS = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.model = small_allegro()
        system = water_unit_cell(seed=seed, jitter=0.05, n_grid=4)
        system.seed_velocities(300.0, np.random.default_rng(seed))
        self.compiled = self.model.compile(padding=0.05)
        self.sim = Simulation(
            system,
            self.compiled,
            dt=0.5,
            thermostat=LangevinThermostat(300.0, friction=0.01, seed=seed),
            skin=0.4,
        )
        self.clock = StepClock(self.sim.thermostat, "apply")
        self.results = [self.sim.run(self.WARMUP_STEPS)]

    @staticmethod
    def install_trace(trace: Trace) -> None:
        trace.patch(VerletList, "get", "md.neighbor")
        trace_integrator(trace)
        trace_engine(trace)

    def measure(self, seconds: float) -> dict:
        self._builds0 = self.sim.verlet.n_builds
        self._pairs0 = self.sim.obs.counter("md.pairs").value
        self._steps0 = self.sim.step_count
        t_start, wall, n_blocks = _measure_blocks(
            lambda n: self.results.append(self.sim.run(n)), self.BLOCK, seconds
        )
        steps = self.sim.step_count - self._steps0
        return {
            "units": steps,
            "wall": wall,
            "rate": steps / wall,
            "latencies": self.clock.durations(t_start),
            "attempted": steps,
            "failed": 0,
            "report": [f"  {steps} steps in {n_blocks} blocks of {self.BLOCK}"],
        }

    def close(self) -> None:
        pass

    def check(self) -> list:
        problems = []
        system = self.sim.system
        nl = self.sim.verlet.get(system)
        e_c, f_c = self.compiled.energy_and_forces(system, nl)
        e_e, f_e = self.model.energy_and_forces(system, nl)
        if not (e_c == e_e and np.array_equal(f_c, f_e)):
            problems.append(
                "final-frame compiled forces differ from eager "
                f"(max |df| = {np.abs(f_c - f_e).max():.3e})"
            )
        problems += _finite_md(self.results, system)
        return problems

    def layer_metrics(self, trace: Trace, setup, meas: dict) -> dict:
        n = meas["units"]
        stats = self.compiled.stats()
        out = {
            "md.neighbor_s": (trace.total["md.neighbor"] / n, "s"),
            "md.neighbor_rebuilds": (
                (self.sim.verlet.n_builds - self._builds0) / n, "count"
            ),
            "md.integrate_s": (trace.total["md.integrate"] / n, "s"),
            "md.thermostat_s": (trace.total["md.thermostat"] / n, "s"),
            "md.pairs": (
                (self.sim.obs.counter("md.pairs").value - self._pairs0) / n, "count"
            ),
            "engine.arena_bytes": (stats["arena_bytes"], "B"),
            "engine.recaptures": (stats["recaptures"], "count"),
            "obs.coverage": (trace.covered(["MainThread"]) / meas["wall"], "ratio"),
        }
        out.update(engine_layers(trace, setup, n))
        return out


def lj_lattice(seed: int, n_side: int = 10, a: float = 1.7) -> System:
    """Simple-cubic LJ lattice with a small seeded jitter and 30 K velocities."""
    rng = np.random.default_rng(seed)
    g = np.arange(n_side) * a
    pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    pos = pos + rng.normal(scale=0.02, size=pos.shape)
    system = System(pos, np.zeros(len(pos), dtype=int), Cell.cubic(n_side * a))
    system.wrap()
    system.seed_velocities(30.0, rng)
    return system


class LJParallelMD:
    """1000-atom LJ liquid on 4 virtual ranks with dumps and checkpoints."""

    name = "md_lj_parallel"
    unit = "step"
    #: A block is one checkpoint period: ``run`` counts the checkpoint
    #: interval from its own start, so shorter blocks would never save.
    BLOCK = 50
    DUMP_EVERY = 10
    WARMUP_STEPS = 50

    def __init__(self, seed: int, workdir: Path) -> None:
        self.potential = LennardJones(epsilon=0.05, sigma=1.5, cutoff=3.0)
        system = lj_lattice(seed)
        self.sim = ParallelSimulation(
            system,
            self.potential,
            n_ranks=4,
            dt=0.2,
            thermostat=LangevinThermostat(30.0, friction=0.01, seed=seed),
            skin=0.4,
            engine="compiled",
        )
        self.clock = StepClock(self.sim.thermostat, "apply")
        workdir.mkdir(parents=True, exist_ok=True)
        self.dump_path = workdir / "lj.rtrj"
        self.writer = TrajectoryWriter(self.dump_path, system=system)
        self.ckpt = CheckpointManager(workdir / "ckpt")
        self.results = []
        self.imbalance = []
        self._run(self.WARMUP_STEPS)

    def _run(self, n: int) -> None:
        self.results.append(
            self.sim.run(
                n,
                dump_writer=self.writer,
                dump_every=self.DUMP_EVERY,
                checkpoint_manager=self.ckpt,
                checkpoint_every=self.BLOCK,
            )
        )
        self.imbalance.append(self.sim.last_stats.load_imbalance)

    @staticmethod
    def install_trace(trace: Trace) -> None:
        trace.patch(DomainDecomposition, "build", "parallel.partition")
        trace.patch(DomainDecomposition, "local_neighbor_list", "parallel.local_nl")
        trace.patch(
            DomainDecomposition, "update_ghost_positions", "parallel.halo_forward"
        )
        trace.patch(
            DomainDecomposition, "reverse_force_exchange", "parallel.halo_reverse"
        )
        trace.patch(TrajectoryWriter, "record", "traj.record")
        trace.patch(TrajectoryWriter, "close", "traj.close")
        trace.patch(CheckpointManager, "save", "resilience.checkpoint")
        trace_integrator(trace)
        trace_engine(trace)

    def measure(self, seconds: float) -> dict:
        comm = self.sim.cluster.stats
        self._comm0 = (comm.total_bytes(), comm.total_messages())
        self._steps0 = self.sim.step_count
        self._imb0 = len(self.imbalance)
        t_start, wall, n_blocks = _measure_blocks(self._run, self.BLOCK, seconds)
        steps = self.sim.step_count - self._steps0
        return {
            "units": steps,
            "wall": wall,
            "rate": steps / wall,
            "latencies": self.clock.durations(t_start),
            "attempted": steps,
            "failed": 0,
            "report": [f"  {steps} steps in {n_blocks} blocks of {self.BLOCK}"],
        }

    def close(self) -> None:
        if not self.writer.closed:
            self.writer.close()

    def check(self) -> list:
        problems = []
        system = self.sim.system
        _, f_par, _ = self.sim.evaluator.compute(system)
        _, f_ser = self.potential.energy_and_forces(system)
        err = float(np.abs(f_par - f_ser).max())
        if not err <= 1e-10:
            problems.append(f"parallel forces differ from serial by {err:.3e} eV/A")
        problems += _finite_md(self.results, system)
        reader = TrajectoryReader(self.dump_path)
        try:
            n_frames = 0
            for frame in reader:
                n_frames += 1
                if not (
                    np.isfinite(frame.positions).all()
                    and np.isfinite(frame.velocities).all()
                    and np.isfinite(frame.pe)
                ):
                    problems.append(f"non-finite dumped frame at step {frame.step}")
                    break
        finally:
            reader.close()
        expected = self.sim.step_count // self.DUMP_EVERY
        if n_frames != expected or reader.frames_quarantined:
            problems.append(
                f"dump holds {n_frames} frames ({reader.frames_quarantined} "
                f"quarantined), expected {expected}"
            )
        return problems

    def layer_metrics(self, trace: Trace, setup, meas: dict) -> dict:
        n = meas["units"]
        comm = self.sim.cluster.stats
        engine = self.sim.evaluator.engine_stats()
        arena = sum(s.get("arena_bytes", 0) for s in engine["per_rank"].values())
        ckpt_files = sorted(self.ckpt.directory.glob("*.ckpt"))
        out = {
            "md.integrate_s": (trace.total["md.integrate"] / n, "s"),
            "md.thermostat_s": (trace.total["md.thermostat"] / n, "s"),
            "parallel.partition_s": (trace.total["parallel.partition"] / n, "s"),
            "parallel.local_nl_s": (trace.total["parallel.local_nl"] / n, "s"),
            "parallel.halo_forward_s": (
                trace.total["parallel.halo_forward"] / n, "s"
            ),
            "parallel.halo_reverse_s": (
                trace.total["parallel.halo_reverse"] / n, "s"
            ),
            "parallel.rebuilds": (trace.calls["parallel.partition"] / n, "count"),
            "parallel.load_imbalance": (
                median(self.imbalance[self._imb0:]), "ratio"
            ),
            "engine.recaptures": (engine["recaptures"], "count"),
            "engine.arena_bytes": (arena, "B"),
            "comm.bytes": ((comm.total_bytes() - self._comm0[0]) / n, "B"),
            "comm.messages": ((comm.total_messages() - self._comm0[1]) / n, "count"),
            "traj.record_s": (trace.total["traj.record"] / n, "s"),
            "traj.close_s": (trace.total["traj.close"], "s"),
            "traj.bytes": (self.dump_path.stat().st_size, "B"),
            "resilience.checkpoint_s": (
                trace.total["resilience.checkpoint"] / n, "s"
            ),
            "resilience.checkpoint_bytes": (
                ckpt_files[-1].stat().st_size if ckpt_files else 0, "B"
            ),
            # ``close`` ran after the measured window: keep it out of coverage.
            "obs.coverage": (
                (trace.covered(["MainThread"]) - trace.self_time["traj.close"])
                / meas["wall"],
                "ratio",
            ),
        }
        out.update(engine_layers(trace, setup, n))
        return out


def _finite_md(results, system) -> list:
    """Every recorded energy and the final phase-space point are finite."""
    for r in results:
        if not (
            np.isfinite(r.potential_energies).all()
            and np.isfinite(r.kinetic_energies).all()
        ):
            return ["non-finite energies in the recorded trajectory"]
    if not (np.isfinite(system.positions).all() and np.isfinite(system.velocities).all()):
        return ["non-finite final positions or velocities"]
    return []
