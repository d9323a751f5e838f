"""One MD step loop, two force backends: serial and decomposed.

``Simulation`` integrates with either a potential (serial Verlet-list
backend) or a :class:`~repro.parallel.ParallelForceEvaluator`
(decomposed backend).  These tests pin what the decomposed backend gets
from sharing the loop — watchdog recovery, callbacks, spans and counters,
registry-wired dumps — plus the checks made once at construction and the
checkpoint layouts both backends read.
"""

import numpy as np
import pytest

from repro import obs
from repro.md import BerendsenBarostat, Cell, NoseHooverThermostat, Simulation, System
from repro.models import LennardJones
from repro.obs import Tracer
from repro.parallel import ParallelForceEvaluator, ParallelSimulation, ProcessGrid
from repro.resilience import POTENTIAL_CORRUPT, FaultPlan, ForceWatchdog

#: Key layouts of checkpoint files already on disk; both must keep loading.
SERIAL_KEYS = {
    "format", "step_count", "positions", "velocities", "cell_lengths", "pe",
    "forces", "thermostat", "barostat", "verlet",
}
VERLET_KEYS = {"ref_positions", "n_builds", "since_check", "nl"}
PARALLEL_KEYS = {
    "format", "parallel", "step_count", "positions", "velocities",
    "cell_lengths", "pe", "forces", "thermostat", "shards", "ref_positions",
    "prev_owner",
}


def _system(seed=11, n_side=6, a=1.9):
    rng = np.random.default_rng(seed)
    g = np.stack(np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), -1)
    g = g.reshape(-1, 3) * a
    system = System(
        g + rng.normal(scale=0.05, size=g.shape),
        rng.integers(0, 2, len(g)),
        Cell.cubic(n_side * a),
    )
    system.seed_velocities(30.0, np.random.default_rng(seed + 1))
    return system


def _lj():
    return LennardJones(epsilon=0.01, sigma=1.6, cutoff=3.0, n_species=2)


def _evaluator(system, cls=ParallelForceEvaluator, **kwargs):
    grid = ProcessGrid.create(4, system.cell)
    return cls(_lj(), grid, skin=0.4, **kwargs)


def _decomposed(**kwargs):
    system = _system()
    return Simulation(
        system,
        _evaluator(system),
        dt=0.2,
        thermostat=NoseHooverThermostat(30.0, tau=25.0),
        **kwargs,
    )


def _serial(**kwargs):
    return Simulation(
        _system(), _lj(), dt=0.2,
        thermostat=NoseHooverThermostat(30.0, tau=25.0), **kwargs,
    )


class _CorruptingEvaluator(ParallelForceEvaluator):
    """Poisons the assembled forces whenever the plan's corrupt channel fires."""

    def __init__(self, *args, plan, **kwargs):
        super().__init__(*args, **kwargs)
        self.plan = plan

    def compute(self, system):
        energy, forces, stats = super().compute(system)
        if self.plan.fires(POTENTIAL_CORRUPT):
            forces = forces.copy()
            forces[0, 0] = np.nan
        return energy, forces, stats


@pytest.fixture
def tracer():
    old = obs.set_tracer(Tracer(enabled=True, max_traces=4))
    yield
    obs.set_tracer(old)


class TestSharedLoopOnDecomposedBackend:
    def test_watchdog_recover_matches_clean_run_bitwise(self, tmp_path):
        total = 30
        clean = _decomposed()
        clean_res = clean.run(total)

        system = _system()
        plan = FaultPlan(at={POTENTIAL_CORRUPT: [13]})
        wd = ForceWatchdog(policy="recover", spike_factor=None)
        sim = Simulation(
            system,
            _evaluator(system, _CorruptingEvaluator, plan=plan),
            dt=0.2,
            thermostat=NoseHooverThermostat(30.0, tau=25.0),
            watchdog=wd,
        )
        res = sim.run(total, checkpoint_every=5, checkpoint_dir=tmp_path)
        assert sim.n_recoveries == 1 and wd.n_trips == 1
        np.testing.assert_array_equal(sim.system.positions, clean.system.positions)
        np.testing.assert_array_equal(sim.system.velocities, clean.system.velocities)
        np.testing.assert_array_equal(
            res.potential_energies, clean_res.potential_energies
        )

    def test_callbacks_fire_once_per_step(self):
        sim = _decomposed()
        seen = []
        sim.add_callback(lambda step, s: seen.append((step, s is sim)))
        sim.run(4)
        assert seen == [(1, True), (2, True), (3, True), (4, True)]

    def test_stats_shape_matches_serial_and_spans_nest(self, tracer):
        serial, decomposed = _serial(), _decomposed()
        serial.run(2)
        decomposed.run(2)
        assert set(serial.stats()) == set(decomposed.stats())
        stats = decomposed.stats()
        assert "md.step/md.force/parallel.step" in stats["phases"]
        assert stats["counters"]["md.steps"] == 2
        assert stats["counters"]["md.pairs"] > 0
        assert stats["neighbor_builds"] >= 1

    def test_dump_path_records_traj_counters(self, tmp_path):
        sim = _decomposed()
        sim.run(6, dump_every=3, dump_path=tmp_path / "run.rtrj")
        counters = sim.obs.snapshot()["counters"]
        assert any(name.startswith("traj.") for name in counters), sorted(counters)

    def test_simulation_adopts_evaluator_registry(self):
        sim = _decomposed()
        assert sim.obs is sim.evaluator.obs
        sim.run(1)
        assert any(k.startswith("comm.") for k in sim.stats()["counters"])

    @pytest.mark.parametrize(
        "kwargs",
        [{"barostat": BerendsenBarostat(1.0)}, {"neighbor_every": 2}],
        ids=["barostat", "neighbor_every"],
    )
    def test_unvalidated_options_rejected_at_construction(self, kwargs):
        system = _system()
        with pytest.raises(ValueError, match="decomposed"):
            Simulation(system, _evaluator(system), **kwargs)


class TestCheckpointLayouts:
    @pytest.mark.parametrize("backend", ["serial", "decomposed"])
    def test_earlier_key_layout_resumes_bitwise(self, backend):
        make = _serial if backend == "serial" else _decomposed
        keys = SERIAL_KEYS if backend == "serial" else PARALLEL_KEYS
        ref = make()
        ref.run(20)
        first = make()
        first.run(12)
        state = first.get_state()
        assert keys <= set(state)
        if backend == "serial":
            assert set(state["verlet"]) == VERLET_KEYS
        resumed = make()
        resumed.set_state({k: v for k, v in state.items() if k in keys})
        resumed.run(8)
        np.testing.assert_array_equal(resumed.system.positions, ref.system.positions)
        np.testing.assert_array_equal(
            resumed.system.velocities, ref.system.velocities
        )

    def test_cross_backend_load_raises_value_error(self):
        serial, decomposed = _serial(), _decomposed()
        with pytest.raises(ValueError, match="decomposed checkpoint"):
            serial.set_state(decomposed.get_state())
        with pytest.raises(ValueError, match="serial checkpoint"):
            decomposed.set_state(serial.get_state())


class TestSpeciesCheck:
    def _bad_system(self):
        system = _system()
        system.species[5] = 3
        return system

    def test_serial_backend(self):
        with pytest.raises(ValueError, match="species id 3 .*n_species=2"):
            Simulation(self._bad_system(), _lj())

    def test_decomposed_backend(self):
        system = self._bad_system()
        with pytest.raises(ValueError, match="species id 3 .*n_species=2"):
            Simulation(system, _evaluator(system))
        with pytest.raises(ValueError, match="species id 3 .*n_species=2"):
            ParallelSimulation(system, _lj(), n_ranks=4)
