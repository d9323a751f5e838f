"""The training workload: force-only Allegro training on labelled water.

It is the only workload on the eager autodiff tape with double backward
(``ad.grad(create_graph=True)``), so a change that speeds up plan replay
but slows the tape, or the reverse, shows here.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import repro.autodiff as ad
from harness import StepClock, Trace
from repro.data import label_frames, perturbed_water_frames
from repro.models import AllegroModel
from repro.nn import TrainConfig, Trainer
from repro.nn.optim import Adam, ExponentialMovingAverage
from workload_md import small_allegro


class TrainAllegroWater:
    """16 labelled 81-atom water frames, batch 4, force-only loss, Adam."""

    name = "train_allegro_water"
    unit = "optimizer step"
    N_FRAMES = 16
    BATCH = 4
    #: Enough optimizer steps for a tail percentile, and two epochs' losses
    #: to compare, however short the run.
    MIN_EPOCHS = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        frames = label_frames(
            perturbed_water_frames(self.N_FRAMES, seed=seed, sigma=0.05, n_grid=3)
        )
        self.trainer = Trainer(
            small_allegro(),
            frames,
            [],
            TrainConfig(
                lr=5e-3,
                batch_size=self.BATCH,
                force_weight=1.0,
                energy_weight=0.0,
                seed=seed,
            ),
        )
        self.clock = StepClock(self.trainer.optimizer, "step")
        self.losses = []
        self.epoch = 0
        # Fixed warm-up: one force evaluation through the training model.
        self.trainer.evaluate(frames[:1])

    @staticmethod
    def install_trace(trace: Trace) -> None:
        trace.patch(AllegroModel, "atomic_energies", "train.atomic_energies")
        trace.patch(ad, "grad", "train.grad")
        trace.patch(ad.Tensor, "backward", "train.backward")
        trace.patch(Adam, "step", "train.optimizer")
        trace.patch(ExponentialMovingAverage, "update", "train.optimizer")

    def measure(self, seconds: float) -> dict:
        steps_per_epoch = -(-self.N_FRAMES // self.BATCH)
        t_start = time.perf_counter()
        deadline = t_start + seconds
        epochs = 0
        while True:
            self.losses.append(self.trainer.train_epoch(self.epoch))
            self.epoch += 1
            epochs += 1
            t1 = time.perf_counter()
            if t1 >= deadline and epochs >= self.MIN_EPOCHS:
                break
        steps = steps_per_epoch * epochs
        return {
            "units": steps,
            "wall": t1 - t_start,
            "rate": steps / (t1 - t_start),
            "latencies": self.clock.durations(t_start),
            "attempted": steps,
            "failed": 0,
            "report": [
                f"  {epochs} epochs, loss {self.losses[0]:.6f} -> "
                f"{self.losses[-1]:.6f}"
            ],
        }

    def close(self) -> None:
        pass

    def check(self) -> list:
        problems = []
        if not np.isfinite(self.losses).all():
            problems.append(f"non-finite training loss in {self.losses}")
        elif len(self.losses) < 2 or not self.losses[-1] < self.losses[0]:
            problems.append(
                f"loss did not fall: first epoch {self.losses[0]}, "
                f"last {self.losses[-1]} over {len(self.losses)} epochs"
            )
        return problems

    def layer_metrics(self, trace: Trace, setup, meas: dict) -> dict:
        n = meas["units"]
        return {
            "train.forward_s": (
                (trace.total["train.atomic_energies"] + trace.total["train.grad"]) / n,
                "s",
            ),
            "train.backward_s": (trace.total["train.backward"] / n, "s"),
            "train.optimizer_s": (trace.total["train.optimizer"] / n, "s"),
            "obs.coverage": (trace.covered(["MainThread"]) / meas["wall"], "ratio"),
        }
