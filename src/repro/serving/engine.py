"""Prediction engines: the rungs of the serving degradation ladder.

Two *model* tiers answer from learned weights and can fail; two
*fallback* tiers answer from tables and cannot:

* ``quantized`` — the int8 path of section VIII
  (:class:`~repro.model.quantize.QuantizedPredictor`), the serving
  default: the deployed controller is an int8 engine, so the top tier
  serves exactly what the hardware would;
* ``float`` — the float64
  :class:`~repro.model.predictor.ConfigurationPredictor`;
* ``static`` — the per-program static-best configuration table
  (section VII-A's specialised-processor baseline): no matmul, no
  model, O(1) per request;
* ``baseline`` — one fixed configuration (the paper's Table III
  baseline).  The hardware always needs *some* configuration, on time;
  this rung is the "on time" guarantee of last resort.

The model tiers are wrapped in :class:`SupervisedModelEngine`, which
owns the engine's lifecycle: weights are loaded lazily from a
:class:`~repro.model.serialize.WeightStore` (memory-mapped, so a
restart re-arms from page cache), a crash discards the model and the
next batch reloads it (counted in ``serve.engine_restart``), and the
deterministic fault harness (``repro.testing.faults``, site
``serve-engine``) can inject crashes, hangs and slow batches without
monkeypatching.
"""

from __future__ import annotations

import asyncio
import os
from pathlib import Path
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from repro import obs
from repro.config.configuration import MicroarchConfig
from repro.model.serialize import WeightStore, load_weight_store
from repro.testing import faults

__all__ = [
    "EngineCrashError",
    "ModelLike",
    "SupervisedModelEngine",
    "StaticTableEngine",
    "BaselineEngine",
    "quantized_engine",
    "float_engine",
]


class EngineCrashError(RuntimeError):
    """The prediction engine died mid-batch; the supervisor restarts it."""


class ModelLike(Protocol):
    """What a model tier needs: the batched argmax path."""

    def predict_batch(self, x: np.ndarray) -> list[MicroarchConfig]:
        ...


class SupervisedModelEngine:
    """A restartable model engine with warm weight reload.

    Args:
        tier: ladder tag stamped on every response this engine answers.
        loader: rebuilds the model from persistent state (e.g. a
            memory-mapped weight store); called lazily on first use and
            again after every crash.
        store_builder: builds this tier's model from an
            already-validated :class:`WeightStore` — the hot-reload
            path (:meth:`swap_model` via
            ``DegradationLadder.swap_from_store``).  Engines without
            one keep their crash-restart path but sit out hot reloads.
    """

    def __init__(self, tier: str, loader: Callable[[], ModelLike],
                 store_builder: Callable[[WeightStore], ModelLike] | None
                 = None) -> None:
        self.tier = tier
        self._loader = loader
        self._store_builder = store_builder
        self._model: ModelLike | None = None
        self._crashed = False
        self.restarts = 0
        self.reloads = 0
        self.batches = 0

    @property
    def loaded(self) -> bool:
        return self._model is not None

    def build_model(self, store: WeightStore) -> ModelLike | None:
        """This tier's model over ``store``, or ``None`` when the
        engine has no store builder (hot reload skips it)."""
        if self._store_builder is None:
            return None
        return self._store_builder(store)

    def swap_model(self, model: ModelLike) -> None:
        """Warm-swap to an already-built model (the hot-reload path).

        Plain attribute assignment: a batch already inside
        :meth:`predict_batch` holds its own reference to the old model
        and finishes on it untouched; the *next* batch answers from the
        new weights.  That is the whole drain-the-batch/swap/resume
        protocol — the micro-batch loop is the drain boundary.
        """
        self._model = model
        self._crashed = False
        self.reloads += 1
        obs.inc("serve.engine_reload")
        obs.inc(f"serve.engine_reload.{self.tier}")

    def _arm(self) -> ModelLike:
        """The live model, (re)loading weights if necessary."""
        if self._model is None:
            self._model = self._loader()
            if self._crashed:
                self._crashed = False
                self.restarts += 1
                obs.inc("serve.engine_restart")
                obs.inc(f"serve.engine_restart.{self.tier}")
        return self._model

    async def predict_batch(self, features: np.ndarray,
                            batch_key: str) -> list[MicroarchConfig]:
        """Answer one micro-batch; fault-injection hooks live here.

        Awaits nothing unless a ``hang`` or ``slow`` fault is injected;
        the ladder bounds that wait by its remaining engine budget.

        Raises:
            EngineCrashError: injected (or real) engine death; the
                model is discarded so the next batch warm-reloads it.
        """
        self.batches += 1
        model = self._arm()
        modes = faults.claim("serve-engine", f"{self.tier}/{batch_key}")
        if "hang" in modes:
            await asyncio.sleep(float(
                os.environ.get("REPRO_FAULT_HANG_SECONDS", "3600")))
        if "slow" in modes:
            await asyncio.sleep(float(
                os.environ.get("REPRO_FAULT_SLOW_SECONDS", "0.05")))
        if "crash" in modes:
            self._model = None
            self._crashed = True
            raise EngineCrashError(
                f"injected engine crash at {self.tier}/{batch_key}")
        try:
            return model.predict_batch(features)
        except Exception:
            # A real engine failure is treated like a crash: drop the
            # (possibly poisoned) model so the next batch reloads clean
            # state, and let the ladder degrade this batch.
            self._model = None
            self._crashed = True
            raise


class StaticTableEngine:
    """Per-program static-best configurations (section VII-A).

    Args:
        table: program name → its static-best configuration (e.g. from
            :func:`repro.experiments.baselines.best_static_per_program`).
        default: answer for programs not in the table (typically the
            best *overall* static configuration).
    """

    tier = "static"

    def __init__(self, table: Mapping[str, MicroarchConfig],
                 default: MicroarchConfig) -> None:
        self._table = dict(table)
        self._default = default

    def lookup(self, program: str | None) -> MicroarchConfig:
        if program is None:
            return self._default
        return self._table.get(program, self._default)

    def predict_all(self, programs: Sequence[str | None]
                    ) -> list[MicroarchConfig]:
        return [self.lookup(program) for program in programs]


class BaselineEngine(StaticTableEngine):
    """The infallible last rung: one fixed configuration for everyone."""

    tier = "baseline"

    def __init__(self, config: MicroarchConfig) -> None:
        super().__init__({}, config)


def quantized_engine(store_path: str | Path) -> SupervisedModelEngine:
    """The default serving engine: int8 weights, memory-mapped reload."""
    path = Path(store_path)
    return SupervisedModelEngine(
        "quantized", lambda: load_weight_store(path).quantized(),
        store_builder=lambda store: store.quantized())


def float_engine(store_path: str | Path) -> SupervisedModelEngine:
    """The float64 engine (first fallback rung)."""
    path = Path(store_path)
    return SupervisedModelEngine(
        "float", lambda: load_weight_store(path).predictor(),
        store_builder=lambda store: store.predictor())
