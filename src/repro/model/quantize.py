"""Quantised inference (section VIII, "Model").

The paper argues the predictor is implementable in hardware as a
multiclass generalisation of a perceptron branch predictor [29], storing
the weights as **8-bit signed integers** (about 2KB for their ~2000
weights) and computing eq. 8-9 (argmax of W^T x) without exponentiation.

:class:`QuantizedPredictor` converts a trained
:class:`~repro.model.predictor.ConfigurationPredictor` to that form: each
parameter's weight matrix is scaled to int8 with a single per-matrix
scale factor.  Since prediction is an argmax of linear scores, a
per-matrix positive scale never changes the decision — only int8
*rounding* can, and the agreement benchmark shows it rarely does.

Rounding often makes two classes of one parameter share an int8 column.
Such classes score the same on every input, so the answer among them is
defined as the lowest class: inference scores each distinct column once
(:meth:`QuantizedPredictor.predict_batch`) and maps it to the lowest
class behind it, whatever the batch shape.  Distinct columns can still
tie on a particular input (say, columns that differ only at features
that are 0 in it); numpy scores one row with a matrix-vector product
and a block with a matrix-matrix product, which may sum in different
orders, so such a tie may still resolve differently by batch shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.config.configuration import MicroarchConfig
from repro.config.parameters import (
    PARAMETER_NAMES,
    TABLE1_PARAMETERS,
    Parameter,
)
from repro.model.predictor import ConfigurationPredictor

__all__ = ["QuantizedPredictor"]

#: Multiply-adds per scoring product.  OpenBLAS 0.3.31 on 2 vCPUs hands a
#: product of about 10**6 multiply-adds (32 rows x 390 features x 80
#: columns) to a second thread, which then spins for 1-4 ms of CPU per
#: call against 0.1 ms for the product on one thread; a batch is split
#: into row blocks that stay under half of that.
PRODUCT_MULTIPLY_ADDS = 2**19


@dataclass(frozen=True)
class _QuantizedMatrix:
    weights: np.ndarray  # int8, D x K
    scale: float

    @property
    def storage_bytes(self) -> int:
        return self.weights.size  # one byte per weight


class QuantizedPredictor:
    """Int8 weight version of a trained configuration predictor."""

    def __init__(self, predictor: ConfigurationPredictor) -> None:
        if not predictor.is_trained:
            raise ValueError("quantise a *trained* predictor")
        self.parameters: tuple[Parameter, ...] = predictor.parameters
        self._matrices: dict[str, _QuantizedMatrix] = {}
        for parameter in self.parameters:
            weights = predictor.classifiers[parameter.name].weights
            assert weights is not None
            self._matrices[parameter.name] = self._quantize(weights)
        self._plan()

    @classmethod
    def from_state(
        cls,
        matrices: Mapping[str, np.ndarray],
        scales: Mapping[str, float],
        parameters: tuple[Parameter, ...] = TABLE1_PARAMETERS,
    ) -> "QuantizedPredictor":
        """Rebuild a quantised predictor from stored int8 matrices.

        The inverse of :meth:`state`; used by the serving layer to warm
        an engine from a weight store without re-quantising (and without
        needing the float predictor at all).

        Raises:
            ValueError: on missing parameters, wrong dtype/shape, or a
                non-positive scale.
        """
        instance = cls.__new__(cls)
        instance.parameters = parameters
        instance._matrices = {}
        for parameter in parameters:
            if parameter.name not in matrices:
                raise ValueError(f"missing int8 weights for {parameter.name}")
            weights = np.asarray(matrices[parameter.name])
            if weights.dtype != np.int8:
                raise ValueError(
                    f"{parameter.name}: expected int8 weights, got "
                    f"{weights.dtype}")
            if weights.ndim != 2 or weights.shape[1] != parameter.cardinality:
                raise ValueError(
                    f"int8 weight shape mismatch for {parameter.name}: "
                    f"{weights.shape}")
            scale = float(scales.get(parameter.name, 0.0))
            if scale <= 0.0:
                raise ValueError(
                    f"{parameter.name}: quantisation scale must be positive")
            instance._matrices[parameter.name] = _QuantizedMatrix(
                weights=weights, scale=scale)
        instance._plan()
        return instance

    def _plan(self) -> None:
        """Lay out the scoring matrix of :meth:`predict_batch`.

        Each parameter's distinct int8 columns sit side by side in one
        float64 ``D x U`` matrix (a private copy; the int8 matrices stay
        views of the store), ordered by the lowest class behind each.
        ``_gather`` lays a score row out as a ``P x width`` grid, one
        row per parameter in Table I order; a parameter with fewer than
        ``width`` distinct columns repeats its first one, which never
        wins an argmax because ties go to the first position.
        ``_classes`` maps each grid cell back to its class index.
        ``_block`` is the most rows one product takes
        (:data:`PRODUCT_MULTIPLY_ADDS`).
        """
        ordered = sorted(self.parameters,
                         key=lambda p: PARAMETER_NAMES.index(p.name))
        lowest = []
        for parameter in ordered:
            first: dict[bytes, int] = {}
            for index, column in enumerate(
                    self._matrices[parameter.name].weights.T):
                first.setdefault(column.tobytes(), index)
            lowest.append(np.fromiter(first.values(), dtype=np.intp))
        width = max(len(first) for first in lowest)
        self._columns = np.concatenate(
            [self._matrices[parameter.name].weights[:, first]
             for parameter, first in zip(ordered, lowest)],
            axis=1).astype(np.float64)
        gather = np.zeros((len(ordered), width), dtype=np.intp)
        self._classes = np.zeros((len(ordered), width), dtype=np.intp)
        start = 0
        for row, first in enumerate(lowest):
            gather[row] = start
            gather[row, :len(first)] = start + np.arange(len(first))
            self._classes[row, :len(first)] = first
            start += len(first)
        self._gather = gather.ravel()
        self._rows = np.arange(len(ordered))
        self._block = max(1, PRODUCT_MULTIPLY_ADDS // self._columns.size)

    def state(self) -> tuple[dict[str, np.ndarray], dict[str, float]]:
        """Per-parameter int8 matrices and scales (for serialization)."""
        matrices = {name: m.weights for name, m in self._matrices.items()}
        scales = {name: m.scale for name, m in self._matrices.items()}
        return matrices, scales

    @staticmethod
    def _quantize(weights: np.ndarray) -> _QuantizedMatrix:
        """Scale to int8 around zero.

        Score offsets common to all classes cancel in the argmax, so the
        weights are first centred per row (per feature) — this preserves
        decisions exactly while shrinking the dynamic range the int8 grid
        must cover.
        """
        centred = weights - weights.mean(axis=1, keepdims=True)
        peak = float(np.abs(centred).max())
        scale = peak / 127.0 if peak > 0 else 1.0
        quantised = np.clip(np.round(centred / scale), -127, 127).astype(
            np.int8
        )
        return _QuantizedMatrix(weights=quantised, scale=scale)

    # -- inference -------------------------------------------------------------

    def predict(self, x: np.ndarray) -> MicroarchConfig:
        """Hard-decision prediction with int8 weights (eqs. 8-9): a
        one-row :meth:`predict_batch`."""
        return self.predict_batch(np.asarray(x)[None])[0]

    def predict_batch(self, x: np.ndarray) -> list[MicroarchConfig]:
        """Batched int8 inference: an ``N x D @ D x U`` product over
        every parameter's distinct columns (in row blocks that OpenBLAS
        runs on one thread) and one argmax.

        Classes that share an int8 column answer the lowest of them,
        however the rows were grouped into batches.

        Args:
            x: an ``N x D`` matrix (or a single ``D``-vector, treated as
                a one-row batch).
        """
        batch = np.atleast_2d(np.asarray(x, dtype=np.float64))
        scores = np.concatenate(
            [batch[start:start + self._block] @ self._columns
             for start in range(0, max(len(batch), 1), self._block)])
        grid = scores[:, self._gather].reshape(
            len(batch), *self._classes.shape)
        classes = self._classes[self._rows, grid.argmax(axis=2)]
        return [MicroarchConfig.from_indices(tuple(row))
                for row in classes.tolist()]

    # -- reporting --------------------------------------------------------------

    @property
    def weight_count(self) -> int:
        return sum(m.weights.size for m in self._matrices.values())

    @property
    def storage_bytes(self) -> int:
        """Total weight storage (the paper estimates ~2KB for ~2000
        weights; ours scales with the richer feature dimension)."""
        return sum(m.storage_bytes for m in self._matrices.values())

    def agreement(self, predictor: ConfigurationPredictor,
                  features: list[np.ndarray]) -> float:
        """Fraction of per-parameter decisions preserved by quantisation."""
        if not features:
            raise ValueError("no feature vectors supplied")
        matches = 0
        total = 0
        for x in features:
            full = predictor.predict(x)
            quantised = self.predict(x)
            for parameter in self.parameters:
                matches += full[parameter.name] == quantised[parameter.name]
                total += 1
        return matches / total
