"""The full configuration predictor: one soft-max per parameter.

Equation 1 factorises the conditional distribution of good configurations
as a product over the fourteen parameters — *conditionally* independent
given the phase's counters.  Prediction (eq. 2) therefore reduces to
fourteen independent argmaxes, one per :class:`SoftmaxClassifier`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.config.configuration import MicroarchConfig
from repro.config.parameters import TABLE1_PARAMETERS, Parameter
from repro.model.softmax import SoftmaxClassifier
from repro.model.training import build_full_datasets, good_configurations

__all__ = ["ConfigurationPredictor"]


@dataclass
class ConfigurationPredictor:
    """Per-parameter soft-max ensemble over the Table I design space.

    Args:
        parameters: parameters to predict (defaults to Table I).
        regularization: lambda of eq. 6 (paper: 0.5).
        max_iterations: CG budget per parameter model.
    """

    parameters: tuple[Parameter, ...] = TABLE1_PARAMETERS
    regularization: float = 0.5
    max_iterations: int = 200
    classifiers: dict[str, SoftmaxClassifier] = field(default_factory=dict)

    def fit_evaluations(
        self,
        features: Sequence[np.ndarray],
        evaluations: Sequence[dict[MicroarchConfig, float]],
        threshold: float = 0.05,
    ) -> "ConfigurationPredictor":
        """Train from per-phase evaluation maps (selects good sets first)."""
        good_sets = [good_configurations(e, threshold) for e in evaluations]
        return self.fit(features, good_sets)

    def fit(
        self,
        features: Sequence[np.ndarray],
        good_sets: Sequence[Sequence[MicroarchConfig]],
    ) -> "ConfigurationPredictor":
        """Train one classifier per parameter from good-configuration sets.

        Args:
            features: one counter vector per training phase.
            good_sets: the good configurations of each phase (aligned).
        """
        if not features:
            raise ValueError("no training phases supplied")
        datasets = build_full_datasets(self.parameters, features, good_sets)
        for parameter in self.parameters:
            dataset = datasets[parameter.name]
            classifier = SoftmaxClassifier(
                n_classes=parameter.cardinality,
                regularization=self.regularization,
                max_iterations=self.max_iterations,
            )
            classifier.fit(dataset.x, dataset.labels,
                           sample_weight=dataset.weights)
            self.classifiers[parameter.name] = classifier
        return self

    @classmethod
    def from_weights(
        cls,
        weights: Mapping[str, np.ndarray],
        parameters: tuple[Parameter, ...] = TABLE1_PARAMETERS,
        regularization: float = 0.5,
        *,
        copy: bool = True,
    ) -> "ConfigurationPredictor":
        """Rebuild a trained predictor from per-parameter weight matrices.

        Used to rehydrate cached cross-validation folds and predictors
        loaded from disk without re-running any training.

        Args:
            copy: copy the matrices (default) so the predictor owns its
                weights.  ``copy=False`` keeps them as views over the
                caller's arrays — the serving shards use this over a
                read-only memory-mapped weight store so N processes
                share one set of physical weight pages.  Such a
                predictor is inference-only: retraining it would write
                through to the shared arrays.

        Raises:
            ValueError: if a parameter's weights are missing or have the
                wrong number of classes.
        """
        predictor = cls(parameters=parameters, regularization=regularization)
        for parameter in parameters:
            if parameter.name not in weights:
                raise ValueError(f"missing weights for {parameter.name}")
            matrix = np.asarray(weights[parameter.name], dtype=np.float64)
            if matrix.ndim != 2 or matrix.shape[1] != parameter.cardinality:
                raise ValueError(
                    f"weight shape mismatch for {parameter.name}: "
                    f"{matrix.shape}")
            classifier = SoftmaxClassifier(
                n_classes=parameter.cardinality,
                regularization=regularization,
            )
            classifier.weights = matrix.copy() if copy else matrix
            predictor.classifiers[parameter.name] = classifier
        return predictor

    def weights_state(self) -> dict[str, np.ndarray]:
        """Per-parameter weight matrices of a trained predictor."""
        if not self.is_trained:
            raise RuntimeError("predictor is not trained")
        state: dict[str, np.ndarray] = {}
        for parameter in self.parameters:
            weights = self.classifiers[parameter.name].weights
            assert weights is not None
            state[parameter.name] = weights
        return state

    @property
    def is_trained(self) -> bool:
        return len(self.classifiers) == len(self.parameters)

    def predict(self, x: np.ndarray) -> MicroarchConfig:
        """The eq. 2 argmax configuration for counter vector ``x``."""
        if not self.is_trained:
            raise RuntimeError("predictor is not trained")
        values = {}
        for parameter in self.parameters:
            index = self.classifiers[parameter.name].predict(np.asarray(x))
            values[parameter.name] = parameter.values[int(index)]
        return MicroarchConfig.from_dict(values)

    def predict_batch(self, x: np.ndarray) -> list[MicroarchConfig]:
        """Eq. 2 argmax configurations for a batch of counter vectors.

        One ``N x D @ D x K`` matmul per parameter instead of fourteen
        ``D``-vector products per phase — the batched path the fast
        cross-validation engine uses to score every phase of a held-out
        program at once.

        Args:
            x: an ``N x D`` matrix (or a single ``D``-vector, treated as
                a one-row batch).
        """
        if not self.is_trained:
            raise RuntimeError("predictor is not trained")
        batch = np.atleast_2d(np.asarray(x, dtype=np.float64))
        indices: dict[str, np.ndarray] = {}
        for parameter in self.parameters:
            weights = self.classifiers[parameter.name].weights
            assert weights is not None
            indices[parameter.name] = np.argmax(batch @ weights, axis=1)
        return [
            MicroarchConfig.from_dict({
                parameter.name:
                    parameter.values[int(indices[parameter.name][row])]
                for parameter in self.parameters
            })
            for row in range(len(batch))
        ]

    def predict_proba(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Per-parameter soft-max distributions for ``x``."""
        if not self.is_trained:
            raise RuntimeError("predictor is not trained")
        return {
            parameter.name: self.classifiers[parameter.name].predict_proba(
                np.asarray(x)
            )
            for parameter in self.parameters
        }

    def weight_count(self) -> int:
        """Total number of weights (the paper estimates ~2000, stored as
        8-bit integers in 2KB — section VIII)."""
        return sum(
            classifier.weights.size
            for classifier in self.classifiers.values()
            if classifier.weights is not None
        )
