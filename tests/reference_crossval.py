"""Leave-one-program-out cross-validation, written out serially as a test
oracle.

:func:`repro.model.fastcv.fast_leave_one_program_out` is the only
cross-validation engine in ``src/repro``.  This module keeps the
straightforward loop it replaced — each fold re-selects the good sets,
re-builds every parameter's dataset and fits every parameter serially from
all-ones weights — together with a verbatim copy of the soft-max training
objective as it stood before the production objective was hoisted into a
per-fit closure.  It shares only dataset assembly
(:mod:`repro.model.training`) and the optimiser
(:func:`~repro.model.optimizer.minimize_cg`) with ``src``, so the parity
tests in ``tests/test_model_fastcv.py``, the objective test in
``tests/test_model_objective.py`` and ``scripts/bench_train.py`` compare
the production trainer against an independent statement of the same
arithmetic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config.configuration import MicroarchConfig
from repro.config.parameters import TABLE1_PARAMETERS, Parameter
from repro.model.optimizer import minimize_cg
from repro.model.training import (
    PhaseRecord,
    build_parameter_dataset,
    good_configurations,
)


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def negative_objective(
    regularization: float, weights: np.ndarray, x: np.ndarray,
    labels: np.ndarray, sample_weight: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """-(L - lambda ||W||^2) and its gradient (for minimisation).

    Args:
        regularization: lambda of eq. 6.
        weights: D x K weight matrix.
        x: N x D feature matrix.
        labels: N integer class labels in [0, K).
        sample_weight: optional per-sample weights.
    """
    n = len(labels)
    scores = x @ weights  # N x K
    log_probs = _log_softmax(scores)
    if sample_weight is None:
        sample_weight = np.ones(n)
    picked = log_probs[np.arange(n), labels]
    log_likelihood = float(np.dot(sample_weight, picked))
    penalty = regularization * float(np.sum(weights * weights))
    objective = log_likelihood - penalty

    probs = np.exp(log_probs)
    target = np.zeros_like(probs)
    target[np.arange(n), labels] = 1.0
    weighted_error = (target - probs) * sample_weight[:, None]
    grad_ll = x.T @ weighted_error  # D x K
    grad = grad_ll - 2.0 * regularization * weights
    return -objective, -grad


def fit_reference(
    x: np.ndarray, labels: np.ndarray, sample_weight: np.ndarray | None,
    n_classes: int, regularization: float, max_iterations: int,
) -> np.ndarray:
    """One parameter's D x K weights: conjugate gradients from all-ones
    over :func:`negative_objective`."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    shape = (x.shape[1], n_classes)

    def objective(flat: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = negative_objective(
            regularization, flat.reshape(shape), x, labels, sample_weight)
        return value, grad.ravel()

    result = minimize_cg(objective, np.ones(shape[0] * shape[1]),
                         max_iterations=max_iterations)
    return result.x.reshape(shape)


def fold_weights(
    records: Sequence[PhaseRecord],
    parameters: tuple[Parameter, ...] = TABLE1_PARAMETERS,
    regularization: float = 0.5,
    threshold: float = 0.05,
    max_iterations: int = 200,
) -> dict[str, dict[str, np.ndarray]]:
    """Held-out program -> parameter -> D x K weights of that fold.

    Folds run serially and each fold re-selects good sets and re-builds
    every parameter dataset from scratch.
    """
    if not records:
        raise ValueError("no phase records supplied")
    programs = sorted({r.program for r in records})
    if len(programs) < 2:
        raise ValueError("leave-one-out needs at least two programs")
    weights: dict[str, dict[str, np.ndarray]] = {}
    for held_out in programs:
        train = [r for r in records if r.program != held_out]
        good_sets = [good_configurations(r.evaluations, threshold)
                     for r in train]
        weights[held_out] = {}
        for parameter in parameters:
            dataset = build_parameter_dataset(
                parameter, [r.features for r in train], good_sets)
            weights[held_out][parameter.name] = fit_reference(
                dataset.x, dataset.labels, dataset.weights,
                parameter.cardinality, regularization, max_iterations)
    return weights


def leave_one_program_out(
    records: Sequence[PhaseRecord],
    parameters: tuple[Parameter, ...] = TABLE1_PARAMETERS,
    regularization: float = 0.5,
    threshold: float = 0.05,
    max_iterations: int = 200,
) -> dict[tuple[str, int], MicroarchConfig]:
    """Predict a configuration for every phase, never training on its
    own program, from the :func:`fold_weights` of its program's fold.

    Returns:
        phase key -> predicted configuration.
    """
    weights = fold_weights(records, parameters, regularization, threshold,
                           max_iterations)
    predictions: dict[tuple[str, int], MicroarchConfig] = {}
    for record in records:
        x = np.asarray(record.features)
        fold = weights[record.program]
        predictions[record.key] = MicroarchConfig.from_dict({
            parameter.name: parameter.values[
                int(np.argmax(x @ fold[parameter.name]))]
            for parameter in parameters
        })
    return predictions
