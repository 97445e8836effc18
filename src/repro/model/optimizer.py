"""Nonlinear conjugate-gradient optimisation.

Section IV-D trains the soft-max model "using conjugate gradient
optimisation with a deterministic initialisation of all the weights to 1".
This module implements Polak-Ribière+ nonlinear conjugate gradients with a
backtracking Armijo line search — self-contained (no SciPy) so the training
procedure is fully under this repository's control and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["minimize_cg", "CGResult"]


@dataclass
class CGResult:
    """Outcome of a conjugate-gradient minimisation."""

    x: np.ndarray
    value: float
    gradient_norm: float
    iterations: int
    function_evals: int
    converged: bool


def _line_search(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x: np.ndarray,
    value: float,
    grad: np.ndarray,
    direction: np.ndarray,
    initial_step: float,
) -> tuple[float, float, np.ndarray, int]:
    """Backtracking Armijo search along ``direction``.

    Returns (step, new_value, new_gradient, evals); step 0 on failure.
    """
    flat_direction = direction.ravel()
    slope = float(np.dot(grad.ravel(), flat_direction))
    if slope >= 0:
        return 0.0, value, grad, 0
    c1 = 1e-4
    evals = 0

    def armijo(step: float, new_value: float) -> bool:
        return np.isfinite(new_value) and new_value <= value + c1 * step * slope

    # Probe the initial step and use the directional curvature it reveals
    # to jump to the 1D minimiser (exact line search on quadratics).
    step = initial_step
    probe_value, probe_grad = fun(x + step * direction)
    evals += 1
    best: tuple[float, float, np.ndarray] | None = None
    if armijo(step, probe_value):
        best = (step, probe_value, probe_grad)
    if np.isfinite(probe_value):
        probe_slope = float(np.dot(probe_grad.ravel(), flat_direction))
        curvature = (probe_slope - slope) / step
        if curvature > 0:
            newton_step = -slope / curvature
            if newton_step > 1e-16 and abs(newton_step - step) > 0.05 * step:
                newton_value, newton_grad = fun(x + newton_step * direction)
                evals += 1
                if armijo(newton_step, newton_value) and (
                        best is None or newton_value < best[1]):
                    best = (newton_step, newton_value, newton_grad)
    if best is not None:
        return best[0], best[1], best[2], evals

    # Fallback: plain backtracking.
    for _ in range(30):
        step *= 0.5
        new_value, new_grad = fun(x + step * direction)
        evals += 1
        if armijo(step, new_value):
            return step, new_value, new_grad, evals
    return 0.0, value, grad, evals


def minimize_cg(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    max_iterations: int = 300,
    gradient_tolerance: float = 1e-4,
    value_tolerance: float = 1e-9,
    callback: Callable[[np.ndarray, float], None] | None = None,
) -> CGResult:
    """Minimise ``fun`` (returning value and gradient) from ``x0``.

    Polak-Ribière+ with automatic restarts (the direction resets to
    steepest descent whenever beta goes negative or the search stalls).
    ``callback(x, value)`` is invoked after every accepted iterate, so
    callers can record the optimisation trajectory.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    value, grad = fun(x)
    evals = 1
    direction = -grad
    step = 1.0 / max(1.0, float(np.linalg.norm(grad.ravel())))
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        grad_norm = float(np.linalg.norm(grad.ravel()))
        if grad_norm <= gradient_tolerance:
            converged = True
            break
        taken, new_value, new_grad, used = _line_search(
            fun, x, value, grad, direction, initial_step=step
        )
        evals += used
        # ``taken == 0.0`` compares against the exact literal sentinel
        # `_line_search` returns when no Armijo step was accepted — it is
        # never a computed value, so exact equality is the correct test.
        if taken == 0.0:
            # Restart along steepest descent; if that also fails, stop.
            direction = -grad
            taken, new_value, new_grad, used = _line_search(
                fun, x, value, grad, direction,
                initial_step=1.0 / max(1.0, grad_norm),
            )
            evals += used
            if taken == 0.0:
                break
        x = x + taken * direction
        if callback is not None:
            callback(x, new_value)
        # Polak-Ribière+ beta.
        y = new_grad - grad
        denom = float(np.dot(grad.ravel(), grad.ravel()))
        beta = 0.0
        if denom > 0:
            beta = max(0.0, float(np.dot(new_grad.ravel(), y.ravel())) / denom)
        improvement = value - new_value
        direction = -new_grad + beta * direction
        grad = new_grad
        value = new_value
        # Next initial step: reuse the successful scale, slightly enlarged.
        step = min(1.0, taken * 2.0)
        if improvement < value_tolerance * (abs(value) + 1.0):
            converged = True
            break
    return CGResult(
        x=x,
        value=value,
        gradient_norm=float(np.linalg.norm(grad.ravel())),
        iterations=iteration,
        function_evals=evals,
        converged=converged,
    )
