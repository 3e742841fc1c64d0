"""Linear prediction of trajectory points and AR(k) autocorrelation features.

Equation 1/2 of the paper predicts the point of trajectory ``i`` at time ``t``
as a linear combination of its previous ``k`` *reconstructed* points, with the
coefficients shared by all trajectories of the partition:

    prediction_i(t) = sum_j P_j[t] * reconstruction_i(t - j)

The coefficients ``P_j[t]`` are obtained by least squares over the
trajectories currently in the partition.  The same machinery doubles as the
AR(k) feature extractor used by the autocorrelation-based partitioning
(Section 3.2.1): per-trajectory AR coefficients quantify how each trajectory's
recent motion relates to its current position.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import islice

import numpy as np


class LinearPredictor:
    """Shared linear predictor of order ``k`` for a group of trajectories.

    Parameters
    ----------
    order:
        Number of lagged reconstructed points used for prediction
        (``k`` in the paper, default 2).
    ridge:
        Tikhonov regularisation added to the normal equations for numerical
        stability when histories are nearly collinear (straight-line motion).
    """

    def __init__(self, order: int = 2, ridge: float = 1e-8) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = int(order)
        self.ridge = float(ridge)
        #: Current coefficients, shape ``(order,)``; ``None`` until fitted.
        self.coefficients: np.ndarray | None = None

    def fit(self, history: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Fit coefficients from reconstructed history to current targets.

        Parameters
        ----------
        history:
            Array of shape ``(n, order, 2)``: for each of the ``n`` points the
            previous ``order`` reconstructed positions, most recent first
            (``history[:, 0]`` is the point at ``t-1``).
        targets:
            Array of shape ``(n, 2)``: the true positions at time ``t``.

        Returns
        -------
        numpy.ndarray
            The fitted coefficients ``P_1..P_k`` (shape ``(order,)``).  Both
            coordinates share the same scalar coefficients, matching the
            paper's formulation where ``P_j[t]`` weights whole 2-D points.
        """
        history = np.asarray(history, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if history.ndim != 3 or history.shape[1] != self.order or history.shape[2] != 2:
            raise ValueError(f"history must have shape (n, {self.order}, 2), got {history.shape}")
        if targets.shape != (history.shape[0], 2):
            raise ValueError("targets must have shape (n, 2) aligned with history")
        if len(targets) == 0:
            self.coefficients = self._default_coefficients()
            return self.coefficients

        # Stack the x and y equations: each sample contributes two rows.
        design = np.concatenate([history[:, :, 0], history[:, :, 1]], axis=0)
        response = np.concatenate([targets[:, 0], targets[:, 1]], axis=0)
        gram = design.T @ design + self.ridge * np.eye(self.order)
        rhs = design.T @ response
        try:
            coeffs = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            coeffs = self._default_coefficients()
        if not np.all(np.isfinite(coeffs)):
            coeffs = self._default_coefficients()
        self.coefficients = coeffs
        return coeffs

    def predict(self, history: np.ndarray) -> np.ndarray:
        """Predict current positions from reconstructed history.

        ``history`` has shape ``(n, order, 2)``; the result has shape
        ``(n, 2)``.  If the predictor has not been fitted a persistence
        default (repeat the last point) is used.
        """
        history = np.asarray(history, dtype=float)
        coeffs = (self.coefficients if self.coefficients is not None
                  else self._default_coefficients())
        return np.einsum("k,nkd->nd", coeffs, history)

    def _default_coefficients(self) -> np.ndarray:
        """Persistence model: predict the previous reconstructed point."""
        coeffs = np.zeros(self.order, dtype=float)
        coeffs[0] = 1.0
        return coeffs


def estimate_ar_coefficients(histories: np.ndarray, targets: np.ndarray,
                             ridge: float = 1e-6) -> np.ndarray:
    """Per-trajectory AR(k) coefficients used as autocorrelation features.

    For each trajectory point the paper derives the parameters of an AR(k)
    process relating the current point to its ``k`` lagged points, and groups
    points with similar coefficients into the same partition.  With only one
    observation per trajectory at time ``t`` the per-point least-squares
    problem is underdetermined, so (as is standard) we use the projection of
    the target onto the lagged points, i.e. a normalised correlation feature:

        a_j = <target, history_j> / (‖history_j‖² + ridge)

    This yields one ``k``-vector per trajectory that is scale-aware and cheap
    to compute, and that coincides with the least-squares AR solution when the
    lags are orthogonal.

    Parameters
    ----------
    histories:
        Array of shape ``(n, k, 2)`` of lagged (reconstructed) positions.
    targets:
        Array of shape ``(n, 2)`` of current positions.

    Returns
    -------
    numpy.ndarray of shape ``(n, k)``.
    """
    histories = np.asarray(histories, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if histories.ndim != 3 or histories.shape[2] != 2:
        raise ValueError(f"histories must have shape (n, k, 2), got {histories.shape}")
    if targets.shape != (histories.shape[0], 2):
        raise ValueError("targets must have shape (n, 2) aligned with histories")
    numerator = np.einsum("nd,nkd->nk", targets, histories)
    denominator = np.einsum("nkd,nkd->nk", histories, histories) + ridge
    return numerator / denominator


def lag_history(appearances: Sequence[Iterable[np.ndarray]],
                order: int) -> tuple[np.ndarray, np.ndarray]:
    """The one history rule of fit, replay and forecast: the previous ``order`` appearances.

    ``appearances[i]`` yields row ``i``'s reconstructed points at the
    timestamps where its trajectory has a point, most recent first; only the
    first ``order`` are read.  Returns ``(history, complete)``: ``history``
    has shape ``(n, order, 2)``, most recent lag first, where a missing
    older lag repeats the oldest one present and a row with none is zeros
    (the paper's ``P_j[t] = 0`` bootstrap); ``complete`` marks the rows with
    all ``order`` lags, the only ones a predictor is fitted on.
    """
    history = np.zeros((len(appearances), order, 2), dtype=float)
    complete = np.zeros(len(appearances), dtype=bool)
    for row, points in enumerate(appearances):
        lags = list(islice(points, order))
        if lags:
            complete[row] = len(lags) == order
            history[row] = lags + lags[-1:] * (order - len(lags))
    return history, complete
