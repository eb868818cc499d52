"""Losses, gradients, and the affine best-response parameterization.

Every solver in this package optimizes one of two objectives over a linear
model ``w``:

- least squares::

    L_T(w, lam) = (1 / 2N) * sum_i (y_i - w.x_i)^2 + exp(lam) * ||w||^2
    L_V(w)      = (1 / 2N) * sum_i (y_i - w.x_i)^2

- logistic (labels in {-1, +1})::

    L_T(w, lam) = (1 / N) * sum_i log(1 + exp(-y_i * w.x_i)) + exp(lam) * ||w||^2
    L_V(w)      = (1 / N) * sum_i log(1 + exp(-y_i * w.x_i))

The regularization weight is always ``exp(lam)``, so the hyperparameter
``lam`` lives on a log scale. Validation and test losses omit the
regularizer.

The inner argmin over ``w`` is approximated by an affine hypernetwork

    G(lam) = lam * phi1 + phi0

so that the validation gradient in ``lam`` reduces to the chain rule
``phi1 . grad_w L_V(G(lam))``. ``split_best_response`` inverts the map for
a given weight vector by putting the componentwise mean into ``phi0`` and
the centered remainder, divided by ``lam``, into ``phi1``; any split
satisfying ``lam * phi1 + phi0 == v`` preserves the consensus constraint
and the mean split is the canonical choice.

All functions here are pure: they never mutate their arguments and keep no
internal state, so values are freely shareable across threads. The one
cache lives on ``Dataset``: a split memoizes products of its own ``X`` and
``y`` (``gram``, ``xty``, ``gram_norm``) on first use, so its arrays must
not be changed in place once a solver has read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

LEAST_SQUARES = "least_squares"
LOGISTIC = "logistic"
LOSS_KINDS = (LEAST_SQUARES, LOGISTIC)

ROLES = ("train", "validation", "test")

# starting hyperparameter of every bi-level solver
LAMBDA0 = -1.0

# |lam| below this floor makes the phi1 division numerically meaningless.
SPLIT_FLOOR = 1e-12


class DimensionMismatch(ValueError):
    """Operand shapes do not agree."""


class SplitDegenerate(ValueError):
    """|lam| is too small to recover phi1 from a weight vector."""


class NonFiniteIterate(FloatingPointError):
    """A solver update produced NaN or Inf."""


@dataclass
class Dataset:
    """Feature matrix plus targets for one split.

    ``y`` holds real targets for regression and exactly -1/+1 for
    classification. ``role`` is one of ``train``, ``validation``, ``test``
    and is checked by the loss functions so a split cannot be fed to the
    wrong objective by accident. ``gram``, ``xty`` and ``gram_norm`` are
    the products the exact solves reuse, memoized on first use.
    """

    X: np.ndarray
    y: np.ndarray
    role: str

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2:
            raise DimensionMismatch(f"X must be 2-d, got ndim={self.X.ndim}")
        if self.y.ndim != 1:
            raise DimensionMismatch(f"y must be 1-d, got ndim={self.y.ndim}")
        if self.X.shape[0] != self.y.shape[0]:
            raise DimensionMismatch(
                f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]} entries"
            )
        if self.X.shape[0] < 1 or self.X.shape[1] < 1:
            raise ValueError("dataset needs at least one sample and one feature")
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("dataset contains NaN or Inf entries")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """``X.T @ X / n``, computed on first use."""
        return self.X.T @ self.X / self.n

    @cached_property
    def xty(self) -> np.ndarray:
        """``X.T @ y / n``, computed on first use."""
        return self.X.T @ self.y / self.n

    @cached_property
    def gram_norm(self) -> float:
        """Largest eigenvalue of ``gram``, computed on first use."""
        return float(np.linalg.eigvalsh(self.gram)[-1])


@dataclass(frozen=True)
class LossSpec:
    """Selects the objective family: ``least_squares`` or ``logistic``."""

    kind: str = LEAST_SQUARES

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"kind must be one of {LOSS_KINDS}, got {self.kind!r}")


@dataclass
class BestResponse:
    """Affine hypernetwork ``lam -> lam * phi1 + phi0``."""

    phi1: np.ndarray
    phi0: np.ndarray

    def __post_init__(self):
        self.phi1 = np.asarray(self.phi1, dtype=float)
        self.phi0 = np.asarray(self.phi0, dtype=float)
        if self.phi1.ndim != 1 or self.phi0.ndim != 1:
            raise DimensionMismatch("phi1 and phi0 must be 1-d vectors")
        if self.phi1.shape != self.phi0.shape:
            raise DimensionMismatch(
                f"phi1 has length {self.phi1.shape[0]} but phi0 has {self.phi0.shape[0]}"
            )


def best_response(br: BestResponse, lam: float) -> np.ndarray:
    """Evaluate the hypernetwork: ``lam * phi1 + phi0``."""
    return lam * br.phi1 + br.phi0


def split_best_response(v: np.ndarray, lam: float) -> BestResponse:
    """Invert ``best_response`` at ``lam`` for the weight vector ``v``.

    ``phi0`` is the componentwise-constant vector holding the mean of
    ``v``'s entries and ``phi1 = (v - phi0) / lam``, so
    ``best_response(result, lam) == v`` up to roundoff.

    Raises:
        SplitDegenerate: if ``|lam| <= SPLIT_FLOOR``.
    """
    if abs(lam) <= SPLIT_FLOOR:
        raise SplitDegenerate(f"|lam|={abs(lam):.3e} <= {SPLIT_FLOOR:.0e}")
    v = np.asarray(v, dtype=float)
    mean = float(v.mean())
    phi0 = np.full_like(v, mean)
    phi1 = (v - mean) / lam
    return BestResponse(phi1=phi1, phi0=phi0)


def _require_role(data: Dataset, roles: tuple[str, ...]):
    if data.role not in roles:
        raise ValueError(f"expected a split with role in {roles}, got {data.role!r}")


def _exp(lam: float) -> float:
    """exp that saturates to inf instead of raising, so runaway iterates
    surface as non-finite losses and are handled as divergence."""
    try:
        return math.exp(lam)
    except OverflowError:
        return math.inf


def require_finite(iteration: int, lam: float, *arrays: np.ndarray):
    """Raise NonFiniteIterate unless ``lam`` and every array are finite."""
    if not (math.isfinite(lam) and all(np.all(np.isfinite(a)) for a in arrays)):
        raise NonFiniteIterate(f"non-finite iterate at iteration {iteration}")


def _check_w(w: np.ndarray, data: Dataset) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.shape[0] != data.d:
        raise DimensionMismatch(f"w has shape {w.shape}, expected ({data.d},)")
    return w


def _expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid ``1 / (1 + exp(-x))``; saturates to exactly 0 or 1, silently."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _fit_loss(spec: LossSpec, w: np.ndarray, data: Dataset) -> float:
    """Data-fit part of the loss, without the regularizer."""
    if spec.kind == LEAST_SQUARES:
        r = data.X @ w - data.y
        return float(r @ r) / (2.0 * data.n)
    # log(1 + exp(-z)) evaluated stably; large |z| occur at lam = -10.
    z = data.y * (data.X @ w)
    return float(np.logaddexp(0.0, -z).mean())


def _fit_grad(spec: LossSpec, w: np.ndarray, data: Dataset) -> np.ndarray:
    """Gradient of the data-fit part with respect to ``w``."""
    if spec.kind == LEAST_SQUARES:
        return data.X.T @ (data.X @ w - data.y) / data.n
    z = data.y * (data.X @ w)
    return -(data.X.T @ (data.y * _expit(-z))) / data.n


def _fit_curvature(spec: LossSpec, w: np.ndarray, p: np.ndarray, data: Dataset) -> float:
    """Second derivative of the data-fit part at ``w`` along the direction ``p``."""
    xp = data.X @ p
    if spec.kind == LEAST_SQUARES:
        return float(xp @ xp) / data.n
    sig = _expit(data.y * (data.X @ w))
    return float((sig * (1.0 - sig)) @ (xp * xp)) / data.n


def train_loss(spec: LossSpec, w: np.ndarray, lam: float, data: Dataset) -> float:
    """Regularized training objective ``L_T(w, lam)`` on the train split."""
    _require_role(data, ("train",))
    w = _check_w(w, data)
    return _fit_loss(spec, w, data) + _exp(lam) * float(w @ w)


def val_loss(spec: LossSpec, w: np.ndarray, data: Dataset) -> float:
    """Unregularized objective ``L_V(w)`` on a validation or test split."""
    _require_role(data, ("validation", "test"))
    w = _check_w(w, data)
    return _fit_loss(spec, w, data)


def report_losses(spec: LossSpec, w: np.ndarray, lam: float, train: Dataset,
                  val: Dataset, test: Dataset | None) -> tuple[float, float, float | None]:
    """Train, validation and test losses at ``w``; the test loss is None without a test split."""
    return (train_loss(spec, w, lam, train), val_loss(spec, w, val),
            None if test is None else val_loss(spec, w, test))


def grad_w_train(spec: LossSpec, w: np.ndarray, lam: float, data: Dataset) -> np.ndarray:
    """Gradient of ``train_loss`` with respect to ``w``."""
    _require_role(data, ("train",))
    w = _check_w(w, data)
    return _fit_grad(spec, w, data) + 2.0 * _exp(lam) * w


def grad_w_val(spec: LossSpec, w: np.ndarray, data: Dataset) -> np.ndarray:
    """Gradient of ``val_loss`` with respect to ``w``."""
    _require_role(data, ("validation", "test"))
    w = _check_w(w, data)
    return _fit_grad(spec, w, data)


def grad_lambda_val(spec: LossSpec, br: BestResponse, lam: float, data: Dataset) -> float:
    """Validation gradient in ``lam`` through the hypernetwork.

    Chain rule: ``d/dlam L_V(G(lam)) = phi1 . grad_w L_V(G(lam))``.
    """
    _require_role(data, ("validation",))
    w = best_response(br, lam)
    return float(br.phi1 @ grad_w_val(spec, w, data))


def grad_lambda_train(w: np.ndarray, lam: float) -> float:
    """Derivative of the regularizer ``exp(lam) * ||w||^2`` in ``lam``."""
    w = np.asarray(w, dtype=float)
    return _exp(lam) * float(w @ w)
