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

The functions here never mutate their arguments and keep no internal
state. The data-fit kernels ``_fit_loss``, ``_fit_grad`` and
``_fit_curvature`` take the product ``z = X @ w`` instead of ``w``, so a
caller that already holds a point's product does not take it again; each
public function takes ``data.X @ w`` once per call.

Each public function checks its split's role and its point's shape on
every call, then runs the unchecked kernels: the ``_fit_*`` ones, and
``_grad_w_train``, which takes ``exp_lam = _exp(lam)``.
The solver steps and ``search.train_model`` run the same kernels and check
once per step or run: the roles when they bind a split, the shapes of the
points they are given, never per product.

Products are kept in two places. A split memoizes products of its own
``X`` and ``y`` on first use (``Dataset``); its spectrum turns every
shifted solve ``(gram + c I) x = b`` into two matrix-vector products,
O(d^2) after one O(d^3) ``eigh``, and one when ``b`` is ``xty``. The
simplified MY-HPO step (``moreau``) carries the accepted ``v`` and ``w``
products in its state, matched by the arrays' identity. Neither notices
an in-place change, so neither a split's arrays nor a solver state's
iterates may be changed in place once a solver has read them.
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
    classification; ``n`` and ``d`` are ``X``'s row and column counts. ``role`` is one of ``train``, ``validation``, ``test``
    and is checked by the loss functions so a split cannot be fed to the
    wrong objective by accident. ``gram``, ``xty``, ``gram_norm``,
    ``spectrum`` and ``xty_projected`` are the products the exact solves
    reuse, memoized on first use.
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
        # plain attributes, not properties: the loss kernels read them on every call
        self.n, self.d = self.X.shape

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

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues ``s`` and orthonormal eigenvectors ``Q`` of ``gram``, as
        ``np.linalg.eigh`` returns them, computed on first use."""
        return np.linalg.eigh(self.gram)

    @cached_property
    def xty_projected(self) -> np.ndarray:
        """``Q.T @ xty``, with ``Q`` from ``spectrum``, computed on first use."""
        return self.spectrum[1].T @ self.xty

    def solve_shifted(self, c: float, b: np.ndarray | None = None) -> np.ndarray:
        """Solve ``(gram + c * I) x = b`` as ``Q @ ((Q.T @ b) / (s + c))``.

        O(d^2) per call once ``spectrum`` is known; ``b`` defaults to ``xty``,
        whose ``Q.T @ xty`` is memoized. The eigenvalues stay as ``eigh``
        returns them: on a rank-deficient ``gram`` with ``c = 0``, clamping
        the roundoff-negative ones at 0 would divide by zero.
        """
        s, q = self.spectrum
        qtb = self.xty_projected if b is None else q.T @ b
        return q @ (qtb / (s + c))


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

    @classmethod
    def _of(cls, phi1: np.ndarray, phi0: np.ndarray) -> "BestResponse":
        """A best response from two float vectors of one length, without the checks."""
        br = object.__new__(cls)
        br.phi1, br.phi0 = phi1, phi0
        return br


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
    if v.ndim != 1:
        raise DimensionMismatch(f"v must be 1-d, got ndim={v.ndim}")
    mean = float(np.add.reduce(v) / v.size)  # what v.mean() computes
    phi0 = np.empty_like(v)
    phi0.fill(mean)
    return BestResponse._of((v - mean) / lam, phi0)


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
    """Raise NonFiniteIterate unless ``lam`` and every array are finite: entry by
    entry, never by a norm or a sum, which overflow on finite entries."""
    if math.isfinite(lam):
        for a in arrays:
            if np.count_nonzero(np.isfinite(a)) != a.size:
                break
        else:
            return
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


def _fit_loss(spec: LossSpec, z: np.ndarray, data: Dataset) -> float:
    """Data-fit part of the loss at the product ``z = data.X @ w``, without the regularizer."""
    if spec.kind == LEAST_SQUARES:
        r = z - data.y
        return float(r.dot(r)) / (2.0 * data.n)
    # log(1 + exp(-y z)) evaluated stably; large |z| occur at lam = -10.
    return float(np.logaddexp(0.0, -(data.y * z)).mean())


def _fit_grad(spec: LossSpec, z: np.ndarray, data: Dataset) -> np.ndarray:
    """Gradient in ``w`` of the data-fit part, at the product ``z = data.X @ w``."""
    if spec.kind == LEAST_SQUARES:
        return data.X.T @ (z - data.y) / data.n
    return -(data.X.T @ (data.y * _expit(-(data.y * z)))) / data.n


def _grad_w_train(spec: LossSpec, w: np.ndarray, z: np.ndarray, exp_lam: float,
                  data: Dataset) -> np.ndarray:
    """``grad_w_train`` from ``z = data.X @ w`` and ``exp_lam = _exp(lam)``, unchecked."""
    return _fit_grad(spec, z, data) + 2.0 * exp_lam * w


def _fit_curvature(spec: LossSpec, z: np.ndarray, xp: np.ndarray, data: Dataset) -> float:
    """Second derivative of the data-fit part at ``w`` along a direction ``p``,
    from the products ``z = data.X @ w`` and ``xp = data.X @ p``."""
    if spec.kind == LEAST_SQUARES:
        return float(xp @ xp) / data.n
    sig = _expit(data.y * z)
    return float((sig * (1.0 - sig)) @ (xp * xp)) / data.n


def train_loss(spec: LossSpec, w: np.ndarray, lam: float, data: Dataset) -> float:
    """Regularized training objective ``L_T(w, lam)`` on the train split."""
    _require_role(data, ("train",))
    w = _check_w(w, data)
    return _fit_loss(spec, data.X @ w, data) + _exp(lam) * float(w.dot(w))


def val_loss(spec: LossSpec, w: np.ndarray, data: Dataset) -> float:
    """Unregularized objective ``L_V(w)`` on a validation or test split."""
    _require_role(data, ("validation", "test"))
    w = _check_w(w, data)
    return _fit_loss(spec, data.X @ w, data)


def _fit_loss_block(spec: LossSpec, W: np.ndarray, data: Dataset) -> np.ndarray:
    """``_fit_loss`` at every row of ``W``, from one matrix product."""
    # column k holds X @ W[k]; X @ W.T touches fewer OpenBLAS packing pages
    # than W @ X.T (about 0.5 MB of resident memory at 1000 x 784, K = 64)
    z = data.X @ W.T
    if spec.kind == LEAST_SQUARES:
        z -= data.y[:, None]
        return np.einsum("ij,ij->j", z, z) / (2.0 * data.n)
    z *= -data.y[:, None]
    return np.logaddexp(0.0, z, out=z).mean(axis=0)


# Handing a block's report to a thread costs the solver 0.25 ms (2-vCPU x86 VM,
# one BLAS thread): 140 us to start it, 80 us of report_block's Python holding
# the GIL. A least-squares report there takes 0.074 ns per multiply-add (3.8 ms
# for 64 rows, d = 400, 2,000 split rows), so 10x the hand-off, 2.5 ms, is 2^25
# per block, 2^19 per row. Below that, GIL and cache contention ate the overlap.
OFFLOAD_MIN_WORK = 2 ** 19


def offload_report(train: Dataset, val: Dataset, test: Dataset | None) -> bool:
    """Whether a row's report work, ``d`` times the splits' rows, reaches ``OFFLOAD_MIN_WORK``."""
    return train.d * (train.n + val.n + (0 if test is None else test.n)) >= OFFLOAD_MIN_WORK


def report_block(spec: LossSpec, W: np.ndarray, lams: list[float], train: Dataset, val: Dataset,
                 test: Dataset | None) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Train, validation and test losses at each row of ``W``, row ``k`` at ``lams[k]``.

    Row ``k`` of each result is ``train_loss(spec, W[k], lams[k], train)``,
    ``val_loss(spec, W[k], val)`` and ``val_loss(spec, W[k], test)`` up to
    summation order; the test losses are None without a test split. Each
    split costs one matrix product, reusing ``X`` across all rows. A
    non-finite row of ``W`` gives non-finite losses in its own row only,
    silently: callers detect divergence with isfinite. It may run on a
    worker thread beside the solver (``offload_report``), so it reads only
    the splits' ``X``, ``y`` and sizes, never a memoized product.
    """
    _require_role(train, ("train",))
    _require_role(val, ("validation", "test"))
    if test is not None:
        _require_role(test, ("validation", "test"))
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != train.d:
        raise DimensionMismatch(f"W has shape {W.shape}, expected (K, {train.d})")
    with np.errstate(over="ignore", invalid="ignore"):
        reg = np.array([_exp(lam) for lam in lams]) * np.einsum("ij,ij->i", W, W)
        return (_fit_loss_block(spec, W, train) + reg, _fit_loss_block(spec, W, val),
                None if test is None else _fit_loss_block(spec, W, test))


def grad_w_train(spec: LossSpec, w: np.ndarray, lam: float, data: Dataset) -> np.ndarray:
    """Gradient of ``train_loss`` with respect to ``w``."""
    _require_role(data, ("train",))
    w = _check_w(w, data)
    return _grad_w_train(spec, w, data.X @ w, _exp(lam), data)


def grad_w_val(spec: LossSpec, w: np.ndarray, data: Dataset) -> np.ndarray:
    """Gradient of ``val_loss`` with respect to ``w``."""
    _require_role(data, ("validation", "test"))
    w = _check_w(w, data)
    return _fit_grad(spec, data.X @ w, data)


def grad_lambda_val(spec: LossSpec, br: BestResponse, lam: float, data: Dataset) -> float:
    """Validation gradient in ``lam`` through the hypernetwork.

    Chain rule: ``d/dlam L_V(G(lam)) = phi1 . grad_w L_V(G(lam))``.
    """
    _require_role(data, ("validation",))
    w = best_response(br, lam)
    return float(br.phi1 @ grad_w_val(spec, w, data))
