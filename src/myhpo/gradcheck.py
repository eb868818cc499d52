"""Central finite-difference verification of every analytic derivative.

The gradient checks evaluate only losses at perturbed points, so they stay
independent of the analytic code; the lam Newton curvature is checked against
differences of the lam derivative that its merit check covers. Runnable from
the command line via the ``gradcheck`` subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    LEAST_SQUARES,
    LOGISTIC,
    Dataset,
    LossSpec,
    best_response,
    grad_lambda_val,
    grad_w_train,
    grad_w_val,
    split_best_response,
    train_loss,
    val_loss,
)
from .moreau import _lam_curvature, _lam_direction

H_W = 1e-5
H_LAM = 1e-6

# maximum relative error tolerated per check
THRESHOLDS = {
    "train_w_least_squares": 1e-5,
    "train_w_logistic": 1e-4,
    "val_w_least_squares": 1e-5,
    "val_w_logistic": 1e-4,
    "lam_chain_least_squares": 1e-5,
    "lam_chain_logistic": 1e-5,
    "lam_merit_least_squares": 1e-6,
    "lam_merit_logistic": 1e-6,
    "lam_curvature_least_squares": 1e-6,
    "lam_curvature_logistic": 1e-6,
}


def fd_grad_w(f, w: np.ndarray, h: float = H_W) -> np.ndarray:
    """Central differences of a scalar function of a vector."""
    w = np.asarray(w, dtype=float)
    return np.array([(f(w + e) - f(w - e)) / (2.0 * h) for e in h * np.eye(w.size)])


def fd_scalar(f, x: float, h: float = H_LAM) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _rel_err(analytic, numeric) -> float:
    diff = float(np.linalg.norm(np.atleast_1d(analytic - numeric)))
    scale = float(np.linalg.norm(np.atleast_1d(numeric)))
    return diff / max(scale, 1e-8)


@dataclass
class GradcheckReport:
    instances: int
    max_errors: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.max_errors[k] <= THRESHOLDS[k] for k in self.max_errors)

    def lines(self) -> list[str]:
        out = [f"gradient check over {self.instances} random instances"]
        for key in sorted(self.max_errors):
            err = self.max_errors[key]
            status = "ok" if err <= THRESHOLDS[key] else "FAIL"
            out.append(f"  {key:30s} max rel err {err:.3e}  (tol {THRESHOLDS[key]:.0e})  {status}")
        return out


def _random_instance(rng, kind: str, d_max: int, n_max: int):
    d = int(rng.integers(1, d_max + 1))
    n = int(rng.integers(1, n_max + 1))
    x = rng.standard_normal((n, d))
    y = rng.choice([-1.0, 1.0], size=n) if kind == LOGISTIC else rng.standard_normal(n)
    return Dataset(x, y, "train"), Dataset(x, y, "validation"), d


def run_gradcheck(n_instances: int = 120, seed: int = 0,
                  d_max: int = 20, n_max: int = 50) -> GradcheckReport:
    """Compare every analytic derivative against central differences on
    instances that alternate the two losses, so at least two are needed."""
    if n_instances < 2:
        raise ValueError(f"gradcheck needs at least 2 instances (one per loss), got {n_instances}")
    rng = np.random.default_rng(seed)
    errors = {key: 0.0 for key in THRESHOLDS}

    def check(key, analytic, numeric):
        errors[key] = max(errors[key], _rel_err(analytic, numeric))

    for i in range(n_instances):
        kind = LEAST_SQUARES if i % 2 == 0 else LOGISTIC
        spec = LossSpec(kind)
        train, val, d = _random_instance(rng, kind, d_max, n_max)
        w = rng.standard_normal(d)
        lam = float(rng.uniform(-3.0, 1.5))

        check(f"train_w_{kind}", grad_w_train(spec, w, lam, train),
              fd_grad_w(lambda z: train_loss(spec, z, lam, train), w))
        check(f"val_w_{kind}", grad_w_val(spec, w, val),
              fd_grad_w(lambda z: val_loss(spec, z, val), w))

        lam_for_br = lam if abs(lam) > 1e-6 else 1.0
        br = split_best_response(w, lam_for_br)
        check(f"lam_chain_{kind}", grad_lambda_val(spec, br, lam_for_br, val),
              fd_scalar(lambda t: val_loss(spec, best_response(br, t), val), lam_for_br))

        # the lam block's merit val_loss(G(t)) + u.(w - G(t)) + (rho/2)||w - G(t)||^2
        w_c, u, rho = rng.standard_normal(d), rng.standard_normal(d), float(rng.uniform(0, 2))

        def merit(t):
            gw = best_response(br, t)
            return val_loss(spec, gw, val) + u @ (w_c - gw) + 0.5 * rho * (w_c - gw) @ (w_c - gw)

        def direction(t):
            gw = best_response(br, t)
            return _lam_direction(spec, br, t, w_c - gw, u, rho, val, val.X @ gw)

        check(f"lam_merit_{kind}", direction(lam_for_br), fd_scalar(merit, lam_for_br))
        z = val.X @ best_response(br, lam_for_br)
        check(f"lam_curvature_{kind}", _lam_curvature(spec, br, rho, val, z, val.X @ br.phi1),
              fd_scalar(direction, lam_for_br))

    return GradcheckReport(instances=n_instances, max_errors=errors)
