"""Central finite-difference verification of every analytic gradient.

The checks are loss-only: they evaluate the losses at perturbed points and
never touch the analytic gradient code, so they stay an independent route.
Runnable from the command line via the ``gradcheck`` subcommand.
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
    grad_lambda_train,
    grad_lambda_val,
    grad_w_train,
    grad_w_val,
    split_best_response,
    train_loss,
    val_loss,
)

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
    "lam_regularizer": 1e-6,
}


def fd_grad_w(f, w: np.ndarray, h: float = H_W) -> np.ndarray:
    """Central differences of a scalar function of a vector."""
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


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
    if kind == LOGISTIC:
        y = rng.choice([-1.0, 1.0], size=n)
    else:
        y = rng.standard_normal(n)
    return x, y, d, n


def run_gradcheck(n_instances: int = 120, seed: int = 0,
                  d_max: int = 20, n_max: int = 50) -> GradcheckReport:
    """Compare every analytic gradient against central differences on
    instances that alternate the two losses, so at least two are needed."""
    if n_instances < 2:
        raise ValueError(f"gradcheck needs at least 2 instances (one per loss), got {n_instances}")
    rng = np.random.default_rng(seed)
    errors = {key: 0.0 for key in THRESHOLDS}

    for i in range(n_instances):
        kind = LEAST_SQUARES if i % 2 == 0 else LOGISTIC
        spec = LossSpec(kind)
        x, y, d, n = _random_instance(rng, kind, d_max, n_max)
        train = Dataset(x, y, "train")
        val = Dataset(x, y, "validation")
        w = rng.standard_normal(d)
        lam = float(rng.uniform(-3.0, 1.5))

        g = grad_w_train(spec, w, lam, train)
        fd = fd_grad_w(lambda z: train_loss(spec, z, lam, train), w)
        errors[f"train_w_{kind}"] = max(errors[f"train_w_{kind}"], _rel_err(g, fd))

        g = grad_w_val(spec, w, val)
        fd = fd_grad_w(lambda z: val_loss(spec, z, val), w)
        errors[f"val_w_{kind}"] = max(errors[f"val_w_{kind}"], _rel_err(g, fd))

        br = split_best_response(w, lam) if abs(lam) > 1e-6 else split_best_response(w, 1.0)
        lam_for_br = lam if abs(lam) > 1e-6 else 1.0
        g_lam = grad_lambda_val(spec, br, lam_for_br, val)
        fd_lam = fd_scalar(lambda t: val_loss(spec, best_response(br, t), val), lam_for_br)
        errors[f"lam_chain_{kind}"] = max(errors[f"lam_chain_{kind}"], _rel_err(g_lam, fd_lam))

        g_reg = grad_lambda_train(w, lam)
        fd_reg = fd_scalar(lambda t: train_loss(spec, w, t, train), lam)
        errors["lam_regularizer"] = max(errors["lam_regularizer"], _rel_err(g_reg, fd_reg))

    return GradcheckReport(instances=n_instances, max_errors=errors)
