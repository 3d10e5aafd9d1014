"""Log-cosh loss, Adam, and learning-rate schedules.

The loss is computed in the overflow-safe form

    log(cosh(r)) = |r| + log((1 + exp(-2|r|)) / 2)

(naive cosh overflows near r = 710 in float64) and averaged over the
batch. L2 regularization is coupled through the gradient (classic
Adam + weight decay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from yieldgraph.autodiff import NonFiniteError, Tensor

LOG2 = math.log(2.0)


def logcosh_loss(pred, target):
    """Mean log-cosh of (pred - target).

    pred: Tensor [n]; target: finite array [n].
    """
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape or pred.data.ndim != 1:
        raise ValueError(f"pred/target shapes differ: {pred.data.shape} vs {target.shape}")
    a = (pred - Tensor(target)).abs()
    return (a + ((-2.0 * a).exp() + 1.0).log() - LOG2).mean()


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers plus step bookkeeping."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, state):
    """One bias-corrected Adam update over a {name: Tensor} mapping.

    Parameters with no gradient this step are skipped. Weight decay is
    added into the gradient before the moment updates. A non-finite
    gradient aborts the step (no parameter is touched) with a diagnostic
    naming the parameter.
    """
    live = [(name, p) for name, p in sorted(params.items()) if p.grad is not None]
    for name, p in live:
        if not np.isfinite(p.grad).all():
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}; step aborted")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in live:
        g = p.grad
        if state.weight_decay:
            g = g + state.weight_decay * p.data
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


@dataclass(frozen=True)
class LrSchedule:
    """constant, step decay, or cosine annealing with restarts; the peak is the run's lr."""

    kind: str = "constant"
    period: int = 25       # step: epochs per decay
    gamma: float = 0.5     # step: decay factor
    t0: int = 100          # cosine: restart period
    eta_min: float = 1e-6  # cosine: floor

    def __post_init__(self):
        if self.kind not in ("constant", "step", "cosine"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "cosine" and self.eta_min <= 0:
            raise ValueError("learning rates must stay positive")


def lr_at(schedule, lr, epoch):
    """The learning rate of ``epoch`` (from 0) under ``schedule``, peaking at ``lr``."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    if schedule.kind == "constant":
        return lr
    if schedule.kind == "step":
        return lr * schedule.gamma ** (epoch // schedule.period)
    phase = math.pi * (epoch % schedule.t0) / schedule.t0
    return schedule.eta_min + (lr - schedule.eta_min) * (1.0 + math.cos(phase)) / 2.0
