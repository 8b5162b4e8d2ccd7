"""Finite-difference verification of reverse-mode gradients.

Central differences with a per-coordinate step scaled by parameter
magnitude. The comparison is relative error with an absolute floor on
the denominator: central differences on an O(1) loss at step H carry
about 1e-11 of float64 cancellation noise, so gradients below the floor
are effectively compared absolutely against TOL * FLOOR rather than
drowned in that noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

FLOOR = 1e-6
H = 1e-5     # central-difference step, scaled by max(1, |parameter|)
TOL = 1e-4   # largest relative error a gradient passes with


@dataclass
class GradReport:
    """Result of checking one parameter tensor."""

    name: str
    max_err: float
    worst_index: tuple
    analytic: float
    numeric: float
    n_checked: int

    def ok(self) -> bool:
        return self.max_err < TOL


@dataclass
class GradCheckResult:
    reports: list = field(default_factory=list)
    tol = TOL   # a class constant, not a field

    @property
    def max_err(self) -> float:
        return max((r.max_err for r in self.reports), default=0.0)

    @property
    def passed(self) -> bool:
        return all(r.ok() for r in self.reports)

    def summary(self) -> str:
        lines = []
        for r in self.reports:
            status = "ok" if r.ok() else "FAIL"
            lines.append(f"{status:4s} {r.name:30s} max_err={r.max_err:.3e} "
                         f"(analytic={r.analytic:+.6e} numeric={r.numeric:+.6e} "
                         f"at {r.worst_index}, {r.n_checked} coords)")
        return "\n".join(lines)


def _err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), FLOOR)


def grad_check(loss_fn, params: dict, max_coords: int | None = None,
               seed: int = 0) -> GradCheckResult:
    """Compare analytic gradients of ``loss_fn()`` against central differences.

    loss_fn: zero-argument callable returning a scalar Tensor built from
      `params` (re-invoked for every probe, so it must be deterministic).
    params: name -> Tensor with requires_grad=True.
    max_coords: if set, check a random subset of coordinates per tensor
      instead of all of them.
    """
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}

    rng = np.random.Generator(np.random.PCG64(seed))
    result = GradCheckResult()
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            idxs = rng.choice(n, size=max_coords, replace=False)
        else:
            idxs = np.arange(n)
        worst = (0.0, (0,), 0.0, 0.0)
        for i in idxs:
            orig = flat[i]
            step = H * max(1.0, abs(orig))
            flat[i] = orig + step
            lo_hi = float(loss_fn().data)
            flat[i] = orig - step
            lo_lo = float(loss_fn().data)
            flat[i] = orig
            num = (lo_hi - lo_lo) / (2.0 * step)
            ana = float(analytic[name].reshape(-1)[i])
            e = _err(ana, num)
            if e >= worst[0]:
                worst = (e, np.unravel_index(int(i), p.shape), ana, num)
        result.reports.append(GradReport(
            name=name, max_err=worst[0], worst_index=worst[1],
            analytic=worst[2], numeric=worst[3], n_checked=len(idxs)))
    return result
