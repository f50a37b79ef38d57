"""The transient field as the source formulation prints it, kept for audit.

`as_printed_profile` differs from `leakline.model.pressure_field` in three
places:

* the static kernel is one-sided, (x^2 + ell2^2) / (2 L) + L/3 - ell2, in
  place of max(x, ell2);
* the downstream correction two_a * g_leak * (x - ell2), x > ell2, enters
  with its sign flipped;
* a base-flow start-up series is added,
  (8 a L g0 / pi^2) sum_n cos(pi n x / L) e^{-(2n-1)^2 r t} / (2n-1)^2
  with r the decay rate, which is a L g0 at x = 0, t = 0.

So it misses the steady profile at t = 0, by about 0.5 * two_a * L * g0 at
the inlet, and fails the finite-difference oracle.  The tests use it to keep
that discrepancy demonstrated; leakline evaluates only the reconciled field.
Below the early-time floor it returns the steady profile, as pressure_field
does.
"""

from __future__ import annotations

import math

import numpy as np

from leakline.model import (
    LeakScenario,
    PipelineSpec,
    SeriesConfig,
    decay_rate,
    early_time_floor,
    steady_pressure,
)


def as_printed_profile(spec: PipelineSpec, leak: LeakScenario, cfg: SeriesConfig,
                       xs, t: float) -> np.ndarray:
    """The as-printed pressure at positions xs (m) and one time t (s)."""
    xs = np.asarray(xs, dtype=float)
    steady = steady_pressure(spec, xs)
    if t < early_time_floor(spec):
        return steady
    L, g, xi = spec.length, leak.g_leak, leak.ell2
    rate = decay_rate(spec)
    n = np.arange(1, cfg.n_max + 1, dtype=float)
    odd = 2.0 * n - 1.0
    cosines = np.cos(np.pi * np.outer(xs, n) / L)
    decay = np.exp(-n * n * rate * t) / (n * n)
    modes = 2.0 * spec.two_a * L * g / math.pi**2 * (
        cosines @ (np.cos(np.pi * n * xi / L) * decay))
    startup = 4.0 * spec.two_a * L * spec.g0 / math.pi**2 * (
        cosines @ (np.exp(-odd * odd * rate * t) / (odd * odd)))
    kernel = (xs * xs + xi * xi) / (2.0 * L) + L / 3.0 - xi
    flipped = spec.two_a * g * np.where(xs > xi, xs - xi, 0.0)
    drain = (spec.sound_speed**2 * g / L) * t
    return steady - drain + startup - spec.two_a * g * kernel + modes - flipped
