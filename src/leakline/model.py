"""Analytical transient pressure field of a ruptured gas line.

The damaged line is modelled with the linearised isothermal gas equations:
momentum gives dP/dx = -two_a * G and continuity gives dP/dt = -c^2 * dG/dx,
so pressure obeys a diffusion equation with diffusivity c^2 / two_a.  A leak
withdrawing a constant linearised mass flux g_leak at x = ell2 acts as a point
sink.  With the end mass fluxes held at their steady value, the deviation from
the steady profile solves a zero-flux (Neumann) problem whose eigenfunction
expansion is evaluated here with controlled truncation.

pressure_field is the one evaluator, over a whole (times x xs) grid per call;
pressure_profile, transient_pressure, inlet_pressure and outlet_pressure are views of it.
detection's root search repeats its steps, and steady_pressure's, at the two ends.
steady_pressure is the one home of the linear pre-event profile, which the
series and the finite-difference oracle both add their deviation to.

All pressures are plain floats in Pa, lengths in m, times in s.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

PI_SQ = math.pi**2

# Fraction of the fundamental decay time below which the cosine series is not
# trusted and evaluation falls back to the exact t=0 profile.
EARLY_TIME_FRACTION = 1e-3
# Largest n_max.  At any trusted time n^2 * rate * t >= n^2 * 1e-3, so every term
# with n >= 864 underflows to exactly 0; a larger order would only allocate more.
N_MAX_LIMIT = 4096


class SeriesPrecisionWarning(UserWarning):
    """Truncated series tail exceeds the configured tolerance."""


@dataclass(frozen=True)
class PipelineSpec:
    """Static description of one pipeline line.

    p_inlet_0 and p_outlet_0 are the steady end pressures (Pa), g0 the steady
    linearised mass flux (Pa*s/m), sound_speed the isothermal sound speed
    (m/s) and two_a the friction linearisation coefficient (1/s).  The end
    pressures must be consistent with the linear steady profile
    p_inlet_0 - two_a*g0*length == p_outlet_0.
    """

    p_inlet_0: float
    p_outlet_0: float
    length: float
    g0: float
    sound_speed: float
    two_a: float

    def __post_init__(self):
        if not self.p_inlet_0 > self.p_outlet_0 > 0:
            raise ValueError("end pressures must satisfy p_inlet_0 > p_outlet_0 > 0")
        if not self.length > 0:
            raise ValueError("length must be > 0")
        if not self.g0 >= 0:
            raise ValueError("g0 must be >= 0")
        if not self.sound_speed > 0:
            raise ValueError("sound_speed must be > 0")
        if not self.two_a > 0:
            raise ValueError("two_a must be > 0")
        drop = self.two_a * self.g0 * self.length
        if abs((self.p_inlet_0 - drop) - self.p_outlet_0) > 1e-6 * self.p_inlet_0:
            raise ValueError(
                "inconsistent steady profile: p_inlet_0 - two_a*g0*length = "
                f"{self.p_inlet_0 - drop:.6g} Pa but p_outlet_0 = {self.p_outlet_0:.6g} Pa"
            )
        # last, so NaN and every value the checks above reject keep their message
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError("all values must be finite")

    @property
    def diffusivity(self) -> float:
        """Pressure diffusivity c^2 / two_a (m^2/s)."""
        return self.sound_speed**2 / self.two_a


@dataclass(frozen=True)
class LeakScenario:
    """A rupture at ell2 (m from the inlet) withdrawing g_leak (Pa*s/m)."""

    ell2: float
    g_leak: float

    def __post_init__(self):
        if not self.ell2 > 0:
            raise ValueError("ell2 must be > 0")
        if not self.g_leak >= 0:
            raise ValueError("g_leak must be >= 0")
        if self.g_leak == math.inf:
            raise ValueError("g_leak must be finite")

    def check_against(self, spec: PipelineSpec) -> None:
        if not 0 < self.ell2 < spec.length:
            raise ValueError(
                f"ell2 = {self.ell2:.6g} m must lie strictly inside (0, {spec.length:.6g})"
            )


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation control for the cosine series."""

    n_max: int = 64
    tail_tol: float = 1.0

    def __post_init__(self):
        if not self.n_max >= 1:
            raise ValueError("n_max must be >= 1")
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be > 0")
        if self.tail_tol == math.inf:
            raise ValueError("tail_tol must be finite")
        if not isinstance(self.n_max, numbers.Integral):
            raise ValueError(f"n_max must be an integer, got {self.n_max!r}")
        if self.n_max > N_MAX_LIMIT:
            raise ValueError(f"n_max must be <= {N_MAX_LIMIT}, got {self.n_max}")


DEFAULT_SERIES = SeriesConfig()


def decay_rate(spec: PipelineSpec) -> float:
    """Base decay rate of the transient modes, pi^2 c^2 / (two_a L^2) in 1/s.

    Mode n relaxes as exp(-n^2 * decay_rate * t).
    """
    return PI_SQ * spec.sound_speed**2 / (spec.two_a * spec.length**2)


def early_time_floor(spec: PipelineSpec) -> float:
    """Time below which series evaluation falls back to the t=0 profile."""
    return EARLY_TIME_FRACTION / decay_rate(spec)


def steady_pressure(spec: PipelineSpec, x):
    """Pre-event linear profile p_inlet_0 - two_a*g0*x, elementwise over an array x."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (x <= spec.length)):
        raise ValueError(f"positions outside [0, {spec.length:.6g}]")
    return spec.p_inlet_0 - spec.two_a * spec.g0 * x


def neumann_kernel(x, xi: float, length: float):
    """Zero-mean kernel of the zero-flux diffusion problem on [0, length].

    H(x, xi) = (x^2 + xi^2) / (2 L) + L/3 - max(x, xi), elementwise over an
    array x.  Symmetric in its arguments and integrates to zero over x for
    any xi; the static part of the leak response is -two_a * g_leak * H(x, ell2).
    Both arguments are taken to lie in [0, length].
    """
    return (x * x + xi * xi) / (2.0 * length) + length / 3.0 - np.maximum(x, xi)


def series_tail(spec: PipelineSpec, scenario: LeakScenario, n_max: int, t: float) -> float:
    """Upper bound on the magnitude dropped by truncating the series at n_max.

    With the cosines replaced by 1, m = n_max + 1 and r = decay_rate, the
    dropped sum over n >= m of e^{-n^2 r t} / n^2 is at most
    e^{-m^2 r t} / m^2 times the geometric series of e^{-2 m r t}, since
    n^2 >= m^2 + 2 m (n - m).  Infinite at t = 0.
    """
    amp = 2.0 * spec.two_a * spec.length * scenario.g_leak / PI_SQ
    m = n_max + 1
    rt = decay_rate(spec) * t
    if rt <= 0:
        return math.inf
    return amp * math.exp(-m * m * rt) / (m * m * -math.expm1(-2.0 * m * rt))


def untrusted_time(spec: PipelineSpec, scenario: LeakScenario, cfg: SeriesConfig,
                   t: float, floor: float) -> bool:
    """Warn, naming the caller's caller, if t > 0 is below the early-time floor
    or the tail exceeds cfg.tail_tol; True when t is below the floor."""
    if t < floor:
        if t > 0:
            warnings.warn(f"t = {t:.6g} s below the series validity floor {floor:.6g} s; "
                          "returning the t=0 profile", SeriesPrecisionWarning, stacklevel=3)
        return True
    tail = series_tail(spec, scenario, cfg.n_max, t)
    if tail > cfg.tail_tol:
        warnings.warn(f"series tail {tail:.3g} Pa exceeds tail_tol {cfg.tail_tol:.3g} Pa "
                      f"at t = {t:.6g} s with n_max = {cfg.n_max}",
                      SeriesPrecisionWarning, stacklevel=3)
    return False


def pressure_field(spec: PipelineSpec, scenario: LeakScenario, cfg: SeriesConfig,
                   xs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Transient pressure at positions xs (m) for each of times (s).

    There is one formulation, steady - drain - static + modes: it meets the
    steady profile at t = 0, conserves mass and matches the FD oracle.  Row i
    of the (len(times), len(xs)) result is the profile at times[i]; it is
    bit-identical to a call with times[i] alone.  It is not to a call with
    other xs, since the matrix-vector product rounds by shape.  A row below
    the early-time floor is the t=0 profile.  Each row below that floor
    (t > 0), or whose truncation tail exceeds cfg.tail_tol, warns once.
    """
    xs = np.asarray(xs, dtype=float)
    steady = steady_pressure(spec, xs)
    ts = np.asarray(times, dtype=float)
    times = ts.tolist()
    if not all(0 <= t < math.inf for t in times):
        raise ValueError("t must be >= 0 and finite")
    scenario.check_against(spec)

    L, g, ell2 = spec.length, scenario.g_leak, scenario.ell2
    rate, floor = decay_rate(spec), early_time_floor(spec)
    n = np.arange(1, cfg.n_max + 1, dtype=float)
    # one fixed operation order, -n * n * rate * t and steady - drain - static
    # + modes: tests/golden pins the last bits of the printed pressures
    exponent, n_sq = -n * n * rate, n * n
    # cos(pi * (x n) / L) in one buffer; IEEE products commute, so the bits hold
    cosines = np.outer(xs, n)
    cosines *= np.pi
    cosines /= L
    np.cos(cosines, out=cosines)
    leak_cosines = np.cos(np.pi * n * ell2 / L)
    amp = 2.0 * spec.two_a * L * g / PI_SQ
    static = spec.two_a * g * neumann_kernel(xs, ell2, L)

    # series_tail falls with t: the earliest trusted time decides if any row warns
    below = ts < floor
    trusted = ts[~below]
    tail_warns = trusted.size > 0 and series_tail(
        spec, scenario, cfg.n_max, float(trusted.min())) > cfg.tail_tol
    for t, early in zip(times, below.tolist()):
        if early or tail_warns:
            untrusted_time(spec, scenario, cfg, t, floor)

    # All rows at once; a row below the floor gets finite, untrusted series
    # terms and is then reset to the steady profile.
    t = ts[:, None]
    drain = spec.sound_speed**2 * g / L * t
    weights = leak_cosines * (np.exp(exponent * t) / n_sq)
    # A stacked matmul runs the one-time matrix-vector product once per row, so
    # each row keeps the bits of a call with its time alone.  A plain 2-D
    # (rows x n) @ (n x xs) product sums in another order and does not.
    modes = amp * np.matmul(cosines, weights[:, :, None])[:, :, 0]
    field = steady - drain - static + modes
    field[below] = steady
    return field


def pressure_profile(spec: PipelineSpec, scenario: LeakScenario,
                     cfg: SeriesConfig, xs: np.ndarray, t: float) -> np.ndarray:
    """Transient pressure at positions xs (array, m) and time t (s)."""
    return pressure_field(spec, scenario, cfg, xs, [t])[0]


def transient_pressure(spec: PipelineSpec, scenario: LeakScenario,
                       cfg: SeriesConfig, x: float, t: float) -> float:
    """Transient pressure at a single point."""
    return float(pressure_profile(spec, scenario, cfg, np.array([x]), t)[0])


def inlet_pressure(spec: PipelineSpec, scenario: LeakScenario,
                   cfg: SeriesConfig, t: float) -> float:
    return transient_pressure(spec, scenario, cfg, 0.0, t)


def outlet_pressure(spec: PipelineSpec, scenario: LeakScenario,
                    cfg: SeriesConfig, t: float) -> float:
    return transient_pressure(spec, scenario, cfg, spec.length, t)


# The two line configurations used throughout the tests and bundled scenarios.
PIPELINE_A = PipelineSpec(p_inlet_0=55e4, p_outlet_0=25e4, length=10e4,
                          g0=30.0, sound_speed=383.3, two_a=0.1)
PIPELINE_B = PipelineSpec(p_inlet_0=14e4, p_outlet_0=11e4, length=3e4,
                          g0=10.0, sound_speed=383.3, two_a=0.1)
