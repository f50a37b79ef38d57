"""Leak localisation and regime discrimination from end-pressure histories.

The detection statistic is the ratio p(t) of the inlet pressure drop to the
outlet pressure drop, both measured against the pre-event steady end
pressures.  A single leak at normalised position theta = ell2 / L maps to

    theta = 1/2 + ((1 - p) / (1 + p)) * position_gain(t)

where the gain tends to 2/3 at late times.  Ratios consistent with some
theta in (0, 1) form an open admissible band around p = 1; ratios outside
the band indicate a technological regime change rather than a rupture.

That closed form is the series' late-time limit and is biased at the first
fixation instant, so estimate_from_ratio localises by the root of the model's
full series ratio instead; the verdict still comes from the band rule.  The
batch API and the stream monitor share estimate_from_ratio and the streaming
EmpiricalFixation rule.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import (
    DEFAULT_SERIES,
    PI_SQ,
    LeakScenario,
    PipelineSpec,
    SeriesConfig,
    decay_rate,
    early_time_floor,
    pressure_field,
    untrusted_time,
)

# Deviations below this floor (Pa) are treated as unmeasurable; matches a
# gauge resolution of 0.01e4 Pa.
DEFAULT_EPS_MEAS = 100.0

# The series ratio's range is read this close (as a fraction of the length)
# to the inlet, since the leak must lie strictly inside the line; an Accident
# is placed no nearer to either end.  The root is sought to this tolerance in
# theta and in log p.
_THETA_EDGE = 1e-6
_ROOT_TOL = 1e-12
_ROOT_MAX_ITER = 100


class Verdict(str, enum.Enum):
    ACCIDENT = "Accident"
    TECHNOLOGICAL = "Technological"
    INDETERMINATE = "Indeterminate"


class UndefinedCause(str, enum.Enum):
    BELOW_FLOOR = "below_floor"          # a deviation smaller than eps_meas
    NEGATIVE_DEVIATION = "pressure_rise"  # an end pressure above its baseline
    NON_FINITE = "non_finite"            # a NaN or infinite deviation


@dataclass(frozen=True)
class RatioPoint:
    """The drop ratio at one instant; p is NaN when not defined."""

    t: float
    p: float
    defined: bool
    cause: UndefinedCause | None = None


@dataclass(frozen=True)
class RegimeBand:
    """Open interval of drop ratios consistent with a single leak."""

    lo: float
    hi: float

    def contains(self, p: float) -> bool:
        return self.lo < p < self.hi


@dataclass(frozen=True)
class ThetaEstimate:
    """Localisation outcome at the fixation instant.

    theta is the root on (0, 1) of the model's series ratio = observed p, or
    the nearer end (0 or 1) when p lies beyond the series' range; for an
    Accident it stays 1e-6 of the length inside that end, since a leak lies
    strictly inside the line and valves must bracket it.  theta_raw
    equals theta whenever the root exists; for Technological verdicts, and
    when p lies beyond the series' range, it keeps the closed-form value of
    theta_from_ratio, unclamped, because out-of-range values carry meaning
    (they indicate a non-leak regime).  Both are None when the ratio was not
    measurable.
    """

    theta: float | None
    ell2_est: float | None
    verdict: Verdict
    theta_raw: float | None = None
    ratio: RatioPoint | None = None


class ThetaValue(NamedTuple):
    theta: float
    in_range: bool


@dataclass(frozen=True, eq=False)
class PressureTrajectory:
    """Sampled end-pressure histories with their pre-event baseline."""

    samples: np.ndarray  # any (t, p_inlet, p_outlet) triples; kept as a read-only (n, 3) copy
    baseline: tuple[float, float]  # (P1, P2)

    def __post_init__(self):
        p1, p2 = self.baseline
        if not (p1 > p2 > 0 and math.isfinite(p1)):
            raise ValueError("baseline must satisfy P1 > P2 > 0")
        if len(self.samples) == 0:
            raise ValueError("need at least one sample")
        try:  # no dtype=float here: it would read the string '54e4' as a number
            rows = np.array(self.samples)
        except ValueError:  # ragged rows
            rows = None
        if rows is None or rows.dtype.kind not in "iuf" or rows.shape[1:] != (3,):
            raise ValueError("samples must be (t, p_inlet, p_outlet) triples of numbers")
        rows = rows.astype(np.float64, copy=False)
        rows.flags.writeable = False
        object.__setattr__(self, "samples", rows)
        if not np.isfinite(rows).all():
            raise ValueError("times and pressures must be finite")
        if not (np.diff(rows[:, 0]) > 0).all():
            raise ValueError("sample times must be strictly increasing")
        i, end = divmod(int((rows[:, 1:] <= 0).argmax()), 2)
        if not rows[i, end + 1] > 0:  # the first failing sample, inlet before outlet
            raise ValueError(f"pressures must be positive: {('inlet', 'outlet')[end]} "
                             f"{rows[i, end + 1]:.6g} Pa at t = {rows[i, 0]:.6g} s")


def simulate_trajectory(spec: PipelineSpec, scenario: LeakScenario,
                        cfg: SeriesConfig, times: Sequence[float],
                        quantum: float | None = None) -> PressureTrajectory:
    """Sample the analytical model into a trajectory.

    quantum, when given, rounds the pressures to that resolution (100 Pa
    mimics a gauge reading two decimals in units of 1e4 Pa); ties go to even.
    """
    # one call per end, on its own line: each keeps its own warning location
    pins = pressure_field(spec, scenario, cfg, [0.0], times)[:, 0]
    pouts = pressure_field(spec, scenario, cfg, [spec.length], times)[:, 0]
    if quantum is not None:
        pins, pouts = (np.round(p / quantum) * quantum for p in (pins, pouts))
    return PressureTrajectory(samples=np.column_stack((times, pins, pouts)),
                              baseline=(spec.p_inlet_0, spec.p_outlet_0))


def defined_ratio(dev_inlet: float, dev_outlet: float, eps_meas: float) -> float | None:
    """The floor rule: dev_inlet / dev_outlet when both deviations are finite
    and at least eps_meas (> 0), else None."""
    if eps_meas <= dev_inlet < math.inf and eps_meas <= dev_outlet < math.inf:
        return dev_inlet / dev_outlet
    return None


def ratio_from_deviations(dev_inlet: float, dev_outlet: float, t: float,
                          eps_meas: float) -> RatioPoint:
    """Build the drop ratio from raw deviations, naming why it is undefined."""
    p = defined_ratio(dev_inlet, dev_outlet, eps_meas)
    if p is not None:
        return RatioPoint(t=t, p=p, defined=True)
    if not (math.isfinite(dev_inlet) and math.isfinite(dev_outlet)):
        cause = UndefinedCause.NON_FINITE
    elif dev_inlet < 0 or dev_outlet < 0:
        cause = UndefinedCause.NEGATIVE_DEVIATION
    else:
        cause = UndefinedCause.BELOW_FLOOR
    return RatioPoint(t=t, p=math.nan, defined=False, cause=cause)


def _check_eps(eps_meas: float) -> None:
    if not 0 < eps_meas < math.inf:
        raise ValueError(f"eps_meas must be > 0 and finite, got {eps_meas:g}")


def pressure_ratio(traj: PressureTrajectory, t: float,
                   eps_meas: float = DEFAULT_EPS_MEAS) -> RatioPoint:
    """Drop ratio at sample time t; undefined below the measurability floor."""
    _check_eps(eps_meas)
    ts = traj.samples[:, 0]
    if not ts[0] <= t <= ts[-1]:
        raise ValueError(f"t = {t:.6g} outside trajectory span [{ts[0]:.6g}, {ts[-1]:.6g}]")
    i = int(np.searchsorted(ts, t - 1e-9 * max(1.0, abs(t))))
    if not (i < len(ts) and math.isclose(ts[i], t, rel_tol=1e-9, abs_tol=1e-9)):
        raise ValueError(f"no sample at t = {t:.6g} s")
    _, p_in, p_out = traj.samples[i].tolist()
    p1, p2 = traj.baseline
    return ratio_from_deviations(p1 - p_in, p2 - p_out, t, eps_meas)


def position_gain(spec: PipelineSpec, t: float) -> float:
    """Gain mapping (1-p)/(1+p) to theta - 1/2; rises monotonically to 2/3."""
    if t < 0:
        raise ValueError("t must be >= 0")
    a = decay_rate(spec)
    return 2.0 / 3.0 + (math.exp(-2.0 * a * t) - 4.0 * math.exp(-a * t)) / PI_SQ


def theta_from_ratio(spec: PipelineSpec, p: float, t: float) -> ThetaValue:
    """Normalised leak coordinate implied by drop ratio p at time t.

    Values outside [0, 1] are returned as-is with in_range=False; they signal
    that the observed ratio is not consistent with a single leak.
    """
    if p <= 0:
        raise ValueError("ratio p must be > 0")
    theta = 0.5 + (1.0 - p) / (1.0 + p) * position_gain(spec, t)
    return ThetaValue(theta=theta, in_range=0.0 <= theta <= 1.0)


def admissible_band(spec: PipelineSpec, t: float) -> RegimeBand | None:
    """Open ratio band consistent with a leak, or None while unavailable.

    The band exists once the gain exceeds 1/2; at late times it tends to
    (1/7, 7).  Algebraically p inside the band is equivalent to
    theta_from_ratio(p, t) lying strictly inside (0, 1).
    """
    g = position_gain(spec, t)
    if g <= 0.5:
        return None
    return RegimeBand(lo=(g - 0.5) / (g + 0.5), hi=(g + 0.5) / (g - 0.5))


def first_band_time(spec: PipelineSpec) -> float:
    """Earliest time at which the admissible band exists.

    The gain is 1/2 where u = exp(-decay_rate * t) solves u^2 - 4u + pi^2/6 = 0.
    That root is returned 1e-12 of itself late, where the gain exceeds 1/2.
    """
    u = 2.0 - math.sqrt(4.0 - PI_SQ / 6.0)
    return -math.log(u) / decay_rate(spec) * (1.0 + 1e-12)


def _judge(spec: PipelineSpec, rp: RatioPoint) -> tuple[Verdict, ThetaValue | None]:
    # theta in (0, 1) is the admissible-band test wherever the band exists,
    # and the only test before it opens
    if not rp.defined:
        if rp.cause is UndefinedCause.NEGATIVE_DEVIATION:
            # a pressure rise cannot come from a leak
            return Verdict.TECHNOLOGICAL, None
        return Verdict.INDETERMINATE, None
    tv = theta_from_ratio(spec, rp.p, rp.t)
    return (Verdict.ACCIDENT if 0.0 < tv.theta < 1.0 else Verdict.TECHNOLOGICAL), tv


def classify_regime(spec: PipelineSpec, traj: PressureTrajectory, t_fix: float,
                    eps_meas: float = DEFAULT_EPS_MEAS) -> Verdict:
    """Accident / Technological / Indeterminate at the fixation instant."""
    verdict, _ = _judge(spec, pressure_ratio(traj, t_fix, eps_meas))
    return verdict


def _series_log_ratio(spec: PipelineSpec, t: float) -> Callable[[float], float]:
    """theta -> log of the model's drop ratio at t for a leak at theta * length.

    A unit flux is used, as the ratio does not depend on it.  The theta-free
    terms are built once; each call takes pressure_field's remaining steps at
    xs = [0, length], in its order and shapes and element-wise on Python
    floats, so it matches pressure_profile to the bit.  +inf while the outlet
    drop is not resolved (still at round-off); NaN when the inlet drop is not.
    """
    if not 0 <= t < math.inf:
        raise ValueError("t must be >= 0 and finite")
    L, two_a, cfg = spec.length, spec.two_a, DEFAULT_SERIES
    if untrusted_time(spec, LeakScenario(0.5 * L, 1.0), cfg, t, early_time_floor(spec)):
        return lambda theta: math.nan  # the t=0 profile: no drop at either end
    n = np.arange(1, cfg.n_max + 1, dtype=float)
    pi_n, cosines = np.pi * n, np.cos(np.pi * (np.array([[0.0], [L]]) * n) / L)
    # steady_pressure at the two ends, without its range check
    s_in, s_out = (spec.p_inlet_0 - two_a * spec.g0 * x for x in (0.0, L))
    decay = np.exp(-n * n * decay_rate(spec) * t) / (n * n)
    amp, drain = 2.0 * two_a * L / PI_SQ, spec.sound_speed**2 / L * t

    def log_ratio(theta: float) -> float:
        ell2 = theta * L
        weights = np.cos(pi_n * ell2 / L) * decay
        m_in, m_out = np.matmul(cosines, weights[None, :, None]).ravel().tolist()
        static_in = two_a * ((0.0 + ell2 * ell2) / (2.0 * L) + L / 3.0 - max(0.0, ell2))
        static_out = two_a * ((L * L + ell2 * ell2) / (2.0 * L) + L / 3.0 - max(L, ell2))
        dev_in = spec.p_inlet_0 - (s_in - drain - static_in + amp * m_in)
        dev_out = spec.p_outlet_0 - (s_out - drain - static_out + amp * m_out)
        if not dev_in > 0:
            return math.nan
        return math.log(dev_in / dev_out) if dev_out > 0 else math.inf
    return log_ratio


def _series_theta(spec: PipelineSpec, p: float, t: float) -> float | None:
    """theta in [0, 1] at which the model's series drop ratio equals p.

    The series ratio falls strictly with theta and is mirror-symmetric,
    ratio(1 - theta) = 1 / ratio(theta), so the root is bracketed on
    (0, 1/2] against |log p| and reflected when p < 1.  It is refined by
    regula falsi with the Illinois modification, bisecting while the inlet
    end of the bracket is unresolved.  A ratio beyond the series' range maps
    to the nearer end.  None when the series resolves no ratio at t.
    """
    q = abs(math.log(p))
    log_ratio = _series_log_ratio(spec, t)
    a, fa = _THETA_EDGE, log_ratio(_THETA_EDGE) - q
    if math.isnan(fa):
        return None
    theta = 0.0 if fa <= 0 else 0.5
    b, fb, side = 0.5, -q, 0
    for _ in range(_ROOT_MAX_ITER):
        if not (fa > 0 > fb and b - a > _ROOT_TOL):
            break
        theta = 0.5 * (a + b) if math.isinf(fa) else (a * fb - b * fa) / (fb - fa)
        f = log_ratio(theta) - q
        if math.isnan(f):
            return None
        if abs(f) <= _ROOT_TOL:
            break
        if f > 0:
            a, fa = theta, f
            if side > 0:
                fb *= 0.5
            side = 1
        else:
            b, fb = theta, f
            if side < 0 and not math.isinf(fa):
                fa *= 0.5
            side = -1
    return theta if p >= 1.0 else 1.0 - theta


def estimate_from_ratio(spec: PipelineSpec, rp: RatioPoint) -> ThetaEstimate:
    """Full localisation outcome (verdict plus theta and ell2) of one ratio.

    rp.t is the fixation instant, measured from the event onset.  The
    verdict comes from the band rule; theta from the root of the model's
    series ratio (see ThetaEstimate).  Should the series resolve no ratio at
    rp.t, theta falls back to the clamped closed form.
    """
    verdict, tv = _judge(spec, rp)
    if tv is None:
        return ThetaEstimate(theta=None, ell2_est=None, verdict=verdict, ratio=rp)
    theta = _series_theta(spec, rp.p, rp.t)
    if theta is None:
        theta = min(1.0, max(0.0, tv.theta))
    root = 0.0 < theta < 1.0 and verdict is not Verdict.TECHNOLOGICAL
    if verdict is Verdict.ACCIDENT:
        theta = min(1.0 - _THETA_EDGE, max(_THETA_EDGE, theta))
    return ThetaEstimate(theta=theta, ell2_est=theta * spec.length, verdict=verdict,
                         theta_raw=theta if root else tv.theta, ratio=rp)


def estimate_position(spec: PipelineSpec, traj: PressureTrajectory, t_fix: float,
                      eps_meas: float = DEFAULT_EPS_MEAS) -> ThetaEstimate:
    """estimate_from_ratio of the trajectory's drop ratio at t_fix."""
    return estimate_from_ratio(spec, pressure_ratio(traj, t_fix, eps_meas))


def min_information_latency(spec: PipelineSpec) -> float:
    """Sound travel time L/c: no end-to-end information arrives faster."""
    return spec.length / spec.sound_speed


def fixation_time(spec: PipelineSpec, sampling_step: float) -> float:
    """Grid rule: first sampling instant strictly after the travel time."""
    if sampling_step <= 0:
        raise ValueError("sampling_step must be > 0")
    latency = min_information_latency(spec)
    k = math.floor(latency / sampling_step) + 1
    return k * sampling_step


class EmpiricalFixation:
    """Streaming empirical rule, fed one sample's (tau, p) at a time.

    A defined point is fixed once a sample at or after t + window has
    arrived, provided at least one defined point lies in (t, t + window] and
    none of those exceeds its |p - 1|.  The earliest such point wins.  Only
    candidates that can still be fixed are kept; each lies in the window of
    the one before it with no larger |p - 1|, so a push costs amortised O(1).
    Every candidate but the newest has had a defined point in its window.
    """

    def __init__(self, window: float):
        self.window = window
        self._open: deque[tuple[float, float, float]] = deque()  # (t, p, |p - 1|)

    def push(self, t: float, p: float | None) -> tuple[float, float] | None:
        """Feed the next sample (times strictly increasing) with its ratio,
        None when undefined; returns the (t, p) fixed by this arrival, if any."""
        open_, window = self._open, self.window
        if p is not None:
            dist = abs(p - 1.0)
            if open_ and t > open_[-1][0] + window:
                open_.pop()  # its window closes with no defined point
            while open_ and open_[-1][2] < dist and t <= open_[-1][0] + window:
                open_.pop()
            open_.append((t, p, dist))
        fixed = None
        while open_ and open_[0][0] + window <= t:
            point = open_.popleft()
            if fixed is None and open_:
                fixed = point[:2]
        return fixed


def fixation_time_empirical(traj: PressureTrajectory,
                            eps_meas: float = DEFAULT_EPS_MEAS) -> float | None:
    """Empirical rule (see EmpiricalFixation) over the whole trajectory.

    The window is the trajectory's median sampling step.  Falls back to the
    last defined sample when no point is fixed, and returns None when the
    ratio is never defined.
    """
    _check_eps(eps_meas)
    window = float(np.median(np.diff(traj.samples[:, 0]))) if len(traj.samples) > 1 else 0.0
    rule = EmpiricalFixation(window)
    p1, p2 = traj.baseline
    last = None
    for t, p_in, p_out in traj.samples.tolist():
        p = defined_ratio(p1 - p_in, p2 - p_out, eps_meas)
        fixed = rule.push(t, p)
        if fixed is not None:
            return fixed[0]
        if p is not None:
            last = t
    return last
