"""Finite-window density estimation on geometric window schedules.

Asymptotic density is a limit; the toolkit observes it through exact
counts at a strictly increasing sequence of windows N_j = ceil(N0 * r^j)
and reports the last-window value together with an oscillation statistic
over the final three windows.  "Converged" here means the oscillation
fell below the tolerance on this schedule.  That is a finite heuristic:
a set can oscillate at scales beyond the largest window, so a converged
status is evidence, not proof, and reports always carry the schedule.
``estimate_density`` counts one set in the calling process; to count
many sets in one sweep, or to split it across processes, call
``window_counts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import Optional, Sequence, Union

from .sets import SetBase, window_counts

Rational = Union[Fraction, int, str, float]


def as_fraction(x: Rational) -> Fraction:
    """Exact rational from int/str/Fraction; floats go through repr so
    that a literal like 0.3 means 3/10, not its binary approximation."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(repr(x))
    return Fraction(x)


def _ceil(x: Fraction) -> int:
    return -(-x.numerator // x.denominator)


@dataclass(frozen=True)
class WindowSchedule:
    """Geometric window schedule.

    Without an end anchor the windows are N_j = ceil(start * ratio**j)
    for j = 0..count-1.  With ``end`` set the windows run up to it
    exactly: N_j = ceil(end / ratio**(count-1-j)); this is how a
    command-line prefix override pins the largest window.
    """

    start: int = 10_000
    ratio: Fraction = Fraction(2)
    count: int = 10
    end: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratio", as_fraction(self.ratio))
        if self.start < 1:
            raise ValueError("schedule start must be >= 1")
        if self.ratio <= 1:
            raise ValueError("schedule ratio must be > 1")
        if self.count < 3:
            raise ValueError("schedule needs at least 3 windows")
        if self.end is not None and self.end < 1:
            raise ValueError("schedule end must be >= 1")
        # unrounded windows grow by at least 1 from the smallest on, which
        # proves strict increase without computing them; else check them
        low = self.start if self.end is None else self.end / self.ratio ** (self.count - 1)
        if low * (self.ratio - 1) < 1:
            ws = self.windows()
            if any(b <= a for a, b in zip(ws, ws[1:])):
                raise ValueError("schedule windows must be strictly increasing")

    def windows(self) -> tuple[int, ...]:
        return self._windows

    @cached_property
    def _windows(self) -> tuple[int, ...]:
        if self.end is not None:
            return tuple(
                _ceil(Fraction(self.end) / self.ratio ** (self.count - 1 - j))
                for j in range(self.count)
            )
        return tuple(
            _ceil(Fraction(self.start) * self.ratio ** j) for j in range(self.count)
        )

    @property
    def n_max(self) -> int:
        """The largest window, without computing the others."""
        if self.end is not None:
            return self.end
        return _ceil(self.start * self.ratio ** (self.count - 1))

    def retarget(self, n_max: int) -> "WindowSchedule":
        """Same ratio, final window pinned to exactly n_max.

        The window count shrinks if n_max is too small to keep the
        windows strictly increasing.  The windows of count c - 1 are the
        last c - 1 of count c, so the largest count that works is found
        by one walk down from n_max, which stops where two windows meet:
        after about log_ratio(n_max) windows, whatever the count.
        """
        count, top, x = 1, n_max, Fraction(n_max)
        while count < self.count:
            x /= self.ratio
            below = _ceil(x)
            if below >= top:
                break
            count, top = count + 1, below
        if count < 3:
            raise ValueError(f"cannot fit a 3-window schedule below {n_max}")
        return WindowSchedule(self.start, self.ratio, count, end=n_max)


DEFAULT_SCHEDULE = WindowSchedule()
DEFAULT_TOL = Fraction(5, 1000)

TAIL_WINDOWS = 3


def tail_check(
    values: Sequence[Fraction], expected: Fraction, tol: Fraction
) -> tuple[Fraction, Fraction, bool]:
    """The windowed-ratio statistic: the deviation of the last value from
    expected, the max-min spread of the last TAIL_WINDOWS values, and
    whether both are at most tol."""
    tail = values[-TAIL_WINDOWS:]
    dev = abs(values[-1] - expected)
    spread = max(tail) - min(tail)
    return dev, spread, dev <= tol and spread <= tol


def default_tolerance(n_max: int, randomized: bool) -> Fraction:
    """Default verification tolerance.

    Randomized constructions get max(5e-3, 4/sqrt(N_max)) to absorb
    sampling noise; equidistribution-based ones get the plain 5e-3.
    The square root is the integer square root, which is exact for the
    perfect-square window sizes used throughout and conservative else.
    """
    if not randomized:
        return DEFAULT_TOL
    return max(DEFAULT_TOL, Fraction(4, isqrt(n_max)))


@dataclass(frozen=True)
class DensityEstimate:
    """Exact window counts and the derived finite-window density data."""

    windows: tuple[int, ...]
    counts: tuple[int, ...]
    densities: tuple[Fraction, ...]
    value: Fraction
    oscillation: Fraction
    tol: Fraction
    status: str  # "converged" | "oscillating"

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @classmethod
    def of(
        cls, windows: Sequence[int], counts: Sequence[int], tol: Rational
    ) -> "DensityEstimate":
        """The estimate from exact counts at the windows: the density at the
        largest window, "converged" iff the max-min spread over the last
        three windows is at most tol."""
        tol = as_fraction(tol)
        densities = tuple(Fraction(c, n) for c, n in zip(counts, windows))
        _, osc, ok = tail_check(densities, densities[-1], tol)
        return cls(
            windows=tuple(windows),
            counts=tuple(counts),
            densities=densities,
            value=densities[-1],
            oscillation=osc,
            tol=tol,
            status="converged" if ok else "oscillating",
        )


def estimate_density(
    s: SetBase,
    schedule: WindowSchedule = DEFAULT_SCHEDULE,
    tol: Rational = DEFAULT_TOL,
) -> DensityEstimate:
    """Estimate the density of S over the schedule (see DensityEstimate.of)."""
    windows = schedule.windows()
    return DensityEstimate.of(windows, window_counts([s], windows)[0], tol)
