"""Severity curves: fitted maps between defect geometry and fault magnitude.

Three families cover the shapes seen in extracted defect parasitics:
log-linear y = a + b*ln(x), exponential y = a*e^(b*x), and polynomials up to
degree 3.  Fitting is least squares throughout: the two transcendental
families via linearization, polynomials via the normal equations solved with
LU elimination with partial pivoting.  Monotone curves invert by bisection,
which turns magnitude bounds into defect-geometry bounds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import FitError, InversionError, ParameterError

if TYPE_CHECKING:
    import numpy as np

MAX_POLYNOMIAL_DEGREE = 3
BISECTION_MAX_ITERATIONS = 200
BISECTION_SPAN_TOLERANCE = 1e-12  # times the domain span


class CurveFamily(Enum):
    LOG_LINEAR = "log-linear"
    EXPONENTIAL = "exponential"
    POLYNOMIAL = "polynomial"


@dataclass(frozen=True)
class SeverityCurve:
    """A fitted curve, valid only on its domain [x_min, x_max].

    Polynomial coefficients are ascending (c0 + c1*x + c2*x^2 + ...);
    log-linear and exponential curves carry (a, b).
    """

    family: CurveFamily
    coefficients: tuple[float, ...]
    x_min: float
    x_max: float

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise ParameterError(
                f"curve domain is empty: [{self.x_min}, {self.x_max}]"
            )
        n = len(self.coefficients)
        if self.family in (CurveFamily.LOG_LINEAR, CurveFamily.EXPONENTIAL) and n != 2:
            raise ParameterError(f"{self.family.value} takes exactly 2 coefficients, got {n}")
        if self.family is CurveFamily.POLYNOMIAL and not 1 <= n <= MAX_POLYNOMIAL_DEGREE + 1:
            raise ParameterError(f"polynomial degree is capped at {MAX_POLYNOMIAL_DEGREE}")
        if self.family is CurveFamily.EXPONENTIAL and self.coefficients[0] == 0:
            raise ParameterError("exponential curve needs a != 0")
        if self.family is CurveFamily.LOG_LINEAR and not self.x_min > 0:
            raise ParameterError("log-linear domain must be strictly positive")


def _solve_normal_equations(design: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # LU with partial pivoting via LAPACK; singular designs raise.
    import numpy as np

    gram = design.T @ design
    try:
        coefficients = np.linalg.solve(gram, design.T @ rhs)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"degenerate samples: normal equations are singular ({exc})") from exc
    if not np.all(np.isfinite(coefficients)):
        raise FitError("degenerate samples: fit produced non-finite coefficients")
    return coefficients


def fit_severity_curve(
    samples: Sequence[tuple[float, float]],
    family: CurveFamily,
    degree: int = MAX_POLYNOMIAL_DEGREE,
) -> SeverityCurve:
    """Least-squares fit of one curve family to (x, y) samples.

    Requires at least as many samples as coefficients, x > 0 for the
    log-linear family, and y > 0 for the exponential family (both are fitted
    through their linearizations).  The fitted domain is [min x, max x].
    """
    if family is CurveFamily.POLYNOMIAL and not 0 <= degree <= MAX_POLYNOMIAL_DEGREE:
        raise ParameterError(f"polynomial degree must be 0..{MAX_POLYNOMIAL_DEGREE}, got {degree}")
    n_coefficients = degree + 1 if family is CurveFamily.POLYNOMIAL else 2
    if len(samples) < n_coefficients:
        raise FitError(
            f"{family.value} fit needs >= {n_coefficients} samples, got {len(samples)}"
        )
    import numpy as np

    x = np.asarray([s[0] for s in samples], dtype=float)
    y = np.asarray([s[1] for s in samples], dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise FitError("samples contain non-finite values")
    x_min, x_max = float(x.min()), float(x.max())
    if x_min == x_max:
        raise FitError("all sample x values are identical; domain would be empty")

    if family is CurveFamily.LOG_LINEAR:
        if not np.all(x > 0):
            raise FitError("log-linear fit needs x > 0")
        design = np.column_stack([np.ones_like(x), np.log(x)])
        a, b = _solve_normal_equations(design, y)
        coefficients = (float(a), float(b))
    elif family is CurveFamily.EXPONENTIAL:
        if not np.all(y > 0):
            raise FitError("exponential fit needs y > 0")
        design = np.column_stack([np.ones_like(x), x])
        log_a, b = _solve_normal_equations(design, np.log(y))
        coefficients = (float(math.exp(log_a)), float(b))
    else:
        design = np.vander(x, n_coefficients, increasing=True)
        coefficients = tuple(float(c) for c in _solve_normal_equations(design, y))

    return SeverityCurve(family, coefficients, x_min, x_max)


def _eval_unchecked(curve: SeverityCurve, x: float) -> float:
    if curve.family is CurveFamily.LOG_LINEAR:
        a, b = curve.coefficients
        return a + b * math.log(x)
    if curve.family is CurveFamily.EXPONENTIAL:
        a, b = curve.coefficients
        return a * math.exp(b * x)
    total = 0.0
    for c in reversed(curve.coefficients):
        total = total * x + c
    return total


def eval_severity(curve: SeverityCurve, x: float) -> float:
    """Evaluate the curve; x must lie inside the fitted domain."""
    if not curve.x_min <= x <= curve.x_max:
        raise ParameterError(
            f"x = {x} outside the curve domain [{curve.x_min}, {curve.x_max}]"
        )
    return _eval_unchecked(curve, x)


def _polynomial_is_monotone(curve: SeverityCurve) -> bool:
    derivative = [k * c for k, c in enumerate(curve.coefficients)][1:]
    if not any(derivative):
        return False  # constant
    breakpoints = {curve.x_min, curve.x_max}
    if len(derivative) > 1:
        import numpy as np

        for root in np.roots(list(reversed(derivative))):
            if abs(root.imag) < 1e-9 and curve.x_min < root.real < curve.x_max:
                breakpoints.add(float(root.real))
    points = sorted(breakpoints)
    # Zero-width slivers around (near-)double derivative roots carry no sign.
    sliver = 1e-12 * (curve.x_max - curve.x_min)
    signs = set()
    for lo, hi in zip(points, points[1:]):
        if hi - lo <= sliver:
            continue
        mid = 0.5 * (lo + hi)
        value = 0.0
        for c in reversed(derivative):
            value = value * mid + c
        signs.add(math.copysign(1.0, value) if value != 0 else 0.0)
    return len(signs) == 1 and 0.0 not in signs


def is_strictly_monotone(curve: SeverityCurve) -> bool:
    """Whether the curve is strictly monotone over its whole domain."""
    if curve.family in (CurveFamily.LOG_LINEAR, CurveFamily.EXPONENTIAL):
        return curve.coefficients[1] != 0
    return _polynomial_is_monotone(curve)


def invert_severity(curve: SeverityCurve, y: float) -> float:
    """Find x in the domain with eval(x) = y, by bisection.

    The curve must be strictly monotone and y must lie within the curve's
    range over its domain.  The 200-iteration cap converges well past the
    guaranteed absolute x tolerance of 1e-12 * (x_max - x_min), down to
    floating-point resolution, so eval(invert(y)) reproduces y to fine
    relative precision.
    """
    if not is_strictly_monotone(curve):
        raise InversionError(f"{curve.family.value} curve is not strictly monotone")
    f_lo = _eval_unchecked(curve, curve.x_min)
    f_hi = _eval_unchecked(curve, curve.x_max)
    increasing = f_hi > f_lo
    y_lo, y_hi = (f_lo, f_hi) if increasing else (f_hi, f_lo)
    if not y_lo <= y <= y_hi:
        raise InversionError(
            f"y = {y} outside the curve range [{y_lo}, {y_hi}] over its domain"
        )
    lo, hi = curve.x_min, curve.x_max
    for _ in range(BISECTION_MAX_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (_eval_unchecked(curve, mid) < y) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def load_samples_csv(path: str | Path) -> list[tuple[float, float]]:
    """Read (x, y) samples from a CSV file with the exact header ``x,y``."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise ParameterError(f"{path}: empty samples file") from None
            if [h.strip() for h in header] != ["x", "y"]:
                raise ParameterError(f"{path}: expected header 'x,y', got {','.join(header)!r}")
            samples = []
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise ParameterError(f"{path}:{line_no}: expected two columns, got {len(row)}")
                try:
                    samples.append((float(row[0]), float(row[1])))
                except ValueError as exc:
                    raise ParameterError(f"{path}:{line_no}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return samples
