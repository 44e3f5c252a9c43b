"""Severity curves: fitted maps between defect geometry and fault magnitude.

Three families cover the shapes seen in extracted defect parasitics:
log-linear y = a + b*ln(x), exponential y = a*e^(b*x), and polynomials up to
degree 3.  Every family is fitted as one least-squares polynomial in a
transformed variable: log-linear is degree 1 in ln x, exponential is degree 1
in x fitted against ln y, and a polynomial is degree d in x.  The normal
equations are summed with ``math.fsum`` and solved by LU elimination with
partial pivoting, in plain Python.  Monotone curves invert by bisection,
which turns magnitude bounds into defect-geometry bounds.  ``CurveFamily``
and ``MAX_POLYNOMIAL_DEGREE`` are defined in the shared vocabulary module
``chipletbist.kinds``.
"""

from __future__ import annotations

import csv
import math
import operator
from pathlib import Path
from typing import Sequence

from .errors import FitError, InversionError, ParameterError
from .kinds import MAX_POLYNOMIAL_DEGREE, CurveFamily
from .record import Record

BISECTION_MAX_ITERATIONS = 200

_NON_FINITE = "degenerate samples: fit produced non-finite coefficients"
_SINGULAR = "degenerate samples: normal equations are singular (Singular matrix)"


class SeverityCurve(Record):
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


def _lu_solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    # LU elimination with partial pivoting on the augmented matrix, then back
    # substitution; an exactly zero pivot means the matrix is singular.
    n = len(rhs)
    rows = [row + [b] for row, b in zip(matrix, rhs)]
    for k in range(n):
        pivot = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if rows[pivot][k] == 0:
            raise FitError(_SINGULAR)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for row in rows[k + 1:]:
            factor = row[k] / rows[k][k]
            for j in range(k, n + 1):
                row[j] -= factor * rows[k][j]
    # An explicit loop, not sum(): sum() of floats is compensated from 3.12 on.
    solution = [0.0] * n
    for k in reversed(range(n)):
        value = rows[k][n]
        for j in range(k + 1, n):
            value -= rows[k][j] * solution[j]
        solution[k] = value / rows[k][k]
    return solution


def _least_squares_polynomial(
    t: Sequence[float], z: Sequence[float], n_coefficients: int
) -> list[float]:
    """Ascending coefficients c minimizing sum (z - sum_k c_k t^k)^2.

    The columns 1, t, t^2, ... are built by repeated multiplication and every
    normal-equation entry is a ``math.fsum`` (exactly rounded), so the fit
    uses only IEEE-754 basic operations and gives the same bits everywhere.
    Fewer distinct t values than coefficients make the normal equations
    singular in exact arithmetic, so that is rejected up front rather than
    left to rounding.
    """
    if len(set(t)) < n_coefficients:
        raise FitError(_SINGULAR)
    columns = [[1.0] * len(t)]
    for _ in range(1, n_coefficients):
        columns.append([p * v for p, v in zip(columns[-1], t)])
    try:
        gram = [[math.fsum(map(operator.mul, a, b)) for b in columns] for a in columns]
        moments = [math.fsum(map(operator.mul, a, z)) for a in columns]
    except (OverflowError, ValueError):  # fsum overflowed, or met inf - inf
        raise FitError(_NON_FINITE) from None
    if not all(map(math.isfinite, moments + [g for row in gram for g in row])):
        raise FitError(_NON_FINITE)
    coefficients = _lu_solve(gram, moments)
    if not all(map(math.isfinite, coefficients)):
        raise FitError(_NON_FINITE)
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
    x = [float(s[0]) for s in samples]
    y = [float(s[1]) for s in samples]
    if not all(map(math.isfinite, x + y)):
        raise FitError("samples contain non-finite values")
    x_min, x_max = min(x), max(x)
    if x_min == x_max:
        raise FitError("all sample x values are identical; domain would be empty")

    if family is CurveFamily.LOG_LINEAR:
        if not x_min > 0:
            raise FitError("log-linear fit needs x > 0")
        coefficients = _least_squares_polynomial([math.log(v) for v in x], y, 2)
    elif family is CurveFamily.EXPONENTIAL:
        if not min(y) > 0:
            raise FitError("exponential fit needs y > 0")
        log_a, b = _least_squares_polynomial(x, [math.log(v) for v in y], 2)
        try:
            coefficients = [math.exp(log_a), b]
        except OverflowError:
            raise FitError(_NON_FINITE) from None
    else:
        coefficients = _least_squares_polynomial(x, y, n_coefficients)

    return SeverityCurve(family, tuple(coefficients), x_min, x_max)


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


def _real_roots(coefficients: Sequence[float]) -> list[float]:
    """Real roots of c0 + c1*t + c2*t^2 (ascending, at most three coefficients).

    Closed form with the stable quadratic formula: q = -(c1 + sign(c1)*sqrt(D))/2
    gives the roots q/c2 and c0/q without cancellation.  A zero leading
    coefficient lowers the degree; a double root is listed twice.
    """
    scale = max(map(abs, coefficients), default=0.0)
    if scale == 0:
        return []
    c0, c1, c2 = [c / scale for c in coefficients] + [0.0] * (3 - len(coefficients))
    if c2 == 0:
        return [-c0 / c1] if c1 != 0 else []
    discriminant = c1 * c1 - 4.0 * c2 * c0
    if discriminant < 0:
        return []
    q = -0.5 * (c1 + math.copysign(math.sqrt(discriminant), c1))
    if q == 0:
        return [0.0, 0.0]
    return [q / c2, c0 / q]


def _polynomial_is_monotone(curve: SeverityCurve) -> bool:
    derivative = [k * c for k, c in enumerate(curve.coefficients)][1:]
    if not any(derivative):
        return False  # constant
    breakpoints = {curve.x_min, curve.x_max}
    breakpoints.update(r for r in _real_roots(derivative) if curve.x_min < r < curve.x_max)
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
    except csv.Error as exc:  # a field over csv.field_size_limit(), in the header or a row
        raise ParameterError(f"{path}:{reader.line_num}: {exc}") from None
    return samples
