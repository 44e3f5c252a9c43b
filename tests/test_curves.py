"""Tests for severity-curve fitting, evaluation, and inversion."""

import math
import random

import pytest

from chipletbist.curves import (
    CurveFamily,
    SeverityCurve,
    eval_severity,
    fit_severity_curve,
    invert_severity,
    is_strictly_monotone,
    load_samples_csv,
)
from chipletbist.errors import FitError, InversionError, ParameterError


def residual_sum_of_squares(curve, samples):
    return sum((eval_severity(curve, x) - y) ** 2 for x, y in samples)


def test_log_linear_exact_recovery():
    samples = [(x, 2.0 + 3.0 * math.log(x)) for x in (1.0, math.e, math.e**2)]
    curve = fit_severity_curve(samples, CurveFamily.LOG_LINEAR)
    a, b = curve.coefficients
    assert a == pytest.approx(2.0, abs=1e-12)
    assert b == pytest.approx(3.0, abs=1e-12)
    assert (curve.x_min, curve.x_max) == (1.0, math.e**2)
    assert residual_sum_of_squares(curve, samples) <= 1e-18


def _linearized_exponential_oracle(samples):
    # Independent closed-form simple regression of ln(y) on x.
    n = len(samples)
    xs = [s[0] for s in samples]
    zs = [math.log(s[1]) for s in samples]
    mx = sum(xs) / n
    mz = sum(zs) / n
    slope = sum((x - mx) * (z - mz) for x, z in zip(xs, zs)) / sum((x - mx) ** 2 for x in xs)
    return math.exp(mz - slope * mx), slope


def test_exponential_recovery_matches_independent_oracle():
    samples = [(x, 5.0 * math.exp(0.5 * x)) for x in (0.0, 1.0, 2.0, 3.0)]
    curve = fit_severity_curve(samples, CurveFamily.EXPONENTIAL)
    a, b = curve.coefficients
    assert a == pytest.approx(5.0, rel=1e-6)
    assert b == pytest.approx(0.5, rel=1e-6)
    oracle_a, oracle_b = _linearized_exponential_oracle(samples)
    assert a == pytest.approx(oracle_a, rel=1e-9)
    assert b == pytest.approx(oracle_b, rel=1e-9)
    assert residual_sum_of_squares(curve, samples) <= 1e-18


def test_polynomial_exact_recovery():
    coefficients = (1.0, 2.0, -1.0, 0.5)
    samples = [
        (x, sum(c * x**k for k, c in enumerate(coefficients)))
        for x in (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
    ]
    curve = fit_severity_curve(samples, CurveFamily.POLYNOMIAL, degree=3)
    for got, want in zip(curve.coefficients, coefficients):
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)
    assert residual_sum_of_squares(curve, samples) <= 1e-18


def test_underdetermined_polynomial_rejected():
    with pytest.raises(FitError):
        fit_severity_curve([(0.0, 1.0), (1.0, 2.0)], CurveFamily.POLYNOMIAL, degree=3)


def test_polynomial_degree_capped():
    samples = [(float(x), float(x)) for x in range(6)]
    with pytest.raises(ParameterError):
        fit_severity_curve(samples, CurveFamily.POLYNOMIAL, degree=4)


def test_degenerate_samples_rejected():
    with pytest.raises(FitError):
        fit_severity_curve([(2.0, 1.0), (2.0, 3.0)], CurveFamily.LOG_LINEAR)
    with pytest.raises(FitError):
        fit_severity_curve([(-1.0, 1.0), (2.0, 3.0)], CurveFamily.LOG_LINEAR)
    with pytest.raises(FitError):
        fit_severity_curve([(0.0, 1.0), (1.0, -3.0)], CurveFamily.EXPONENTIAL)


@pytest.mark.parametrize("degree", [2, 3])
def test_too_few_distinct_x_values_are_singular(degree):
    # Four samples but only two distinct x: exactly singular normal equations.
    samples = [(1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (2.0, 3.0)]
    with pytest.raises(FitError, match="normal equations are singular"):
        fit_severity_curve(samples, CurveFamily.POLYNOMIAL, degree=degree)


@pytest.mark.parametrize(
    "samples,degree",
    [
        ([(k * 1e154, 1.0) for k in (1.0, 1.1, 1.2, 1.3)], 1),  # finite x^2, sum overflows
        ([(-1e200, 1.0), (1e200, 2.0), (0.0, 3.0), (1.0, 4.0)], 3),  # x^3 sums -inf + inf
    ],
    ids=["sum-overflows", "inf-minus-inf"],
)
def test_overflowing_normal_equations_are_degenerate(samples, degree):
    with pytest.raises(FitError) as excinfo:
        fit_severity_curve(samples, CurveFamily.POLYNOMIAL, degree=degree)
    assert str(excinfo.value) == "degenerate samples: fit produced non-finite coefficients"


def test_eval_enforces_domain():
    curve = SeverityCurve(CurveFamily.LOG_LINEAR, (0.0, 1.0), 0.5, 2.0)
    with pytest.raises(ParameterError):
        eval_severity(curve, 0.4)
    with pytest.raises(ParameterError):
        eval_severity(curve, 2.1)


def test_invert_log_linear_at_zero():
    curve = SeverityCurve(CurveFamily.LOG_LINEAR, (0.0, 1.0), 0.5, 2.0)
    assert invert_severity(curve, 0.0) == pytest.approx(1.0, abs=1e-11)


def test_exponential_eval_matches_direct_formula():
    curve = SeverityCurve(CurveFamily.EXPONENTIAL, (5.0, 0.5), 0.0, 4.0)
    assert eval_severity(curve, 2.0) == pytest.approx(5.0 * math.e, rel=1e-12)
    assert eval_severity(curve, 2.0) == pytest.approx(13.591409142295225)


@pytest.mark.parametrize(
    "curve",
    [
        SeverityCurve(CurveFamily.LOG_LINEAR, (2.0, 3.0), 0.5, 40.0),
        SeverityCurve(CurveFamily.EXPONENTIAL, (5.0, 0.5), 0.0, 6.0),
        SeverityCurve(CurveFamily.EXPONENTIAL, (1000.0, -1.0), 0.1, 5.0),
        SeverityCurve(CurveFamily.POLYNOMIAL, (1.0, 2.0, 0.25, 0.125), 0.0, 3.0),
    ],
)
def test_eval_invert_round_trip(curve):
    rng = random.Random(12345)
    lo = eval_severity(curve, curve.x_min)
    hi = eval_severity(curve, curve.x_max)
    lo, hi = min(lo, hi), max(lo, hi)
    for _ in range(100):
        y = rng.uniform(lo, hi)
        x = invert_severity(curve, y)
        assert curve.x_min <= x <= curve.x_max
        assert eval_severity(curve, x) == pytest.approx(y, rel=1e-9)


def test_worked_bridge_bound_inversion():
    curve = SeverityCurve(CurveFamily.EXPONENTIAL, (1000.0, -1.0), 0.1, 5.0)
    r = invert_severity(curve, 200.0)
    assert r == pytest.approx(math.log(5.0), rel=1e-9)


def test_non_monotone_polynomial_rejected():
    hump = SeverityCurve(CurveFamily.POLYNOMIAL, (0.0, 0.0, 1.0), -1.0, 1.0)  # y = x^2
    assert not is_strictly_monotone(hump)
    with pytest.raises(InversionError):
        invert_severity(hump, 0.5)


def test_cubic_with_flat_point_is_still_monotone():
    cubic = SeverityCurve(CurveFamily.POLYNOMIAL, (0.0, 0.0, 0.0, 1.0), -1.0, 1.0)  # y = x^3
    assert is_strictly_monotone(cubic)
    assert invert_severity(cubic, 0.008) == pytest.approx(0.2, abs=1e-9)


def test_out_of_range_inversion_rejected():
    curve = SeverityCurve(CurveFamily.EXPONENTIAL, (5.0, 0.5), 0.0, 2.0)
    with pytest.raises(InversionError):
        invert_severity(curve, 100.0)


def test_curve_invariants():
    with pytest.raises(ParameterError):
        SeverityCurve(CurveFamily.EXPONENTIAL, (0.0, 1.0), 0.0, 1.0)  # a == 0
    with pytest.raises(ParameterError):
        SeverityCurve(CurveFamily.LOG_LINEAR, (1.0, 1.0), 2.0, 2.0)  # empty domain
    with pytest.raises(ParameterError):
        SeverityCurve(CurveFamily.LOG_LINEAR, (1.0, 1.0), -1.0, 2.0)  # ln needs x > 0
    with pytest.raises(ParameterError):
        SeverityCurve(CurveFamily.POLYNOMIAL, (1.0,) * 5, 0.0, 1.0)  # degree 4


def test_csv_loader(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("x,y\n1.0,2.5\n2.0,3.5\n", encoding="utf-8")
    assert load_samples_csv(path) == [(1.0, 2.5), (2.0, 3.5)]


def test_csv_loader_rejects_bad_header(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ParameterError):
        load_samples_csv(path)


def test_csv_loader_rejects_bad_rows(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("x,y\n1.0\n", encoding="utf-8")
    with pytest.raises(ParameterError):
        load_samples_csv(path)
    path.write_text("x,y\n1.0,abc\n", encoding="utf-8")
    with pytest.raises(ParameterError):
        load_samples_csv(path)
