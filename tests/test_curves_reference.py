"""Cross-check of the pure-Python curve fit against numpy's LAPACK solve.

The package itself does not use numpy; these tests skip where it is absent.
"""

import math
import random
from pathlib import Path

import pytest

from chipletbist.curves import CurveFamily, _real_roots, fit_severity_curve, load_samples_csv

np = pytest.importorskip("numpy", exc_type=ImportError)  # absent, or built for another Python

SHIPPED_CSV = Path(__file__).resolve().parents[1] / "configs" / "synthetic_bridge_severity.csv"

FAMILY_DEGREES = [
    (CurveFamily.LOG_LINEAR, 1),
    (CurveFamily.EXPONENTIAL, 1),
    *((CurveFamily.POLYNOMIAL, degree) for degree in range(4)),
]


def lapack_fit(samples, family, degree):
    # The normal-equation fit as numpy computes it: np.linalg.solve (LAPACK).
    x = np.asarray([s[0] for s in samples], dtype=float)
    y = np.asarray([s[1] for s in samples], dtype=float)
    if family is CurveFamily.LOG_LINEAR:
        design, rhs = np.column_stack([np.ones_like(x), np.log(x)]), y
    elif family is CurveFamily.EXPONENTIAL:
        design, rhs = np.column_stack([np.ones_like(x), x]), np.log(y)
    else:
        design, rhs = np.vander(x, degree + 1, increasing=True), y
    coefficients = [float(c) for c in np.linalg.solve(design.T @ design, design.T @ rhs)]
    if family is CurveFamily.EXPONENTIAL:
        coefficients[0] = math.exp(coefficients[0])
    return coefficients


def random_samples(rng, family, degree):
    # Well conditioned: 10-30 stratified points on [-1, 1] (ln x there for
    # log-linear), coefficients of magnitude 1-2 and 1% noise.
    n = rng.randint(10, 30)
    ts = [-1.0 + 2.0 * (i + rng.random()) / n for i in range(n)]
    cs = [rng.uniform(1.0, 2.0) * rng.choice((-1.0, 1.0)) for _ in range(degree + 1)]
    noise = [rng.gauss(0.0, 0.01) for _ in range(n)]
    if family is CurveFamily.LOG_LINEAR:
        return [(math.exp(t), cs[0] + cs[1] * t + e) for t, e in zip(ts, noise)]
    if family is CurveFamily.EXPONENTIAL:
        return [(t, abs(cs[0]) * math.exp(cs[1] * t + e)) for t, e in zip(ts, noise)]
    return [(t, sum(c * t**k for k, c in enumerate(cs)) + e) for t, e in zip(ts, noise)]


@pytest.mark.parametrize("family,degree", FAMILY_DEGREES)
def test_fit_matches_lapack_on_shipped_samples(family, degree):
    samples = load_samples_csv(SHIPPED_CSV)
    got = fit_severity_curve(samples, family, degree).coefficients
    assert list(got) == pytest.approx(lapack_fit(samples, family, degree), rel=1e-12)


@pytest.mark.parametrize("family,degree", FAMILY_DEGREES)
def test_fit_matches_lapack_on_random_samples(family, degree):
    rng = random.Random(f"{family.value}-{degree}")
    for _ in range(50):
        samples = random_samples(rng, family, degree)
        got = fit_severity_curve(samples, family, degree).coefficients
        assert list(got) == pytest.approx(lapack_fit(samples, family, degree), rel=1e-12)


def numpy_real_roots(ascending):
    # np.roots takes descending coefficients and strips leading zeros.
    return sorted(r.real for r in np.roots(ascending[::-1]) if abs(r.imag) < 1e-9)


@pytest.mark.parametrize(
    "ascending",
    [
        [-6.0, 3.0, 0.0],  # zero leading coefficient: linear, root 2
        [1.0, -2.0, 1.0],  # double root at 1
        [0.0, -3.0, 1.0],  # roots 0 and 3
        [0.0, 0.0, 3.0],  # double root at 0
        [1.0, 0.0, 1.0],  # no real root
        [5.0, 0.0, 0.0],  # constant
    ],
)
def test_real_roots_special_cases_match_numpy(ascending):
    assert sorted(_real_roots(ascending)) == pytest.approx(numpy_real_roots(ascending), abs=1e-15)


def test_real_roots_match_numpy_on_random_derivatives():
    rng = random.Random(2026)
    for _ in range(5000):
        ascending = [rng.uniform(-10.0, 10.0) for _ in range(rng.choice((2, 3)))]
        want = numpy_real_roots(ascending)
        got = sorted(_real_roots(ascending))
        assert len(got) == len(want), ascending
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-12), ascending
