import math

import numpy as np
import pytest

from indexlab import (
    DomainError,
    PValue,
    chi2_tail_p,
    f_tail_p,
    normal_cdf,
    normal_quantile,
    regularized_beta,
    regularized_gamma_q,
    t_two_tailed_p,
)

# frozen reference values, checked against an independent implementation


def test_normal_cdf_reference():
    assert normal_cdf(0.0) == 0.5
    assert abs(normal_cdf(1.959964) - 0.9750000009035577) < 1e-12
    assert abs(normal_cdf(-1.959964) - (1.0 - 0.9750000009035577)) < 1e-12


def test_normal_quantile_reference():
    assert abs(normal_quantile(0.975) - 1.959963984540054) < 1e-9
    assert abs(normal_quantile(0.5)) < 1e-15
    assert abs(normal_quantile(0.025) + 1.959963984540054) < 1e-9


def test_normal_quantile_round_trip():
    for i in range(-30, 31):
        x = i / 10.0
        assert abs(normal_quantile(normal_cdf(x)) - x) < 1e-9


def test_normal_quantile_domain():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            normal_quantile(bad)


def test_t_two_tailed_reference():
    p = t_two_tailed_p(2.043924345261317, 27)
    assert abs(p.value - 0.05082799054285842) < 1e-12
    p = t_two_tailed_p(5.710628644423695, 27)
    assert abs(p.value - 4.550161577616684e-06) < 1e-16
    assert t_two_tailed_p(0.0, 10).value == 1.0
    assert t_two_tailed_p(math.inf, 10).value == 0.0
    assert chi2_tail_p(math.inf, 4).value == 0.0
    assert f_tail_p(math.inf, 2, 10).value == 0.0
    assert regularized_gamma_q(2.0, math.inf) == 0.0
    assert t_two_tailed_p(-3.0, 12).value == t_two_tailed_p(3.0, 12).value


def test_t_domain():
    with pytest.raises(DomainError):
        t_two_tailed_p(1.0, 0)


def test_f_matches_t_squared():
    t = 5.710628644423695
    f = f_tail_p(t * t, 1, 27)
    p = t_two_tailed_p(t, 27)
    assert abs(f.value - p.value) < 1e-15
    assert f_tail_p(0.0, 3, 10).value == 1.0


def test_chi2_reference():
    p = chi2_tail_p(85.28851635900286, 10)
    assert abs(p.value - 4.578674583651381e-14) < 1e-22
    assert chi2_tail_p(0.0, 5).value == 1.0
    # median of chi-square with 2 df is 2 ln 2
    assert abs(chi2_tail_p(2.0 * math.log(2.0), 2).value - 0.5) < 1e-12


def test_chi2_matches_gamma():
    assert chi2_tail_p(7.3, 4).value == regularized_gamma_q(2.0, 3.65)


def test_regularized_beta_symmetry():
    for x, a, b in ((0.3, 2.0, 5.0), (0.71, 0.5, 0.5), (0.05, 4.0, 1.5)):
        total = regularized_beta(x, a, b) + regularized_beta(1.0 - x, b, a)
        assert abs(total - 1.0) < 1e-12
    assert regularized_beta(0.0, 2.0, 3.0) == 0.0
    assert regularized_beta(1.0, 2.0, 3.0) == 1.0


def test_regularized_beta_uniform_case():
    # a = b = 1 is the uniform distribution: I_x(1,1) = x
    for x in (0.1, 0.25, 0.5, 0.9):
        assert abs(regularized_beta(x, 1.0, 1.0) - x) < 1e-14


def test_pvalue_contract():
    p = PValue(0.05)
    assert float(p) == 0.05
    with pytest.raises(DomainError):
        PValue(1.5)
    with pytest.raises(DomainError):
        PValue(-0.1)


def test_regularized_gamma_q_matches_scipy_near_the_mean():
    """Q(a, x) on x = a + k sqrt(a), |k| <= 6, for shapes 0.5 to 1e4, within
    1e-11 of scipy; the shapes from about 2,000 up used to raise DomainError."""
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(2024)
    shapes = np.concatenate([[0.5, 2000.0, 3000.0, 1e4],
                             10.0 ** rng.uniform(math.log10(0.5), 4.0, 80)])
    for a in shapes.tolist():
        for k in range(-6, 7):
            x = a + k * math.sqrt(a)
            if x >= 0.0:
                assert abs(regularized_gamma_q(a, x) - special.gammaincc(a, x)) < 1e-11, (a, x)
    # the continued fraction's failure in the upper tail at a = 1e5
    assert abs(regularized_gamma_q(1e5, 1e5 + 79.0) - special.gammaincc(1e5, 1e5 + 79.0)) < 1e-11
    # Bartlett's test with about 100 variables has df near 5,000
    for x in (4700.0, 4970.0, 5000.0, 5300.0):
        assert abs(chi2_tail_p(x, 5000).value - special.chdtrc(5000, x)) < 1e-11, x


def test_regularized_gamma_q_matches_mpmath_at_large_shape():
    """Q(a, x) on x = a + k sqrt(a), |k| <= 6, at a = 1e6 and 1e7 (a
    chi-square test with 2e7 degrees of freedom), within 5e-12 of mpmath at
    30 digits; scipy's gammaincc is off by about 1e-7 at a = 1e7."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for a in (1e6, 1e7):
            for k in range(-6, 7):
                x = a + k * math.sqrt(a)
                expected = float(mpmath.gammainc(a, x, regularized=True))
                assert abs(regularized_gamma_q(a, x) - expected) < 5e-12, (a, x)


def test_regularized_gamma_q_below_shape_100_unchanged():
    # T6's Bartlett test (df 10, a = 5) and other shapes below the Stirling
    # prefactor's threshold, bit for bit as before the large-shape fix
    assert chi2_tail_p(85.28851635900286, 10).value == 4.578674583651381e-14
    pinned = {(5.0, 4.0): 0.6288369351798733, (5.0, 42.64): 4.59642167374095e-14,
              (37.5, 30.0): 0.8965347948021312, (99.5, 120.0): 0.024895856450503396}
    for (a, x), q in pinned.items():
        assert regularized_gamma_q(a, x) == q, (a, x)


def test_regularized_beta_matches_scipy():
    """I_x(a, b) at 3,000 seeded points, a and b log-uniform in [0.1, 1e4]
    and x uniform in (0, 1), within 1e-11 of scipy (at most 3.9e-14 seen)."""
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(2025)
    a = 10.0 ** rng.uniform(-1.0, 4.0, 3000)
    b = 10.0 ** rng.uniform(-1.0, 4.0, 3000)
    x = rng.uniform(0.0, 1.0, 3000)
    for ai, bi, xi in zip(a.tolist(), b.tolist(), x.tolist()):
        assert abs(regularized_beta(xi, ai, bi) - special.betainc(ai, bi, xi)) < 1e-11, (xi, ai, bi)


def test_regularized_beta_matches_scipy_near_the_mean():
    """I_x(a, b) at x = mean + k sd, k in {0, +-1.5, +-3}, for 3,000 seeded
    (a, b) log-uniform in [0.1, 1e4], within 1e-11 of scipy. The prefactor
    lgamma(a + b) - lgamma(a) - lgamma(b) + a log x + b log(1 - x) missed by
    up to 2.2e-11 here with a or b in the thousands; 1.1e-13 is the largest
    miss seen since."""
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(2027)
    a = 10.0 ** rng.uniform(-1.0, 4.0, 3000)
    b = 10.0 ** rng.uniform(-1.0, 4.0, 3000)
    for ai, bi in zip(a.tolist(), b.tolist()):
        s = ai + bi
        mean, sd = ai / s, math.sqrt(ai * bi / (s * s * (s + 1.0)))
        for k in (0.0, -1.5, 1.5, -3.0, 3.0):
            x = mean + k * sd
            if 0.0 < x < 1.0:
                expected = special.betainc(ai, bi, x)
                assert abs(regularized_beta(x, ai, bi) - expected) < 1e-11, (x, ai, bi)


def test_normal_quantile_matches_scipy():
    """Within 4e-15 relative of ndtri: lower tails down to 1e-300, upper
    tails down to 1 - p = 1e-15 (at most 6.6e-16 seen)."""
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(2025)
    lower = 10.0 ** -rng.uniform(0.0, 300.0, 1000)
    upper = 1.0 - 10.0 ** -rng.uniform(0.0, 15.0, 1000)
    for p in np.concatenate([lower, upper, rng.uniform(0.0, 1.0, 1000)]).tolist():
        if 0.0 < p < 1.0:
            expected = special.ndtri(p)
            assert abs(normal_quantile(p) - expected) <= 4e-15 * max(abs(expected), 1e-3), p


def test_normal_quantile_is_antisymmetric():
    """normal_quantile(1 - p) == -normal_quantile(p) to the last bit on dyadic
    p = k / 2^20, for which 1 - p is exact, from the far tail to the centre."""
    for k in range(1, 2**20, 97):
        p = k / 2.0**20
        assert normal_quantile(1.0 - p) == -normal_quantile(p), p


def test_t_and_f_tails_match_scipy():
    """Within 1e-9 relative of stats.t.sf and stats.f.sf over df from 1 to
    1e4, above the subnormal range (1e-300). The largest misses seen,
    2.7e-10 for t (df above 2,000, p near 1) and 8.8e-11 for F, are scipy's:
    at those points mpmath puts these within 1e-14 (t) and 1.3e-12 relative
    (F)."""
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(2026)
    df = 10.0 ** rng.uniform(0.0, 4.0, 2000)
    t = 10.0 ** rng.uniform(-3.0, 2.0, 2000) * rng.choice([-1.0, 1.0], 2000)
    for d, x in zip(df.tolist(), t.tolist()):
        expected = 2.0 * stats.t.sf(abs(x), d)
        assert abs(t_two_tailed_p(x, d).value - expected) <= 1e-9 * expected + 1e-300, (x, d)
    df1 = 10.0 ** rng.uniform(0.0, 4.0, 2000)
    df2 = 10.0 ** rng.uniform(0.0, 4.0, 2000)
    f = 10.0 ** rng.uniform(-3.0, 3.0, 2000)
    for d1, d2, x in zip(df1.tolist(), df2.tolist(), f.tolist()):
        expected = stats.f.sf(x, d1, d2)
        assert abs(f_tail_p(x, d1, d2).value - expected) <= 1e-9 * expected + 1e-300, (x, d1, d2)
