"""States, estimator maps, image probabilities and stream sampling."""

import math
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy import stats

from semidist.measurement import (
    _SHIFT,
    STREAM_CONTRACT,
    Sample,
    State,
    TwoSampleState,
    _corrected_ss,
    _finite_row,
    _pairwise_sum,
    _Rows,
    _sample_block,
    _scale,
    _std_block,
    _std_normal,
    image_prob_mean,
    image_prob_ss,
    mu_bar,
    normal_prob,
    sample,
    sigma_bar,
    sigma_bar_prime,
    ss_bar,
    stream,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
samples = st.lists(finite_floats, min_size=2, max_size=40)


def _unless_ss_underflows(estimator, values):
    """estimator(values), or None where it is refused because distinct
    values' squared deviations underflow, so SS would read 0 or a
    subnormal that has lost bits."""
    try:
        return estimator(values)
    except ValueError as error:
        assert str(error) == "sum of squared deviations underflows float64"
        assert 0.0 < np.ptp(values) < 1e-150
        return None


def _exact(values):
    """(sum, mean, SS, sum of |x|) of float ``values`` in exact rational
    arithmetic: every float is an integer over a power of two, so over the
    largest of those denominators d they are integers X_i, and
    SS = (n sum X_i^2 - (sum X_i)^2) / (n d^2)."""
    ratios = [float(v).as_integer_ratio() for v in values]
    d = max(q for _, q in ratios)
    ints = [p * (d // q) for p, q in ratios]
    n, total = len(ints), sum(ints)
    ss = Fraction(n * sum(i * i for i in ints) - total * total, n * d * d)
    return Fraction(total, d), Fraction(total, n * d), ss, Fraction(sum(map(abs, ints)), d)


def _ulps(got, want):
    """|got - want| in units in the last place of ``want`` rounded to float."""
    return float(abs(Fraction(got) - want) / Fraction(math.ulp(float(want))))


def _sqrt_ulps(got, q):
    """|got - sqrt(q)| in ulps of sqrt(q), for a positive Fraction q: sqrt(q)
    to 2^-1200, far below the ulp of any float in (1e-160, 1e160)."""
    k = 1200
    return _ulps(got, Fraction(math.isqrt(q.numerator * 4**k // q.denominator), 2**k))


def _gamma(n):
    """gamma(k) = k u / (1 - k u) at k = ceil(log2 n), u = 2^-53: the bound
    on a pairwise sum's relative error in terms of sum |x_i|."""
    k = Fraction(math.ceil(math.log2(n)), 2**53)
    return k / (1 - k)


def _oracle_rows():
    """Seeded rows of n = 2 to 10^4 values at magnitudes 1e-150 to 1e150:
    mixed signs about 0, a positive offset with a relative spread of 1e-1
    to 1e-12, and near-constant rows of c plus 0 to +-3 ulps of c."""
    rng = np.random.default_rng(26)
    for n in (2, 3, 5, 10, 17, 50, 1000, 10_000):
        for scale in (1e-150, 1e-30, 1.0, 1e30, 1e150):
            for _ in range(12 if n <= 50 else 1):
                yield (rng.normal(0.0, 1.0, n) * scale).tolist()
                spread = 10.0 ** -int(rng.integers(1, 13))
                yield ((rng.uniform(1.0, 2.0) + rng.normal(0.0, spread, n)) * scale).tolist()
                c = float(rng.uniform(1.0, 2.0) * scale * rng.choice([-1.0, 1.0]))
                yield [c + int(k) * math.ulp(c) for k in rng.integers(-3, 4, n)]


class TestStates:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            State(0.0, 0.0)
        with pytest.raises(ValueError):
            State(0.0, -1.0)
        with pytest.raises(ValueError):
            State(math.nan, 1.0)

    def test_sample_needs_values(self):
        with pytest.raises(ValueError):
            Sample(())

    @pytest.mark.parametrize(
        "block,error,message",
        [
            (("1.5",), TypeError, "unsupported operand type(s) for +: 'int' and 'str'"),
            ((1.0, "2"), TypeError, "unsupported operand type(s) for +: 'float' and 'str'"),
            ((b"1",), TypeError, "unsupported operand type(s) for +: 'int' and 'bytes'"),
            ((None,), TypeError, "unsupported operand type(s) for +: 'int' and 'NoneType'"),
            ((1.0, math.nan, "x"), TypeError, "unsupported operand type(s) for +: 'float' and 'str'"),
            ((1j, 1.0), TypeError, "must be real number, not complex"),
            ((1.0, 2**1024), OverflowError, "int too large to convert to float"),
        ],
        ids=["str", "str after a float", "bytes", "None", "str after nan", "complex", "huge int"],
    )
    def test_sample_values_must_be_real_numbers(self, block, error, message):
        # The error of adding the values up: a string that float() would
        # read is refused, not converted.
        for make in (lambda: Sample(block), lambda: Sample((1.0,), block)):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                make()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sample_values_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=f"sample value 2 is not finite: {bad!r}"):
            Sample((1.0, 2.0, bad, 3.0))
        with pytest.raises(ValueError, match=f"second block value 0 is not finite: {bad!r}"):
            Sample((1.0, 2.0), (bad, 1.0))
        # Finite values that overflow the sum ahead of the bad one do not
        # hide it, and the index is the first bad value's.
        with pytest.raises(ValueError, match=f"^sample value 3 is not finite: {bad!r}$"):
            Sample((1e308, 1e308, 1.0, bad, math.nan))
        with pytest.raises(ValueError, match=f"^second block value 1 is not finite: {bad!r}$"):
            Sample((1.0, 2.0), (1e308, bad, 1e308))

    def test_overflowing_sums_of_finite_values_are_accepted(self):
        from semidist.framework import Hypothesis, confidence_region, estimate, mean_z, run_test

        assert Sample((1e308, 1e308), (-1e308, -1e308, 2.0)).n == 2
        # The estimates refuse them: any two of these values that do not
        # overflow together do with the third, so the sum overflows in any
        # order.
        x, problem = Sample((1e308, 1.5e308, -1e300)), mean_z(3, 1.0)
        for call in (
            lambda: estimate(problem, x),
            lambda: run_test(problem, Hypothesis.point(0.0), 0.05, x),
            lambda: confidence_region(problem, x, 0.95),
        ):
            with pytest.raises(ValueError, match="^sum of the sample values overflows float64$"):
                call()

    @pytest.mark.parametrize(
        "values",
        [
            (1, -2, 3, 2**53 + 1, 2**64 + 1, -(2**63) - 1, 10**300, True),
            (-0.0, 0.0, -0.0),
            (5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308, np.nextafter(0.0, -1.0)),
            tuple(np.random.default_rng(3).normal(0.0, 1e3, 10_000).tolist()),
        ],
        ids=["ints", "signed zeros", "subnormals", "10^4 floats"],
    )
    def test_a_block_row_is_its_values_as_float64(self, values):
        x = Sample(values, values[::-1])
        for row, block in zip(x._rows, (values, values[::-1])):
            want = np.array(block, dtype=float)
            assert row.values.shape == (len(block), 1)
            assert row.values[:, 0].tobytes() == want.tobytes()


class TestEstimators:
    def test_mean_small(self):
        assert mu_bar((1.0, 2.0, 3.0)) == 2.0

    def test_mean_constant(self):
        assert mu_bar((4.5,) * 7) == 4.5

    def test_mean_random_tuple_vs_plain_loop(self):
        x = (0.3, -1.7, 2.9, 0.05, -0.4, 1.11)
        acc = 0.0
        for v in x:
            acc += v
        assert mu_bar(x) == pytest.approx(acc / 6, rel=1e-15)

    def test_ss_small(self):
        assert ss_bar((1.0, 2.0, 3.0)) == pytest.approx(2.0, rel=1e-15)

    def test_ss_constant_is_zero(self):
        assert ss_bar((2.5, 2.5, 2.5)) == 0.0

    def test_ss_random_tuple_vs_two_pass_loop(self):
        x = (0.3, -1.7, 2.9, 0.05, -0.4, 1.11)
        mean = sum(x) / len(x)
        ref = sum((v - mean) ** 2 for v in x)
        assert ss_bar(x) == pytest.approx(ref, rel=1e-12)

    def test_sigma_pair_small(self):
        x = (1.0, 2.0, 3.0)
        assert sigma_bar(x) == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)
        assert sigma_bar_prime(x) == pytest.approx(1.0, rel=1e-15)

    # Constant rows whose mean rounds off their value in the stated
    # pairwise order; the last one's deviations from it square to inf.
    ROUNDED_MEANS = [
        (0.1, 3), (1.0000000000000001e-160, 50), (1e150, 10**4),
        (1.0000000000000003e300, 3), (1.0000000000000003e300, 50), (1.0000000000000003e300, 10**4),
    ]

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 10**4])
    @pytest.mark.parametrize(
        "c", [0.0, 5e-324, -5e-324, 1e-160, 1.0000000000000001e-160, 0.1, 1.0, 1e150, 1e300,
              1.0000000000000003e300],
    )
    def test_constant_rows_have_zero_ss(self, c, n):
        # The mean of n copies of c can round off c (ROUNDED_MEANS), so the
        # deviations need not be 0, and their squares can underflow or, for
        # 1.0000000000000003e300, overflow.
        assert ss_bar((c,) * n) == 0.0

    @pytest.mark.parametrize("c,n", ROUNDED_MEANS)
    def test_the_means_of_these_constant_rows_round_off(self, c, n):
        assert mu_bar((c,) * n) != c

    @pytest.mark.parametrize("n", [2, 3, 50, 10**4])
    @pytest.mark.parametrize("c", [1.0, -3.5, 1e-100, 1e150])
    def test_a_row_one_ulp_off_constant_keeps_its_ss(self, c, n):
        # Not taken for a constant row, and within gamma(ceil(log2 n)) of
        # the plain sum of squared deviations from the rounded mean, which
        # the correction cancels down to the exact SS.  Where the mean is
        # an ulp off c (1e-100 at 50 and 10**4), the plain sum is 50 and
        # 10**4 times the exact SS, and the SS is 36 and 6370 ulps off it.
        values = np.full(n, c)
        values[n // 2] = np.nextafter(c, math.inf)
        ss = ss_bar(tuple(values.tolist()))
        mean = Fraction(mu_bar(tuple(values.tolist())))
        plain = sum((Fraction(v) - mean) ** 2 for v in values.tolist())
        assert ss > 0.0 and abs(Fraction(ss) - _exact(values)[2]) <= _gamma(n) * plain

    def test_two_values_one_ulp_apart(self):
        # Their mean rounds to 1.0 (a tie to even), so the plain sum of
        # squared deviations reads 2^-104, twice the exact SS; the
        # correction by the deviations' sum removes that.
        assert ss_bar((1.0, 1.0 + 2**-52)) == 2.0**-105
        assert sigma_bar((1.0, 1.0 + 2**-52)) == 2.0**-53

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.lists(st.integers(-3, 3), min_size=2, max_size=60),
    )
    def test_the_ss_of_distinct_near_constant_values_is_positive(self, c, steps):
        # The correction subtracts, so it must not take the SS of values
        # a few ulps apart below 0 (nor to 0, as if they were equal).  Over
        # the whole range of c: only where the exact sum of the values or
        # the exact SS reaches the top of the range is it refused.
        values = tuple(c + k * math.ulp(c) for k in steps)
        assume(all(map(math.isfinite, values)))
        total, _, exact, _ = _exact(values)
        top = Fraction(sys.float_info.max) * (1 - Fraction(1, 2**40))
        if abs(total) >= top or exact >= top:
            try:
                ss_bar(values)
            except ValueError as error:
                assert str(error).endswith(" overflows float64")
                return
        ss = _unless_ss_underflows(ss_bar, values)
        if ss is not None:
            assert ss > 0.0 if len(set(values)) > 1 else ss == 0.0

    def test_an_ss_whose_squares_overflow_is_summed_at_a_smaller_scale(self):
        # The mean rounds to c, and the deviation of one ulp, 2^512, squares
        # to 2^1024 at the values' own scale; the exact SS is 2^1023.
        c = 6.038339879714466e169
        assert math.ulp(c) == 2.0**512
        assert ss_bar((c, c + math.ulp(c))) == 2.0**1023
        assert sigma_bar((c, c + math.ulp(c))) == 2.0**511

    @given(samples)
    def test_the_ss_of_distinct_values_is_positive(self, values):
        ss = _unless_ss_underflows(ss_bar, values)
        if ss is not None:
            assert ss > 0.0 if len(set(values)) > 1 else ss == 0.0

    def test_distinct_values_whose_ss_underflows_are_refused(self):
        # Every squared deviation underflows, so SS would read 0, as if the
        # values were all equal; a constant row of the same size keeps 0.
        values = (1e-310, 2e-310, 3e-310, 5e-310)
        for estimator in (ss_bar, sigma_bar, sigma_bar_prime):
            with pytest.raises(ValueError, match="^sum of squared deviations underflows float64$"):
                estimator(values)
        assert ss_bar((3e-310,) * 4) == 0.0

    @pytest.mark.parametrize("values", [(0.0, 3e-161), (0.0, 1e-160)])
    def test_distinct_values_with_a_subnormal_ss_are_refused(self, values):
        # SS is 4.5e-322 or 5e-321: subnormal, so it has lost bits
        # (sigma_bar((0.0, 3e-161)) would read 1.5075e-161, not 1.5e-161).
        for estimator in (ss_bar, sigma_bar, sigma_bar_prime):
            with pytest.raises(ValueError, match="^sum of squared deviations underflows float64$"):
                estimator(values)
        assert ss_bar((values[1],) * 2) == 0.0

    def test_an_ss_just_above_the_least_normal_is_returned(self):
        tiny = np.finfo(float).tiny
        # Deviations of +-1.5e-154 square to 2.25e-308 each, just normal.
        ss = ss_bar((0.0, 3e-154))
        assert tiny < ss < 3 * tiny
        assert ss == 2 * (1.5e-154) ** 2

    def test_degenerate_pair(self):
        assert sigma_bar((3.0, 3.0)) == 0.0
        assert sigma_bar_prime((3.0, 3.0)) == 0.0

    def test_overflowing_sums_raise_a_named_error(self):
        # Values whose sum overflows in any order.
        with pytest.raises(ValueError, match="^sum of the sample values overflows float64$"):
            mu_bar((1e308, 1.5e308, -1e300))
        # Deviations 0 and -+2**601, whose squares overflow; every partial
        # sum of the values is exact, so their mean is 2**600 in any order.
        big = (2.0**600, -(2.0**600), 3.0 * 2.0**600)
        with pytest.raises(ValueError, match="^sum of squared deviations overflows float64$"):
            ss_bar(big)
        # The mean of those values does not overflow, and needs no SS.
        assert mu_bar(big) == 2.0**600

    def test_sigma_prime_needs_two(self):
        with pytest.raises(ValueError):
            sigma_bar_prime((1.0,))
        with pytest.raises(ValueError):
            mu_bar(())

    ESTIMATORS = pytest.mark.parametrize(
        "estimator", [mu_bar, ss_bar, sigma_bar, sigma_bar_prime],
        ids=["mu_bar", "ss_bar", "sigma_bar", "sigma_bar_prime"],
    )

    @ESTIMATORS
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_value_is_named_with_its_index(self, estimator, bad):
        # As a Sample names it: the values enter through the same function.
        with pytest.raises(ValueError, match=f"^sample value 0 is not finite: {bad!r}$"):
            estimator((bad, 1.0))
        with pytest.raises(ValueError, match=f"^sample value 2 is not finite: {bad!r}$"):
            estimator((1e308, 1e308, bad, math.nan))

    @ESTIMATORS
    def test_a_finite_sum_that_overflows_keeps_its_message(self, estimator):
        with pytest.raises(ValueError, match="^sum of the sample values overflows float64$"):
            estimator((1e308, 1.5e308, -1e300))

    @ESTIMATORS
    @pytest.mark.parametrize(
        "block,error",
        [(("1.5", "2.5"), TypeError), ((1.0, None), TypeError), ((1.0, 2**1024), OverflowError)],
        ids=["str", "None", "huge int"],
    )
    def test_a_non_numeric_block_is_refused(self, estimator, block, error):
        with pytest.raises(error):
            estimator(block)

    @pytest.mark.parametrize("estimator", [mu_bar, ss_bar, sigma_bar], ids=["mu_bar", "ss_bar", "sigma_bar"])
    def test_an_empty_block_is_refused_as_a_sample_is(self, estimator):
        with pytest.raises(ValueError, match="^sample must contain at least one value$"):
            estimator(())
        with pytest.raises(ValueError, match="^sample must contain at least one value$"):
            Sample(())

    @given(samples)
    def test_scaling_identity(self, values):
        # sigma_bar = sqrt((n-1)/n) * sigma_bar_prime, exactly in exact
        # arithmetic; allow float slack
        n = len(values)
        lhs = _unless_ss_underflows(sigma_bar, values)
        prime = _unless_ss_underflows(sigma_bar_prime, values)
        assert (lhs is None) == (prime is None)
        if lhs is not None:
            assert lhs == pytest.approx(math.sqrt((n - 1) / n) * prime, rel=1e-12, abs=1e-12)

    @given(samples, st.floats(-100, 100), st.floats(-10, 10).filter(lambda a: abs(a) > 1e-3))
    def test_affine_equivariance(self, values, b, a):
        shifted = [a * v + b for v in values]
        assert mu_bar(shifted) == pytest.approx(a * mu_bar(values) + b, rel=1e-9, abs=1e-6)
        sd, sd_shifted = (_unless_ss_underflows(sigma_bar, block) for block in (values, shifted))
        if sd is not None and sd_shifted is not None:
            assert sd_shifted == pytest.approx(abs(a) * sd, rel=1e-7, abs=1e-6)


class TestExactOracle:
    """The estimators against exact rational arithmetic on seeded rows
    (``_oracle_rows``).  The sum keeps the pairwise tree's bound; the SS
    and sigma_bar bounds are the worst errors measured on these rows (2.08
    ulps for SS, 1.42 for sigma_bar and 1.45 for sigma_bar_prime), rounded
    up.  The plain sum of squared deviations from the rounded mean, in
    numpy's row-sum order, was up to 9.0e15 ulps off the exact SS on the
    same rows, and sqrt(SS / n) with a subnormal quotient 33 ulps off."""

    SS_ULPS, SIGMA_BAR_ULPS = 3.0, 2.0

    def test_the_tree_sum_and_the_mean_keep_their_bounds(self):
        u = Fraction(1, 2**53)
        for values in _oracle_rows():
            total, mean, _, size = _exact(values)
            row = _finite_row(values, "sample")
            err = abs(Fraction(float(row.sums[0])) - total)
            assert err <= _gamma(len(values)) * size
            # The division adds one rounding, of at most u |sum / n|.
            bound = (_gamma(len(values)) * size + u * abs(Fraction(float(row.sums[0])))) / len(values)
            assert abs(Fraction(float(row.mean[0])) - mean) <= bound

    def test_a_block_sums_each_column_as_one_row(self):
        block = np.array([v for v in _oracle_rows() if len(v) == 17]).T
        sums = _pairwise_sum(block)
        assert [float(s) for s in sums] == [float(_pairwise_sum(c[:, None])[0]) for c in block.T]

    def test_ss_and_sigma_bar_are_within_a_few_ulps(self):
        worst_ss = worst_sigma = 0.0
        tiny, quotients = sys.float_info.min, 0
        for values in _oracle_rows():
            n, ss = len(values), _exact(values)[2]
            try:
                row = _finite_row(values, "sample")
                got_ss = float(row.ss[0])
                got_sigmas = float(row.sigma_bar[0]), float(row.sigma_bar_prime[0])
            except ValueError as error:
                # Refused only where the exact SS is below the least normal
                # but for the underflow of its terms.
                assert str(error) == "sum of squared deviations underflows float64"
                assert 0 < ss < 2 * tiny
                continue
            if ss == 0:
                assert got_ss == 0.0
                continue
            worst_ss = max(worst_ss, _ulps(got_ss, ss))
            # Rows whose SS / n is subnormal are bounded too.
            quotients += got_ss / n < tiny
            for got, d in zip(got_sigmas, (n, n - 1)):
                worst_sigma = max(worst_sigma, _sqrt_ulps(got, ss / d))
        assert quotients >= 5
        assert worst_ss <= self.SS_ULPS and worst_sigma <= self.SIGMA_BAR_ULPS


def _unzeroed_ss(rows):
    """Each column's corrected SS before a constant column's is set to 0,
    as ``_Rows.ss`` sums it: at the values' own scale (``raw``), and summed
    again at 2^-_SHIFT times them and scaled back where that is not
    finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        raw = _corrected_ss(rows.values, rows.mean)
        wide = ~np.isfinite(raw)
        down = (np.ldexp(a, -_SHIFT) for a in (rows.values[:, wide], rows.mean[wide]))
        ss = raw.copy()
        ss[wide] = np.ldexp(_corrected_ss(*down), 2 * _SHIFT)
    return raw, ss


_REFUSALS = (
    "sum of the sample values overflows float64",
    "sum of squared deviations underflows float64",
    "sum of squared deviations overflows float64",
)


def _bound_gated(values, starts):
    """The SS, or the refusal, of each block of columns starts[i] to
    starts[i + 1] - 1 of ``values`` under a rule that takes the exact
    constancy test on every column whose SS is not above
    n (2 (n + 2) eps)^2 mean^2 + n tiny, a bound on the rounded SS of a
    constant column that holds for any order of the sums."""
    n, eps, tiny = len(values), sys.float_info.epsilon, sys.float_info.min
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _Rows(values)
        sums_overflow = ~np.isfinite(rows.sums)
        rows.mean = rows.sums / n
        ss = _unzeroed_ss(rows)[1]
        bound = n * (2 * (n + 2) * eps) ** 2 * rows.mean**2 + n * tiny
    near = ~(ss > bound)
    constant = (values == values[:1]).all(axis=0)
    ss[near & constant] = 0.0
    refused = zip(_REFUSALS, (sums_overflow, near & ~constant & (ss < tiny), ~np.isfinite(ss)))
    flags = [(text, np.logical_or.reduceat(flag, starts[:-1])) for text, flag in refused]
    outcomes = []
    for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        outcomes.append(next((text for text, flag in flags if flag[i]), ss[lo:hi]))
    return outcomes


def _adversarial_blocks(rng, n, count):
    """``count`` seeded blocks of n values and 1, 3 or 8 columns each, as
    one (n, columns) array and each block's first column (and the end).
    A block's columns lie near one binade: for half of the blocks anywhere
    from the subnormals to 2^1023, for the rest in 2^-450 to 2^500, where
    no square underflows or overflows.  Each column is constant, a few
    ulps off constant, constant but for one value an ulp above, or random
    with a relative spread of 1e-1 to 1e-15."""
    widths = rng.choice([1, 3, 8], count)
    starts = np.concatenate([[0], np.cumsum(widths)])
    cols = int(starts[-1])
    anywhere = rng.integers(0, 2, count).astype(bool)
    binade = np.where(anywhere, rng.integers(-1074, 1024, count), rng.integers(-450, 501, count))
    binade = np.repeat(binade, widths) + rng.integers(-2, 3, cols)
    signs = rng.choice([-1.0, 1.0], cols)
    c = np.ldexp(rng.uniform(1.0, 2.0, cols), np.clip(binade, -1074, 1023)) * signs
    kind = rng.integers(0, 5, cols)
    values = np.repeat(c[None, :], n, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.flatnonzero(kind == 1)
        values[:, steps] += rng.integers(-3, 4, (n, steps.size)) * np.spacing(np.abs(c[steps]))
        one = np.flatnonzero(kind == 2)
        values[rng.integers(0, n, one.size), one] += np.spacing(np.abs(c[one]))
        spread = np.flatnonzero(kind >= 3)
        scale = 10.0 ** -rng.integers(1, 16, spread.size) * np.abs(c[spread])
        values[:, spread] += (rng.random((n, spread.size)) - 0.5) * scale
    return values, starts


class TestConstantColumnsHaveAnExactSs:
    """The reason ``_Rows.ss`` takes the exact constancy test only on
    columns whose SS is below the least normal (tiny): n copies of c have
    a rounded mean a few ulps u off c, every deviation is the same k u,
    and the partial sums, squares, quotient and correction are exact, so
    their SS is exactly 0 but where the squares underflow."""

    @staticmethod
    def _every_binade():
        """+-0 and one c in each binade from the subnormals to 2^1023, of
        alternating sign, with a seeded significand."""
        rng = np.random.default_rng(29)
        exps = np.arange(-1074, 1024)
        c = np.ldexp(rng.uniform(1.0, 2.0, exps.size), exps) * np.where(exps % 2, -1.0, 1.0)
        return np.concatenate([[0.0, -0.0], c])

    @pytest.mark.parametrize("n", [2, 3, 50, 10**4, 65_537])
    def test_the_ss_of_a_constant_column_is_zero_or_below_tiny(self, n):
        tiny, rescaled = sys.float_info.min, 0
        cs = self._every_binade()
        if n in {n for _, n in TestEstimators.ROUNDED_MEANS}:
            cs = np.concatenate([cs, [c for c, m in TestEstimators.ROUNDED_MEANS if m == n]])
        per = max(1, 2**20 // n)
        for i in range(0, cs.size, per):
            c = cs[i : i + per]
            with np.errstate(over="ignore"):
                c = c[np.isfinite(_Rows(np.broadcast_to(c, (n, c.size))).sums)]
            # A read-only view: the SS must not write the values.
            rows = _Rows(np.broadcast_to(c, (n, c.size)))
            raw, ss = _unzeroed_ss(rows)
            # At the values' own scale a square can overflow (nan = inf -
            # inf); summed again at 2^-_SHIFT times them it is exact.
            assert ((raw == 0.0) | (abs(raw) < tiny) | np.isnan(raw)).all()
            assert ((ss == 0.0) | (abs(ss) < tiny)).all()
            rescaled += np.isnan(raw).sum()
            if n < 65_537:  # the constancy test's copy would double the cost
                assert (rows.ss == 0.0).all() and not np.signbit(rows.ss).any()
        assert rescaled > 0 if n > 2 else rescaled == 0

    def test_gating_on_tiny_matches_the_rounding_error_bound(self):
        # 40,000 seeded blocks, a quarter of them refused.  The blocks of
        # one size that are not refused are taken as one array: columns are
        # summed on their own, so that changes no bit.
        rng = np.random.default_rng(20261020)
        sizes = np.unique(np.geomspace(2, 1000, 60).astype(int))
        counts = np.bincount(rng.choice(sizes.size, 40_000), minlength=sizes.size)
        seen = dict.fromkeys(_REFUSALS, 0)
        for n, count in zip(sizes.tolist(), counts.tolist()):
            values, starts = _adversarial_blocks(rng, n, count)
            want = _bound_gated(values, starts)
            kept = [i for i, w in enumerate(want) if not isinstance(w, str)]
            cols = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in kept])
            got = _Rows(values[:, cols]).ss
            assert got.tobytes() == np.concatenate([want[i] for i in kept]).tobytes()
            for i in set(range(count)) - set(kept):
                try:
                    with np.errstate(over="ignore"):
                        _Rows(values[:, starts[i] : starts[i + 1]]).ss
                except ValueError as error:
                    assert str(error) == want[i]
                else:
                    raise AssertionError(f"block {i} of size {n} is not refused: {want[i]}")
                seen[want[i]] += 1
        assert min(seen.values()) > 50 and sum(seen.values()) < 12_000


class TestProbabilities:
    def test_normal_half_line(self):
        assert normal_prob(State(0.0, 1.0), (-math.inf, 0.0)) == 0.5

    def test_normal_whole_line(self):
        assert normal_prob(State(3.0, 2.0), (-math.inf, math.inf)) == 1.0

    def test_normal_interval_frozen(self):
        # oracle: quadrature of the density over [1, 3] at state (1, 2)
        assert normal_prob(State(1.0, 2.0), (1.0, 3.0)) == pytest.approx(
            0.34134474606854304, abs=1e-12
        )

    def test_union_of_intervals(self):
        state = State(0.0, 1.0)
        both = normal_prob(state, [(-math.inf, -1.0), (1.0, math.inf)])
        assert both == pytest.approx(2.0 * normal_prob(state, (1.0, math.inf)), rel=1e-14)

    def test_product_rule_for_simultaneous_draws(self):
        # a product interval carries the product of the marginal masses:
        # the joint frequency over coordinates tracks p1 * p2
        state = State(0.5, 1.5)
        p1 = normal_prob(state, (0.0, 1.0))
        p2 = normal_prob(state, (-2.0, 0.5))
        reps = 40_000
        hits = 0
        for j in range(reps):
            x = sample(state, 2, rng=stream(321, j)).values
            hits += (0.0 < x[0] <= 1.0) and (-2.0 < x[1] <= 0.5)
        target = p1 * p2
        band = 4.0 * math.sqrt(target * (1 - target) / reps)
        assert abs(hits / reps - target) < band

    def test_image_mean_symmetry(self):
        assert image_prob_mean(State(0.0, 1.0), 4, (-math.inf, 0.0)) == 0.5
        assert image_prob_mean(State(2.0, 3.0), 7, (-math.inf, math.inf)) == 1.0

    def test_image_mean_band(self):
        # 0.98 = z(0.025) / 2 for n = 4, sigma = 1 (to ~4e-5)
        p = image_prob_mean(State(0.0, 1.0), 4, (-0.9799819922700268, 0.9799819922700268))
        assert p == pytest.approx(0.95, abs=1e-12)

    def test_image_ss_normalization(self):
        assert image_prob_ss(State(1.0, 2.0), 10, (0.0, math.inf)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_image_ss_frozen(self):
        p = image_prob_ss(State(0.0, 1.0), 10, (0.0, 16.918977604620444))
        assert p == pytest.approx(0.95, abs=1e-10)

    def test_image_ss_scaling(self):
        # P(SS in I) at sigma equals P(SS in I/c^2) at sigma/c
        c = 1.7
        p1 = image_prob_ss(State(0.0, 2.0), 8, (1.0, 5.0))
        p2 = image_prob_ss(State(0.0, 2.0 / c), 8, (1.0 / c**2, 5.0 / c**2))
        assert p1 == pytest.approx(p2, rel=1e-12)

    @pytest.mark.parametrize(
        "mass, want",
        [
            (lambda: normal_prob(State(0.0, 1.0), (10.0, math.inf)), stats.norm.sf(10.0)),
            (lambda: normal_prob(State(0.0, 1.0), (6.0, 7.0)), stats.norm.sf(6.0) - stats.norm.sf(7.0)),
            (lambda: normal_prob(State(0.0, 1.0), (-7.0, -6.0)), stats.norm.sf(6.0) - stats.norm.sf(7.0)),
            (lambda: image_prob_mean(State(0.0, 1.0), 25, (3.0, math.inf)), stats.norm.sf(15.0)),
            (lambda: image_prob_ss(State(0.0, 1.0), 10, (200.0, math.inf)), stats.chi2.sf(200.0, 9)),
            (
                lambda: image_prob_ss(State(0.0, 2.0), 10, [(400.0, 800.0), (1200.0, math.inf)]),
                stats.chi2.sf(100.0, 9) - stats.chi2.sf(200.0, 9) + stats.chi2.sf(300.0, 9),
            ),
        ],
        ids=["normal-above-10", "normal-6-to-7", "normal-minus-7-to-minus-6", "mean-n25-above-3",
             "ss-n10-above-200", "ss-n10-union"],
    )
    def test_far_tail_masses_are_the_scipy_ones(self, mass, want):
        # Read as cdf(hi) - cdf(lo), the first and the last three cancelled to 0.
        assert mass() == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_image_ss_needs_two(self):
        with pytest.raises(ValueError):
            image_prob_ss(State(0.0, 1.0), 1, (0.0, 1.0))


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample(State(0.0, 1.0), 12, seed=99)
        b = sample(State(0.0, 1.0), 12, seed=99)
        assert a == b

    def test_streams_differ_across_replications(self):
        a = sample(State(0.0, 1.0), 5, rng=stream(1, 0))
        b = sample(State(0.0, 1.0), 5, rng=stream(1, 1))
        assert a != b

    def test_two_sample_blocks(self):
        state = TwoSampleState(State(0.0, 1.0), State(5.0, 2.0))
        s = sample(state, 6, 9, seed=1)
        assert s.n == 6 and s.m == 9

    def test_seed_xor_rng(self):
        with pytest.raises(ValueError):
            sample(State(0.0, 1.0), 3)
        with pytest.raises(ValueError):
            sample(State(0.0, 1.0), 3, seed=1, rng=stream(1))

    def test_empirical_mean_within_clt_band(self):
        n = 200_000
        s = sample(State(0.0, 1.0), n, seed=7)
        assert abs(mu_bar(s.values)) < 4.0 / math.sqrt(n)

    def test_golden_draws(self):
        # Replications 0-2 of seed 0 at n = 5: a numpy whose Philox or a
        # scipy whose ndtri gives other values fails here first.
        golden = [
            ["-0x1.190340ffe451ep+1", "-0x1.4ceccef525fffp-1", "-0x1.2430aace88f01p-4",
             "-0x1.55021c1682a2ap+0", "0x1.005e448d8e50fp-1"],
            ["0x1.04a1f72305994p+1", "-0x1.4f993b6c74bedp-1", "0x1.84cfa88b907afp+0",
             "-0x1.c16233ca3065dp-1", "-0x1.477443257d714p+0"],
            ["-0x1.cc479a21f80bcp+0", "-0x1.973657d9f2121p+0", "0x1.8e9d72b28fbc7p-1",
             "-0x1.e43893c01a185p-4", "0x1.1cc56cb9b05aap+1"],
        ]
        for j, values in enumerate(golden):
            x = sample(State(0.0, 1.0), 5, rng=stream(0, j)).values
            assert [v.hex() for v in x] == values

    @pytest.mark.parametrize("seed", [0, 7, 2**70 + 3])
    def test_value_i_of_replication_j_is_a_philox_word(self, seed):
        # Word i mod 4 of the block at counter ((i // 4) << 64) + j + 1.
        for j in (0, 5, 2**64 - 1):
            x = sample(State(0.0, 1.0), 9, rng=stream(seed, j)).values
            for i, value in enumerate(x):
                bitgen = np.random.Philox(seed).advance(((i // 4) << 64) + j)
                word = int(bitgen.random_raw(4)[i % 4])
                u = (2 * (word >> 12) + 1) / 2**53
                assert value == stats.norm.ppf(u)

    def test_layout_does_not_depend_on_the_value_count(self):
        one, other = State(0.5, 2.0), State(-1.0, 0.5)
        for j in (0, 3, 2**40):
            x = sample(one, 10, rng=stream(9, j)).values
            assert sample(one, 3, rng=stream(9, j)).values == x[:3]
            for n, m in ((10, 1), (10, 7), (10, 30)):
                pair = sample(TwoSampleState(one, other), n, m, rng=stream(9, j))
                assert pair.values == x

    @pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.SFC64])
    def test_rng_that_cannot_advance_is_refused(self, bitgen):
        rng = np.random.Generator(bitgen(3))
        message = f"rng must have a bit generator that can advance, .* got {bitgen.__name__}"
        with pytest.raises(ValueError, match=message):
            sample(State(0.0, 1.0), 3, rng=rng)

    @pytest.mark.parametrize("j", [-1, 2**64])
    def test_replications_outside_the_counter_are_refused(self, j):
        with pytest.raises(ValueError, match=re.escape(f"0..2**64 - 1, got {j}")):
            stream(1, j)

    def test_two_sample_blocks_uncorrelated(self):
        state = TwoSampleState(State(0.0, 1.0), State(0.0, 1.0))
        n = 50_000
        s = sample(state, n, n, seed=11)
        mx, my = mu_bar(s.values), mu_bar(s.second)
        cov = sum(
            (a - mx) * (b - my) for a, b in zip(s.values, s.second)
        ) / (n * sigma_bar(s.values) * sigma_bar(s.second))
        assert abs(cov) < 4.0 / math.sqrt(n)

    def test_image_consistency_monte_carlo(self):
        # frequency of the mean landing in an interval tracks the image law
        state = State(0.3, 1.2)
        n, reps = 5, 4000
        interval = (0.0, 1.0)
        p = image_prob_mean(state, n, interval)
        hits = 0
        for j in range(reps):
            m = mu_bar(sample(state, n, rng=stream(123, j)).values)
            hits += interval[0] < m <= interval[1]
        band = 4.0 * math.sqrt(p * (1 - p) / reps)
        assert abs(hits / reps - p) < band


class TestBulkStreams:
    """``_sample_block`` reproduces ``sample(..., rng=stream(seed, j))``
    bit for bit; ``stream`` is the reference."""

    SEEDS = (0, 1, 11, 2**31 - 1, 2**32 + 5, 2**70 + 3, 2**130 + 99)

    @staticmethod
    def _reference(state, n, m, seed, start, stop):
        draws = [sample(state, n, m, rng=stream(seed, j)) for j in range(start, stop)]
        # One column per replication, as the block kernel lays them out.
        xs = np.array([d.values for d in draws]).T
        ys = None if m is None else np.array([d.second for d in draws]).T
        return xs, ys

    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_sample_rows_match_stream(self, seed):
        state = State(0.3, 1.7)
        for start, stop in ((0, 1234), (1234, 5000)):
            xs, ys = _sample_block(state, 3, None, seed, start, stop)
            ref, _ = self._reference(state, 3, None, seed, start, stop)
            assert ys is None
            assert xs.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_sample_rows_match_stream(self, seed):
        state = TwoSampleState(State(-1.0, 0.5), State(2.0, 3.0))
        for start, stop in ((0, 1234), (1234, 5000)):
            xs, ys = _sample_block(state, 2, 3, seed, start, stop)
            ref_x, ref_y = self._reference(state, 2, 3, seed, start, stop)
            assert xs.tobytes() == ref_x.tobytes()
            assert ys.tobytes() == ref_y.tobytes()

    def test_last_replication(self):
        j = 2**64 - 1
        for n in (4, 6):
            xs, _ = _sample_block(State(0.0, 1.0), n, None, 11, j, j + 1)
            ref, _ = self._reference(State(0.0, 1.0), n, None, 11, j, j + 1)
            assert xs.tobytes() == ref.tobytes()

    def test_replications_beyond_the_counter_are_refused(self):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            _sample_block(State(0.0, 1.0), 4, None, 11, 2**64, 2**64 + 1)

    def test_empty_block(self):
        xs, ys = _sample_block(State(0.0, 1.0), 4, None, 11, 7, 7)
        assert xs.shape == (4, 0) and ys is None


_MASK64 = (1 << 64) - 1


class TestKernelArithmetic:
    """The word -> normal map."""

    def test_extreme_words_give_finite_tails(self):
        z = _std_normal(np.array([0, _MASK64], np.uint64))
        assert np.all(np.isfinite(z))
        assert z[0] == -z[1]
        assert -8.3 < z[0] < -8.1

    def test_middle_words_are_symmetric(self):
        words = np.array([1 << 63, (1 << 63) - 1, 12345 << 12], np.uint64)
        z = _std_normal(words)
        assert z[0] == -z[1] > 0.0
        assert z[2] == -_std_normal(np.array([_MASK64 - (12345 << 12)], np.uint64))[0]


class TestBlockKernel:
    """Stream contract 3: one Philox word per value, drawn in bulk."""

    def test_contract_version(self):
        assert STREAM_CONTRACT == 3

    @pytest.mark.parametrize("seed", [3, 2**128, 2**128 + 7, 2**200 + 1])
    def test_hundred_values_per_row(self, seed):
        state = TwoSampleState(State(0.5, 2.0), State(-3.0, 0.25))
        xs, ys = _sample_block(state, 60, 40, seed, 17, 240)
        ref = TestBulkStreams._reference(state, 60, 40, seed, 17, 240)
        assert xs.tobytes() == ref[0].tobytes()
        assert ys.tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 100, 5000, 5003])
    def test_block_of_many_rows(self, n):
        rows = 3000 // n + 5
        state = State(1.0, 3.0)
        xs, _ = _sample_block(state, n, None, 2**128 + 3, 9, 9 + rows)
        ref, _ = TestBulkStreams._reference(state, n, None, 2**128 + 3, 9, 9 + rows)
        assert xs.tobytes() == ref.tobytes()

    def test_no_generator_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the block kernel built a generator")

        monkeypatch.setattr(np.random, "Generator", refuse)
        xs, _ = _sample_block(State(0.0, 1.0), 10, None, 4, 0, 3000)
        assert xs.shape == (10, 3000)

    def test_draws_fit_the_standard_normal(self):
        # 10^5 values of one block; a passing kernel fails each check with
        # probability below 1e-4.
        xs, _ = _sample_block(State(0.0, 1.0), 10, None, 2024, 0, 10_000)
        z = xs.ravel()
        assert stats.kstest(z, "norm").pvalue > 1e-4
        edges = stats.norm.ppf(np.linspace(0.0, 1.0, 21))
        counts, _ = np.histogram(z, edges)
        assert stats.chisquare(counts).pvalue > 1e-4
        tail = np.count_nonzero(np.abs(z) > 3.0)
        p = 2.0 * stats.norm.sf(3.0)
        assert abs(tail - z.size * p) < 4.0 * math.sqrt(z.size * p * (1.0 - p))
        # Neighbouring values of a replication are uncorrelated.
        r = np.corrcoef(xs[:-1].ravel(), xs[1:].ravel())[0, 1]
        assert abs(r) < 4.0 / math.sqrt(xs[1:].size)


class TestInPlaceKernel:
    """What drawing in place and skipping exact scaling rely on."""

    @pytest.mark.parametrize("count", [1, 3, 4, 5, 10, 17, 100])
    def test_block_is_contiguous_and_equals_the_stream(self, count):
        # ndtri over a strided view, such as the transpose of the words as
        # Philox gives them, runs row by row, so a block is one C-contiguous
        # array with one column per replication.
        z = _std_block(29, count, 5, 45)
        assert z.shape == (count, 40) and z.flags.c_contiguous
        ref = [sample(State(0.0, 1.0), count, rng=stream(29, j)).values for j in range(5, 45)]
        assert z.tobytes() == np.array(ref).T.tobytes()

    @pytest.mark.parametrize(
        "mu,sigma",
        [(0.0, 1.0), (-0.0, 1.0), (-0.0, 1.5), (0.0, 1.5), (0.0, 1e-300), (0.0, 5e-324),
         (0.3, 1.0), (0.3, 1.5)],
    )
    def test_scale_is_two_roundings_and_leaves_z_alone(self, mu, sigma):
        # The block, the extreme words and the two words nearest u = 1/2
        # (the smallest |z|, whose product with a tiny sigma underflows).
        words = np.array([0, _MASK64, 1 << 63, (1 << 63) - (1 << 12)], np.uint64)
        z = np.concatenate([_std_block(3, 40, 0, 50).ravel(), _std_normal(words)])
        before = z.copy()
        ref = np.add(np.multiply(z, sigma), mu)
        x = _scale(z, State(mu, sigma))
        assert x.tobytes() == ref.tobytes()
        assert z.tobytes() == before.tobytes()
        # Only N(0, 1) hands back the normals themselves.
        assert (x is z) == (mu == 0.0 and sigma == 1.0)


def test_import_leaves_scipy_optimize_out():
    # Nor does any likelihood path: every region is a box, maximized in
    # closed form.
    code = (
        "import sys\n"
        "from semidist.framework import Hypothesis, mean_z\n"
        "from semidist.inference import ParameterRegion as R, likelihood, lrt_region, mle_normal\n"
        "from semidist.measurement import State\n"
        "x = (1.5, 2.0, 0.25, 3.0)\n"
        "for region in (R.full(), R.mu_fixed(1.0), R.mu_half_line(1.0, 'lower'),\n"
        "               R.mu_half_line(1.0, 'upper'), R.sigma_fixed(2.0)):\n"
        "    mle_normal(x, region)\n"
        "likelihood(x, State(1.0, 1.0), R.mu_fixed(1.0))\n"
        "lrt_region(Hypothesis.point(0.0), 0.05, mean_z(5, 1.0))\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    assert _fresh_interpreter(code) == "False"


def _fresh_interpreter(code, *args):
    """Last line printed by ``code`` run in a new interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": ":".join(sys.path)},
    ).stdout
    return out.strip().splitlines()[-1]


def test_import_leaves_scipy_special_out():
    code = "import sys, semidist; print('scipy.special' in sys.modules)"
    assert _fresh_interpreter(code) == "False"


def test_cli_test_and_ci_leave_scipy_special_out(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1.5\n2.0\n0.25\n3.0\n", encoding="utf-8")
    code = (
        "import sys\n"
        "from semidist import cli\n"
        "assert cli.main(['test', 'mean-t', sys.argv[1], '--null', '0', '--json']) == 0\n"
        "assert cli.main(['ci', 'var', sys.argv[1], '--json']) == 0\n"
        "print('scipy.special' in sys.modules)\n"
    )
    assert _fresh_interpreter(code, str(path)) == "False"


def test_pool_workers_inherit_scipy_special():
    # The parent imports it before forking, so no worker pays for it.
    code = (
        "import concurrent.futures, sys\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from semidist import montecarlo as mc\n"
        "from semidist.framework import Hypothesis, mean_z\n"
        "from semidist.measurement import State\n"
        "seen = []\n"
        "class Counting(ProcessPoolExecutor):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        seen.append('scipy.special' in sys.modules)\n"
        "        super().__init__(*args, **kwargs)\n"
        "concurrent.futures.ProcessPoolExecutor = Counting\n"
        "plan = mc.ExperimentPlan(mean_z(10, 1.0), State(0.0, 1.0), 0.05, 40, 3,\n"
        "                         Hypothesis.point(0.0))\n"
        "mc.power_curve(plan, [State(0.0, 1.0), State(0.5, 1.0)], workers=2)\n"
        "print(seen)\n"
    )
    assert _fresh_interpreter(code) == "[True]"
