"""States, estimator maps, image probabilities and stream sampling."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from semidist import measurement
from semidist.measurement import (
    STREAM_CONTRACT,
    Sample,
    State,
    TwoSampleState,
    _add128,
    _mul128,
    _sample_block,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sample_values_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=f"sample value 2 is not finite: {bad!r}"):
            Sample((1.0, 2.0, bad, 3.0))
        with pytest.raises(ValueError, match=f"second block value 0 is not finite: {bad!r}"):
            Sample((1.0, 2.0), (bad, 1.0))

    def test_overflowing_sums_of_finite_values_are_accepted(self):
        assert Sample((1e308, 1e308), (-1e308, -1e308, 2.0)).n == 2


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

    def test_degenerate_pair(self):
        assert sigma_bar((3.0, 3.0)) == 0.0
        assert sigma_bar_prime((3.0, 3.0)) == 0.0

    def test_overflowing_sums_raise_a_named_error(self):
        with pytest.raises(ValueError, match="^sum of the sample values overflows float64$"):
            mu_bar((1e308, 1.5e308, -1e308))
        with pytest.raises(ValueError, match="^sum of squared deviations overflows float64$"):
            ss_bar((1e200, -1e200, 3.0))
        # The mean of those values does not overflow, and needs no SS.
        assert mu_bar((1e200, -1e200, 3.0)) == 1.0

    def test_sigma_prime_needs_two(self):
        with pytest.raises(ValueError):
            sigma_bar_prime((1.0,))
        with pytest.raises(ValueError):
            mu_bar(())

    @given(samples)
    def test_scaling_identity(self, values):
        # sigma_bar = sqrt((n-1)/n) * sigma_bar_prime, exactly in exact
        # arithmetic; allow float slack
        n = len(values)
        lhs = sigma_bar(values)
        rhs = math.sqrt((n - 1) / n) * sigma_bar_prime(values)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(samples, st.floats(-100, 100), st.floats(-10, 10).filter(lambda a: abs(a) > 1e-3))
    def test_affine_equivariance(self, values, b, a):
        shifted = [a * v + b for v in values]
        assert mu_bar(shifted) == pytest.approx(a * mu_bar(values) + b, rel=1e-9, abs=1e-6)
        assert sigma_bar(shifted) == pytest.approx(
            abs(a) * sigma_bar(values), rel=1e-7, abs=1e-6
        )


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
        xs = np.array([d.values for d in draws])
        ys = None if m is None else np.array([d.second for d in draws])
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

    def test_last_one_word_spawn_key(self):
        j = 2**32 - 1
        xs, _ = _sample_block(State(0.0, 1.0), 4, None, 11, j, j + 1)
        ref, _ = self._reference(State(0.0, 1.0), 4, None, 11, j, j + 1)
        assert xs.tobytes() == ref.tobytes()

    def test_two_word_spawn_keys_are_refused(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            _sample_block(State(0.0, 1.0), 4, None, 11, 2**32, 2**32 + 1)

    def test_empty_block(self):
        xs, ys = _sample_block(State(0.0, 1.0), 4, None, 11, 7, 7)
        assert xs.shape == (0, 4) and ys is None


_MASK64 = (1 << 64) - 1
_EDGES = [0, 1, _MASK64, 1 << 63, (1 << 32) - 1, 1 << 32, 0xFFFFFFFF00000000]


def _halves(value):
    return np.array([value >> 64], np.uint64), np.array([value & _MASK64], np.uint64)


def _join(hi, lo):
    return (int(hi[0]) << 64) | int(lo[0])


class TestKernelArithmetic:
    """The uint64 (high, low) 128-bit helpers against Python ints."""

    @staticmethod
    def _values():
        rng = np.random.default_rng(5)
        random = [int(v) for v in rng.integers(0, 1 << 63, 40, dtype=np.uint64)]
        return [(h << 64) | lo for h in _EDGES for lo in _EDGES] + [
            (a << 64) | b for a, b in zip(random[::2], random[1::2])
        ]

    def test_mul_and_add_match_python_ints(self):
        values = self._values()
        a_hi = np.array([v >> 64 for v in values], np.uint64)
        a_lo = np.array([v & _MASK64 for v in values], np.uint64)
        mask = (1 << 128) - 1
        for b in values:
            b_hi, b_lo = np.uint64(b >> 64), np.uint64(b & _MASK64)
            hi, lo = _mul128(a_hi, a_lo, b_hi, b_lo)
            got = [(int(h) << 64) | int(l) for h, l in zip(hi, lo)]
            assert got == [(v * b) & mask for v in values]
            hi, lo = _add128(a_hi, a_lo, b_hi, b_lo)
            got = [(int(h) << 64) | int(l) for h, l in zip(hi, lo)]
            assert got == [(v + b) & mask for v in values]

    def test_all_ones_carries(self):
        ones = (1 << 128) - 1
        assert _join(*_mul128(*_halves(ones), *_halves(ones))) == 1
        assert _join(*_add128(*_halves(ones), *_halves(1))) == 0
        assert _join(*_add128(*_halves(_MASK64), *_halves(1))) == 1 << 64
        assert _join(*_mul128(*_halves(_MASK64), *_halves(_MASK64))) == _MASK64**2

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
    """Stream contract 2: one raw PCG64 word per value, drawn in bulk."""

    def test_contract_version(self):
        assert STREAM_CONTRACT == 2

    @pytest.mark.parametrize("seed", [3, 2**128, 2**128 + 7, 2**200 + 1])
    def test_hundred_values_per_row(self, seed):
        state = TwoSampleState(State(0.5, 2.0), State(-3.0, 0.25))
        xs, ys = _sample_block(state, 60, 40, seed, 17, 240)
        ref = TestBulkStreams._reference(state, 60, 40, seed, 17, 240)
        assert xs.tobytes() == ref[0].tobytes()
        assert ys.tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("n", [1, 7, 100, 5000])
    def test_block_spanning_several_tiles(self, monkeypatch, n):
        monkeypatch.setattr(measurement, "_TILE_VALUES", 1000)
        rows = 3 * 1000 // n + 5
        state = State(1.0, 3.0)
        xs, _ = _sample_block(state, n, None, 2**128 + 3, 9, 9 + rows)
        ref, _ = TestBulkStreams._reference(state, n, None, 2**128 + 3, 9, 9 + rows)
        assert xs.tobytes() == ref.tobytes()

    def test_no_generator_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the block kernel built a generator")

        monkeypatch.setattr(np.random, "Generator", refuse)
        monkeypatch.setattr(np.random, "PCG64", refuse)
        xs, _ = _sample_block(State(0.0, 1.0), 10, None, 4, 0, 3000)
        assert xs.shape == (3000, 10)

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
        # Neighbouring values within a row are uncorrelated.
        r = np.corrcoef(xs[:, :-1].ravel(), xs[:, 1:].ravel())[0, 1]
        assert abs(r) < 4.0 / math.sqrt(xs[:, 1:].size)


def test_import_leaves_scipy_optimize_out():
    code = "import sys, semidist; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": ":".join(sys.path)},
    ).stdout
    assert out.strip() == "False"


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
        "import sys\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from semidist import montecarlo as mc\n"
        "from semidist.framework import Hypothesis, mean_z\n"
        "from semidist.measurement import State\n"
        "seen = []\n"
        "class Counting(ProcessPoolExecutor):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        seen.append('scipy.special' in sys.modules)\n"
        "        super().__init__(*args, **kwargs)\n"
        "mc.ProcessPoolExecutor = Counting\n"
        "plan = mc.ExperimentPlan(mean_z(10, 1.0), State(0.0, 1.0), 0.05, 40, 3,\n"
        "                         Hypothesis.point(0.0))\n"
        "mc.power_curve(plan, [State(0.0, 1.0), State(0.5, 1.0)], workers=2)\n"
        "print(seen)\n"
    )
    assert _fresh_interpreter(code) == "[True]"
