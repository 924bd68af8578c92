"""Normal measurement model: states, estimators and sampling.

A state is a point (mu, sigma) of R x R+.  Observing the model n times
yields a measured value x = (x_1, ..., x_n) of i.i.d. Normal(mu, sigma^2)
draws; two-sample problems observe two independent blocks.  The
estimator maps (sample mean, sum of squared deviations, and the two
standard-deviation scalings) are defined once, on (n, rows) arrays of
measured values stored replication-minor (one column per replication,
one contiguous row per value index), and a single measured value is a
batch of one column.  Every sum along a column, of the values, of their
deviations and of the squared deviations, is added in the one pairwise
order of ``_pairwise_sum``, within gamma(ceil(log2 n)) * sum |x_i| of the
exact sum.  The sum of squared deviations is the corrected two-pass one,
exactly 0 on a constant column unless its squares underflow, so only a
column whose SS is below the least normal takes the exact constancy
test; a column whose squares overflow is summed again at a power-of-two
scale.  So a block and a single measured value share one arithmetic, and
the order of every addition is written here rather than taken from
numpy's reductions.  The pushforward probabilities of the mean and SS
statistics live here too.

Sampling is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11): each (seed, replication) pair deterministically
names its own counters of one Philox generator, so any partition of
replications over workers reproduces the sequential results exactly.
``stream`` is the reference for the stream and ``sample`` for the draws.

Stream contract 3 (``STREAM_CONTRACT``): under the key
``SeedSequence(seed).generate_state(2, uint64)``, value i of replication
j takes word i mod 4 of the Philox4x64-10 block at counter
((i // 4) << 64) + j + 1, that is, the next word of
``Philox(seed).advance(((i // 4) << 64) + j)``.  A word w gives
x = mu + sigma * Phi^-1(u) with u = (2 (w >> 12) + 1) 2^-53; the first n
values give the first block and the next m the second.  The counter's low
64 bits name the replication and the rest the group of four values, so
2**64 replications have disjoint counters and a replication's values do
not depend on n + m.  (Contract 1 drew with numpy's ziggurat; contract 2
gave each replication a PCG64 stream spawned from a SeedSequence.)
``_sides`` is the one place a truth's sides are read: the first block's
state and, two-sample only, the second's.  ``_std_block`` draws a whole
block of replications with numpy's own Philox as an (n + m, rows) array,
one ``random_raw`` call per group of four values, whose words are written
transposed as four rows, and ``_scale_side`` turns the contiguous slab of
one side's rows into that side's draws.  ``sample`` is the same path for
one replication, so ``_sample_block`` (draw, then ``_scale_side`` for
each side) gives columns equal to ``sample(..., rng=stream(seed, j))``
bit for bit, and a block drawn once serves every state with the same
seed.

``scipy.special`` is imported by each draw, not with the module: its
package init costs more than the rest of ``import semidist``.
"""

from __future__ import annotations

import math
import numbers
import struct
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .distributions import DistributionSpec, _count, _sf, chi_squared, cdf, normal

__all__ = [
    "State",
    "TwoSampleState",
    "Sample",
    "STREAM_CONTRACT",
    "stream",
    "sample",
    "mu_bar",
    "ss_bar",
    "sigma_bar",
    "sigma_bar_prime",
    "normal_prob",
    "image_prob_mean",
    "image_prob_ss",
]

Interval = tuple[float, float]

# Version of the mapping from (seed, replication) to draws; see the module
# docstring.  Any change to it changes every seeded result.
STREAM_CONTRACT = 3


@dataclass(frozen=True)
class State:
    """A population state (mu, sigma) with sigma > 0."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")


@dataclass(frozen=True)
class TwoSampleState:
    """A pair of independent population states."""

    first: State
    second: State


@dataclass(frozen=True)
class Sample:
    """A measured value: one tuple of reals, plus a second block for
    two-sample problems.  Each block is converted once, by ``_finite_row``
    (the one entry from Python numbers to float64 rows), into ``_rows``,
    whose estimates are computed on first use."""

    values: tuple[float, ...]
    second: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        x = _finite_row(self.values, "sample")
        y = None if self.second is None else _finite_row(self.second, "second block")
        object.__setattr__(self, "_rows", (x, y))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def m(self) -> int | None:
        return None if self.second is None else len(self.second)


def _finite_row(block: Sequence[float], name: str) -> "_Rows":
    """``block`` as one float64 row, each value converted once: the one
    way from Python numbers to a ``_Rows``, for a ``Sample``'s blocks and
    the estimator functions alike.  An empty block raises a ValueError, a
    value that is not a real number the TypeError (or OverflowError) that
    adding it raises, and a non-finite one a ValueError that names it and
    its index in the ``name`` block."""
    if len(block) < 1:
        raise ValueError(f"{name} must contain at least one value")
    try:
        packed = struct.pack(f"{len(block)}d", *block)
    except (struct.error, OverflowError):
        math.isfinite(sum(block))
        raise
    row = _Rows(np.frombuffer(packed)[:, None])
    # A finite sum proves every value finite; only a non-finite value (or
    # an overflowing sum) pays for the search.
    if not math.isfinite(row.sums[0]):
        finite = np.isfinite(row.values[:, 0])
        if not finite.all():
            i = int(finite.argmin())
            raise ValueError(f"{name} value {i} is not finite: {block[i]!r}")
    return row


def stream(seed: int, replication: int = 0) -> np.random.Generator:
    """Reproducible generator for one replication, derived from (seed, j):
    ``Philox(seed)`` advanced by j, so its counter sits just below
    replication j's first block.  The seed is an integer >= 0 and j one in
    0..2**64 - 1, the replications the counter's low 64 bits tell apart.

    Replications' counters are disjoint and none depends on the order the
    streams are created in.  With ``sample`` it is the reference
    implementation of the stream contract, which ``_sample_block``
    reproduces bit for bit.
    """
    bitgen = np.random.Philox(_count("seed", seed, 0))
    return np.random.Generator(bitgen.advance(_count("replication", replication, 0, (1 << 64) - 1)))


_Z_MAX = 8.21  # |Phi^-1(2^-53)| = 8.2095... rounded up: no draw has a larger |z|
_SHIFT12, _ONE_BITS = np.uint64(12), np.uint64(0x3FF0000000000000)


def _std_normal(words: np.ndarray) -> np.ndarray:
    """Phi^-1(u) for u = (2 (w >> 12) + 1) 2^-53, one raw 64-bit word w per
    value: u is exact, symmetric about 1/2 and never 0 or 1, so the extreme
    words give finite values near +-8.2.  u is formed exactly as
    1 + (w >> 12) 2^-52 (by its bits) minus 1 - 2^-53, in place: the
    C-contiguous ``words`` become the returned float64 array."""
    words >>= _SHIFT12
    words |= _ONE_BITS
    u = words.view(np.float64)
    u -= 1.0 - 2.0**-53
    from scipy.special import ndtri

    return ndtri(u, out=u)


def _counter_words(bitgen, count: int, rows: int) -> np.ndarray:
    """Raw words of ``rows`` consecutive replications, ``count`` per
    replication, as a (count, rows) array with one column per replication,
    from a bit generator advanced to the counter just below the first
    replication's.

    Each call of ``random_raw`` reads group g of four values for every
    replication (one Philox block each), which the transposed copy writes
    as rows 4g..4g+3 (the last group copies only its kept words), and
    ``advance`` then moves the counter's high part on to the next group.
    The array is C-contiguous for ``_std_normal``, and each value index is
    one contiguous row, so the estimators sum along axis 0 without a
    strided read.
    """
    words = np.empty((count, rows), np.uint64)
    for g in range(0, count, 4):
        words[g : g + 4] = bitgen.random_raw(4 * rows).reshape(rows, 4).T[: count - g]
        bitgen.advance((1 << 64) - rows)
    return words


def _std_block(seed: int, count: int, start: int, stop: int) -> np.ndarray:
    """Standard normals of replications start..stop-1 as a (count, rows)
    array: column i holds the ``count`` values that ``sample`` scales for
    replication ``start + i``, and row k value k of every replication,
    drawn by numpy's Philox a group of four rows at a time and put through
    ``sample``'s own word -> normal map.  Replications are the low 64 bits
    of the Philox counter, so start lies in 0..2**64 and stop in
    start..2**64.
    """
    start = _count("start", start, 0, 1 << 64)
    stop = _count("stop", stop, start, 1 << 64)
    bitgen = np.random.Philox(seed).advance(start)
    return _std_normal(_counter_words(bitgen, count, stop - start))


def _sides(truth: State | TwoSampleState) -> tuple[State, ...]:
    """The states of a truth's sides: the first block's and, two-sample
    only, the second's."""
    return (truth.first, truth.second) if isinstance(truth, TwoSampleState) else (truth,)


def _scale_side(z: np.ndarray, n: int, side: int, state: State) -> np.ndarray:
    """One side of a (count, rows) block of standard normals as draws of
    ``state``: side 0 is the contiguous slab of the first n rows (each
    replication's first block), side 1 the rest (the second block,
    two-sample only).  ``z`` is left as it is, so one draw can serve
    several states."""
    return _scale(z[n:] if side else z[:n], state)


def _sample_block(
    state: State | TwoSampleState,
    n: int,
    m: int | None,
    seed: int,
    start: int,
    stop: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Draws of replications start..stop-1, one column per replication:
    column i holds exactly the values of
    ``sample(state, n, m, rng=stream(seed, start + i))``.  Returns
    (first block, second block or None), shapes (n, rows) and (m, rows).
    """
    sides = _sides(state)
    z = _std_block(seed, n + (m if len(sides) > 1 else 0), start, stop)
    x, *y = (_scale_side(z, n, side, s) for side, s in enumerate(sides))
    return x, y[0] if y else None


def sample(
    state: State | TwoSampleState,
    n: int,
    m: int | None = None,
    *,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> Sample:
    """Draw a measured value: n i.i.d. normal draws from ``state`` (and an
    independent block of m draws from the second state for two-sample
    problems).  Deterministic given ``seed``; pass ``rng`` instead to use
    an externally derived stream.

    Each value takes one raw 64-bit word of the stream through the
    inverse normal CDF, four words per group with an advance of
    2**64 - 1 after each (the first n values give the first block, the
    next m the second); see ``STREAM_CONTRACT``.  ``rng``'s bit generator
    must have ``advance``.
    """
    if (seed is None) == (rng is None):
        raise ValueError("exactly one of seed and rng must be given")
    n = _count("n", n)
    if rng is None:
        rng = stream(seed)
    bitgen = rng.bit_generator
    if not hasattr(bitgen, "advance"):
        raise ValueError(
            f"rng must have a bit generator that can advance, as stream's "
            f"Philox does, got {type(bitgen).__name__}"
        )
    sides = _sides(state)
    if len(sides) > 1:
        m = _count("m", m)
    elif m is not None:
        raise ValueError("m is only meaningful for a TwoSampleState")
    z = _std_normal(_counter_words(bitgen, n + (m or 0), 1))
    blocks = (_scale_side(z, n, side, s)[:, 0].tolist() for side, s in enumerate(sides))
    return Sample(*map(tuple, blocks))


def _scale(z: np.ndarray, state: State) -> np.ndarray:
    """mu + sigma * z, rounded twice (product, then sum), so block rows
    equal ``sample``'s values bit for bit; ``z`` is never written.

    A step that changes no bit is skipped.  u is never 1/2, so every
    |z| >= 2.7e-16, and for sigma >= 1e-290 no product underflows to +-0:
    adding a zero mu (+0 or -0) to a nonzero value leaves it as it is, and
    so does a product by sigma = 1.  For N(0, 1) ``z`` itself is returned.
    """
    if state.mu == 0.0 and state.sigma >= 1e-290:
        return z if state.sigma == 1.0 else z * state.sigma
    out = z * state.sigma
    out += state.mu
    return out


# ---------------------------------------------------------------------------
# Estimator maps
# ---------------------------------------------------------------------------


_TINY = sys.float_info.min
# The power of two by which a column whose SS overflows is scaled down:
# its values' deviations, below 2^1025, then square to below 2^970.
_SHIFT = 540


def _pairwise_sum(terms: np.ndarray, in_place: bool = False) -> np.ndarray:
    """The sums of ``terms`` along axis 0 in one stated pairwise order, the
    order of every estimator's additions.  A level of k terms adds term
    i + k - k // 2 into term i for each i < k // 2, in one ufunc call on
    two slabs, and the middle term of an odd level stays where it is, so
    the next level has k - k // 2 terms.  Each term takes part in at most
    ceil(log2 n) additions, so each of the n-term sums lies within
    gamma(ceil(log2 n)) * sum |x_i| of the exact sum, where
    gamma(k) = k u / (1 - k u) and u = 2^-53 (Higham, "Accuracy and
    Stability of Numerical Algorithms", section 4.2).  Each column is
    added up on its own, so its sum does not depend on the columns beside
    it.  The first level writes a new array of k - k // 2 terms, or with
    ``in_place`` the terms themselves.
    """
    k = len(terms)
    if in_place:
        acc = terms
    else:
        acc = np.empty_like(terms[: k - k // 2])
        acc[k // 2 :] = terms[k // 2 : k - k // 2]
    while k > 1:
        h = k // 2
        np.add(terms[:h], terms[k - h : k], out=acc[:h])
        terms, k = acc, k - h
    # Copied out, so the work array is freed at once: kept alive by a view
    # for as long as the rows live, it made two-sample Monte Carlo
    # experiments about 15 % slower (measured at n = m = 10).
    return acc[0].copy()


def _corrected_ss(values: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """The corrected two-pass SS of each column about its ``mean`` (Chan,
    Golub and LeVeque, Am. Stat. 1983): the squared deviations' sum minus
    sd * (sd / n), where sd is the deviations' own sum, which removes the
    first-order error of a rounded mean.  The squares overwrite the
    deviations once sd is taken, so the SS holds one copy of the values
    (and half of one while sd is summed): keeping both side by side
    measured about 8 % slower on n = m = 50 blocks with two Monte Carlo
    workers."""
    dev = np.subtract(values, mean)
    sd = _pairwise_sum(dev)
    ss = _pairwise_sum(np.square(dev, out=dev), in_place=True)
    return ss - sd * (sd / len(values))


def _root(ss: np.ndarray, d: int) -> np.ndarray:
    """sqrt(ss / d), each step rounded once.  Where ss / d is subnormal
    (ss is 0 or at least tiny), the quotient is taken at ss * 2^128, where
    it is normal, and its root scaled back by 2^-64: both scalings are
    exact, so such a column loses no bits to the quotient's underflow."""
    q = ss / d
    root = np.sqrt(q)
    low = np.flatnonzero(q < _TINY)
    if low.size:
        root[low] = np.sqrt(ss[low] * 2.0**128 / d) * 2.0**-64
    return root


class _Rows:
    """Measured values as an (n, rows) array, one column per replication,
    with the estimators of every replication.  A ``Sample``'s block is an
    (n, 1) array, so a block of replications and a single measured value go
    through the same arithmetic: ``_pairwise_sum`` along axis 0, whose
    result for a column does not depend on the columns around it and lies
    within gamma(ceil(log2 n)) * sum |x_i| of the exact sum.  Each
    estimate is computed on first use; a sum that overflows, or a sum of
    squared deviations that is subnormal or 0 on values that are not all
    equal, raises a ValueError that says so."""

    def __init__(self, values: np.ndarray) -> None:
        self.values, self.n = values, values.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            # Finite exactly where a column's values are finite and their
            # sum does not overflow.
            self.sums = _pairwise_sum(values)

    @cached_property
    def mean(self) -> np.ndarray:
        if not np.isfinite(self.sums).all():
            raise ValueError("sum of the sample values overflows float64")
        return self.sums / self.n

    @cached_property
    def ss(self) -> np.ndarray:
        v, mean = self.values, self.mean
        with np.errstate(over="ignore", invalid="ignore"):
            ss = _corrected_ss(v, mean)
            rescaled = not np.isfinite(ss).all()
            if rescaled:
                # A deviation or its square overflows (or the correction
                # reads inf - inf): the column is summed again at 2^-_SHIFT
                # times its values and mean and its SS scaled back, exactly
                # (a value below 2^(_SHIFT - 1022) loses bits, but they lie
                # far below the rounding of an SS this large).  So the SS
                # is inf only near the top of the range, and a constant
                # column's is 0 as below.
                wide = np.flatnonzero(~np.isfinite(ss))
                down = (np.ldexp(a, -_SHIFT) for a in (v[:, wide], mean[wide]))
                ss[wide] = np.ldexp(_corrected_ss(*down), 2 * _SHIFT)
        # A constant column's SS is 0 or below the least normal (tiny): the
        # rounded mean of n copies of c lies a few ulps u off c, so every
        # deviation is the same k u (exact, by Sterbenz), and the partial
        # sums j k u, the squares k^2 u^2, the division by n and the
        # correction are exact (n k^2 is far below 2^53), so
        # SS = n k^2 u^2 - n k^2 u^2 = 0, except where the squares
        # underflow.  So only columns whose SS is not at
        # least tiny take the exact test, and a constant one is set to 0.
        near = np.flatnonzero(~(ss >= _TINY))
        if near.size:
            w = v[:, near]
            constant = (w == w[:1]).all(axis=0)
            ss[near[constant]] = 0.0
            # Distinct values whose squared deviations underflow, all of
            # them (SS = 0) or enough that SS is subnormal and has lost bits.
            if (ss[near[~constant]] < _TINY).any():
                raise ValueError("sum of squared deviations underflows float64")
        if rescaled and np.isinf(ss).any():
            raise ValueError("sum of squared deviations overflows float64")
        return ss

    @cached_property
    def sigma_bar(self) -> np.ndarray:
        return _root(self.ss, self.n)

    @cached_property
    def sigma_bar_prime(self) -> np.ndarray:
        return _root(self.ss, self.n - 1)


def mu_bar(values: Sequence[float]) -> float:
    """Arithmetic mean (x_1 + ... + x_n) / n."""
    return float(_finite_row(values, "sample").mean[0])


def ss_bar(values: Sequence[float]) -> float:
    """Sum of squared deviations from the sample mean; 0 iff all equal."""
    return float(_finite_row(values, "sample").ss[0])


def sigma_bar(values: Sequence[float]) -> float:
    """sqrt(SS / n): the n-denominator standard deviation."""
    return float(_finite_row(values, "sample").sigma_bar[0])


def sigma_bar_prime(values: Sequence[float]) -> float:
    """sqrt(SS / (n - 1)): the (n-1)-denominator standard deviation.

    Tied to sigma_bar by sigma_bar = sqrt((n-1)/n) * sigma_bar_prime.
    """
    n = len(values)
    if n < 2:
        raise ValueError(f"sigma_bar_prime needs n >= 2, got n={n}")
    return float(_finite_row(values, "sample").sigma_bar_prime[0])


# ---------------------------------------------------------------------------
# Interval probabilities of the model and its images
# ---------------------------------------------------------------------------


def _as_intervals(interval: Interval | Iterable[Interval]) -> list[Interval]:
    """``interval``, a pair of reals (Python or numpy) or a union of such
    pairs, as a sorted list of (lo, hi) pairs of floats, none of them empty
    and no two overlapping, so their masses add up to the union's.  The
    intervals are open, so two may touch at an end."""
    pair = (
        isinstance(interval, tuple)
        and len(interval) == 2
        and all(isinstance(v, numbers.Real) for v in interval)
    )
    out = sorted((float(lo), float(hi)) for lo, hi in ([interval] if pair else interval))
    if not out:
        raise ValueError("empty interval union")
    for lo, hi in out:
        if hi <= lo:
            raise ValueError(f"empty interval ({lo!r}, {hi!r})")
    for (lo, hi), (lo2, hi2) in zip(out, out[1:]):
        if lo2 < hi:
            raise ValueError(f"intervals ({lo!r}, {hi!r}) and ({lo2!r}, {hi2!r}) overlap")
    return out


def _interval_mass(spec: DistributionSpec, centre: float, lo: float, hi: float) -> float:
    """The mass of (lo, hi) under ``spec``.  An interval above ``centre``, a
    point in the bulk of the law, is read from the upper tail as
    sf(lo) - sf(hi), any other from the lower tail as cdf(hi) - cdf(lo), so
    a far-tail mass keeps its relative precision rather than cancelling."""
    if lo >= centre:
        above = 0.0 if hi == math.inf else _sf(spec, hi)
        return _sf(spec, lo) - above
    below = 0.0 if lo == -math.inf else cdf(spec, lo)
    return (1.0 if hi == math.inf else cdf(spec, hi)) - below


def normal_prob(state: State, interval: Interval | Iterable[Interval]) -> float:
    """Probability the single-draw observation lands in ``interval``.

    ``interval`` is an (a, b) pair (endpoints may be +-inf) or an
    iterable of disjoint pairs, which may touch, whose masses are summed.
    """
    mu, sd = state.mu, state.sigma
    return math.fsum(
        _interval_mass(normal(), 0.0, (lo - mu) / sd, (hi - mu) / sd)
        for lo, hi in _as_intervals(interval)
    )


def image_prob_mean(
    state: State, n: int, interval: Interval | Iterable[Interval]
) -> float:
    """Probability that the n-sample mean lands in ``interval``.

    The mean of n draws is Normal(mu, sigma/sqrt(n)).
    """
    n = _count("n", n)
    return normal_prob(State(state.mu, state.sigma / math.sqrt(n)), interval)


def image_prob_ss(
    state: State, n: int, interval: Interval | Iterable[Interval]
) -> float:
    """Probability that the n-sample sum of squared deviations lands in
    ``interval`` (a subset of (0, inf)).

    SS / sigma^2 is chi-squared with n - 1 degrees of freedom, so the
    mass is the chi-squared mass of interval / sigma^2.
    """
    n = _count("n", n, 2)
    spec, var = chi_squared(n - 1), state.sigma**2
    intervals = _as_intervals(interval)
    if intervals[0][0] < 0.0:  # the least lower end, as the union is sorted
        raise ValueError(f"SS interval must lie in (0, inf), got lo={intervals[0][0]!r}")
    # The law's mean, n - 1, is a point in its bulk.
    return math.fsum(_interval_mass(spec, n - 1, lo / var, hi / var) for lo, hi in intervals)
