"""Normal measurement model: states, estimators and sampling.

A state is a point (mu, sigma) of R x R+.  Observing the model n times
yields a measured value x = (x_1, ..., x_n) of i.i.d. Normal(mu, sigma^2)
draws; two-sample problems observe two independent blocks.  The
estimator maps (sample mean, sum of squared deviations, and the two
standard-deviation scalings) and the pushforward probabilities of the
mean and SS statistics live here.

Sampling is stream-based: each (seed, replication) pair deterministically
derives an independent generator, so any partition of replications over
workers reproduces the sequential results exactly.  ``stream`` is the
reference implementation of that contract.  ``_sample_block`` draws a
block of replications at once for the Monte Carlo kernel: it re-derives
numpy's SeedSequence -> PCG64 seeding for every replication of the block
with array arithmetic and re-seeds one generator per row, and its rows
equal ``sample(..., rng=stream(seed, j))`` bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distributions import chi_squared, cdf, normal

__all__ = [
    "State",
    "TwoSampleState",
    "Sample",
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
    two-sample problems."""

    values: tuple[float, ...]
    second: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValueError("sample must contain at least one value")
        if self.second is not None and len(self.second) < 1:
            raise ValueError("second block must contain at least one value")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def m(self) -> int | None:
        return None if self.second is None else len(self.second)


def stream(seed: int, replication: int = 0) -> np.random.Generator:
    """Reproducible generator for one replication, derived from (seed, j).

    Streams for distinct replications are statistically independent and
    do not depend on the order they are created in.  This is the
    reference implementation of the stream contract; ``_sample_block``
    must reproduce it bit for bit.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    return np.random.Generator(np.random.PCG64(ss))


# numpy's SeedSequence hash constants (uint32 arithmetic, pool of 4 words)
# and PCG64's 128-bit LCG multiplier (O'Neill 2014).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hashmix(
    values: np.ndarray, hash_const: int, mult: int
) -> tuple[np.ndarray, int]:
    # SeedSequence's word hash over an array, with the running hash
    # constant threaded through as a Python int.
    values = values ^ np.uint32(hash_const)
    hash_const = (hash_const * mult) & _MASK32
    values = values * np.uint32(hash_const)
    return values ^ (values >> np.uint32(16)), hash_const


def _sample_block(
    state: State | TwoSampleState,
    n: int,
    m: int | None,
    seed: int,
    start: int,
    stop: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Draws of replications start..stop-1 as rows: row i holds exactly
    the values of ``sample(state, n, m, rng=stream(seed, start + i))``.

    Instead of building a SeedSequence and a PCG64 per replication, the
    spawn key is mixed into the seed's pool for the whole block with
    numpy uint32 arithmetic, the four state words are generated the same
    way, PCG64's two-step seeding runs on Python ints, and one reused
    generator is re-seeded through its public state setter per row.
    Returns (first block, second block or None), shapes (rows, n), (rows, m).
    """
    if not 0 <= start <= stop <= 1 << 32:
        raise ValueError(
            f"bulk stream derivation covers replications 0 to 2**32 - 1, "
            f"got {start} to {stop - 1}"
        )
    seed = operator.index(seed)
    pool = [int(w) for w in np.random.SeedSequence(seed).pool]
    # The pool took 4 hash calls per seed word beyond the first four, on
    # top of the 16 it always takes; the spawn key's calls come next.
    words = max(1, -(-seed.bit_length() // 32))
    calls = 16 + 4 * max(0, words - 4)
    hash_const = (_INIT_A * pow(_MULT_A, calls, 1 << 32)) & _MASK32
    key = np.arange(start, stop, dtype=np.uint32)
    mixed = []
    for word in pool:
        hashed, hash_const = _hashmix(key, hash_const, _MULT_A)
        mixed_word = np.uint32((_MIX_MULT_L * word) & _MASK32) - np.uint32(_MIX_MULT_R) * hashed
        mixed.append(mixed_word ^ (mixed_word >> np.uint32(16)))
    # generate_state(4, uint64): 8 words cycling over the pool, paired
    # low word first into 4 uint64 values.
    hash_const = _INIT_B
    halves = []
    for k in range(8):
        value, hash_const = _hashmix(mixed[k % 4], hash_const, _MULT_B)
        halves.append(value.astype(np.uint64))
    seeds = np.stack(
        [halves[2 * k] | (halves[2 * k + 1] << np.uint64(32)) for k in range(4)], axis=1
    )

    two = isinstance(state, TwoSampleState)
    first = state.first if two else state
    xs = np.empty((stop - start, n))
    ys = np.empty((stop - start, m)) if two else None
    bit_generator = np.random.PCG64(0)
    gen = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for i, (s_hi, s_lo, q_hi, q_lo) in enumerate(seeds.tolist()):
        inc = ((((q_hi << 64) | q_lo) << 1) | 1) & _MASK128
        pcg["state"] = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        pcg["inc"] = inc
        bit_generator.state = full
        xs[i] = gen.normal(first.mu, first.sigma, n)
        if two:
            ys[i] = gen.normal(state.second.mu, state.second.sigma, m)
    return xs, ys


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
    """
    if (seed is None) == (rng is None):
        raise ValueError("exactly one of seed and rng must be given")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if rng is None:
        rng = stream(seed)
    if isinstance(state, TwoSampleState):
        if m is None or m < 1:
            raise ValueError(f"two-sample draw needs m >= 1, got {m}")
        x = rng.normal(state.first.mu, state.first.sigma, n)
        y = rng.normal(state.second.mu, state.second.sigma, m)
        return Sample(tuple(x.tolist()), tuple(y.tolist()))
    if m is not None:
        raise ValueError("m is only meaningful for a TwoSampleState")
    x = rng.normal(state.mu, state.sigma, n)
    return Sample(tuple(x.tolist()))


# ---------------------------------------------------------------------------
# Estimator maps
# ---------------------------------------------------------------------------


def mu_bar(values: Sequence[float]) -> float:
    """Arithmetic mean (x_1 + ... + x_n) / n."""
    if len(values) < 1:
        raise ValueError("mean of an empty sample")
    return math.fsum(values) / len(values)


def ss_bar(values: Sequence[float]) -> float:
    """Sum of squared deviations from the sample mean; 0 iff all equal."""
    if len(values) < 1:
        raise ValueError("sum of squares of an empty sample")
    center = mu_bar(values)
    return math.fsum((v - center) ** 2 for v in values)


def sigma_bar(values: Sequence[float]) -> float:
    """sqrt(SS / n): the n-denominator standard deviation."""
    return math.sqrt(ss_bar(values) / len(values))


def sigma_bar_prime(values: Sequence[float]) -> float:
    """sqrt(SS / (n - 1)): the (n-1)-denominator standard deviation.

    Tied to sigma_bar by sigma_bar = sqrt((n-1)/n) * sigma_bar_prime.
    """
    n = len(values)
    if n < 2:
        raise ValueError(f"sigma_bar_prime needs n >= 2, got n={n}")
    return math.sqrt(ss_bar(values) / (n - 1))


# ---------------------------------------------------------------------------
# Interval probabilities of the model and its images
# ---------------------------------------------------------------------------


def _as_intervals(interval: Interval | Iterable[Interval]) -> list[Interval]:
    if (
        isinstance(interval, tuple)
        and len(interval) == 2
        and all(isinstance(v, (int, float)) for v in interval)
    ):
        return [interval]
    out = list(interval)  # type: ignore[arg-type]
    if not out:
        raise ValueError("empty interval union")
    return out


def _normal_interval_mass(mu: float, sd: float, lo: float, hi: float) -> float:
    if hi <= lo:
        raise ValueError(f"empty interval ({lo!r}, {hi!r})")
    upper = 1.0 if hi == math.inf else cdf(normal(), (hi - mu) / sd)
    lower = 0.0 if lo == -math.inf else cdf(normal(), (lo - mu) / sd)
    return upper - lower


def normal_prob(state: State, interval: Interval | Iterable[Interval]) -> float:
    """Probability the single-draw observation lands in ``interval``.

    ``interval`` is an (a, b) pair (endpoints may be +-inf) or an
    iterable of disjoint pairs whose masses are summed.
    """
    return math.fsum(
        _normal_interval_mass(state.mu, state.sigma, lo, hi)
        for lo, hi in _as_intervals(interval)
    )


def image_prob_mean(
    state: State, n: int, interval: Interval | Iterable[Interval]
) -> float:
    """Probability that the n-sample mean lands in ``interval``.

    The mean of n draws is Normal(mu, sigma/sqrt(n)).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sd = state.sigma / math.sqrt(n)
    return math.fsum(
        _normal_interval_mass(state.mu, sd, lo, hi)
        for lo, hi in _as_intervals(interval)
    )


def image_prob_ss(
    state: State, n: int, interval: Interval | Iterable[Interval]
) -> float:
    """Probability that the n-sample sum of squared deviations lands in
    ``interval`` (a subset of (0, inf)).

    SS / sigma^2 is chi-squared with n - 1 degrees of freedom, so the
    mass is the chi-squared mass of interval / sigma^2.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    spec = chi_squared(n - 1)
    var = state.sigma**2
    total = 0.0
    for lo, hi in _as_intervals(interval):
        if hi <= lo:
            raise ValueError(f"empty interval ({lo!r}, {hi!r})")
        if lo < 0.0:
            raise ValueError(f"SS interval must lie in (0, inf), got lo={lo!r}")
        upper = 1.0 if hi == math.inf else cdf(spec, hi / var)
        lower = cdf(spec, lo / var) if lo > 0.0 else 0.0
        total += upper - lower
    return total
