"""Normal measurement model: states, estimators and sampling.

A state is a point (mu, sigma) of R x R+.  Observing the model n times
yields a measured value x = (x_1, ..., x_n) of i.i.d. Normal(mu, sigma^2)
draws; two-sample problems observe two independent blocks.  The
estimator maps (sample mean, sum of squared deviations, and the two
standard-deviation scalings) are defined once, on (rows, n) arrays of
measured values, and a single measured value is a batch of one row.  The
pushforward probabilities of the mean and SS statistics live here too.

Sampling is stream-based: each (seed, replication) pair deterministically
derives an independent PCG64 stream (O'Neill 2014), so any partition of
replications over workers reproduces the sequential results exactly.
``stream`` is the reference for the stream and ``sample`` for the draws.

Stream contract 2 (``STREAM_CONTRACT``): replication j's stream is
``PCG64(SeedSequence(seed, spawn_key=(j,)))``, and each value takes
exactly one raw 64-bit word w of it, x = mu + sigma * Phi^-1(u) with
u = (2 (w >> 12) + 1) 2^-53; the first n words give the first block and
the next m the second.  (Contract 1 drew with numpy's ziggurat, whose
word count per value varies.)  Because every value costs one word,
``_std_block`` computes the standard normals of a whole block of
replications with numpy uint64 arithmetic: bulk SeedSequence
derivation, PCG64 seeding, the 128-bit LCG by jump-ahead doubling and
the XSL-RR output, then the same word -> normal map as ``sample``.
``_scale_side`` turns the columns of one side (first or second block)
into one state's draws with ``sample``'s own two roundings, so a block
drawn once serves every state with the same seed, and ``_sample_block``
(draw, then ``_scale_rows`` both sides) gives rows equal to
``sample(..., rng=stream(seed, j))`` bit for bit.

``scipy.special`` is imported on the first draw, not with the module.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .distributions import chi_squared, cdf, normal

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
STREAM_CONTRACT = 2


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
        for name, block in (("sample", self.values), ("second block", self.second)):
            # A finite sum proves every value finite; only a non-finite
            # value (or an overflowing sum) pays for the search.
            if block is not None and not math.isfinite(sum(block)):
                for i, v in enumerate(block):
                    if not math.isfinite(v):
                        raise ValueError(f"{name} value {i} is not finite: {v!r}")

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def _rows(self) -> tuple["_Rows", "_Rows | None"]:
        """The blocks as one row each, estimated once per sample."""
        return _Rows.of(self.values), None if self.second is None else _Rows.of(self.second)

    @property
    def m(self) -> int | None:
        return None if self.second is None else len(self.second)


def stream(seed: int, replication: int = 0) -> np.random.Generator:
    """Reproducible generator for one replication, derived from (seed, j).

    Streams for distinct replications are statistically independent and
    do not depend on the order they are created in.  With ``sample`` it
    is the reference implementation of the stream contract, which
    ``_sample_block`` reproduces bit for bit.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    return np.random.Generator(np.random.PCG64(ss))


# numpy's SeedSequence hash constants (uint32 arithmetic, pool of 4 words)
# and PCG64's 128-bit LCG multiplier (O'Neill 2014).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_LOW32 = np.uint64(_MASK32)
_SHIFT12, _ONE_BITS = np.uint64(12), np.uint64(0x3FF0000000000000)
# Values whose words are built at once: small enough that a tile's uint64
# temporaries stay in cache.
_TILE_VALUES = 1 << 14


# scipy.special.ndtri, bound by ``_load_ndtri`` on the first draw: the
# package init of scipy.special costs more than the rest of
# ``import semidist``, and most commands never draw.
_ndtri = None


def _load_ndtri():
    """Import and bind ``ndtri`` once.  ``montecarlo`` calls this just
    before it opens its worker pool, which then lives for the rest of the
    process, so that the forked workers inherit the import."""
    global _ndtri
    if _ndtri is None:
        from scipy.special import ndtri

        _ndtri = ndtri
    return _ndtri


_Z_MAX = 8.21  # |Phi^-1(2^-53)| = 8.2095... rounded up: no draw has a larger |z|


def _std_normal(words: np.ndarray) -> np.ndarray:
    """Phi^-1(u) for u = (2 (w >> 12) + 1) 2^-53, one raw 64-bit word w per
    value: u is exact, symmetric about 1/2 and never 0 or 1, so the extreme
    words give finite values near +-8.2.  u is formed exactly as
    1 + (w >> 12) 2^-52 (by its bits) minus 1 - 2^-53."""
    bits = words >> _SHIFT12
    bits |= _ONE_BITS
    u = bits.view(np.float64)
    u -= 1.0 - 2.0**-53
    return (_ndtri or _load_ndtri())(u, out=u)


def _mul128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(a * b) mod 2**128 on uint64 (high, low) halves, broadcasting."""
    shift = np.uint64(32)
    a0, a1 = a_lo & _LOW32, a_lo >> shift
    b0, b1 = b_lo & _LOW32, b_lo >> shift
    p01, p10 = a0 * b1, a1 * b0
    # High word of a_lo * b_lo from its four 32-bit partial products.
    mid = ((a0 * b0) >> shift) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = a1 * b1 + (p01 >> shift) + (p10 >> shift) + (mid >> shift)
    return carry + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


def _add128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(a + b) mod 2**128 on uint64 (high, low) halves, broadcasting."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    # 128-bit Python ints as uint64 (high, low) column vectors.
    hi = np.array([v >> 64 for v in values], np.uint64)[:, None]
    lo = np.array([v & _MASK64 for v in values], np.uint64)[:, None]
    return hi, lo


def _jumps(count: int) -> tuple[list[int], list[int]]:
    """A_h = M^h and C_h = M^(h-1) + ... + 1 (mod 2**128) for h = 1, 2, 4,
    ... below ``count``: h LCG steps map a state s to A_h s + C_h inc."""
    a, c = [], []
    jump, offset, h = _PCG_MULT, 1, 1
    while h < count:
        a.append(jump)
        c.append(offset)
        offset = (offset * (jump + 1)) & _MASK128
        jump = (jump * jump) & _MASK128
        h *= 2
    return a, c


def _pcg_words(
    hi: np.ndarray,
    lo: np.ndarray,
    jumps: tuple[np.ndarray, np.ndarray],
    offsets: tuple[np.ndarray, np.ndarray],
    count: int,
) -> np.ndarray:
    """PCG64 outputs of ``count`` successive states per stream, as a
    (count, rows) array: column r is ``random_raw(count)`` of stream r.

    (hi, lo) holds each stream's first stepped state; row k of ``jumps``
    holds A_h for h = 2^k and row k of ``offsets`` holds C_h * inc per
    stream, so doubling h fills the rows in log2(count) steps.
    """
    s_hi = np.empty((count, hi.size), np.uint64)
    s_lo = np.empty_like(s_hi)
    s_hi[0], s_lo[0] = hi, lo
    h = 1
    for a_hi, a_lo, c_hi, c_lo in zip(*jumps, *offsets):
        k = min(h, count - h)
        s_hi[h : h + k], s_lo[h : h + k] = _add128(
            *_mul128(s_hi[:k], s_lo[:k], a_hi, a_lo), c_hi, c_lo
        )
        h *= 2
    # XSL-RR output: the xor of the halves, rotated right by the top 6 bits.
    rot = s_hi >> np.uint64(58)
    x = s_hi ^ s_lo
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


def _hashmix(
    values: np.ndarray, hash_const: int, mult: int
) -> tuple[np.ndarray, int]:
    # SeedSequence's word hash over an array, with the running hash
    # constant threaded through as a Python int.
    values = values ^ np.uint32(hash_const)
    hash_const = (hash_const * mult) & _MASK32
    values = values * np.uint32(hash_const)
    return values ^ (values >> np.uint32(16)), hash_const


def _block_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(j,)).generate_state(4, uint64)`` for
    j in start..stop-1, as a (rows, 4) array.

    The spawn key is mixed into the seed's pool for the whole block with
    numpy uint32 arithmetic, and the four state words are generated the
    same way.
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
    return np.stack(
        [halves[2 * k] | (halves[2 * k + 1] << np.uint64(32)) for k in range(4)], axis=1
    )


def _std_block(seed: int, count: int, start: int, stop: int) -> np.ndarray:
    """Standard normals of replications start..stop-1 as a (rows, count)
    array: row i holds the ``count`` values that ``sample`` scales for
    replication ``start + i``.

    No generator is built: the block's SeedSequence states are derived in
    bulk, PCG64's seeding and its 128-bit LCG run on uint64 (high, low)
    halves, and the raw words go through ``sample``'s own word -> normal
    map, tile by tile.
    """
    s_hi, s_lo, q_hi, q_lo = _block_seeds(seed, start, stop).T
    # PCG64 seeding: inc = 2q + 1, state = (inc + s) * M + inc; one more
    # step gives the state of the first output.
    inc_hi = (q_hi << np.uint64(1)) | (q_lo >> np.uint64(63))
    inc_lo = (q_lo << np.uint64(1)) | np.uint64(1)
    m_hi, m_lo = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
    hi, lo = _add128(inc_hi, inc_lo, s_hi, s_lo)
    for _ in range(2):
        hi, lo = _add128(*_mul128(hi, lo, m_hi, m_lo), inc_hi, inc_lo)
    a, c = _jumps(count)
    jumps = _halves(a)
    offsets = _mul128(inc_hi, inc_lo, *_halves(c))

    rows_total = stop - start
    z = np.empty((rows_total, count))
    tiles = -(-rows_total * count // _TILE_VALUES)
    for t in range(tiles):
        rows = slice(t * rows_total // tiles, (t + 1) * rows_total // tiles)
        tile_offsets = (offsets[0][:, rows], offsets[1][:, rows])
        z[rows] = _std_normal(_pcg_words(hi[rows], lo[rows], jumps, tile_offsets, count)).T
    return z


def _scale_side(z: np.ndarray, n: int, side: int, state: State) -> np.ndarray:
    """One side of rows of standard normals as draws of ``state``: side 0
    is the first n columns (each replication's first block), side 1 the
    rest (the second block, two-sample only).  ``z`` is left as it is, so
    one draw can serve several states."""
    return _scale(z[:, n:] if side else z[:, :n], state)


def _scale_rows(
    z: np.ndarray, state: State | TwoSampleState, n: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Rows of standard normals as draws of ``state``: the first n columns
    scaled by its first state, the rest (two-sample only) by the second."""
    if isinstance(state, TwoSampleState):
        return _scale_side(z, n, 0, state.first), _scale_side(z, n, 1, state.second)
    return _scale_side(z, n, 0, state), None


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
    Returns (first block, second block or None), shapes (rows, n), (rows, m).
    """
    count = n + (m if isinstance(state, TwoSampleState) else 0)
    return _scale_rows(_std_block(seed, count, start, stop), state, n)


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

    Each value takes one raw 64-bit word of the stream (the first n words
    give the first block, the next m the second) through the inverse
    normal CDF; see ``STREAM_CONTRACT``.
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
        z = _std_normal(rng.bit_generator.random_raw(n + m))
        x, y = _scale(z[:n], state.first), _scale(z[n:], state.second)
        return Sample(tuple(x.tolist()), tuple(y.tolist()))
    if m is not None:
        raise ValueError("m is only meaningful for a TwoSampleState")
    x = _scale(_std_normal(rng.bit_generator.random_raw(n)), state)
    return Sample(tuple(x.tolist()))


def _scale(z: np.ndarray, state: State) -> np.ndarray:
    # mu + sigma * z as a new array, rounded twice (product, then sum) on
    # every path, so block rows equal ``sample``'s values bit for bit.
    out = z * state.sigma
    out += state.mu
    return out


# ---------------------------------------------------------------------------
# Estimator maps
# ---------------------------------------------------------------------------


class _Rows:
    """Measured values as a (rows, n) array, one replication per row, with
    the estimators of every row.  A ``Sample`` is a batch of one row, so a
    block of replications and a single measured value go through the same
    arithmetic: numpy row sums, whose result for a row does not depend on
    the rows around it.  The means are computed at once, the rest on first
    use; a sum that overflows raises a ValueError that says so."""

    def __init__(self, values: np.ndarray) -> None:
        self.values, self.n = values, values.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            self.mean = values.sum(axis=1) / self.n
        if not np.isfinite(self.mean).all():
            raise ValueError("sum of the sample values overflows float64")

    @classmethod
    def of(cls, values: Sequence[float], name: str = "sample") -> "_Rows":
        """One row of values; ``name`` says what an empty one was meant for."""
        if len(values) < 1:
            raise ValueError(f"{name} of an empty sample")
        return cls(np.array(values, dtype=float, ndmin=2))

    @cached_property
    def ss(self) -> np.ndarray:
        v = self.values
        with np.errstate(over="ignore", invalid="ignore"):
            dev = v - self.mean[:, None]
            ss = np.einsum("ij,ij->i", dev, dev)
        if not np.isfinite(ss).all():
            raise ValueError("sum of squared deviations overflows float64")
        # A rounded mean leaves a constant row off its value; its SS is 0.
        ss[(v == v[:, :1]).all(axis=1)] = 0.0
        return ss

    @cached_property
    def sigma_bar(self) -> np.ndarray:
        return np.sqrt(self.ss / self.n)

    @cached_property
    def sigma_bar_prime(self) -> np.ndarray:
        return np.sqrt(self.ss / (self.n - 1))


def mu_bar(values: Sequence[float]) -> float:
    """Arithmetic mean (x_1 + ... + x_n) / n."""
    return float(_Rows.of(values, "mean").mean[0])


def ss_bar(values: Sequence[float]) -> float:
    """Sum of squared deviations from the sample mean; 0 iff all equal."""
    return float(_Rows.of(values, "sum of squares").ss[0])


def sigma_bar(values: Sequence[float]) -> float:
    """sqrt(SS / n): the n-denominator standard deviation."""
    return float(_Rows.of(values, "sum of squares").sigma_bar[0])


def sigma_bar_prime(values: Sequence[float]) -> float:
    """sqrt(SS / (n - 1)): the (n-1)-denominator standard deviation.

    Tied to sigma_bar by sigma_bar = sqrt((n-1)/n) * sigma_bar_prime.
    """
    n = len(values)
    if n < 2:
        raise ValueError(f"sigma_bar_prime needs n >= 2, got n={n}")
    return float(_Rows.of(values).sigma_bar_prime[0])


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
