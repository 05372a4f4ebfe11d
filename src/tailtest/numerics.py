"""Chi-squared distribution functions and reproducible random streams.

The test's degrees of freedom are always integers (one less than the cell
count), so the chi-squared tail needs no general incomplete-gamma solver.
Below x = dof + 2 the lower tail comes from the incomplete-gamma power
series; at or above it the upper tail is the finite closed form for integer
dof (Abramowitz & Stegun 26.4.4-26.4.5), a sum of positive terms that keeps
full relative precision far into the tail. Quantiles are obtained by a
safeguarded Newton iteration inside a maintained bracket, finished by
bisection in log x where Newton stalls in the far lower tail.

Random numbers come from numpy's Philox counter-based generator. A stream
is fully determined by ``(master_seed, stream_id)``, so replicates keyed by
distinct ids are reproducible regardless of execution order or thread
scheduling. Philox is counter-based (Salmon et al., SC'11): replicate b of
a bootstrap stream is the stream's own Philox jumped b + 1 times, its key at
counter (0, 0, b + 1, 0), so a run of replicates is drawn by loading
counters into one generator rather than by building a generator for each.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError

_EPS = 1e-16
_MAX_SERIES_ITER = 600


def _lower_gamma_series(a: float, x: float) -> float:
    # P(a,x) = x^a e^-x / Gamma(a) * sum_k x^k / (a(a+1)...(a+k)), for x < a+1.
    log_prefactor = a * math.log(x) - x - math.lgamma(a)
    term = 1.0 / a
    total = term
    for k in range(1, _MAX_SERIES_ITER):
        term *= x / (a + k)
        total += term
        if abs(term) < abs(total) * _EPS:
            return min(1.0, math.exp(log_prefactor) * total)
    raise NumericalError(f"incomplete gamma series failed for a={a}, x={x}")


def _upper_gamma_sum(dof: int, y: float) -> float:
    # Q(dof/2, y) for integer dof (Abramowitz & Stegun 26.4.4-26.4.5):
    # [dof odd] erfc(sqrt(y)) + sum of y^b e^-y / Gamma(b+1) over
    # b = dof/2 - 1, dof/2 - 2, ... > -1/2. For y >= dof/2 + 1 each term is
    # the previous one times b/y < 1, so the first term factors out safely.
    total = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    if dof >= 2:
        b0 = dof / 2.0 - 1.0
        ratio, ratios = 1.0, 1.0
        for i in range(dof // 2 - 1):
            ratio *= (b0 - i) / y
            ratios += ratio
        total += math.exp(b0 * math.log(y) - y - math.lgamma(b0 + 1.0)) * ratios
    return total


def _check_dof(dof: int) -> None:
    if dof < 1 or int(dof) != dof:
        raise DomainError(f"degrees of freedom must be a positive integer, got {dof}")


def _half_argument(x: float, dof: int) -> float:
    _check_dof(dof)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"chi-squared argument must be finite and non-negative, got {x}")
    return x / 2.0


def chisq_cdf(x: float, dof: int) -> float:
    """Chi-squared CDF with ``dof`` degrees of freedom, P(a=dof/2, x/2)."""
    y = _half_argument(x, dof)
    if y == 0.0:
        return 0.0
    if y < dof / 2.0 + 1.0:
        return _lower_gamma_series(dof / 2.0, y)
    return 1.0 - _upper_gamma_sum(dof, y)


def chisq_sf(x: float, dof: int) -> float:
    """Chi-squared upper tail P(X > x), exact to relative precision in the tail."""
    y = _half_argument(x, dof)
    if y == 0.0:
        return 1.0
    if y < dof / 2.0 + 1.0:
        return 1.0 - _lower_gamma_series(dof / 2.0, y)
    return _upper_gamma_sum(dof, y)


def _chisq_pdf(x: float, dof: int) -> float:
    if x <= 0:
        return 0.0
    a = dof / 2.0
    return 0.5 * math.exp((a - 1.0) * math.log(x / 2.0) - x / 2.0 - math.lgamma(a))


def chisq_quantile(p: float, dof: int) -> float:
    """Inverse chi-squared CDF by bracketed Newton/bisection hybrid.

    Returns x with chisq_cdf(x, dof) = p to about 1e-13 relative error; the
    bracket is narrowed until it is that narrow relative to the root.
    """
    _check_dof(dof)
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability must lie in (0,1), got {p}")

    lo, hi = 0.0, 4.0 * dof
    for _ in range(200):
        if chisq_cdf(hi, dof) >= p:
            break
        hi *= 2.0
    else:
        raise NumericalError(f"failed to bracket chi-squared quantile p={p}, dof={dof}")

    # Solve in whichever tail keeps full relative precision: the residual is
    # cdf - p below the median mass, q - sf above it (q = 1 - p is exact there).
    # Below the median start from the root of y^a / Gamma(a+1) = p, a lower
    # bound on the quantile (P(a, y) <= y^a / Gamma(a+1)) that is close in the
    # far lower tail; above it start from the mean.
    q = 1.0 - p
    use_upper = p > 0.5
    a = dof / 2.0
    x = float(dof) if use_upper else 2.0 * math.exp((math.log(p) + math.lgamma(a + 1.0)) / a)
    for _ in range(300):
        f = (q - chisq_sf(x, dof)) if use_upper else (chisq_cdf(x, dof) - p)
        if f > 0.0:
            hi = x
        else:
            lo = x
        if abs(f) <= 1e-13 * (q if use_upper else p):
            return x
        deriv = _chisq_pdf(x, dof)
        candidate = x - f / deriv if deriv > 0.0 else 0.5 * (lo + hi)
        if not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        if hi - lo <= 1e-13 * hi:
            return 0.5 * (lo + hi)
        x = candidate
    # Far in the lower tail at large dof, Newton from the right crawls down the
    # convex CDF, shrinking x by about a factor 1 - 2/dof per step. Bisect the
    # bracket left over in log x, which halves the decades it spans each step.
    while hi - lo > 1e-13 * hi:
        x = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else 0.5 * hi
        if not lo < x < hi:  # a bracket among the smallest subnormals
            break
        f = (q - chisq_sf(x, dof)) if use_upper else (chisq_cdf(x, dof) - p)
        if f > 0.0:
            hi = x
        else:
            lo = x
    return 0.5 * (lo + hi)


_MASK64 = 2 ** 64 - 1


class RngStream:
    """Reproducible random stream keyed by ``(master_seed, stream_id)``.

    Backed by numpy's counter-based Philox generator seeded through a
    SeedSequence with the stream id as spawn key, so distinct ids give
    statistically independent streams and the same key always replays the
    same sequence. ``child(i)`` derives a nested independent stream, which
    is how per-replicate streams are allocated in parallel studies;
    ``jumped_permutations`` draws bootstrap replicates from jumps of the
    stream's own Philox.
    """

    def __init__(self, master_seed: int, stream_id: int | tuple[int, ...] = 0):
        if master_seed < 0:
            raise DomainError(f"master seed must be non-negative, got {master_seed}")
        key = (stream_id,) if isinstance(stream_id, int) else tuple(stream_id)
        if any(k < 0 for k in key):
            raise DomainError(f"stream id must be non-negative, got {stream_id}")
        self.master_seed = int(master_seed)
        self.stream_id = key if len(key) != 1 else key[0]
        self._key = key
        self._gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=self.master_seed, spawn_key=key))
        )

    def child(self, *indices: int) -> "RngStream":
        """Independent sub-stream identified by ``(master_seed, key + indices)``:
        ``child(i, j)`` is ``child(i).child(j)``, built as one stream."""
        return RngStream(self.master_seed, self._key + indices)

    def uniform(self, size=None):
        """Uniform draws strictly inside (0, 1)."""
        # random() is a 53-bit integer b over 2**53, so this is (b + 0.5) / 2**53.
        # The top draw rounds to 1.0; cap it at the largest double below 1,
        # which no other draw gives.
        return np.minimum(self._gen.random(size) + 2.0 ** -54, 1.0 - 2.0 ** -53)

    def exponential(self, size=None):
        """Unit-rate exponential draws, strictly positive."""
        return -np.log(self.uniform(size))

    def positive_stable(self, alpha: float, size=None):
        """Positive alpha-stable draws with Laplace transform exp(-t^alpha).

        Chambers-Mallows-Stuck construction; alpha = 1 is the degenerate
        point mass at 1.
        """
        if not 0.0 < alpha <= 1.0:
            raise DomainError(f"stable exponent must lie in (0,1], got {alpha}")
        if alpha == 1.0:
            return np.ones(size) if size is not None else 1.0
        theta = np.pi * self.uniform(size)
        w = self.exponential(size)
        factor = np.sin(alpha * theta) / np.sin(theta) ** (1.0 / alpha)
        return factor * (np.sin((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def jumped_permutations(self, start: int, stop: int, n: int,
                            out: np.ndarray | None = None) -> np.ndarray:
        """Permutations of range(n) of replicates ``start .. stop - 1``, one per row.

        Replicate b draws from this stream's Philox jumped b + 1 times: the
        same key at counter (0, 0, b + 1, 0), so row b - start is
        ``Generator(Philox(SeedSequence(master_seed, spawn_key=key)).jumped(b + 1))
        .permutation(n)`` bit for bit. Each counter is loaded into one reused
        Philox through its state, and this stream's own draws are untouched.
        ``out``, when given, is a (stop - start, n) integer array that
        receives the rows: any integer dtype that holds n - 1 will do.
        """
        if not 0 <= start <= stop:
            raise DomainError(f"replicate range must satisfy 0 <= start <= stop, got {start}, {stop}")
        if out is None:
            out = np.empty((stop - start, n), dtype=np.int_)
        if out.shape != (stop - start, n):
            raise DomainError(f"out must have shape {(stop - start, n)}, got {out.shape}")
        if out.dtype.kind not in "iu" or np.iinfo(out.dtype).max < n - 1:
            raise DomainError(f"out of dtype {out.dtype} cannot hold the row index {n - 1}")
        gen = np.random.Generator(np.random.Philox(key=0))
        key = self._gen.bit_generator.state["state"]["key"].tolist()
        state = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for jumps, row in zip(range(start + 1, stop + 1), out):
            # jumped(j) adds j * 2**128 to the 256-bit counter, modulo 2**256.
            state["state"] = {"counter": [0, 0, jumps & _MASK64, jumps >> 64 & _MASK64],
                              "key": key}
            gen.bit_generator.state = state
            row[...] = gen.permutation(n)
        return out

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"
