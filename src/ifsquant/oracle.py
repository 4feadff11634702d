"""Independent float checks for the exact engine.

Sampling follows the measure's letter distribution directly (ancestral
truncation), and Lloyd iteration and the exact 1-D k-means DP see only
float samples; none of them trust the greedy selection rule they are used
to check.  This is the only module that imports numpy, and the CLI loads it
only for the ``oracle-*`` commands.  The exact exhaustive search lives in
the numpy-free ``exact_oracle``.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

# exhaustive_min is bound here for the benchmark's tracer alone, which
# wraps it as oracle.exhaustive_min.
from .exact_oracle import DEFAULT_DEPTH, DEFAULT_SEED, exhaustive_min

CHUNK_SIZE = 65536
BATCH_MAGIC = b"IFSQSMP1"
LLOYD_MAX_ITERS = 200
LLOYD_TOL = 1e-10


# Letter j maps x to 2^-(j+1) x + 1 - 2^-(j-1); both powers of two are
# exact table entries.  No float64 uniform yields a letter above 54, since
# u <= 1 - 2^-53 gives log2(3/(1-u)) <= log2(3 * 2^53) < 55.
_LETTER_SCALE = np.array([math.ldexp(1.0, -(j + 1)) for j in range(64)])
_LETTER_DROP = np.array([math.ldexp(1.0, -(j - 1)) for j in range(64)])


def _chunk_values(seed: int, index: int, depth: int, x: np.ndarray) -> None:
    # Fills x, the chunk's slot of the result.  Level l reads doubles
    # l*size .. (l+1)*size - 1 of the chunk's stream (one 64-bit output per
    # double), the values row l of
    # default_rng([seed, index]).random((depth, size)) would hold; levels
    # apply innermost first, so each one advances a fresh generator to its run.
    seq = np.random.SeedSequence([seed, index])
    size = x.size
    x.fill(4.0 / 7.0)
    for level in range(depth - 1, -1, -1):
        bits = np.random.PCG64(seq)
        bits.advance(level * size)
        u = np.random.Generator(bits).random(size)
        # Invert the letter CDF: mass of letters <= j is 1 - 3/2^(j+1), so u
        # lands on letter floor(log2(3/(1-u))); the log is >= log2 3 > 0, so
        # truncation is that floor and the letter is at least 1.
        letters = np.log2(3.0 / (1.0 - u)).astype(np.intp)
        x *= _LETTER_SCALE[letters]
        x += 1.0
        x -= _LETTER_DROP[letters]


def sample(
    count: int,
    depth: int = DEFAULT_DEPTH,
    seed: int = DEFAULT_SEED,
    threads: int = 1,
) -> np.ndarray:
    """Draw `count` samples: each composes `depth` random letter maps
    applied to the global mean.  The result is a read-only float64 array,
    a pure function of (seed, depth, count) whatever the thread count.

    Letters come from the exact inverse CDF, so the infinite alphabet needs
    no truncation; at the default depth the truncation displacement is below
    2^-80.  Values are produced in fixed 65536-wide chunks seeded by
    (seed, chunk index), each written straight into its slot of the result
    by a pool of `threads` workers, which makes the result identical for
    any thread count.  Each level of a chunk reads its own run of the
    chunk's PCG64 stream, reached with `PCG64.advance`, so a chunk holds one
    level of uniforms at a time; the values are those of drawing the
    chunk's whole (depth, size) block of uniforms at once.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    values = np.empty(count)

    def fill(start: int) -> None:
        chunk = values[start : start + CHUNK_SIZE]
        _chunk_values(seed, start // CHUNK_SIZE, depth, chunk)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fill, range(0, count, CHUNK_SIZE)))
    values.setflags(write=False)
    return values


def empirical_mass(values: np.ndarray, lo: float, hi: float) -> float:
    """Fraction of samples falling in [lo, hi]."""
    return float(np.mean((values >= lo) & (values <= hi)))


def _min_sq(values: np.ndarray, centers) -> np.ndarray:
    c = np.sort(np.asarray(centers, dtype=float))
    if c.size == 0:
        raise ValueError("need at least one center")
    mids = (c[1:] + c[:-1]) / 2.0
    idx = np.searchsorted(mids, values)
    diff = values - c[idx]
    return diff * diff


def mc_distortion(values: np.ndarray, centers) -> float:
    """Mean over samples of the squared distance to the nearest center."""
    return float(_min_sq(values, centers).mean())


def mc_distortion_stats(values: np.ndarray, centers) -> tuple[float, float]:
    """(estimate, standard error) of the Monte Carlo distortion; the
    standard error needs at least 2 samples."""
    if values.size < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {values.size}")
    d = _min_sq(values, centers)
    return float(d.mean()), float(d.std(ddof=1) / math.sqrt(d.size))


class ClusterResult(namedtuple("ClusterResult", "centers distortion iterations",
                               defaults=(0,))):
    """Centers with the empirical (nearest-center) distortion on the sample.

    iterations counts Lloyd sweeps; it is 0 for the exact DP solver.
    """

    __slots__ = ()


def quantile_init(values: np.ndarray, k: int) -> np.ndarray:
    """Lloyd's starting centers: the k mid-quantiles of the sample, ties
    nudged apart by 1e-12 so that they increase strictly."""
    init = np.quantile(values, (np.arange(k) + 0.5) / k)
    for i in range(1, k):
        if init[i] <= init[i - 1]:
            init[i] = init[i - 1] + 1e-12
    return init


def lloyd(values: np.ndarray, init) -> ClusterResult:
    """Alternate nearest-center assignment and cluster means, starting from
    the k = len(init) centers of ``init``, until the largest center movement
    drops below LLOYD_TOL, for at most LLOYD_MAX_ITERS sweeps.

    Empty-cluster policy: the center is reseeded at the sample point
    farthest from its assigned center, and iteration continues.  When
    every sample already sits on a center, the sample has fewer distinct
    values than k and ValueError is raised.
    """
    centers = np.array(init, dtype=float)
    k = centers.size
    if k == 0:
        raise ValueError("need at least one center")
    if not np.all(np.diff(centers) > 0):
        raise ValueError("init must be strictly increasing")
    if k > values.size:
        raise ValueError(f"k={k} exceeds sample count {values.size}")
    iterations = 0
    for iterations in range(1, LLOYD_MAX_ITERS + 1):
        mids = (centers[1:] + centers[:-1]) / 2.0
        idx = np.searchsorted(mids, values)
        counts = np.bincount(idx, minlength=k)
        if np.any(counts == 0):
            d2 = (values - centers[idx]) ** 2
            for empty in np.nonzero(counts == 0)[0]:
                farthest = int(np.argmax(d2))
                if d2[farthest] <= 0.0:
                    distinct = np.unique(values).size
                    raise ValueError(
                        f"k={k} exceeds the {distinct} distinct sample values"
                    )
                centers[empty] = values[farthest]
                d2[farthest] = -1.0  # do not reuse the same point
            centers = np.sort(centers)
            continue
        sums = np.bincount(idx, weights=values, minlength=k)
        updated = np.sort(sums / counts)
        movement = float(np.max(np.abs(updated - centers)))
        centers = updated
        if movement < LLOYD_TOL:
            break
    return ClusterResult(centers, mc_distortion(values, centers), iterations)


def _fill_row(prev, row, opt, first, prefix, prefix_sq):
    # Rows are shifted by one: row[j + 1] is the least cost of the first
    # j + 1 points, so a last cluster starting at c adds to prev[c].
    # Optimal last-cluster start positions are monotone in the right
    # endpoint, so the row fills by divide and conquer on the endpoint.
    # One numpy pass settles the midpoints of every pending interval
    # (jlo, jhi) with candidate starts [ilo, ihi]; ilo <= jlo always holds,
    # so every midpoint has at least one candidate.  Per-interval scalars
    # are spread over their segment by np.repeat, and each cost is summed in
    # place as ((prev + Sq_j) - Sq_c) - s^2/(j + 1 - c): that order is
    # kept so that every cost stays the same double.
    n = opt.size
    jlo = ilo = np.array([first])
    jhi = ihi = np.array([n - 1])
    while jlo.size:
        mid = (jlo + jhi) // 2
        end = mid + 1
        width = np.minimum(ihi, mid) - ilo + 1
        starts = np.cumsum(width) - width
        cands = np.arange(starts[-1] + width[-1])
        cands += np.repeat(ilo - starts, width)
        costs = prev[cands]
        costs += np.repeat(prefix_sq[end], width)
        costs -= prefix_sq[cands]
        sums = np.repeat(prefix[end], width)
        sums -= prefix[cands]
        sums *= sums
        sums /= np.repeat(end, width) - cands
        costs -= sums
        # Leftmost minimiser of each segment, as np.argmin picks it.
        lowest = np.minimum.reduceat(costs, starts)
        hits = np.flatnonzero(costs == np.repeat(lowest, width))
        best = cands[hits[np.searchsorted(hits, starts)]]
        row[end] = lowest
        opt[mid] = best
        jlo, jhi = np.concatenate((jlo, end)), np.concatenate((mid - 1, jhi))
        ilo, ihi = np.concatenate((ilo, best)), np.concatenate((best, ihi))
        keep = jlo <= jhi
        jlo, jhi, ilo, ihi = jlo[keep], jhi[keep], ilo[keep], ihi[keep]


def kmeans_1d_exact(values: np.ndarray, k: int) -> ClusterResult:
    """Globally optimal k-clustering of the sample under squared error.

    Interval dynamic programming over the sorted sample: the cost of any
    contiguous run comes from prefix sums in O(1).  Rows 2 .. k - 1 each
    fill in O(n log n) via divide and conquer over the monotone split
    positions, one numpy pass per recursion level (about log2 n passes).
    Backtracking reads row k at the last point alone, so that row is one
    scan over the start of the last cluster.  On 2 cores, k = 8 on 2*10^5
    samples takes about 0.28 s (best of 3), k = 5 on 10^6 samples about
    0.8 s and k = 20 about 4.6 s.

    Tie rule: the last cluster starts at the leftmost minimiser over all
    its starts; each earlier row takes the leftmost minimiser among the
    starts its divide and conquer window leaves.  No row is bounded below
    by the previous row's starts (Knuth's opt[r - 1][j] <= opt[r][j]): in
    floats that bound fails on tied costs, as on rounded samples, and
    would change which of two splits of equal cost wins.
    """
    xs = np.sort(values)
    n = int(xs.size)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    prefix = np.concatenate(([0.0], np.cumsum(xs)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(xs * xs)))
    one_cluster = prefix_sq[1:] - prefix[1:] ** 2 / np.arange(1, n + 1)
    dp = np.concatenate(([np.inf], one_cluster))
    opts: list[np.ndarray] = []
    for row in range(2, k):
        dp_new = np.full(n + 1, np.inf)
        # Starts fit int32 (n is far below 2^31): half the backtrack memory.
        opt = np.zeros(n, dtype=np.int32)
        _fill_row(dp, dp_new, opt, row - 1, prefix, prefix_sq)
        opts.append(opt)
        dp = dp_new
    starts = []
    if k > 1:
        cands = np.arange(k - 1, n)
        sums = prefix[n] - prefix[cands]
        costs = dp[cands] + prefix_sq[n] - prefix_sq[cands] - sums * sums / (n - cands)
        j = int(cands[np.argmin(costs)])
        starts.append(j)
        for opt in reversed(opts):
            j = int(opt[j - 1])
            starts.append(j)
    starts.reverse()
    bounds = [0] + starts + [n]
    centers = np.array(
        [float(xs[a:b].mean()) for a, b in zip(bounds, bounds[1:])]
    )
    return ClusterResult(centers, mc_distortion(values, centers))


def write_batch(values: np.ndarray, path) -> None:
    """Write a sample as flat binary: 8-byte magic, little-endian uint64
    count, then count little-endian float64 values."""
    header = struct.pack("<8sQ", BATCH_MAGIC, values.size)
    Path(path).write_bytes(header + values.astype("<f8").tobytes())


def read_batch_values(path) -> np.ndarray:
    """Read back the values ``write_batch`` wrote."""
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise ValueError("batch file too short")
    magic, count = struct.unpack_from("<8sQ", raw)
    if magic != BATCH_MAGIC:
        raise ValueError(f"bad batch magic {magic!r}")
    if len(raw) - 16 != 8 * count:
        raise ValueError(f"batch count {count} does not match payload "
                         f"of {len(raw) - 16} bytes")
    return np.frombuffer(raw, dtype="<f8", offset=16)
