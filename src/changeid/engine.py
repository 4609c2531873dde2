"""Log-domain statistic engine for the multistream detector.

For every stream i the engine tracks, over candidate change points k and a
finite mixing grid of post-change parameters, the log likelihood ratios

    log LR_{i,theta}(k, n) = sum_{t=k+1}^{n} log L_{i,theta}(t).

These are represented through per-grid-point cumulative sums cumz, whose
values are never rewritten.  The mixture over the candidates in the window,
b_n = log sum_k pi_k e^{-cumz_k}, is one chunked prefix/suffix scan (van
Herk 1992; Gil & Werman 1993) with chunk length L = window: a step costs
O(grid) amortised, and full mode is the case L = infinity, a running
log-sum-exp.  The scan and the exact frames read only the rows of the window
and of the previous chunk, so window mode keeps cumz in a sliding buffer of
about 2(L + 1 + m) rows for look-ahead blocks of m steps, and never more
than the capacity + 1 + m: when a block would run past its end, the rows
still read move to its front.  Full mode keeps every row.  From b the
engine derives, each step:

* log of the prior-and-weight mixture statistic (numerator of every ratio),
* max over the grid of the per-grid-point mixture, a lower bound on the
  sup-over-grid statistic that the rule's screen reads,

and on demand the exact sup-over-grid statistic (denominator against
stream j) and the ratio matrix against the no-change hypothesis and every
competitor.  No reduction runs along a short trailing axis, which numpy
reduces one row per inner loop, and no pass over a block broadcasts along
one: the per-grid-point mixtures of a block are copied into a (grid, N, m)
buffer, whose max over the leading axis is the screen bound and whose
log-sum-exp, summed in grid order, is the mixture, each kept as (N, m)
with the steps last; the rule's block screen forms its (N, N+1, m) ratio
layout from them (``log_ratio_matrix``) and reduces over the competitors
along the steps; an exact frame transposes its window's rows, a chunk at
a time, into a (grid, N, rows) scratch and reduces over the candidates
along the contiguous last axis of an (N, n - s) buffer.  A max is exact
in any order, and a sum over the grid adds its terms in grid order in
either layout, so the statistics do not depend on the layout.

Observations enter through one kernel, ``Detector.lookahead``, which
computes all of this for a block of m steps in a few numpy calls over
(m, N, grid) arrays, so a step in a long block costs the arithmetic on its
N x grid entries rather than the dispatch of a dozen numpy calls.
``advance()`` commits the next looked-ahead step, and ``step(x)`` looks
ahead a block of one, commits it and builds its frame, so every statistic
has one code path, bit for bit the same whatever the blocks.  The LLR
increments come from one function, ``StreamTables.increments``, whose
tables need no prior: ``montecarlo.validate_conditions`` sums them too.

The kernel's running log-sum-exp scans (each chunk's prefix, and each
finished chunk's suffixes) carry every column as a pair (off, s) whose
value is off + log(s), the rescaled running sum of Milakov & Gimelshein
(2018, "Online normalizer calculation for softmax").  A run of rows is
then one exp, one cumulative sum along the steps and one log over the
whole run, with the block's whole chunks in the same calls.  Its entries
are independent of each other, so they run at the libm's throughput
rather than at the latency of a logaddexp chain.  A chunk re-bases, with
one logaddexp, at a row with an entry far above its column's offset, or
where a column without prior mass meets a finite entry.  That decision
reads only the carried state and the row, and numpy's exp and log give
the same bits on any operand layout, so the statistics are the same bits
whatever the blocks.

Every cumulative sum along the steps, cumz's and each scan's, runs on a
complex128 view of the float64 rows where a row holds whole column pairs
(``_accumulate``): numpy's accumulate makes one loop trip per element, and
a complex add is the two float adds of a column pair, so half the trips
give the same bits.

The tables that depend only on the config (the padded grids and weights,
the AR filters, the prior's log-pmf and log-survivor, the whitened signal
and v/2) are built once, for at least the capacity asked for, and shared,
read-only, by every detector with the same prior, model and mixing objects
whose capacity they cover: a Monte Carlo campaign builds them once, not
once per trial.  They only grow, and are dropped with the prior object.

The head mass pi_{-1} is folded into k = 0 because both candidates share
the same likelihood ratio.
"""
from __future__ import annotations

import functools
import math
import sys
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .models import ARGaussianSignal, whiten
from .prior import ChangePointPrior

__all__ = ["MixingMeasure", "StatisticFrame", "Detector", "EngineError",
           "log_ratio_matrix", "posterior_no_change"]

_WEIGHT_TOL = 1e-12
# a column's running log-sum-exp is carried as off + log(s); a row with an
# entry more than _HEADROOM above its column's offset re-bases it to off =
# the running value and s = 1, so that exp(entry - off) never overflows
_HEADROOM = 600.0
# the offset of a column that holds no mass yet: every finite entry lies
# above it and re-bases, and exp(-inf - _EMPTY) is 0
_EMPTY = -np.finfo(float).max
# the screen's slack in units of the last place of the largest magnitude
# the statistics are summed from (``Detector.screen_slack``)
_SLACK_ULPS = 256
# the largest |cumz| a look-ahead takes: below it, every difference of two
# rows and every sum of such a difference with a log-pmf stays finite
_CUMZ_LIMIT = np.finfo(float).max / 4
# the most (grid, stream, row) entries an exact frame reduces at once: its
# scratch is at most 512 KB.  numpy (at its default 8 192-element ufunc
# buffer) buffers the transposed subtract of a chunk under about 2 730
# rows, at twice the cost; at N x G <= 16 every chunk of a window wider
# than 5 460 rows stays above that
_FRAME_ENTRIES = 1 << 16
# the rows ``_scan`` first searches for a re-base; each further segment of
# its search is twice as long as the one before
_SEARCH_ROWS = 256


class EngineError(ValueError):
    """Invalid engine configuration or observation."""


def _lse(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the leading axis, robust to -inf entries,
    summed in the order of that axis; a is overwritten.  A column of -inf
    is -inf.  Callers hold np.errstate with divide ignored."""
    m = a.max(axis=0)
    # an all -inf column subtracts a finite offset, not -inf - -inf
    np.maximum(m, _EMPTY, out=m)
    a -= m
    np.exp(a, out=a)
    out = np.log(a.sum(axis=0))
    out += m
    return out


def _accumulate(a: np.ndarray) -> None:
    """Cumulative sum of a along axis -2, in place; a's last axis is
    contiguous.  Rows of even length are summed on a complex128 view:
    ``np.add.accumulate`` makes one loop trip per element, and a complex
    add is the float adds of a column pair, in the same order, so half the
    trips give the same bits, infinities and NaNs included."""
    z = a if a.shape[-1] % 2 else a.view(complex)
    np.add.accumulate(z, axis=-2, out=z)


def _scan(x: np.ndarray, state=None) -> Tuple[np.ndarray, np.ndarray]:
    """Running log-sum-exp along axis 1 of x, (k, r, C), in place, over k
    chunks at once; returns the state after the last row.

    The state (off, s), each (k, C), holds each chunk's running value as
    off + log(s).  Without one, each chunk starts afresh at its first row
    with off = that row (_EMPTY where it is -inf) and no sum.  Between
    re-bases a run of rows is one exp, one cumulative sum along the rows
    seeded with s, and one log, each over the whole run.  A row
    where some entry of a chunk lies more than _HEADROOM above its offset
    re-bases that chunk: its value is logaddexp(off + log(s), row), and
    the state becomes (that value, 1).  A re-base depends only on the
    state and the row, and every step is an elementwise numpy ufunc, so
    the values are the same bits however the rows are split into calls.

    The next re-base row is searched for in segments of _SEARCH_ROWS rows
    that double, so finding one r rows on compares at most
    2r + _SEARCH_ROWS rows, not every remaining row.  Where every chunk
    re-bases, as always in full mode, only the re-based values are
    computed.
    Callers hold np.errstate with divide, over and invalid ignored.
    """
    off, s = state if state is not None else (np.maximum(x[:, 0], _EMPTY), None)
    while x.shape[1]:
        o = off[:, None]
        limit = o + _HEADROOM
        # a segment's first True in chunk-major order says whether it
        # holds a hit; over several chunks the row is their union's first
        h, lo, size = x.shape[1], 0, _SEARCH_ROWS
        while lo < x.shape[1]:
            hits = x[:, lo:lo + size] > limit
            i = int(hits.argmax())
            if hits.flat[i]:
                if len(hits) > 1:
                    i = int(hits.any(axis=0).argmax())
                h = lo + i // x.shape[2]
                hit = hits[:, h - lo].any(axis=1, keepdims=True)
                break
            lo += size
            size *= 2
        if h:
            run = x[:, :h]
            run -= o
            np.exp(run, out=run)
            if s is not None:
                run[:, 0] += s
            _accumulate(run)
            s = run[:, -1].copy()
            np.log(run, out=run)
            run += o
        if h == x.shape[1]:
            break
        # row h re-bases the chunks that hit; the others take a plain step
        row = x[:, h]
        if hit.all():
            row[...] = np.logaddexp(off + np.log(s), row)
            off = np.maximum(row, _EMPTY)
            s = np.exp(row - off)
        else:
            plain = s + np.exp(row - off)
            rebased = np.logaddexp(off + np.log(s), row)
            row[...] = np.where(hit, rebased, off + np.log(plain))
            new_off = np.maximum(row, _EMPTY)
            s = np.where(hit, np.exp(row - new_off), plain)
            off = np.where(hit, new_off, off)
        x = x[:, h + 1:]
    return off, s


def _logaddexp_into(p: np.ndarray, q: np.ndarray) -> None:
    """p = log(e^p + e^q) in place, as max + log1p(exp(min - max))."""
    top = np.maximum(p, q)
    np.minimum(p, q, out=p)
    p -= top
    # both -inf: the NaN difference becomes 0, and -inf + log 2 is -inf
    np.fmin(p, 0.0, out=p)
    np.exp(p, out=p)
    np.log1p(p, out=p)
    p += top


@dataclass(frozen=True)
class MixingMeasure:
    """Discrete mixing measure: strictly increasing grid, weights summing to 1."""

    grid: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "weights", weights)
        if grid.ndim != 1 or grid.size == 0 or grid.shape != weights.shape:
            raise EngineError("grid and weights must be matching nonempty 1-d arrays")
        if not np.all(np.isfinite(grid)):
            raise EngineError("grid points must be finite")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise EngineError("grid must be strictly increasing")
        # a NaN weight compares false and fails this check
        if not np.all(weights >= 0):
            raise EngineError("weights must be nonnegative")
        if abs(math.fsum(weights.tolist()) - 1.0) > _WEIGHT_TOL:
            raise EngineError("weights must sum to 1 within 1e-12")

    @property
    def log_weights(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.weights)

    @classmethod
    def uniform(cls, theta_min: float, theta_max: float, count: int,
                spacing: str = "linear") -> "MixingMeasure":
        grid = cls._make_grid(theta_min, theta_max, count, spacing)
        return cls(grid=grid, weights=np.full(count, 1.0 / count))

    @classmethod
    def gaussian(cls, theta_min: float, theta_max: float, count: int, v: float,
                 spacing: str = "linear") -> "MixingMeasure":
        """Half-normal weights w_g ~ phi(theta_g / v) * cell width."""
        if not v > 0:
            raise EngineError(f"gaussian weight scale must be positive, got {v}")
        grid = cls._make_grid(theta_min, theta_max, count, spacing)
        if count == 1:
            return cls(grid=grid, weights=np.ones(1))
        edges = np.concatenate(([grid[0]], 0.5 * (grid[1:] + grid[:-1]), [grid[-1]]))
        # a square that overflows is a weight that underflows to 0
        with np.errstate(over="ignore"):
            w = np.exp(-0.5 * (grid / v) ** 2) * np.diff(edges)
        total = math.fsum(w.tolist())
        if total == 0:
            raise EngineError(f"gaussian weights all underflow to 0 at v={v:g}; "
                              f"v must be larger")
        return cls(grid=grid, weights=w / total)

    @staticmethod
    def _make_grid(theta_min, theta_max, count, spacing) -> np.ndarray:
        if count < 1:
            raise EngineError("grid count must be >= 1")
        if not 0 < theta_min <= theta_max:
            raise EngineError("need 0 < theta_min <= theta_max")
        if spacing == "linear":
            return np.linspace(theta_min, theta_max, count)
        if spacing == "log":
            return np.geomspace(theta_min, theta_max, count)
        raise EngineError(f"unknown grid spacing {spacing!r}")


@dataclass(frozen=True)
class StatisticFrame:
    """Immutable snapshot of all detector statistics at time n.

    ``log_ratio`` has shape (N, N+1): row i-1 is stream i, column 0 is the
    ratio against the no-change hypothesis, column j the ratio against
    stream j (entry for j == i is NaN).
    """

    n: int
    log_mix: np.ndarray
    log_sup: np.ndarray
    log_survivor: float
    log_ratio: np.ndarray


@functools.lru_cache(maxsize=None)
def own_entries(n_streams: int) -> np.ndarray:
    """Read-only mask of the entries (i, i) of the (N, N+1) ratio layout."""
    mask = np.eye(n_streams, n_streams + 1, k=1, dtype=bool)
    mask.flags.writeable = False
    return mask


def log_ratio_matrix(log_mix: np.ndarray,
                     log_survivor: Union[float, np.ndarray],
                     log_sup: np.ndarray) -> np.ndarray:
    """The (N, N+1) ratio layout of ``StatisticFrame.log_ratio``: column 0
    is log_mix - log_survivor, column j is log_mix - log_sup[j-1], and the
    entries (i, i) of columns 1..N are NaN.

    Trailing axes broadcast: (N, m) columns of ``log_mix`` and ``log_sup``
    with m survivor values give the layouts of a block of m steps, shape
    (N, N+1, m), each entry the same subtraction as for one step, and every
    pass runs along the step axis rather than along the short N + 1."""
    n = log_mix.shape[0]
    den = np.empty((n + 1,) + log_sup.shape[1:])
    den[0] = log_survivor
    den[1:] = log_sup
    # -inf - -inf (a window or survivor without prior mass) is a NaN
    # ratio, which never passes
    with np.errstate(invalid="ignore"):
        ratio = log_mix[:, None] - den
    ratio[own_entries(n)] = np.nan
    return ratio


@dataclass(frozen=True)
class StreamTables:
    """The tables of N stream models and their mixing measures over ``cap``
    steps, every array read-only; they need no prior.

    The N grids are padded to a common width G with zero-weight copies of
    their last point, which change neither the mixture nor the sup; the AR
    filters are zero-padded to the longest one.  ``sw`` holds the whitened
    signal values and ``half_v`` is sw^2 / (2 sigma^2), each (cap, N).
    """

    grid: np.ndarray          # (N, G)
    logw: np.ndarray          # (N, G)
    grid_sq: np.ndarray       # (N, G)
    ar: np.ndarray            # (N, order)
    s2: np.ndarray            # (N,)
    sw: np.ndarray            # (cap, N)
    half_v: np.ndarray        # (cap, N)

    def __post_init__(self):
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    @property
    def cap(self) -> int:
        return self.sw.shape[0]

    def increments(self, n0: int, hist: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
        """The LLR increments theta*u - theta^2*v/2, u = sw*x~/sigma^2, of
        steps n0+1 .. n0+m at every grid point, shape (m, N, G), written
        into ``out`` when it is given.  ``hist`` (N, order + m) holds the
        ``order`` observations before step n0+1, oldest first (zero before
        the first), then the m steps'."""
        order = self.ar.shape[1]
        # the first ``order`` whitened values only re-read the history
        xt = whiten(hist, self.ar)[:, order:].T
        m = len(xt)
        u = self.sw[n0:n0 + m] * xt / self.s2
        # a ufunc with a stride-0 operand on the short grid axis runs one
        # inner loop of G entries per (step, stream); u and v/2 are copied
        # out over the grid first, so that the multiplies and the subtract
        # run along whole rows, with the same products and differences
        if out is None:
            out = np.empty(u.shape + self.grid.shape[1:])
        out[...] = u[:, :, None]
        out *= self.grid
        hv = np.empty_like(out)
        hv[...] = self.half_v[n0:n0 + m, :, None]
        hv *= self.grid_sq
        out -= hv
        return out


@dataclass(frozen=True)
class ConfigTables(StreamTables):
    """``StreamTables`` plus the model and mixing objects they were built
    from, ``lp``, the merged prior log-pmf of k = 0..cap-1, ``lp_scale``,
    the largest finite |lp| of k = 0..n (0 while there is none), and
    ``log_survivor``, log P(nu >= n) for n = 1..cap."""

    models: tuple
    mixing: tuple
    lp: np.ndarray            # (cap,)
    lp_scale: np.ndarray      # (cap,)
    log_survivor: np.ndarray  # (cap,)


def stream_tables(models: Sequence[ARGaussianSignal],
                  mixing: Sequence[MixingMeasure], cap: int) -> StreamTables:
    """The tables of ``models``, one mixing measure each, for cap steps."""
    n_streams = len(models)
    width = max(m.grid.size for m in mixing)
    grid = np.empty((n_streams, width))
    logw = np.full((n_streams, width), -np.inf)
    for s, m in enumerate(mixing):
        g = m.grid.size
        grid[s, :g] = m.grid
        grid[s, g:] = m.grid[-1]
        logw[s, :g] = m.log_weights
    # every model is a signal theta*S_t in AR(p) Gaussian noise (the i.i.d.
    # mean shift is order 0 with S_t = 1)
    ar = np.zeros((n_streams, max(len(m.ar_coeffs) for m in models)))
    for s, m in enumerate(models):
        ar[s, :len(m.ar_coeffs)] = m.ar_coeffs
    s2 = np.array([m.sigma ** 2 for m in models])
    signals = np.array([m.signal_values(cap) for m in models])
    sw = whiten(signals, ar).T
    # scaled in place before it is shared: it is as long as the path
    half_v = sw * sw
    half_v /= s2
    half_v *= 0.5
    return StreamTables(grid=grid, logw=logw, grid_sq=grid ** 2, ar=ar,
                        s2=s2, sw=sw, half_v=half_v)


# one entry per prior, dropped with it: the trials of a campaign share one
# prior object, so its tables live as long as the campaign's config does
_SHARED = weakref.WeakKeyDictionary()


def _same(objs: tuple, others) -> bool:
    return len(objs) == len(others) and all(a is b for a, b in zip(objs, others))


def _shared_tables(prior: ChangePointPrior, models: Sequence[ARGaussianSignal],
                   mixing: Sequence[MixingMeasure], cap: int) -> ConfigTables:
    """The tables for at least ``cap`` steps of one mixing measure per
    model, shared by every caller that passes the same prior, model and
    mixing objects and a capacity they cover; a larger capacity grows the
    prior's entry, and other objects replace it."""
    tables = _SHARED.get(prior)
    if (tables is None or tables.cap < cap or not _same(tables.models, models)
            or not _same(tables.mixing, mixing)):
        lp = prior.log_pmf_head_merged(cap)
        tables = ConfigTables(
            **vars(stream_tables(models, mixing, cap)),
            models=tuple(models), mixing=tuple(mixing), lp=lp,
            lp_scale=np.maximum.accumulate(np.where(lp > -np.inf, -lp, 0.0)),
            log_survivor=prior.log_survivor(np.arange(1, cap + 1)))
        _SHARED[prior] = tables
    return tables


def posterior_no_change(frame: StatisticFrame, stream: int) -> float:
    """P(nu >= n | data) under the stream-i change model: 1/(1 + ratio)."""
    x = frame.log_ratio[stream - 1, 0]
    # 1 / (1 + e^x) computed as exp(-logaddexp(0, x))
    return float(math.exp(-np.logaddexp(0.0, x)))


class Detector:
    """Single-owner mutable detector state over N streams.

    Observations enter only through ``lookahead``, which computes the
    statistics of a block of coming steps at once and returns their mixture
    values and screen bounds, so a caller can screen the block before it
    commits the steps; ``advance()`` then commits them one at a time.
    ``step(x)`` looks ahead the one observation vector x, commits it and
    returns the full exact StatisticFrame.  Cheap per-step accessors
    (``log_mix_values``, ``sup_lower_bounds``) describe the committed time
    n and are exposed for callers that only need to decide whether an
    exact frame is worth computing.

    ``capacity`` is the number of steps to size for.  It sizes the per-step
    tables, which grow to at least twice their steps when a step runs past
    them; in full mode it also sizes cumz, which in window mode depends
    only on the window and the look-ahead blocks.
    """

    def __init__(self, prior: ChangePointPrior,
                 models: Sequence[ARGaussianSignal],
                 mixing: Union[MixingMeasure, Sequence[MixingMeasure]],
                 window: Optional[int] = None, capacity: int = 1024):
        self.prior = prior
        self.models = list(models)
        self.n_streams = len(self.models)
        if self.n_streams < 1:
            raise EngineError("need at least one stream model")
        if isinstance(mixing, MixingMeasure):
            mixing = [mixing] * self.n_streams
        self.mixing = list(mixing)
        if len(self.mixing) != self.n_streams:
            raise EngineError("need one mixing measure per stream")
        if window is not None and window < 1:
            raise EngineError(f"window must be >= 1, got {window}")
        self.window = None if window is None else int(window)
        cap = max(int(capacity), 16)
        self.tables = _shared_tables(prior, self.models, self.mixing, cap)

        self.n = 0
        # chunk length of the windowed scan; full mode is one endless chunk
        self._chunk = self.window or sys.maxsize
        # log-sum-exp of lp_k - cumz_k over this chunk's candidates so far,
        # and over each suffix of the previous chunk; set by ``lookahead``
        self._prefix = self._suffix = None
        # the last ``order`` observations before the look-ahead frontier,
        # oldest first; zero before the first observation, as in ``whiten``
        self._history = np.zeros(self.tables.ar.shape)
        # row r of cumz holds time _base + r, and the row of time n is
        # written when step n is looked ahead; only time 0 is read before
        # that.  ``_slide`` sizes window mode's buffer at the first block
        self._base = 0
        rows = cap + 1 if self.window is None else 1
        self._cumz = np.empty((rows,) + self.tables.grid.shape)
        self._cumz[0] = 0.0
        # the look-ahead frontier: steps n+1.._end are looked ahead but not
        # committed.  The mixture and screen bound columns (N, m+1) are
        # those of times _end-m.._end, so time n is column n - _end - 1
        self._end = 0
        self._mix = self._bound = np.full((self.n_streams, 1), -np.inf)
        # the largest |cumz| and |log-pmf| looked ahead so far
        self._scale = 1.0

    @property
    def _window_start(self) -> int:
        return max(0, self.n - self._chunk)

    @property
    def evicted_log_prior_mass(self) -> float:
        """log P(nu < s), the prior mass before the window start s."""
        s = self._window_start
        if s == 0:
            return -math.inf
        x = float(self.prior.log_survivor(s))
        # log(1 - e^x) without cancellation at either end (Maechler 2012,
        # "Accurately computing log(1 - exp(-|a|))"); a survivor of 1 is log 0
        return (math.log1p(-math.exp(x)) if x < -math.log(2.0)
                else math.log(-math.expm1(x)) if x < 0 else -math.inf)

    # -- stepping --------------------------------------------------------

    def _slide(self, n0: int, m: int) -> None:
        """Make room in cumz for the times up to n0 + m.  The rows that are
        still read, times max(0, n0 - L) .. n0 (the window of every step
        of the block and the previous chunk's suffix), move to the front
        of the buffer, which is reallocated when they do not fit: at twice
        the L + 1 + m rows a block of m steps reads at most, so that a slide
        leaves room for at least one more such block, but at no more than
        the cap + 1 + m rows that hold every time up to the tables'
        capacity, which full mode (L = infinity) always takes."""
        lo = max(0, n0 - self._chunk)
        live = self._cumz[lo - self._base:n0 + 1 - self._base]
        cumz = self._cumz
        if n0 + m + 1 - lo > len(cumz):
            size = min(2 * (self._chunk + 1 + m), self.tables.cap + 1 + m)
            cumz = np.empty((size,) + cumz.shape[1:])
        cumz[:len(live)] = live
        self._cumz, self._base = cumz, lo

    def lookahead(self, block) -> Tuple[np.ndarray, np.ndarray]:
        """Compute the statistics of the next steps from an (N, m) block of
        observations, without committing them; ``advance`` then commits
        them one at a time.  The block is looked ahead up to its first
        non-finite observation or log-likelihood ratio that overflows,
        which raises only when it is the block's first step: a caller
        commits the usable steps, and its next look-ahead raises at the bad
        step.  Returns the rows of ``log_mix_values`` and of
        ``sup_lower_bounds`` for the looked-ahead steps, one per step, as
        (m, N) views of the detector's (N, m + 1) columns; their transposes
        are the stream-major rows ``log_ratio_matrix`` screens.

        One check finds both: the block's largest |cumz|, which the
        screen's slack reads too, must lie below float max / 4.  A
        non-finite observation gives a non-finite increment, so a NaN or
        infinite cumz, and below the bound every difference and sum the
        kernel and the frames form stays finite.  Only a block that fails
        looks for its first bad row, whose observation picks the message.

        Every statistic is computed here, a block at a time: the increments
        over the carried AR history, the rows of cumz by a cumulative sum,
        and the windowed mixture by the chunked scan.  The block's rows
        split into a head that continues the current chunk, whole chunks
        and a tail that starts the last one; ``_scan`` computes each part's
        prefixes in one call, carrying the head's state from the previous
        block and the tail's to the next, and the suffixes of every chunk
        that ends in the block in one more.  The prefixes then combine with
        the previous chunk's suffixes into the windowed mixture.
        """
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[0] != self.n_streams:
            raise EngineError(f"expected an observation block of {self.n_streams} rows")
        if self.n < self._end:
            raise EngineError("looked-ahead steps are still to be committed")
        m = block.shape[1]
        n0 = self.n
        if n0 + m > self.tables.cap:
            self.tables = _shared_tables(self.prior, self.models, self.mixing,
                                         max(n0 + m, 2 * self.tables.cap))
        if n0 + m - self._base >= len(self._cumz):
            self._slide(n0, m)
        b = self._base
        tab = self.tables
        hist = np.concatenate((self._history, block), axis=1)
        cumz = self._cumz[n0 - b:n0 + m + 1 - b]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            tab.increments(n0, hist, out=cumz[1:])
            _accumulate(cumz.reshape(m + 1, -1))
            # a NaN anywhere makes both NaN, and NaN < limit is false
            hi = max(cumz.max(), -cumz.min())
            if not hi < _CUMZ_LIMIT:
                m = int(np.argmin(np.abs(cumz[1:]).max(axis=(1, 2)) < _CUMZ_LIMIT))
                if m == 0:
                    what = ("log-likelihood ratio overflows"
                            if np.isfinite(block[:, 0]).all()
                            else "non-finite observation")
                    raise EngineError(f"{what} at step {n0 + 1}: {block[:, 0]}")
                cumz = cumz[:m + 1]
                hi = max(cumz.max(), -cumz.min())
            self._history = hist[:, m:m + tab.ar.shape[1]]
            # the magnitudes the screen's slack scales with
            self._scale = max(self._scale, hi, tab.lp_scale[n0 + m - 1])
            # candidate k = n joins the window [n + 1 - L, n] at step n + 1;
            # its chunk starts at n - c (c = n mod L), and the rest of the
            # window is the previous chunk's suffix from local index c + 1.
            # ``a`` turns into the prefix scan and then into the windowed
            # mixture b
            L = self._chunk
            a = tab.lp[n0:n0 + m, None, None] - cumz[:m]
            rows = a.reshape(m, -1)
            c0 = n0 % L
            e0 = min(m, L - c0)
            whole, t = divmod(m - e0, L)
            state = _scan(rows[None, :e0], self._prefix if c0 else None)
            if whole:
                _scan(rows[e0:m - t].reshape(whole, L, -1))
            if t:
                state = _scan(rows[None, m - t:])
            self._prefix = state
            r = min(e0, L - 1 - c0)
            if n0 >= L and r > 0:
                _logaddexp_into(rows[:r], self._suffix[c0:c0 + r])
            # each chunk that ends in the block gets its suffixes, local
            # indices L-1 down to 1, by the same scan over its rows newest
            # first; with L = 1 the window is the newest candidate alone
            done = whole + (e0 == L - c0) if L > 1 else 0
            if done:
                k = n0 + m - t - done * L
                rev = (tab.lp[k:k + done * L][::-1, None, None]
                       - self._cumz[k - b:k + done * L - b][::-1])
                rev = rev.reshape(done, L, -1)
                _scan(rev[:, :-1])
                # suf[q, c] is chunk q's suffix from local index c + 1
                suf = rev[::-1, -2::-1]
                if whole:
                    _logaddexp_into(rows[e0:m - t].reshape(whole, L, -1)[:, :-1],
                                    suf[:whole])
                if t:
                    _logaddexp_into(rows[m - t:], suf[-1, :t])
                self._suffix = suf[-1]
            # per-grid-point mixture log sum_k pi_k LR_{theta_g}(k, n),
            # copied into a (grid, stream, step) buffer so that the
            # reductions over the grid run along a leading axis and every
            # pass along the steps (numpy reduces a short trailing axis row
            # by row); a ufunc on the transposed view would keep its
            # strided memory order
            a += cumz[1:]
            t1 = np.empty((a.shape[2], self.n_streams, m))
            np.copyto(t1, a.transpose(2, 1, 0))
            bound = t1.max(axis=0)
            t1 += tab.logw.T[:, :, None]
            mix = _lse(t1)
        # the last columns so far are those of the committed time n
        self._mix = np.concatenate((self._mix[:, -1:], mix), axis=1)
        self._bound = np.concatenate((self._bound[:, -1:], bound), axis=1)
        self._end = n0 + m
        return self._mix[:, 1:].T, self._bound[:, 1:].T

    def advance(self) -> None:
        """Commit the next looked-ahead step without building a frame."""
        if self.n == self._end:
            raise EngineError("no looked-ahead step to commit")
        self.n += 1

    def step(self, x) -> StatisticFrame:
        """Look ahead one observation vector, commit it and return the
        exact frame."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_streams,):
            raise EngineError(f"expected observation vector of length {self.n_streams}")
        self.lookahead(x[:, None])
        self.advance()
        return self.frame()

    # -- statistics ------------------------------------------------------

    @property
    def log_mix_values(self) -> np.ndarray:
        """log Lambda^pi_{i,W}(n) for every stream, shape (N,)."""
        return self._mix[:, self.n - self._end - 1]

    @property
    def sup_lower_bounds(self) -> np.ndarray:
        """Per-stream lower bounds on the exact log sup statistic:
        max_g log sum_k pi_k LR_{theta_g}(k, n) over the window.  Since
        max_g sum_k <= sum_k max_g, it is below ``log_sup_values``, and it
        is at least ``log_mix_values`` because the weights sum to 1."""
        return self._bound[:, self.n - self._end - 1]

    @property
    def screen_slack(self) -> float:
        """How far ``sup_lower_bounds`` may round above ``log_sup_values``.
        Both are log-sum-exps of cumz and log-pmf terms and round at the
        scale of the largest of them, which the slack covers by a wide
        margin: 256 ulp of the largest |cumz| or |log-pmf| looked ahead so
        far, and at least 256 ulp of 1.  The rule lowers its competitor
        screen thresholds by it, so that the screen stays conservative."""
        return _SLACK_ULPS * float(np.spacing(self._scale))

    @property
    def log_sup_values(self) -> np.ndarray:
        """Exact log of sum_k pi_k max_g LR_{j,theta_g}(k, n), shape (N,).

        The window's n - s rows are walked in the fewest chunks of at most
        _FRAME_ENTRIES entries: one transposed subtract from the row of
        time n into a contiguous (G, N, c) scratch, whose max over the
        leading grid axis lands in an (N, n - s) buffer.  The log-sum-exp
        over the candidates runs along that buffer's contiguous last axis,
        its terms summed in row order by a cumulative sum."""
        s, n, b = self._window_start, self.n, self._base
        width = n - s
        # (G, N, 1): the row of time n, grid point major
        top = self._cumz[n - b].T[:, :, None]
        rows = self._cumz[s - b:n - b]
        grid, streams = top.shape[:2]
        chunks = -(-width * grid * streams // _FRAME_ENTRIES)
        step = -(-width // chunks)
        scratch = np.empty(grid * streams * step)
        rowmax = np.empty((streams, width))
        for lo in range(0, width, step):
            hi = min(lo + step, width)
            d = scratch[:grid * streams * (hi - lo)].reshape(grid, streams, -1)
            np.subtract(top, rows[lo:hi].transpose(2, 1, 0), out=d)
            d.max(axis=0, out=rowmax[:, lo:hi])
        rowmax += self.tables.lp[s:n]
        m = rowmax.max(axis=1)
        # an all -inf row subtracts a finite offset, not -inf - -inf
        np.maximum(m, _EMPTY, out=m)
        rowmax -= m[:, None]
        np.exp(rowmax, out=rowmax)
        np.add.accumulate(rowmax, axis=1, out=rowmax)
        with np.errstate(divide="ignore"):
            out = np.log(rowmax[:, -1])
        out += m
        return out

    @property
    def log_survivor(self) -> float:
        """log P(nu >= n) at the committed time n >= 1, read from the table
        the block screen reads."""
        if self.n < 1:
            raise EngineError("no observations consumed yet")
        return float(self.tables.log_survivor[self.n - 1])

    def frame(self) -> StatisticFrame:
        lsv = self.log_survivor  # raises before the first observation
        mix = self.log_mix_values
        sup = self.log_sup_values
        return StatisticFrame(n=self.n, log_mix=mix, log_sup=sup,
                              log_survivor=lsv,
                              log_ratio=log_ratio_matrix(mix, lsv, sup))
