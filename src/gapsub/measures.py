"""Shift-invariant measure families on finite-alphabet sequence space.

Each family exposes exact log-marginals log Q_n(w) for finite words w,
with -inf encoding probability zero, plus forward sampling driven by a
caller-supplied generator.  Families: iid products, stationary Markov
chains (optionally with a non-invariant start, for negative tests),
hidden-Markov observation processes, and finite mixtures of any of
these.

Every family evaluates along a path through one interface:
prefix_logprobs(x) gives log Q_n(x_1..x_n) for every n, and windows(x)
gives f_m at offset j, log Q_m(x_{j+1}..x_{j+m}), for any j and m.
prefix_logprobs and log_increments also take a (paths, n) array and
evaluate each row as a path, each row bit for bit as on its own.  iid
and Markov prefixes are running sums of exact per-symbol increments
(np.cumsum along the path, which matches a sequential left-to-right sum
bit for bit) and their windows are differences of prefix sums.
Hidden-Markov prefixes and windows run one forward recursion with a row
per offset or per path, and mixtures take the log-sum-exp of their
component values.
"""
from __future__ import annotations

import abc
import dataclasses
import itertools
import math
import numbers
import sys
from operator import add
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceededError, ConfigError, ValidationError, schema_errors
from .logspace import _NEG_MAX, log_sum_exp, log_sum_exp_into, safe_log

_STOCH_TOL = 1e-9
_LISTS = (list, tuple, np.ndarray)
_MAP_TABLE_ENTRIES = 1 << 22  # chain-path map entries built at a time: 4-8 MB


@dataclasses.dataclass(frozen=True)
class Alphabet:
    """Finite alphabet {0, ..., size - 1}."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ConfigError("alphabet needs at least two symbols")

    def validate_word(self, word: np.ndarray) -> np.ndarray:
        w = np.asarray(word, dtype=np.int64)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("a word is a nonempty 1-d symbol array")
        return self._in_range(w)

    def validate_paths(self, paths) -> np.ndarray:
        """A word, or a (paths, n) array with one path per row, as int64 symbols."""
        w = np.asarray(paths, dtype=np.int64)
        if w.ndim != 2:
            return self.validate_word(w)
        if w.size == 0:
            raise ValidationError("paths are a nonempty 2-d symbol array, one path per row")
        return self._in_range(w)

    def _in_range(self, w: np.ndarray) -> np.ndarray:
        if w.min() < 0 or w.max() >= self.size:
            raise ValidationError(f"symbols must lie in [0, {self.size})")
        return w

    def words(self, n: int) -> Iterator[tuple[int, ...]]:
        """All words of length n in lexicographic order."""
        return itertools.product(range(self.size), repeat=n)

    def word_count(self, n: int) -> int:
        return self.size**n


def _check_stochastic(raw, field: str, ndim: int, square: bool = False) -> np.ndarray:
    """raw as a probability vector (ndim 1) or a row-stochastic matrix (ndim 2).

    field is the argument's JSON pointer, such as "/P"; a rejection points
    at it, or at the offending row of a matrix.  Entries are checked as
    given, since np.asarray would turn a boolean into 1.0.
    """
    if raw is None:
        raise ValidationError("missing", field)
    rows = [raw] if ndim == 1 else raw
    if not isinstance(rows, _LISTS) or len(rows) == 0:
        raise ValidationError("must be a nonempty list of rows", field)
    for i, row in enumerate(rows):
        here = field if ndim == 1 else f"{field}/{i}"
        if not isinstance(row, _LISTS) or len(row) == 0:
            raise ValidationError("must be a nonempty list", here)
        if len(row) != len(rows[0]):
            raise ValidationError("ragged row", here)
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in row):
            raise ValidationError("non-numeric entry", here)
        if not all(abs(v) <= sys.float_info.max for v in row):
            raise ValidationError("non-finite entry", here)
        vals = np.asarray(row, dtype=np.float64)
        if (vals < 0).any():
            raise ValidationError("negative entry", here)
        total = float(vals.sum())
        if abs(total - 1.0) > _STOCH_TOL:
            what = "row sums" if ndim == 2 else "sums"
            raise ValidationError(f"{what} to {total!r}, expected 1", here)
    if square and len(rows) != len(rows[0]):
        raise ValidationError("must be square", field)
    return np.asarray(raw, dtype=np.float64)


def _start_law(start, M: np.ndarray, field: str) -> tuple[np.ndarray, bool]:
    """(start law, whether it is invariant) of the chain with matrix M at field.

    With start None it is the unique stationary law of M.
    """
    if start is None:
        return _stationary(M, field), True
    law = _check_stochastic(start, "/start", 1)
    if law.size != M.shape[0]:
        raise ValidationError("size must match the matrix", "/start")
    return law, bool(np.abs(law @ M - law).max() <= 1e-12)


def stationary_distribution(P: np.ndarray, tol: float = 1e-10, field: str = "/P") -> np.ndarray:
    """Unique stationary law of a row-stochastic matrix.

    Solved through the SVD nullspace of (P^T - I).  A second vanishing
    singular value means the chain is reducible with several invariant
    laws, which is rejected.  A power-iteration fallback on the lazy
    chain (P + I)/2 covers the rare case where the nullspace vector is
    numerically unusable.  A rejection points at field.
    """
    return _stationary(_check_stochastic(P, field, 2, square=True), field, tol)


def _stationary(P: np.ndarray, field: str, tol: float = 1e-10) -> np.ndarray:
    """stationary_distribution of an already checked row-stochastic matrix."""
    k = P.shape[0]
    if (P == P[0]).all():
        # identical rows: the row itself is stationary, bit for bit, and
        # downstream exactness arguments (iid decoupling constant 0) rely
        # on pi not picking up SVD rounding
        return P[0].copy()
    A = P.T - np.eye(k)
    _, s, vh = np.linalg.svd(A)
    if k >= 2 and s[-2] < 1e-8:
        raise ValidationError("chain has no unique stationary law (reducible)", field)
    v = vh[-1]
    total = v.sum()
    pi = None
    if abs(total) > 1e-12:
        cand = v / total
        cand = np.clip(cand, 0.0, None)
        cand = cand / cand.sum()
        if np.abs(cand @ P - cand).sum() <= tol:
            pi = cand
    if pi is None:
        lazy = 0.5 * (P + np.eye(k))
        cand = np.full(k, 1.0 / k)
        for _ in range(100000):
            nxt = cand @ lazy
            nxt = nxt / nxt.sum()
            if np.abs(nxt - cand).sum() <= 1e-15:
                cand = nxt
                break
            cand = nxt
        resid = float(np.abs(cand @ P - cand).sum())
        if resid > tol:
            raise ValidationError(
                f"stationary distribution did not converge (residual {resid:.3g})", field
            )
        pi = cand
    return pi


def _kernel_bound(pi: np.ndarray, A: np.ndarray, stationary: bool, tau: int) -> float:
    """c = max_ij [log A^{tau+1}(i, j) - log pi(j)] for a process driven by the chain (pi, A).

    Conditioning on the hidden state entering the second block bounds
    Q(a * b) = sum_ij Q(a, z_n = i) A^{tau+1}(i, j) Q(b | z_1 = j) by exp(c) Q(a) Q(b)
    for every n and m.  A difference of logs (never the log of a ratio) keeps
    c exact when a kernel row equals pi, as for an iid process, where it is 0.
    """
    if not stationary:
        raise ValidationError("kernel bound needs the stationary start")
    if tau < 0:
        raise ConfigError("gap must be >= 0")
    if (pi <= 0).any():
        raise ValidationError("kernel bound needs pi > 0 everywhere")
    log_kernel = safe_log(np.linalg.matrix_power(A, tau + 1))
    return float(np.max(log_kernel - np.log(pi)[None, :]))


class ShiftMeasure(abc.ABC):
    """Common contract for measure families.

    Subclasses provide exact log-prefixes and windows along a path, level
    states that enumerate every word of a length, and forward sampling.
    Log-marginals take values in [-inf, inf).
    """

    alphabet: Alphabet

    @property
    @abc.abstractmethod
    def family(self) -> str: ...

    @property
    @abc.abstractmethod
    def label(self) -> str: ...

    @abc.abstractmethod
    def prefix_logprobs(self, x) -> np.ndarray:
        """[log Q_1(x_1), log Q_2(x_1 x_2), ..., log Q_n(x_1..x_n)].

        x is one path, or a (paths, n) array whose rows are paths; the
        result then has one row per path.
        """

    @abc.abstractmethod
    def windows(self, x) -> "Windows":
        """Window log-marginals along the path x."""

    def log_increments(self, x) -> np.ndarray:
        """Per-symbol increments of prefix_logprobs(x), along each path.

        The first -inf marks the first prefix of probability zero;
        entries after it carry no information.
        """
        with np.errstate(invalid="ignore"):
            return np.diff(self.prefix_logprobs(x), axis=-1, prepend=0.0)

    def log_marginal(self, word) -> float:
        """log Q_n(word) for a length-n symbol array."""
        return float(self.prefix_logprobs(word)[-1])

    @abc.abstractmethod
    def kernel_bound(self, tau: int) -> float:
        """Decoupling constant at gap tau for all n and m, from the hidden chain."""

    def _chain(self) -> "MarkovMeasure | None":
        """This measure as a Markov chain on its alphabet, or None if it is none."""
        return None

    def cross_entropy_rate(self, Q: "ShiftMeasure") -> float | None:
        """sum_i pi(i) sum_j P_ij (-log Q_ij) in nats, for this chain (pi, P) and Q's.

        +inf when Q forbids a step of P.  None (no closed form) unless both
        measures are chains and this one starts at its stationary law.
        """
        P, K = self._chain(), Q._chain()
        if P is None or K is None or not P.stationary_start:
            return None
        if P.alphabet.size != K.alphabet.size:
            raise ConfigError("measures must share one alphabet")
        if ((P.P > 0) & (K.P == 0)).any():
            return float("inf")
        with np.errstate(invalid="ignore"):  # 0 log 0 = 0 by continuity
            rows = np.where(P.P > 0, P.P * K.log_P, 0.0).sum(axis=1)
        return float(-(P.start @ rows))

    def entropy_rate(self) -> float | None:
        """h = -sum_i pi_i sum_j P_ij log P_ij in nats: cross_entropy_rate(self)."""
        return self.cross_entropy_rate(self)

    def kl_rate(self, Q: "ShiftMeasure") -> float | None:
        """sum_i pi(i) sum_j P_ij log(P_ij / Q_ij): cross entropy minus entropy rate."""
        cross = self.cross_entropy_rate(Q)
        if cross is None or cross == float("inf"):
            return cross
        return float(cross - self.entropy_rate())

    @abc.abstractmethod
    def to_spec(self) -> dict: ...

    @abc.abstractmethod
    def _sample(self, n: int, rng: np.random.Generator) -> np.ndarray: ...

    # A level state holds one row per word of a level, indexed base-k, most
    # significant symbol first, laid out as the family's step runs fastest
    # (an HMM's is hidden-major); _level_rows cuts it.  Extending a state
    # appends every symbol to every word, so the rows of a level's state
    # extend to a contiguous block of the longer level.

    @abc.abstractmethod
    def _level_start(self):
        """The level-1 state."""

    @abc.abstractmethod
    def _level_extend(self, state, steps: int):
        """The state of the words of state, each followed by every word of length steps."""

    @abc.abstractmethod
    def _level_totals(self, state) -> np.ndarray:
        """log Q of every word of state."""

    def _level_rows(self, state, lo: int, hi: int):
        """Rows lo..hi-1 of a level state: the state of those words.

        This cuts an array, or each array of a tuple, on its leading axis.
        """
        if isinstance(state, np.ndarray):
            return state[lo:hi]
        return tuple(s[lo:hi] for s in state)

    def _level_state(self, n: int):
        return self._level_extend(self._level_start(), n - 1)

    def log_marginals_level(self, n: int, cap: int = 10**7) -> np.ndarray:
        """log Q_n over all k^n words, indexed base-k, most significant first."""
        self._guard_level(n, cap)
        return self._level_totals(self._level_state(n))

    def _guard_level(self, n: int, cap: int) -> None:
        """Refuse a level of more than cap words; families add their own limits."""
        if n < 1:
            raise ConfigError("level must be >= 1")
        if self.alphabet.word_count(n) > cap:
            raise CapExceededError(
                f"level {n} needs {self.alphabet.word_count(n)} words, cap is {cap}"
            )


def _append_symbols(x: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[a, w, s] = x[a, w] + t[a, s]: the terms of word w followed by symbol s.

    One broadcast add runs its inner loop over the k symbols.  With two
    symbols that loop's overhead is most of the cost, so each (a, s) is
    added over all the words instead: 3-7x faster on levels of 4096 words
    or more.  Every entry is the same one add either way.
    """
    if t.shape[1] == 2:
        for a in range(t.shape[0]):
            for s in range(2):
                np.add(x[a], t[a, s], out=out[a, :, s])
    else:
        np.add(x[:, :, None], t[:, None, :], out=out)
    return out


class Windows(abc.ABC):
    """f_m at offset j, log Q_m(x_{j+1} .. x_{j+m}), along one path x.

    many evaluates one length at many offsets, suffix every length up to
    m_max at one offset.  Both check that the windows lie inside the path.
    """

    def __init__(self, size: int):
        self.size = size

    @abc.abstractmethod
    def _many(self, js: np.ndarray, m: int) -> np.ndarray: ...

    @abc.abstractmethod
    def _suffix(self, j: int, m_max: int) -> np.ndarray: ...

    def many(self, js, m: int) -> np.ndarray:
        """f_m at each offset in js; requires j + m <= size for all j."""
        js = np.asarray(js, dtype=np.int64)
        if m < 1:
            raise ConfigError("window length must be >= 1")
        if not js.size:
            return np.empty(0)
        if js.min() < 0 or int(js.max()) + m > self.size:
            raise ConfigError("window exceeds the trajectory")
        return self._many(js, m)

    def suffix(self, j: int, m_max: int) -> np.ndarray:
        """Array [f_1, ..., f_{m_max}] at offset j; needs j + m_max <= size."""
        if m_max < 1 or j < 0 or j + m_max > self.size:
            raise ConfigError("suffix window exceeds the trajectory")
        return self._suffix(j, m_max)


class _PrefixSumWindows(Windows):
    """O(1) windows from prefix sums of per-symbol terms (iid and Markov).

    body[i] is the term of symbol i + 1.  A Markov window pays head[j],
    the start term of its first symbol, in place of body[j], the step
    into it.  Zero-probability terms are counted apart: a window holding
    one is -inf, windows that avoid it stay exact.
    """

    def __init__(self, body: np.ndarray, head: np.ndarray | None = None):
        super().__init__(body.size)
        self._markov = head is not None
        if self._markov:
            self._head_bad = (~np.isfinite(head)).astype(np.int64)
            self._head = np.where(np.isfinite(head), head, 0.0)
        bad = ~np.isfinite(body)
        # cum[i] = sum of the first i body terms; bad_cum counts -inf terms
        self._cum = np.concatenate(([0.0], np.cumsum(np.where(bad, 0.0, body))))
        self._bad_cum = np.concatenate(([0], np.cumsum(bad.astype(np.int64))))
        # a path with no -inf term needs no count: every window is finite
        self._any_bad = bool(self._bad_cum[-1]) or (self._markov and bool(self._head_bad.any()))

    def _many(self, js: np.ndarray, m: int) -> np.ndarray:
        if self._markov:
            # steps j+2 .. j+m in 1-indexed terms; body[0] is 0 padding
            vals = self._head[js] + (self._cum[js + m] - self._cum[js + 1])
            nbad = self._head_bad[js] + self._bad_cum[js + m] - self._bad_cum[js + 1]
        else:
            vals = self._cum[js + m] - self._cum[js]
            nbad = self._bad_cum[js + m] - self._bad_cum[js]
        return np.where(nbad > 0, -np.inf, vals)

    def _suffix(self, j: int, m_max: int) -> np.ndarray:
        cum = self._cum[j + 1 : j + m_max + 1]
        if self._markov:
            vals = self._head[j] + cum
            vals -= self._cum[j + 1]
        else:
            vals = cum - self._cum[j]
        if not self._any_bad:
            return vals
        bad_cum = self._bad_cum[j + 1 : j + m_max + 1]
        if self._markov:
            nbad = self._head_bad[j] + bad_cum - self._bad_cum[j + 1]
        else:
            nbad = bad_cum - self._bad_cum[j]
        return np.where(nbad > 0, -np.inf, vals)


# largest forward table one HMM suffix block may hold, in floats; also the
# most symbols of the trial paths that estimate mean evaluates at once
_TABLE_ENTRIES = 2**22
# forward steps times rows times hidden states run as one chunk
_FORWARD_ENTRIES = 2**12
# most hidden states for which one row steps on Python floats: above 3 the
# h^2 scalar terms cost more than the numpy step saves
_ROW_STEP_HIDDEN = 3


class _ForwardWindows(Windows):
    """HMM windows: one forward row per offset, all advanced together.

    suffix fills the prefix table of a block of consecutive offsets at
    once and serves later offsets in the block from it.
    """

    def __init__(self, Q: "HiddenMarkovMeasure", x: np.ndarray):
        super().__init__(x.size)
        self._Q = Q
        self._x = x
        self._lo = 0
        self._table = np.empty((0, 0))

    def _many(self, js: np.ndarray, m: int) -> np.ndarray:
        return self._Q._forward(self._x, js, m)

    def _suffix(self, j: int, m_max: int) -> np.ndarray:
        if not self._lo <= j < self._lo + self._table.shape[0]:
            width = self.size - j
            rows = max(1, min(width, _TABLE_ENTRIES // width))
            self._lo = j
            self._table = self._Q._forward(
                self._x, np.arange(j, j + rows, dtype=np.int64), width, table=True
            )
        return self._table[j - self._lo, :m_max]


class _MixtureWindows(Windows):
    """Log-sum-exp of the weighted component windows."""

    def __init__(self, Q: "MixtureMeasure", x: np.ndarray):
        super().__init__(x.size)
        self._Q = Q
        self._parts = [c.windows(x) for c in Q.components]

    def _many(self, js: np.ndarray, m: int) -> np.ndarray:
        return self._Q._mix([w._many(js, m) for w in self._parts])

    def _suffix(self, j: int, m_max: int) -> np.ndarray:
        return self._Q._mix([w._suffix(j, m_max) for w in self._parts])


def _draw_from_cum(cum: np.ndarray, u) -> np.ndarray | int:
    """Index of the bucket containing u: #{j : cum_j <= u}, clipped.

    cum is an inclusive cumulative row; the clip absorbs the float case
    where the final entry lands a hair under 1.
    """
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, cum.size - 1)


def _chain_path(cum_start: np.ndarray, cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """x_0 = bucket of u_0 in cum_start, x_{i+1} = bucket of u_{i+1} in cum_rows[x_i].

    Each bucket is _draw_from_cum's, so the path is bit for bit the one drawn
    symbol by symbol.  Step i is the random map T_i (Propp & Wilson 1996): in
    sorted order of the uniforms, row s of its table is a run of 0s, then of 1s
    and so on, cut at the edges of cum_rows[s].  Chunks of at least 4k steps,
    each from the last symbol of the one before, bound the table; in each the
    maps compose in blocks of L ~ sqrt(W) steps, a two-level scan (Blelloch 1990).
    """
    x = np.empty(u.size, dtype=np.int64)
    x[0] = _draw_from_cum(cum_start, u[0])
    k = cum_rows.shape[0]
    states = np.arange(k, dtype=np.min_scalar_type(k - 1))
    chunk = max(_MAP_TABLE_ENTRIES // k, 4 * k)
    for lo in range(1, u.size, chunk):
        steps = u[lo:lo + chunk]
        W = steps.size
        L = math.isqrt(W)
        B = -(-W // L)
        width = B * L
        order = np.argsort(steps)
        edges = np.searchsorted(steps[order], cum_rows[:, :-1], side="left")
        T = np.zeros((k, width), dtype=states.dtype)  # columns past W pad the last block
        for s in range(k):
            T[s, order] = np.repeat(states, np.diff(edges[s], prepend=0, append=W))
        flat, base = T.ravel(), np.arange(0, width, L)  # base: first step of each block
        maps = np.broadcast_to(np.arange(k)[:, None], (k, B))  # maps[s, b]: block b from s
        for t in range(L):  # every block's map at once
            maps = flat[maps.astype(np.intp) * width + (base + t)]  # widen 8/16-bit entries
        starts = [int(x[lo - 1])]  # then the block starts one by one
        for b in range(B - 1):
            starts.append(int(maps[starts[-1], b]))
        path = np.empty((L, B), dtype=states.dtype)
        at = np.asarray(starts, dtype=np.intp) * width + base
        for t in range(L):  # then every block from its start
            path[t] = flat[at + t]
            at = path[t].astype(np.intp) * width + base
        x[lo:lo + W] = path.T.ravel()[:W]
    return x


class IIDMeasure(ShiftMeasure):
    """Product measure with a fixed symbol law p."""

    def __init__(self, p):
        self.p = _check_stochastic(p, "/p", 1)
        self.alphabet = Alphabet(self.p.size)
        self.log_p = safe_log(self.p)
        self._cum = np.cumsum(self.p)

    @property
    def family(self) -> str:
        return "iid"

    @property
    def label(self) -> str:
        return f"iid(k={self.alphabet.size})"

    def log_increments(self, x) -> np.ndarray:
        return self.log_p[self.alphabet.validate_paths(x)]

    def prefix_logprobs(self, x) -> np.ndarray:
        return np.cumsum(self.log_increments(x), axis=-1)

    def windows(self, x) -> Windows:
        return _PrefixSumWindows(self.log_increments(x))

    def _level_start(self) -> np.ndarray:
        return self.log_p.copy()

    def _level_extend(self, lv: np.ndarray, steps: int) -> np.ndarray:
        for _ in range(steps):
            lv = (lv[:, None] + self.log_p[None, :]).ravel()
        return lv

    def _level_totals(self, lv: np.ndarray) -> np.ndarray:
        return lv

    def kernel_bound(self, tau: int) -> float:
        return _kernel_bound(np.ones(1), np.ones((1, 1)), True, tau)

    def _chain(self) -> "MarkovMeasure":
        return MarkovMeasure(np.tile(self.p, (self.alphabet.size, 1)))

    def to_spec(self) -> dict:
        return {"family": "iid", "p": self.p.tolist()}

    def _sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.asarray(_draw_from_cum(self._cum, rng.random(n)), dtype=np.int64)


class MarkovMeasure(ShiftMeasure):
    """Stationary finite Markov chain, or one started off-equilibrium.

    The default start is the unique stationary law, making the process
    shift-invariant.  An explicit non-invariant start is allowed so the
    validators have something real to reject; stationary_start records
    which case this is.
    """

    def __init__(self, P, start=None):
        self.P = _check_stochastic(P, "/P", 2, square=True)
        self.alphabet = Alphabet(self.P.shape[0])
        self.start, self.stationary_start = _start_law(start, self.P, "/P")
        self.log_P = safe_log(self.P)
        self.log_start = safe_log(self.start)
        self._cum_rows = np.cumsum(self.P, axis=1)
        self._cum_start = np.cumsum(self.start)

    @property
    def family(self) -> str:
        return "markov"

    @property
    def label(self) -> str:
        tag = "" if self.stationary_start else ", non-invariant start"
        return f"markov(k={self.alphabet.size}{tag})"

    def log_increments(self, x) -> np.ndarray:
        """Start term, then one transition term per step."""
        w = self.alphabet.validate_paths(x)
        out = np.empty(w.shape, dtype=np.float64)
        out[..., 0] = self.log_start[w[..., 0]]
        # one gather at flat indices: twice as fast as indexing by two arrays
        out[..., 1:] = self.log_P.ravel()[w[..., :-1] * self.alphabet.size + w[..., 1:]]
        return out

    def prefix_logprobs(self, x) -> np.ndarray:
        return np.cumsum(self.log_increments(x), axis=-1)

    def windows(self, x) -> Windows:
        w = self.alphabet.validate_word(x)
        steps = np.concatenate(([0.0], self.log_P[w[:-1], w[1:]]))
        return _PrefixSumWindows(steps, head=self.log_start[w])

    def _level_start(self) -> tuple[np.ndarray, int]:
        """(log Q of every word, the last symbol of the first word).

        The words are consecutive, so their last symbols cycle through
        0..k-1 from the first one's.
        """
        return self.log_start.copy(), 0

    def _level_extend(self, state, steps: int):
        lv, first = state
        k = self.alphabet.size
        for _ in range(steps):
            if first or lv.size % k:
                # rows cut off a multiple of k: gather each word's row of P
                last = (first + np.arange(lv.size)) % k
                lv = (lv[:, None] + self.log_P[last, :]).ravel()
            else:
                # word r * k + i ends in i: out[r, i, s] = lv[r * k + i] + log P[i, s]
                rows = lv.reshape(-1, k)
                out = np.empty((rows.shape[0], k, k))
                _append_symbols(rows.T, self.log_P, out.transpose(1, 0, 2))
                lv = out.ravel()
            first = 0
        return lv, first

    def _level_rows(self, state, lo: int, hi: int):
        lv, first = state
        return lv[lo:hi], (first + lo) % self.alphabet.size

    def _level_totals(self, state) -> np.ndarray:
        return state[0]

    def kernel_bound(self, tau: int) -> float:
        return _kernel_bound(self.start, self.P, self.stationary_start, tau)

    def _chain(self) -> "MarkovMeasure":
        return self

    def to_spec(self) -> dict:
        spec = {"family": "markov", "P": self.P.tolist()}
        if not self.stationary_start:
            spec["start"] = self.start.tolist()
        return spec

    def _sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return _chain_path(self._cum_start, self._cum_rows, rng.random(n))


class HiddenMarkovMeasure(ShiftMeasure):
    """Observed layer of a stationary hidden Markov chain.

    A is the hidden transition matrix, E the per-state emission matrix
    (hidden states by observed symbols).  Marginals come from the
    forward recursion in log space.
    """

    def __init__(self, A, E, start=None):
        self.A = _check_stochastic(A, "/A", 2, square=True)
        self.E = _check_stochastic(E, "/E", 2)
        if self.E.shape[0] != self.A.shape[0]:
            raise ValidationError("needs one row per hidden state", "/E")
        self.alphabet = Alphabet(self.E.shape[1])
        self.hidden_size = self.A.shape[0]
        self._start_given = start is not None
        self.start, self.stationary_start = _start_law(start, self.A, "/A")
        self.log_A = safe_log(self.A)
        self.log_E = safe_log(self.E)
        self.log_start = safe_log(self.start)
        self._cum_A = np.cumsum(self.A, axis=1)
        self._cum_E = np.cumsum(self.E, axis=1)
        self._cum_start = np.cumsum(self.start)

    @property
    def family(self) -> str:
        return "hmm"

    @property
    def label(self) -> str:
        tag = "" if self.stationary_start else ", non-invariant start"
        return f"hmm(hidden={self.hidden_size}, k={self.alphabet.size}{tag})"

    def _forward(
        self, x: np.ndarray, js: np.ndarray, m: int, table: bool = False
    ) -> np.ndarray:
        """Forward recursion over the windows x[j : j + m], one row per j.

        The rows, log forward vectors over hidden states, advance
        together.  Returns log Q_m of each window.  With table=True it
        returns the (rows, m) array of the log-probabilities of all the
        prefixes instead; js must then ascend, and a row stops at the end
        of x, leaving nan in its later entries.

        alpha is kept hidden-major, (hidden, rows), so each _hidden_step
        reduces over its leading axis with logspace.log_sum_exp_into, on
        buffers allocated once rather than per step.  Steps run in chunks of
        _FORWARD_ENTRIES floats; a chunk gathers its emission terms at once
        and, in table mode, takes the totals over hidden states at once,
        from a row-major (steps, rows, hidden) copy of alpha.  Either way
        every row sums in the same order as a batch of one, so a window's
        value does not depend on its batch.

        One row that runs to the end of its window, with at most
        _ROW_STEP_HIDDEN hidden states, steps in _forward_row instead, on
        Python floats, with the same bits: adds, subtractions and compares
        are the same IEEE operations on floats as on arrays; the max starts
        at -DBL_MAX; each column sums left to right with explicit adds, as
        np.add.reduce does over the leading axis (the builtin sum is
        compensated from Python 3.12); exp and log still run through
        numpy's ufuncs, whose results differ from libm's but do not depend
        on an entry's place in its array; and the totals are the same
        log_sum_exp calls on the same chunks.
        """
        if js.size == 1 and js[0] + m <= x.size and self.hidden_size <= _ROW_STEP_HIDDEN:
            return self._forward_row(x, int(js[0]), m, table)
        h = self.hidden_size
        chunk = max(1, _FORWARD_ENTRIES // (js.size * h))
        # live rows at each step: a table row stops at the end of x
        lives = (
            np.searchsorted(js, x.size - np.arange(m)) if table else np.full(m, js.size)
        ).tolist()
        out = np.full((js.size, m), np.nan) if table else None
        alpha = self.log_start[:, None] + self.log_E[:, x[js]]
        live = 0
        with np.errstate(divide="ignore"):
            for t0 in range(0, m, chunk):
                t1 = min(m, t0 + chunk)
                at = np.arange(t0, t1)[:, None] + js[: lives[t0]]
                emit = self.log_E[:, x[np.minimum(at, x.size - 1)]]
                if table:
                    totals = np.full((t1 - t0, lives[t0], h), np.nan)
                for t in range(t0, t1):
                    if lives[t] != live:  # at t = 0, and when a table row stops
                        live = lives[t]
                        alpha = np.ascontiguousarray(alpha[:, :live])
                        terms, hi = np.empty((h, h, live)), np.empty((h, live))
                    if t:
                        self._hidden_step(alpha, terms, hi, alpha)
                        alpha += emit[:, t - t0, :live]
                    if table:
                        totals[t - t0, :live] = alpha.T
                if table:
                    out[: lives[t0], t0:t1] = log_sum_exp(totals, axis=2).T
        if table:
            return out
        return log_sum_exp(np.ascontiguousarray(alpha.T), axis=1)

    def _hidden_step(self, alpha: np.ndarray, terms, hi, out: np.ndarray) -> None:
        """out[j, w] = log sum_i exp(alpha[i, w] + log A[i, j]), summed over i
        left to right, through the caller's buffers terms (h, h, words) and
        hi (h, words); out may be alpha, which is read before it is written."""
        np.add(alpha[:, None, :], self.log_A[:, :, None], out=terms)
        log_sum_exp_into(terms, hi, out)

    def _forward_row(self, x: np.ndarray, j: int, m: int, table: bool) -> np.ndarray:
        """_forward of the one row x[j : j + m], stepped on Python floats.

        Each step writes its h^2 shifted terms and h column sums into
        small buffers through memoryviews, for np.exp and np.log in place.
        Symbols are read a chunk at a time, so memory stays flat.
        """
        h = self.hidden_size
        chunk = max(1, _FORWARD_ENTRIES // h)
        log_A_cols = self.log_A.T.tolist()
        log_E_rows = self.log_E.T.tolist()
        terms, sums = np.empty(h * h), np.empty(h)
        terms_v, sums_v = memoryview(terms), memoryview(sums)
        alpha = (self.log_start + self.log_E[:, x[j]]).tolist()
        out = np.empty((1, m)) if table else None
        # column k of the terms: its first index and the ones added after it
        spans = [(k, k * h, range(k * h + 1, k * h + h)) for k in range(h)]
        with np.errstate(divide="ignore"):
            for t0 in range(0, m, chunk):
                t1 = min(m, t0 + chunk)
                symbols = x[j + t0 : j + t1].tolist()
                kept = []
                if not t0:
                    del symbols[0]
                    kept += alpha
                for s in symbols:
                    tops, q = [], 0
                    # column k: terms[k * h + i] = alpha[i] + log A[i, k] - top
                    for a_col in log_A_cols:
                        col = list(map(add, alpha, a_col))
                        top = max(col)
                        if top < _NEG_MAX:  # the max starts at -DBL_MAX
                            top = _NEG_MAX
                        tops.append(top)
                        for v in col:
                            terms_v[q] = v - top
                            q += 1
                    np.exp(terms, out=terms)
                    e = terms_v.tolist()
                    for k, q0, rest in spans:
                        acc = e[q0]
                        for q in rest:
                            acc = acc + e[q]
                        sums_v[k] = acc
                    np.log(sums, out=sums)
                    alpha = [
                        (lse + top) + emit
                        for lse, top, emit in zip(sums_v.tolist(), tops, log_E_rows[s])
                    ]
                    if table:
                        kept += alpha
                if table:
                    totals = np.array(kept).reshape(t1 - t0, 1, h)
                    out[:, t0:t1] = log_sum_exp(totals, axis=2).T
        if table:
            return out
        return log_sum_exp(np.array([alpha]), axis=1)

    def prefix_logprobs(self, x) -> np.ndarray:
        # one forward row per path, each reading its own stretch of the ravel
        w = self.alphabet.validate_paths(x)
        n = w.shape[-1]
        js = np.arange(0, w.size, n, dtype=np.int64)
        return self._forward(w.ravel(), js, n, table=True).reshape(w.shape)

    def windows(self, x) -> Windows:
        return _ForwardWindows(self, self.alphabet.validate_word(x))

    def _guard_level(self, n: int, cap: int) -> None:
        if self.alphabet.word_count(n) * self.hidden_size > cap:
            raise CapExceededError(
                f"level {n} forward table exceeds cap {cap}"
            )
        super()._guard_level(n, cap)

    def _level_start(self) -> np.ndarray:
        # alpha[i, w]: forward value of word w in hidden state i, indexed
        # hidden-major as in _forward, so numpy's inner loops run over words
        return self.log_start[:, None] + self.log_E

    def _level_extend(self, alpha: np.ndarray, steps: int) -> np.ndarray:
        h, k = self.hidden_size, self.alphabet.size
        for _ in range(steps):
            words = alpha.shape[1]
            # summed over i in the order the word-major (words, i, j) terms were
            moved = np.empty((h, words))
            with np.errstate(divide="ignore"):
                self._hidden_step(alpha, np.empty((h, h, words)), np.empty((h, words)), moved)
            # _level_totals sums over hidden states in memory order.  numpy
            # sums an innermost axis of 8 or more terms pairwise and an outer
            # one left to right; an extended state was word-major in memory
            # and the start state hidden-major, so from 8 hidden states on an
            # extended state stays word-major in memory
            if h < 8:
                out = np.empty((h, words, k))
            else:
                out = np.empty((words, k, h)).transpose(2, 0, 1)
            alpha = _append_symbols(moved, self.log_E, out).reshape(h, -1)
        return alpha

    def _level_rows(self, alpha: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return alpha[:, lo:hi]

    def _level_totals(self, alpha: np.ndarray) -> np.ndarray:
        return log_sum_exp(alpha, axis=0)

    def kernel_bound(self, tau: int) -> float:
        return _kernel_bound(self.start, self.A, self.stationary_start, tau)

    def to_spec(self) -> dict:
        spec = {"family": "hmm", "A": self.A.tolist(), "E": self.E.tolist()}
        if self._start_given:
            spec["start"] = self.start.tolist()
        return spec

    def _sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        z = _chain_path(self._cum_start, self._cum_A, rng.random(n))
        u_emit = rng.random(n)
        idx = (self._cum_E[z] <= u_emit[:, None]).sum(axis=1)
        return np.minimum(idx, self.alphabet.size - 1).astype(np.int64)


class MixtureMeasure(ShiftMeasure):
    """Finite convex mixture of shift measures on one alphabet.

    Not ergodic for distinct components: a sampled path follows a single
    component forever, so path functionals converge to per-component
    limits, not to the mixture average.
    """

    def __init__(self, components: Sequence[ShiftMeasure], weights):
        comps = list(components)
        if len(comps) < 2:
            raise ConfigError("needs a list of at least two components", "/components")
        sizes = {c.alphabet.size for c in comps}
        if len(sizes) != 1:
            raise ValidationError("components must share one alphabet", "/components")
        self.components = comps
        self.weights = _check_stochastic(weights, "/weights", 1)
        if self.weights.size != len(comps):
            raise ValidationError("needs one weight per component", "/weights")
        if (self.weights <= 0).any():
            raise ValidationError("must be strictly positive", "/weights")
        self.alphabet = comps[0].alphabet
        self.log_weights = safe_log(self.weights)
        self._cum_w = np.cumsum(self.weights)

    @property
    def family(self) -> str:
        return "mixture"

    @property
    def label(self) -> str:
        inner = ", ".join(c.label for c in self.components)
        return f"mixture({inner})"

    def _mix(self, values: list[np.ndarray]) -> np.ndarray:
        """log sum_i w_i exp(values[i]), from one log array per component."""
        return log_sum_exp(
            np.stack([lw + v for lw, v in zip(self.log_weights, values)]), axis=0
        )

    def prefix_logprobs(self, x) -> np.ndarray:
        w = self.alphabet.validate_paths(x)
        return self._mix([c.prefix_logprobs(w) for c in self.components])

    def windows(self, x) -> Windows:
        return _MixtureWindows(self, self.alphabet.validate_word(x))

    def _guard_level(self, n: int, cap: int) -> None:
        super()._guard_level(n, cap)
        for c in self.components:
            c._guard_level(n, cap)

    def _level_start(self) -> tuple:
        return tuple(c._level_start() for c in self.components)

    def _level_extend(self, state: tuple, steps: int) -> tuple:
        return tuple(c._level_extend(s, steps) for c, s in zip(self.components, state))

    def _level_rows(self, state: tuple, lo: int, hi: int) -> tuple:
        return tuple(c._level_rows(s, lo, hi) for c, s in zip(self.components, state))

    def _level_totals(self, state: tuple) -> np.ndarray:
        return self._mix([c._level_totals(s) for c, s in zip(self.components, state)])

    def kernel_bound(self, tau: int) -> float:
        """max_c (c_c - log w_c): the hidden chain is block-diagonal with start w_c pi_c."""
        return float(max(c.kernel_bound(tau) - lw for c, lw in zip(self.components, self.log_weights)))

    def to_spec(self) -> dict:
        return {
            "family": "mixture",
            "weights": self.weights.tolist(),
            "components": [c.to_spec() for c in self.components],
        }

    def _sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        j = int(_draw_from_cum(self._cum_w, rng.random()))
        return self.components[j]._sample(n, rng)


@dataclasses.dataclass(frozen=True)
class MeasureValidation:
    ok: bool
    levels_checked: int
    normalization_error: dict[int, float]
    consistency_error: dict[int, float]
    problems: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "levels_checked": self.levels_checked,
            "normalization_error": {str(k): v for k, v in self.normalization_error.items()},
            "consistency_error": {str(k): v for k, v in self.consistency_error.items()},
            "problems": list(self.problems),
        }


def validate_measure(
    Q: ShiftMeasure, n_max: int = 4, tol: float = 1e-9, cap: int = 10**7
) -> MeasureValidation:
    """Audit normalization and two-sided marginal consistency by brute force.

    For each level n <= n_max the k^n marginals must sum to 1, and the
    level-(n+1) table must reduce to the level-n table when the last or
    the first coordinate is summed out.  The first-coordinate reduction
    is the shift-invariance witness: it fails for a chain started off
    its stationary law.
    """
    if n_max < 1:
        raise ConfigError("n_max must be >= 1")
    norm_err: dict[int, float] = {}
    cons_err: dict[int, float] = {}
    problems: list[str] = []
    k = Q.alphabet.size
    levels: dict[int, np.ndarray] = {}
    for n in range(1, n_max + 1):
        lv = Q.log_marginals_level(n, cap=cap)
        levels[n] = lv
        err = abs(float(np.exp(log_sum_exp(lv))) - 1.0)
        norm_err[n] = err
        if err > tol:
            problems.append(f"level {n} marginals sum off 1 by {err:.3g}")
    for n in range(1, n_max):
        probs_n = np.exp(levels[n])
        right = np.exp(log_sum_exp(levels[n + 1].reshape(-1, k), axis=1))
        left = np.exp(log_sum_exp(levels[n + 1].reshape(k, -1), axis=0))
        err = max(
            float(np.abs(right - probs_n).max()), float(np.abs(left - probs_n).max())
        )
        cons_err[n] = err
        if err > tol:
            problems.append(f"levels {n} and {n + 1} are marginal-inconsistent by {err:.3g}")
    return MeasureValidation(
        ok=(not problems),
        levels_checked=n_max,
        normalization_error=norm_err,
        consistency_error=cons_err,
        problems=tuple(problems),
    )


def measure_from_spec(obj: dict, pointer: str = "") -> ShiftMeasure:
    """Build a measure from its JSON spec; inverse of to_spec.

    Every rejection is a SchemaError whose pointer starts with pointer,
    the spec's place in its document.
    """
    with schema_errors(pointer):
        if not isinstance(obj, dict):
            raise ConfigError("a measure spec must be an object")
        family = obj.get("family")
        if family == "iid":
            return IIDMeasure(obj.get("p"))
        if family == "markov":
            return MarkovMeasure(obj.get("P"), start=obj.get("start"))
        if family == "hmm":
            return HiddenMarkovMeasure(obj.get("A"), obj.get("E"), start=obj.get("start"))
        if family == "mixture":
            comps = obj.get("components")
            if not isinstance(comps, list):
                raise ConfigError("needs a list of components", "/components")
            return MixtureMeasure(
                [measure_from_spec(c, f"/components/{i}") for i, c in enumerate(comps)],
                obj.get("weights"),
            )
        raise ConfigError(f"unknown family {family!r}", "/family")
