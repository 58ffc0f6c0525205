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
evaluate each row as a path, each row bit for bit as on its own, after
one check of its symbols (checked_symbols).  iid and Markov prefixes are
running sums of exact per-symbol increments (np.cumsum along the path,
which matches a sequential left-to-right sum bit for bit) and their
windows are differences of prefix sums.  Their increments are gathered
a column block of at most _GATHER_ENTRIES terms at a time
(_increment_blocks), which lets a series stream them.  Hidden-Markov
prefixes and windows run one forward recursion with a row per offset or
per path, and mixtures take the log-sum-exp of their component values.
"""
from __future__ import annotations

import abc
import dataclasses
import functools
import math
import numbers
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CapExceededError, ConfigError, ValidationError, check_tol, finite, known_keys, pointed,
    schema_errors,
)
from .logspace import _NEG_MAX, log_sum_exp, log_sum_exp_into, safe_log

WORD_CAP = 10**7  # default cap on the floats of a level state: k^n words times _level_floats
_STOCH_TOL = 1e-9
_LISTS = (list, tuple, np.ndarray)
_MAP_TABLE_ENTRIES = 1 << 22  # chain-path map entries built at a time: 4-8 MB
# entries of one block of a streamed pass: the increments that a Kingman
# series gathers at a time (_increment_blocks, sampling.kingman_rows) and
# the offsets of a Steele depth table (steele.first_depths).  Each array of
# a block stays under glibc's 128 KB mmap threshold, so it is reused heap,
# not pages mapped and faulted on each call
_GATHER_ENTRIES = 1 << 13
# most states whose chain-path table rows are counted by comparisons.  The
# k(k - 1) passes over the uniforms against one sort, filling the table of
# 20 rows of 10^4 steps, pinned to one CPU: 0.2 vs 6.1 ms at k = 2, 5.3 vs
# 10.0 ms at k = 8, 12.6 vs 12.8 ms at k = 12 and 30.5 vs 16.9 ms at k = 16
_COMPARE_STATES = 8


def integer_array(a, error: type[Exception], what: str) -> np.ndarray:
    """a as an int64 array, refused with error if it holds a value of a
    dtype that is not integer: a cast would truncate 1.9 to 1 and read the
    string '1' as 1.  An empty list, float64 to numpy, is no values."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise error(f"{what} must be integers, not {a.dtype}")
    return a.astype(np.int64, copy=False)


def checked_symbols(x, size: int, paths: bool = False) -> np.ndarray:
    """x as int64 symbols in [0, size): the one symbol check, of a nonempty 1-d
    word or, with paths, also of a nonempty (paths, n) array, one path per row."""
    w = np.asarray(x)
    if paths and w.ndim == 2:
        if w.size == 0:
            raise ValidationError("paths are a nonempty 2-d symbol array, one path per row")
    elif w.ndim != 1 or w.size == 0:
        raise ValidationError("a word is a nonempty 1-d symbol array")
    w = integer_array(w, ValidationError, "symbols")
    if w.min() < 0 or w.max() >= size:
        raise ValidationError(f"symbols must lie in [0, {size})")
    return w


@dataclasses.dataclass(frozen=True)
class Alphabet:
    """Finite alphabet {0, ..., size - 1}; field points at the array that sets its size."""

    size: int
    field: str = dataclasses.field(default="", compare=False, repr=False)

    def __post_init__(self):
        if self.size < 2:
            raise ConfigError("alphabet needs at least two symbols", self.field)

    def validate_word(self, word) -> np.ndarray:
        return checked_symbols(word, self.size)

    def validate_paths(self, paths) -> np.ndarray:
        """A word, or a (paths, n) array with one path per row, as int64 symbols."""
        return checked_symbols(paths, self.size, paths=True)

    def word_count(self, n: int) -> int:
        return self.size**n


def _words_over_cap(k: int, length: int, cap: int) -> str | None:
    """The printed count of the k**length words, if more than cap; else None.

    k**length > cap once length reaches cap's bit length, so the power is
    never built larger; a count of 64+ symbols prints as k^length.
    """
    if k ** min(length, cap.bit_length()) <= cap:
        return None
    return str(k**length) if length < 64 else f"{k}^{length}"


def _check_stochastic(raw, field: str, ndim: int, square: bool = False) -> np.ndarray:
    """raw as a probability vector (ndim 1) or a row-stochastic matrix (ndim 2).

    field is the argument's JSON pointer, such as "/P"; a rejection points
    at it, or at the offending row of a matrix.  Entries are checked as
    given, since np.asarray would turn a boolean into 1.0.  Lists of exact
    ints and floats, and an array of ndim dimensions with a real integer or
    float dtype, are checked as one array; any other input, and any that
    fails there, is checked row by row, which refuses at the first
    offending row.
    """
    if raw is None:
        raise ValidationError("missing", field)
    rows = [raw] if ndim == 1 else raw
    if not isinstance(rows, _LISTS) or len(rows) == 0:
        raise ValidationError("must be a nonempty list of rows", field)
    vals = _plain_rows(rows, ndim)
    if not (
        vals is not None
        and np.isfinite(vals).all()
        and (vals >= 0).all()
        and (np.abs(vals.sum(axis=1) - 1.0) <= _STOCH_TOL).all()
    ):
        for i, row in enumerate(rows):
            _check_row(row, rows[0], field if ndim == 1 else f"{field}/{i}", ndim)
    if square and len(rows) != len(rows[0]):
        raise ValidationError("must be square", field)
    return np.asarray(raw, dtype=np.float64)


def _plain_rows(rows, ndim: int) -> np.ndarray | None:
    """rows as a 2-d float array if they are lists of one length whose
    entries are all exact ints and floats in the float range, or one array
    of ndim dimensions with a real integer or float dtype; else None."""
    raw = rows[0] if ndim == 1 else rows
    if isinstance(raw, np.ndarray):
        if raw.ndim != ndim or raw.dtype.kind not in "iuf":
            return None
    elif not all(type(row) in (list, tuple) and len(row) == len(rows[0]) for row in rows):
        return None
    elif not {type(v) for row in rows for v in row} <= {int, float}:
        return None
    try:
        with np.errstate(over="ignore"):  # a float beyond the float64 range fails as inf
            return np.array(rows, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        return None


def _check_row(row, first, here: str, ndim: int) -> None:
    """Refuse one row of _check_stochastic at here, in the checks' order;
    first is the first row, whose length every row must have."""
    if not isinstance(row, _LISTS) or len(row) == 0:
        raise ValidationError("must be a nonempty list", here)
    if len(row) != len(first):
        raise ValidationError("ragged row", here)
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in row):
        raise ValidationError("non-numeric entry", here)
    if not all(finite(v) for v in row):
        raise ValidationError("non-finite entry", here)
    vals = np.asarray(row, dtype=np.float64)
    if (vals < 0).any():
        raise ValidationError("negative entry", here)
    total = float(vals.sum())
    if abs(total - 1.0) > _STOCH_TOL:
        what = "row sums" if ndim == 2 else "sums"
        raise ValidationError(f"{what} to {total!r}, expected 1", here)


def stationary_distribution(P: np.ndarray, tol: float = 1e-10, field: str = "/P") -> np.ndarray:
    """Unique stationary law of a row-stochastic matrix.

    Solved through the SVD nullspace of (P^T - I).  A second vanishing
    singular value means the chain is reducible with several invariant
    laws, which is rejected, and so is a nullspace vector that, normalized
    and clipped at 0, leaves a residual |pi P - pi|_1 above tol.  A
    rejection is a ValidationError at field.
    """
    return _stationary(_check_stochastic(P, field, 2, square=True), field, tol)


def _stationary(P: np.ndarray, field: str, tol: float = 1e-10) -> np.ndarray:
    """stationary_distribution of an already checked row-stochastic matrix."""
    k = P.shape[0]
    if (P == P[0]).all():
        # identical rows: the row is pi bit for bit, as HiddenChain.product needs
        return P[0].copy()
    A = P.T - np.eye(k)
    _, s, vh = np.linalg.svd(A)
    if k >= 2 and s[-2] < 1e-8:
        raise ValidationError("chain has no unique stationary law (reducible)", field)
    v = vh[-1]
    total = v.sum()
    if abs(total) > 1e-12:
        pi = np.clip(v / total, 0.0, None)
        pi = pi / pi.sum()
        if np.abs(pi @ P - pi).sum() <= tol:
            return pi
    raise ValidationError("the SVD nullspace vector is not a stationary law", field)


@dataclasses.dataclass(frozen=True, eq=False)
class HiddenChain:
    """The hidden chain (start, A, E) of a measure, Q(x_1..x_n) = sum over hidden
    paths z of start(z_1) E(z_1, x_1) prod_t A(z_{t-1}, z_t) E(z_t, x_t); stationary
    says if start is invariant under A, field is where a refusal of it points.

    A Markov chain's emissions are None: E, the identity, is built when read.
    A mixture holds parts, its components' (weight, record) pairs, in place
    of start, A and E; dense builds when read its form as one chain: A
    block-diagonal, E stacked and start w_c pi_c."""

    start: np.ndarray | None
    A: np.ndarray | None
    stationary: bool
    field: str
    emissions: np.ndarray | None = None
    parts: tuple[tuple[float, "HiddenChain"], ...] = ()

    @functools.cached_property
    def E(self) -> np.ndarray:
        return np.eye(len(self.A)) if self.emissions is None else self.emissions

    @functools.cached_property
    def dense(self) -> "HiddenChain":
        if not self.parts:
            return self
        chains = [c.dense for _, c in self.parts]
        sizes = [len(c.A) for c in chains]
        A = np.zeros((sum(sizes), sum(sizes)))
        for c, lo in zip(chains, np.cumsum([0, *sizes])):
            A[lo:lo + len(c.A), lo:lo + len(c.A)] = c.A
        start = np.concatenate([w * c.start for (w, _), c in zip(self.parts, chains)])
        return HiddenChain(start, A, self.stationary, self.field, np.vstack([c.E for c in chains]))

    def symbol_chain(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(start, P) of the symbols as a Markov chain: with no emissions or E
        exactly the identity P = A, and with one hidden state P is the one row
        E[0:1], which stands for every row, started at E[0].  None for any
        other chain and for a mixture."""
        E = self.emissions
        if E is not None and len(E) == 1:
            return E[0], E[0:1]
        identity = E is None or np.array_equal(E, np.eye(len(E)))
        return (self.start, self.A) if identity and not self.parts else None

    def draw(self, n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """(len(rngs), n) int64 paths, row i bit for bit the one rngs[i] draws alone: a
        mixture's generator picks its part by one uniform, then its path (a part's rows
        draw together); a one-row symbol chain draws each symbol from the row, any other
        through _chain_path, and any other record its hidden, then its emission uniforms."""
        if self.parts:
            cum = np.cumsum([w for w, _ in self.parts])
            picks = np.asarray([_draw_from_cum(cum, rng.random()) for rng in rngs])
            x = np.empty((len(rngs), n), dtype=np.int64)
            for j, (_, part) in enumerate(self.parts):
                rows = np.flatnonzero(picks == j)  # may be none: an empty draw
                x[rows] = part.draw(n, [rngs[i] for i in rows])
            return x
        chain = self.symbol_chain()
        if chain is not None and len(chain[1]) == 1:
            cum, u = np.cumsum(chain[1][0]), _uniforms(n, rngs)
            for row, x in zip(u, u.view(np.int64)):  # each row drawn over its own uniforms
                x[:] = _draw_from_cum(cum, row)
            return u.view(np.int64)
        start, A = chain or (self.start, self.A)
        u = _uniforms(n, rngs)  # the chain's symbols are drawn over its uniforms' buffer
        z = _chain_path(np.cumsum(start), np.cumsum(A, axis=1), u, out=u.view(np.int64))
        if chain is not None:
            return z
        u = _uniforms(n, rngs)
        x = np.zeros(z.shape, dtype=np.int64)
        for edge in np.cumsum(self.E, axis=1)[:, :-1].T:  # _draw_from_cum's bucket in row z of E
            x += edge[z] <= u
        return x

    @functools.cached_property
    def product(self) -> bool:
        """Q(a b) = Q(a) Q(b): one hidden state, or each row of symbol_chain() is its start."""
        if self.parts or len(self.A) == 1:
            return not self.parts
        chain = self.symbol_chain()
        return chain is not None and bool((chain[1] == chain[0]).all())


def _kernel_bound(chain: HiddenChain, tau: int) -> float:
    """c = max_ij [log A^{tau+1}(i, j) - log pi(j)] of the chain (pi, A), at least 0.0.

    Conditioning on the hidden state entering the second block bounds
    Q(a * b) = sum_ij Q(a, z_n = i) A^{tau+1}(i, j) Q(b | z_1 = j) by exp(c) Q(a) Q(b)
    for every n and m.  c >= 0 as pi A^{tau+1} = pi, so a rounding-negative c
    is 0.0.  A product (HiddenChain.product), whose A^{tau+1} may round off its
    rows, is exactly 0.0, even with a zero in pi.  A mixture's is
    max_c (c_c - log w_c), a part's refusal pointing into /components.
    """
    if tau < 0:
        raise ConfigError("gap must be >= 0")
    if chain.parts:
        bounds = []
        for i, (w, part) in enumerate(chain.parts):
            with pointed(f"/components/{i}", ValidationError):
                bounds.append(_kernel_bound(part, tau) - safe_log(w))
        return float(max(bounds))
    if chain.product:
        return 0.0
    if not chain.stationary:
        raise ValidationError("kernel bound needs the stationary start", chain.field)
    if (chain.start <= 0).any():
        raise ValidationError("kernel bound needs pi > 0 everywhere", chain.field)
    log_kernel = safe_log(np.linalg.matrix_power(chain.A, tau + 1))
    c = float(np.max(log_kernel - np.log(chain.start)[None, :]))
    return c if c > 0.0 else 0.0


class ShiftMeasure(abc.ABC):
    """Common contract for measure families.

    prefix_logprobs, log_increments and windows check the symbols of a path
    once and evaluate the checked array w through _prefixes, _increments and
    _windows, which run no check (a mixture calls its components' directly).
    Subclasses provide these, level states that enumerate every word of a
    length, and _hidden(), which draws their paths.  Log-marginals take
    values in [-inf, inf).
    """

    alphabet: Alphabet

    @property
    @abc.abstractmethod
    def label(self) -> str: ...

    def prefix_logprobs(self, x) -> np.ndarray:
        """[log Q_1(x_1), log Q_2(x_1 x_2), ..., log Q_n(x_1..x_n)].

        x is one path, or a (paths, n) array whose rows are paths; the
        result then has one row per path.
        """
        return self._prefixes(self.alphabet.validate_paths(x))

    def log_increments(self, x) -> np.ndarray:
        """Per-symbol increments of prefix_logprobs(x), along each path.

        The first -inf marks the first prefix of probability zero;
        entries after it carry no information.
        """
        return self._increments(self.alphabet.validate_paths(x))

    def windows(self, x) -> "Windows":
        """Window log-marginals along the path x."""
        return self._windows(self.alphabet.validate_word(x))

    @abc.abstractmethod
    def _prefixes(self, w: np.ndarray) -> np.ndarray: ...

    def _increments(self, w: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.diff(self._prefixes(w), axis=-1, prepend=0.0)

    @abc.abstractmethod
    def _windows(self, w: np.ndarray) -> "Windows": ...

    def _increment_blocks(self, w: np.ndarray, width: int, out: np.ndarray | None = None):
        """Yield (lo, block): the log_increments of the checked (paths, n)
        array w in columns lo .. lo + block.shape[1] - 1.

        A block is valid until the next yield.  Families whose increments
        are exact per-symbol terms (_TermMeasure: iid, Markov) gather
        blocks of at most width columns, into views of out (the whole
        (paths, n) result) when it is given, else into one reused buffer,
        and drain them into out for their increments.  Any other family
        evaluates the increments whole, as one fresh block, whose cost is
        its forward recursion rather than memory.
        """
        yield 0, self._increments(w)

    def log_marginal(self, word) -> float:
        """log Q_n(word) for a length-n symbol array."""
        return float(self.prefix_logprobs(word)[-1])

    def _hidden(self) -> HiddenChain:
        return self._hidden_chain  # kept by _drive, for Markov and hidden Markov

    def _drive(self, A: np.ndarray, start, field: str, emissions=None) -> None:
        """Keep the hidden chain of kernel A at field from start, a law checked
        at /start or if None the unique stationary law of A, and its start
        law as the plain attributes that labels and the forward pass read."""
        if start is None:
            law, stationary = _stationary(A, field), True
        else:
            law, field = _check_stochastic(start, "/start", 1), "/start"
            if law.size != A.shape[0]:
                raise ValidationError("size must match the matrix", field)
            stationary = bool(np.abs(law @ A - law).max() <= 1e-12)
        self._hidden_chain = HiddenChain(law, A, stationary, field, emissions)
        self.start, self.stationary_start = law, stationary
        self.log_start = safe_log(law)

    def kernel_bound(self, tau: int) -> float:
        """Decoupling constant at gap tau for all n and m: _kernel_bound of _hidden()."""
        return _kernel_bound(self._hidden(), tau)

    def cross_entropy_rate(self, Q: "ShiftMeasure") -> float | None:
        """sum_i pi(i) sum_j P_ij (-log K_ij) in nats, for the symbol chains (pi, P) of
        this measure and K of Q.  +inf when Q forbids a step of P.  None (no closed
        form) unless both are chains and this one starts at its stationary law."""
        mine = self._hidden()
        P, K = mine.symbol_chain(), Q._hidden().symbol_chain()
        if P is None or K is None or not mine.stationary:
            return None
        if self.alphabet.size != Q.alphabet.size:
            raise ConfigError("measures must share one alphabet")
        (pi, P), (_, K) = P, K  # a one-row P or K broadcasts: its row stands for every row
        if ((P > 0) & (K == 0)).any():
            return float("inf")
        with np.errstate(invalid="ignore"):  # 0 log 0 = 0 by continuity
            rows = np.where(P > 0, P * safe_log(K), 0.0).sum(axis=1)
        return float(-(pi @ np.broadcast_to(rows, pi.shape).copy()))

    def entropy_rate(self) -> float | None:
        """h = -sum_i pi_i sum_j P_ij log P_ij in nats: cross_entropy_rate(self)."""
        return self.cross_entropy_rate(self)

    def kl_rate(self, Q: "ShiftMeasure") -> float | None:
        """sum_i pi(i) sum_j P_ij log(P_ij / Q_ij): cross entropy minus entropy rate."""
        cross = self.cross_entropy_rate(Q)
        if cross is None or cross == float("inf"):
            return cross
        return float(cross - self.entropy_rate())

    def _sample_rows(self, n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """The paths of rngs, one row each: HiddenChain.draw of _hidden()."""
        return self._hidden().draw(n, rngs)

    # A level state holds one row per word of a level, indexed base-k, most
    # significant symbol first, laid out as the family's step runs fastest
    # (an HMM's is hidden-major); _level_rows cuts it, at multiples of k
    # only.  Extending a state appends every symbol to every word, so the
    # rows of a level's state extend to a contiguous block of the longer
    # level.

    @abc.abstractmethod
    def _level_start(self):
        """The level-1 state."""

    @abc.abstractmethod
    def _level_extend(self, state, steps: int):
        """The state of the words of state, each followed by every word of length steps."""

    def _level_totals(self, state) -> np.ndarray:
        """log Q of every word of state: the state itself, for a family of one float per word."""
        return state

    def _level_rows(self, state, lo: int, hi: int):
        """Rows lo..hi-1 of a level state: the state of those words."""
        return state[lo:hi]

    @property
    def _level_floats(self) -> int:
        """Floats a level state holds per word."""
        return 1

    def _level_state(self, n: int):
        return self._level_extend(self._level_start(), n - 1)

    def log_marginals_level(self, n: int, cap: int = WORD_CAP) -> np.ndarray:
        """log Q_n over all k^n words, indexed base-k, most significant first."""
        self._guard_level(n, cap)
        return self._level_totals(self._level_state(n))

    def _level_need(self, n: int, cap: int) -> str | None:
        """The printed size of the level-n state, if it holds more than cap floats; else None."""
        floats = self._level_floats
        words = _words_over_cap(self.alphabet.size, n, cap // floats)
        if words is None:
            return None
        return f"{words} words" if floats == 1 else f"{words} words of {floats} floats"

    def _guard_level(self, n: int, cap: int) -> None:
        """Refuse a level whose state holds more than cap floats: k^n * _level_floats."""
        if n < 1:
            raise ConfigError("level must be >= 1")
        need = self._level_need(n, cap)
        if need:
            raise CapExceededError(f"level {n} needs {need}, cap is {cap}")


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


def _column_blocks(shape: tuple[int, int], width: int, out: np.ndarray | None):
    """Yield (lo, hi, block) for columns lo .. hi - 1 of a (rows, n) result,
    at most width columns at a time: views of out if it is given, else
    C-contiguous views of one reused buffer."""
    rows, n = shape
    buf = np.empty(rows * min(width, n)) if out is None else None
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        yield lo, hi, out[:, lo:hi] if buf is None else buf[: rows * (hi - lo)].reshape(rows, -1)


class Windows(abc.ABC):
    """f_m at offset j, log Q_m(x_{j+1} .. x_{j+m}), along one path x.

    many evaluates one length at many offsets; suffix_rows every length up
    to a width at a run of consecutive offsets, one row per offset, and
    suffix is its one-row case.  Each checks that its windows start inside
    the path.
    """

    def __init__(self, size: int):
        self.size = size

    @abc.abstractmethod
    def _many(self, js: np.ndarray, m: int) -> np.ndarray: ...

    @abc.abstractmethod
    def _suffix_rows(self, j0: int, rows: int, width: int) -> np.ndarray: ...

    def many(self, js, m: int) -> np.ndarray:
        """f_m at each offset in js; requires j + m <= size for all j."""
        js = integer_array(js, ConfigError, "offsets")
        if m < 1:
            raise ConfigError("window length must be >= 1")
        if not js.size:
            return np.empty(0)
        if js.min() < 0 or int(js.max()) + m > self.size:
            raise ConfigError("window exceeds the trajectory")
        return self._many(js, m)

    def suffix_rows(self, j0: int, rows: int, width: int) -> np.ndarray:
        """A (rows, width) array whose row r is [f_1, ..., f_width] at offset j0 + r.

        Needs j0 + width <= size and j0 + rows <= size.  Row r's entries
        from size - j0 - r on lie past the path and are unspecified.
        """
        if rows < 1 or width < 1 or j0 < 0 or j0 + max(rows, width) > self.size:
            raise ConfigError("suffix window exceeds the trajectory")
        return self._suffix_rows(j0, rows, width)

    def suffix(self, j: int, m_max: int) -> np.ndarray:
        """Array [f_1, ..., f_{m_max}] at offset j; needs j + m_max <= size."""
        return self.suffix_rows(j, 1, m_max)[0]


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

    def _sums(self, js: np.ndarray, ends: np.ndarray, bad_ends) -> np.ndarray:
        """The windows at offsets js whose prefix sums end at ends, the one
        window formula: (head[j] + ends) - cum[j + 1] for a chain, whose
        steps j + 2 .. j + m follow the head (body[0] is 0 padding), and
        ends - cum[j] for iid.  bad_ends() gives the -inf counts at the
        same ends; a path with no -inf term skips the count."""
        first = js + 1 if self._markov else js  # the prefix sum each window starts after
        if self._markov:
            vals = self._head[js] + ends
            vals -= self._cum[first]
        else:
            vals = ends - self._cum[first]
        if not self._any_bad:
            return vals
        nbad = bad_ends() - self._bad_cum[first]
        if self._markov:
            nbad += self._head_bad[js]
        return np.where(nbad > 0, -np.inf, vals)

    def _many(self, js: np.ndarray, m: int) -> np.ndarray:
        return self._sums(js, self._cum[js + m], lambda: self._bad_cum[js + m])

    @functools.cached_property
    def _ends(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Strided views [a, i] = cum[a + i] of _cum and, if a term is -inf,
        _bad_cum, over a zero tail where a suffix block's rows run past the path."""
        def view(cum: np.ndarray) -> np.ndarray:
            tail = np.zeros(self.size - 1, dtype=cum.dtype)
            return sliding_window_view(np.concatenate((cum, tail)), self.size)

        return view(self._cum), view(self._bad_cum) if self._any_bad else None

    def _suffix_rows(self, j0: int, rows: int, width: int) -> np.ndarray:
        ends, bad_ends = self._ends
        after = slice(j0 + 1, j0 + rows + 1)  # [r, i] = cum[j0 + r + 1 + i]
        js = np.arange(j0, j0 + rows)[:, None]
        return self._sums(js, ends[after, :width], lambda: bad_ends[after, :width])


# largest forward table one HMM suffix block may hold, in floats; also the
# most symbols of the trial paths that estimate mean evaluates at once
_TABLE_ENTRIES = 2**22
# forward steps times rows times hidden states run as one chunk
_FORWARD_ENTRIES = 2**12
# most hidden states for which one row steps in _row_kernel.  Per step on a
# 20000-symbol prefix table, pinned to one CPU, best of 7 in each of three
# fresh processes, the kernel against the rows path on one row took (us):
# h = 3: 2.5-3.6 vs 10.4-12.2; h = 4: 3.5-3.8 vs 11.6-13.9; h = 5: 4.8-6.5
# vs 11.9-12.2; h = 6: 5.8-8.1 vs 10.4-14.3; h = 7: 7.7-10.1 vs 11.1-14.6.
# The compiled step grows as h^2 (compiling h = 7 takes 2.6 ms), and a
# one-row call with 8 or more hidden states keeps running the rows path.
_ROW_STEP_HIDDEN = 7


class _ForwardWindows(Windows):
    """HMM windows: one forward row per offset, all advanced together.

    suffix_rows fills the prefix table of a block of consecutive offsets,
    to the end of the path, and serves later blocks inside it from it.
    """

    def __init__(self, Q: "HiddenMarkovMeasure", x: np.ndarray):
        super().__init__(x.size)
        self._Q = Q
        self._x = x
        self._lo = 0
        self._table = np.empty((0, 0))

    def _many(self, js: np.ndarray, m: int) -> np.ndarray:
        return self._Q._forward(self._x, js, m)

    def _suffix_rows(self, j0: int, rows: int, width: int) -> np.ndarray:
        if not self._lo <= j0 <= j0 + rows <= self._lo + self._table.shape[0]:
            full = self.size - j0
            count = min(full, max(rows, _TABLE_ENTRIES // full))
            self._lo = j0
            self._table = self._Q._forward(
                self._x, np.arange(j0, j0 + count, dtype=np.int64), full, table=True
            )
        return self._table[j0 - self._lo : j0 - self._lo + rows, :width]


class _MixtureWindows(Windows):
    """Log-sum-exp of the weighted component windows."""

    def __init__(self, Q: "MixtureMeasure", x: np.ndarray):
        super().__init__(x.size)
        self._Q = Q
        self._parts = [c._windows(x) for c in Q.components]

    def _many(self, js: np.ndarray, m: int) -> np.ndarray:
        return self._Q._mix([w._many(js, m) for w in self._parts])

    def _suffix_rows(self, j0: int, rows: int, width: int) -> np.ndarray:
        return self._Q._mix([w._suffix_rows(j0, rows, width) for w in self._parts])


def _draw_from_cum(cum: np.ndarray, u) -> np.ndarray | int:
    """Index of the bucket containing u: #{j : cum_j <= u}, clipped.

    cum is an inclusive cumulative row; the clip absorbs the float case
    where the final entry lands a hair under 1.
    """
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, cum.size - 1)


def _uniforms(n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """A (len(rngs), n) array: row i holds the next n uniforms of rngs[i]."""
    u = np.empty((len(rngs), n))
    for row, rng in zip(u, rngs):
        rng.random(out=row)
    return u


def _chain_path(
    cum_start: np.ndarray, cum_rows: np.ndarray, u: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """x_0 = bucket of u_0 in cum_start, x_{i+1} = bucket of u_{i+1} in cum_rows[x_i].

    u holds one path's uniforms, shape (n,), or a (rows, n) array with one
    path's per row; the int64 paths come back in u's shape, in out if given.
    out may be u's own buffer (u.view(np.int64)): each chunk's uniforms are
    read before its symbols are written.  Each bucket is _draw_from_cum's,
    so every row is bit for bit the path drawn symbol by symbol from its
    own uniforms.

    The rows draw in passes of at most _MAP_TABLE_ENTRIES // (16k*max(k, 16))
    rows, one _chain_pass each: a pass's (rows, k, k) counts of the sort
    fill and its rows*k lists of block maps then hold at most 1/16 of the
    budget's entries, and its table at most the budget.  (k = 32 and 8000
    rows of 100 steps peak near 9 MB, against 270 MB in one pass.)
    """
    U = u.reshape(-1, u.shape[-1])
    x = np.empty(U.shape, dtype=np.int64) if out is None else out.reshape(U.shape)
    k = cum_rows.shape[0]
    batch = max(1, _MAP_TABLE_ENTRIES // (16 * k * max(k, 16)))
    for lo in range(0, U.shape[0], batch):
        _chain_pass(cum_start, cum_rows, U[lo:lo + batch], x[lo:lo + batch])
    return x.reshape(u.shape)


def _chain_pass(cum_start: np.ndarray, cum_rows: np.ndarray, U: np.ndarray, x: np.ndarray) -> None:
    """Draw the chain paths of U's rows of uniforms into the int64 rows of x.

    Step i is the random map T_i (Propp & Wilson 1996): row s of its table
    holds the bucket of u_i in cum_rows[s].  The table holds every path's
    maps at once, its entries (row, state) ids r*k + s, so that each step of
    the scan below is one gather over all rows.  Up to _COMPARE_STATES
    states, row s is counted from one comparison per edge of cum_rows[s];
    above, in sorted order of a row's uniforms, it is a run of 0s, then of
    1s and so on, cut at those edges.  Chunks of
    max(_MAP_TABLE_ENTRIES // (k*rows), 4k) steps, each from the last
    symbols of the one before, bound the table.  In each the maps compose
    in blocks of L ~ sqrt(k*rows*W / 128) steps, a two-level scan (Blelloch
    1990): L gathers compose every block's map, each row's block starts
    follow its maps as Python list reads, and L gathers walk every block
    from its start.  L weighs the gathers' per-call cost against the list
    reads, which grow with the blocks.  The flat table indices are intp
    products, so that 8- and 16-bit ids widen under every NumPy's promotion.
    """
    rows, n = U.shape
    x[:, 0] = _draw_from_cum(cum_start, U[:, 0])
    k = cum_rows.shape[0]
    ids = np.arange(rows * k, dtype=np.min_scalar_type(rows * k - 1))
    chunk = max(_MAP_TABLE_ENTRIES // (k * rows), 4 * k)
    for lo in range(1, n, chunk):
        steps = U[:, lo:lo + chunk]
        W = steps.shape[1]
        L = min(W, max(1, math.isqrt(k * rows * W // 128)))
        B = -(-W // L)
        width = B * L
        if k <= _COMPARE_STATES:
            T = np.empty((rows, k, width), dtype=ids.dtype)  # columns past W pad the last block
            T[...] = ids[::k, None, None]
            for s in range(k):
                for edge in cum_rows[s, :-1]:
                    T[:, s, :W] += steps >= edge
        else:
            order = np.argsort(steps, axis=1)
            # runs[r, s, j]: how many of row r's steps take state s to j
            runs = np.diff([np.searchsorted(v[o], cum_rows[:, :-1], side="left")
                            for v, o in zip(steps, order)], axis=2, prepend=0, append=W)
            T = np.zeros((rows, k, width), dtype=ids.dtype)
            order += np.arange(0, rows * k * width, k * width)[:, None]  # table row r*k
            for s in range(k):
                if s:
                    order += width
                T.ravel()[order] = np.repeat(ids, runs[:, s].ravel()).reshape(rows, W)
        flat = T.ravel()
        at = np.arange(0, width, L)  # the first step of each block, then the next
        maps = np.broadcast_to(ids[:, None], (rows * k, B))  # maps[i, b]: block b from id i
        for _ in range(L):  # every block's map at once
            maps = flat[np.multiply(maps, width, dtype=np.intp) + at]
            at += 1
        maps = maps.tolist()
        starts = []  # then each row's block starts one by one
        for r, s in enumerate(x[:, lo - 1].tolist()):
            s += r * k
            starts.append(s)
            for b in range(B - 1):
                s = maps[s][b]
                starts.append(s)
        at = np.tile(np.arange(0, width, L), rows)
        path = np.empty((L, rows * B), dtype=ids.dtype)
        ends = np.asarray(starts, dtype=np.intp)
        for t in range(L):  # then every block of every row from its start
            path[t] = flat[np.multiply(ends, width, dtype=np.intp) + at]
            ends = path[t]
            at += 1
        ends = path.reshape(L, rows, B).transpose(1, 2, 0).reshape(rows, width)[:, :W]
        np.subtract(ends, ids[::k, None], out=x[:, lo:lo + W])  # ids back to states


class _TermMeasure(ShiftMeasure):
    """A family whose increments are exact per-symbol terms (iid, Markov):
    gathered block by block from _increment_blocks, and summed into prefixes."""

    def _increments(self, w: np.ndarray) -> np.ndarray:
        rows = w.reshape(-1, w.shape[-1])
        out = np.empty(rows.shape)
        for _ in self._increment_blocks(rows, max(1, _GATHER_ENTRIES // rows.shape[0]), out):
            pass
        return out.reshape(w.shape)

    def _prefixes(self, w: np.ndarray) -> np.ndarray:
        return np.cumsum(self._increments(w), axis=-1)


class IIDMeasure(_TermMeasure):
    """Product measure with a fixed symbol law p."""

    def __init__(self, p):
        self.p = _check_stochastic(p, "/p", 1)
        self.alphabet = Alphabet(self.p.size, "/p")
        self.log_p = safe_log(self.p)

    @property
    def label(self) -> str:
        return f"iid(k={self.alphabet.size})"

    def _increment_blocks(self, w: np.ndarray, width: int, out: np.ndarray | None = None):
        for lo, hi, block in _column_blocks(w.shape, width, out):
            np.take(self.log_p, w[:, lo:hi], out=block, mode="clip")
            yield lo, block

    def _windows(self, w: np.ndarray) -> Windows:
        return _PrefixSumWindows(self._increments(w))

    def _level_start(self) -> np.ndarray:
        return self.log_p.copy()

    def _level_extend(self, lv: np.ndarray, steps: int) -> np.ndarray:
        for _ in range(steps):
            lv = (lv[:, None] + self.log_p[None, :]).ravel()
        return lv

    def _hidden(self) -> HiddenChain:
        return HiddenChain(np.ones(1), np.ones((1, 1)), True, "/p", self.p[None, :])


class MarkovMeasure(_TermMeasure):
    """Stationary finite Markov chain, or one started off-equilibrium.

    The default start is the unique stationary law, making the process
    shift-invariant.  An explicit non-invariant start is allowed so the
    validators have something real to reject; stationary_start records
    which case this is.
    """

    def __init__(self, P, start=None):
        self.P = _check_stochastic(P, "/P", 2, square=True)
        self.alphabet = Alphabet(self.P.shape[0], "/P")
        self._drive(self.P, start, "/P")
        self.log_P = safe_log(self.P)

    @property
    def label(self) -> str:
        tag = "" if self.stationary_start else ", non-invariant start"
        return f"markov(k={self.alphabet.size}{tag})"

    def _increment_blocks(self, w: np.ndarray, width: int, out: np.ndarray | None = None):
        # one gather at flat indices, twice as fast as indexing by two
        # arrays, built in one reused index buffer; column 0's index is a
        # placeholder that the start term overwrites
        flat, k = self.log_P.ravel(), self.alphabet.size
        index = np.empty(w.shape[0] * min(width, w.shape[1]), dtype=np.int64)
        for lo, hi, block in _column_blocks(w.shape, width, out):
            at = index[: block.size].reshape(block.shape)
            c = max(lo, 1)
            np.multiply(w[:, c - 1:hi - 1], k, out=at[:, c - lo:])
            np.add(at[:, c - lo:], w[:, c:hi], out=at[:, c - lo:])
            if lo == 0:
                at[:, 0] = 0
            np.take(flat, at, out=block, mode="clip")
            if lo == 0:
                block[:, 0] = self.log_start[w[:, 0]]
            yield lo, block

    def _windows(self, w: np.ndarray) -> Windows:
        steps = self._increments(w)
        steps[0] = 0.0
        return _PrefixSumWindows(steps, head=self.log_start[w])

    def _level_start(self) -> np.ndarray:
        return self.log_start.copy()

    def _level_extend(self, lv: np.ndarray, steps: int) -> np.ndarray:
        """lv must hold whole groups of k consecutive words, so that word
        r * k + i ends in i: out[r, i, s] = lv[r * k + i] + log P[i, s]."""
        k = self.alphabet.size
        for _ in range(steps):
            rows = lv.reshape(-1, k)
            out = np.empty((rows.shape[0], k, k))
            _append_symbols(rows.T, self.log_P, out.transpose(1, 0, 2))
            lv = out.ravel()
        return lv


# source of _row_kernel's step: the fields name h hidden states' locals and
# write out each column's lines
_ROW_STEP = """\
def step(symbols, alpha, log_A, log_E_rows, kept):
    {a}, = alpha
    {A}, = log_A
    terms, sums = empty({hh}), empty({h})
    terms_v, sums_v = memoryview(terms), memoryview(sums)
    for s in symbols:
{columns}
        exp(terms, terms)
        {e}, = terms_v.tolist()
{sums}
        log(sums, sums)
        {l}, = sums_v.tolist()
        {E}, = log_E_rows[s]
{alpha}
        if kept is not None:
            kept += ({a},)
    return [{a}]
"""


@functools.cache
def _row_kernel(h: int):
    """The one-row forward step for h hidden states, compiled once per h.

    step(symbols, alpha, log_A, log_E_rows, kept) advances alpha, a list
    of h Python floats, over a list of symbols and returns the last alpha.
    log_A is log A row-major as a list and log_E_rows[s] is log E[:, s];
    a list kept gets every step's alpha appended.  Per symbol, in
    log_sum_exp_into's order: column k takes c_ik = a_i + log A[i, k], its
    max t_k as `if c > t: t = c` from c_0k, clamped at -DBL_MAX, and writes
    terms[k h + i] = c_ik - t_k; np.exp runs in place on the h^2 terms;
    each column sums left to right; np.log runs in place on the h sums; and
    a_k = (log sum_k + t_k) + log E[k, s].
    """
    def names(prefix: str, count: int = h) -> str:
        return ", ".join(f"{prefix}{q}" for q in range(count))

    def block(rows) -> str:
        return "\n".join(" " * 8 + row for row in rows)

    def column(k: int) -> list[str]:
        rows = [f"c0_{k} = a0 + A0_{k}", f"t{k} = c0_{k}"]
        for i in range(1, h):
            rows += [f"c{i}_{k} = a{i} + A{i}_{k}", f"if c{i}_{k} > t{k}: t{k} = c{i}_{k}"]
        rows.append(f"if t{k} < NEG_MAX: t{k} = NEG_MAX")
        return rows + [f"terms_v[{k * h + i}] = c{i}_{k} - t{k}" for i in range(h)]

    cols = range(h)
    source = _ROW_STEP.format(
        h=h,
        hh=h * h,
        a=names("a"),
        A=", ".join(f"A{i}_{k}" for i in cols for k in cols),
        columns=block(row for k in cols for row in column(k)),
        e=names("e", h * h),
        sums=block(
            f"sums_v[{k}] = " + " + ".join(f"e{k * h + i}" for i in cols) for k in cols
        ),
        l=names("l"),
        E=names("E"),
        alpha=block(f"a{k} = (l{k} + t{k}) + E{k}" for k in cols),
    )
    namespace = {"empty": np.empty, "exp": np.exp, "log": np.log, "NEG_MAX": _NEG_MAX}
    exec(compile(source, f"<hmm row step, h={h}>", "exec"), namespace)
    return namespace["step"]


class HiddenMarkovMeasure(ShiftMeasure):
    """Observed layer of a hidden Markov chain, from the stationary law of A or a given start.

    A is the hidden transition matrix, E the per-state emission matrix
    (hidden states by observed symbols).  Marginals come from the
    forward recursion in log space.
    """

    def __init__(self, A, E, start=None):
        self.A = _check_stochastic(A, "/A", 2, square=True)
        self.E = _check_stochastic(E, "/E", 2)
        if self.E.shape[0] != self.A.shape[0]:
            raise ValidationError("needs one row per hidden state", "/E")
        self.alphabet = Alphabet(self.E.shape[1], "/E")
        self.hidden_size = self.A.shape[0]
        self._drive(self.A, start, "/A", self.E)
        self.log_A = safe_log(self.A)
        self.log_E = safe_log(self.E)

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
        _ROW_STEP_HIDDEN hidden states, steps in _forward_row instead: a
        loop compiled once per h (_row_kernel) that keeps alpha, log A and
        the column maxima in named Python floats and calls numpy only for
        one exp and one log per step.  It keeps the bits of the rows path:
        every operation is the same one in the same order, and adds,
        subtractions and compares are the same IEEE operations on floats as
        on arrays; the max starts at -DBL_MAX; each column sums left to
        right with explicit adds, as np.add.reduce does over the leading
        axis (the builtin sum is compensated from Python 3.12); exp and log
        still run through numpy's ufuncs, whose results differ from libm's
        but do not depend on an entry's place in its array; and the totals
        are the same log_sum_exp calls on the same chunks.
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
        """_forward of the one row x[j : j + m], stepped by _row_kernel(h).

        The kernel runs a chunk of symbols at a time, so memory stays flat,
        and in table mode it keeps every step's alpha for the chunk's totals.
        """
        h = self.hidden_size
        chunk = max(1, _FORWARD_ENTRIES // h)
        step = _row_kernel(h)
        log_A, log_E_rows = self.log_A.ravel().tolist(), self.log_E.T.tolist()
        alpha = (self.log_start + self.log_E[:, x[j]]).tolist()
        out = np.empty((1, m)) if table else None
        with np.errstate(divide="ignore"):
            for t0 in range(0, m, chunk):
                t1 = min(m, t0 + chunk)
                # x[j] gave the first alpha, so the first chunk steps from x[j + 1]
                symbols = x[j + (t0 or 1) : j + t1].tolist()
                kept = ([] if t0 else alpha[:]) if table else None
                alpha = step(symbols, alpha, log_A, log_E_rows, kept)
                if table:
                    totals = np.array(kept).reshape(t1 - t0, 1, h)
                    out[:, t0:t1] = log_sum_exp(totals, axis=2).T
        if table:
            return out
        return log_sum_exp(np.array([alpha]), axis=1)

    def _prefixes(self, w: np.ndarray) -> np.ndarray:
        # one forward row per path, each reading its own stretch of the ravel
        n = w.shape[-1]
        js = np.arange(0, w.size, n, dtype=np.int64)
        return self._forward(w.ravel(), js, n, table=True).reshape(w.shape)

    def _windows(self, w: np.ndarray) -> Windows:
        return _ForwardWindows(self, w)

    @property
    def _level_floats(self) -> int:
        return self.hidden_size

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

    @property
    def label(self) -> str:
        inner = ", ".join(c.label for c in self.components)
        return f"mixture({inner})"

    def _mix(self, values: list[np.ndarray]) -> np.ndarray:
        """log sum_i w_i exp(values[i]), from one log array per component."""
        return log_sum_exp(
            np.stack([lw + v for lw, v in zip(self.log_weights, values)]), axis=0
        )

    def _prefixes(self, w: np.ndarray) -> np.ndarray:
        return self._mix([c._prefixes(w) for c in self.components])

    def _windows(self, w: np.ndarray) -> Windows:
        return _MixtureWindows(self, w)

    @property
    def _level_floats(self) -> int:
        return sum(c._level_floats for c in self.components)

    def _level_start(self) -> tuple:
        return tuple(c._level_start() for c in self.components)

    def _level_extend(self, state: tuple, steps: int) -> tuple:
        return tuple(c._level_extend(s, steps) for c, s in zip(self.components, state))

    def _level_rows(self, state: tuple, lo: int, hi: int) -> tuple:
        return tuple(c._level_rows(s, lo, hi) for c, s in zip(self.components, state))

    def _level_totals(self, state: tuple) -> np.ndarray:
        return self._mix([c._level_totals(s) for c, s in zip(self.components, state)])

    def _hidden(self) -> HiddenChain:
        parts = tuple(zip(self.weights, (c._hidden() for c in self.components)))
        stationary = all(c.stationary for _, c in parts)
        return HiddenChain(None, None, stationary, "/components", parts=parts)


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
    Q: ShiftMeasure, n_max: int = 4, tol: float = 1e-9, cap: int = WORD_CAP
) -> MeasureValidation:
    """Audit normalization and two-sided marginal consistency by brute force.

    For each level n <= n_max the k^n marginals must sum to 1, and the
    level-(n+1) table must reduce to the level-n table when the last or
    the first coordinate is summed out.  The first-coordinate reduction
    is the shift-invariance witness: it fails for a chain started off
    its stationary law.
    """
    check_tol(tol)
    if n_max < 1:
        raise ConfigError("n_max must be >= 1")
    Q._guard_level(n_max, cap)  # the largest level, before any is built
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


# each family: its class, and the keys of its spec in the class's argument order
_FAMILIES = {
    "iid": (IIDMeasure, ("p",)),
    "markov": (MarkovMeasure, ("P", "start")),
    "hmm": (HiddenMarkovMeasure, ("A", "E", "start")),
    "mixture": (MixtureMeasure, ("components", "weights")),
}


def measure_from_spec(obj: dict, pointer: str = "") -> ShiftMeasure:
    """Build a measure from its JSON spec, an object named by its "family" field.

    Every rejection is a SchemaError whose pointer starts with pointer,
    the spec's place in its document; a key the family does not read is
    refused.  A mixture builds its components first.
    """
    with schema_errors(pointer):
        if not isinstance(obj, dict):
            raise ConfigError("a measure spec must be an object")
        family = obj.get("family")
        if not isinstance(family, str) or family not in _FAMILIES:
            raise ConfigError(f"unknown family {family!r}", "/family")
        cls, keys = _FAMILIES[family]
        known_keys(obj, ("family", *keys))
        args = [obj.get(key) for key in keys]
        if family == "mixture":
            if not isinstance(args[0], list):
                raise ConfigError("needs a list of components", "/components")
            args[0] = [measure_from_spec(c, f"/components/{i}") for i, c in enumerate(args[0])]
        return cls(*args)
