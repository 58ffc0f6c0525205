"""Test-only oracle: the decoupling audit as whole-level enumeration.

old_level is each family's level body as it stood before level states:
one dynamic program per family that builds all k^n log-marginals at once.
whole_level_audit is the audit loop that built and cached every joint
level n + tau + m whole and read its constants off the full tables.  The
streamed audit must reproduce both bit for bit.  decoupling_defect is the
per-pair defect with the gap block summed word by word; it was in the
library until nothing there called it, and the tests use it to check
single pairs against the audit.
"""
from __future__ import annotations

import itertools

import numpy as np

from gapsub import (
    CapExceededError,
    ConfigError,
    HiddenMarkovMeasure,
    IIDMeasure,
    MarkovMeasure,
    MixtureMeasure,
    ShiftMeasure,
    ValidationError,
)
from gapsub.decoupling import (
    DecouplingReport,
    PositivityFailure,
    WorstPair,
    _word_of_index,
)
from gapsub.measures import WORD_CAP, _words_over_cap

from lse_oracle import log_sum_exp


def old_level(Q: ShiftMeasure, n: int, cap: int = WORD_CAP) -> np.ndarray:
    """log Q_n over all k^n words by the family's whole-level recursion."""
    k = Q.alphabet.size
    Q._guard_level(n, cap)
    if isinstance(Q, IIDMeasure):
        lv = Q.log_p.copy()
        for _ in range(n - 1):
            lv = (lv[:, None] + Q.log_p[None, :]).ravel()
        return lv
    if isinstance(Q, MarkovMeasure):
        lv = Q.log_start.copy()
        last = np.arange(k, dtype=np.int64)
        for _ in range(n - 1):
            lv = (lv[:, None] + Q.log_P[last, :]).ravel()
            last = np.tile(np.arange(k, dtype=np.int64), last.size)
        return lv
    if isinstance(Q, HiddenMarkovMeasure):
        alpha = Q.log_start[None, :] + Q.log_E.T
        for _ in range(n - 1):
            moved = log_sum_exp(alpha[:, :, None] + Q.log_A[None, :, :], axis=1)
            alpha = (moved[:, None, :] + Q.log_E.T[None, :, :]).reshape(-1, Q.hidden_size)
        return log_sum_exp(alpha, axis=1)
    if isinstance(Q, MixtureMeasure):
        parts = [lw + old_level(c, n, cap) for lw, c in zip(Q.log_weights, Q.components)]
        return log_sum_exp(np.stack(parts), axis=0)
    return Q.log_marginals_level(n, cap=cap)


def whole_level_audit(Q: ShiftMeasure, n_max: int, m_max: int, tau, cap: int = WORD_CAP):
    """minimal_decoupling_constants as whole-level enumeration (no iid shortcut)."""
    k = Q.alphabet.size
    taus = [tau.value(n) for n in range(1, n_max + 1)]
    worst_len = max(n + t + m_max for n, t in zip(range(1, n_max + 1), taus))
    floats = Q._level_floats  # per word of a level state
    if k**worst_len * floats > cap:
        of = "" if floats == 1 else f" of {floats} floats"
        raise CapExceededError(
            f"audit needs {k**worst_len} words{of} at length {worst_len}, cap is {cap}"
        )
    levels: dict[int, np.ndarray] = {}

    def level(n: int) -> np.ndarray:
        if n not in levels:
            levels[n] = old_level(Q, n, cap)
        return levels[n]

    constants, worst, failures = [], [], []
    for n in range(1, n_max + 1):
        t = taus[n - 1]
        A = level(n)
        best = -np.inf
        best_at = None
        had_positivity_failure = False
        for m in range(1, m_max + 1):
            B = level(m)
            full = level(n + t + m)
            if t == 0:
                J = full.reshape(k**n, k**m)
            else:
                J = log_sum_exp(full.reshape(k**n, k**t, k**m), axis=1)
            with np.errstate(invalid="ignore"):
                D = J - A[:, None] - B[None, :]
            pos_fail = np.isfinite(J) & ~np.isfinite(A[:, None] + B[None, :])
            if pos_fail.any():
                had_positivity_failure = True
                for ai, bi in zip(*np.nonzero(pos_fail)):
                    if len(failures) < 20:
                        failures.append(
                            PositivityFailure(
                                n=n,
                                m=m,
                                a=_word_of_index(int(ai), k, n),
                                b=_word_of_index(int(bi), k, m),
                            )
                        )
            finite = np.isfinite(D)
            if finite.any():
                flat = np.where(finite, D, -np.inf)
                ai, bi = np.unravel_index(int(np.argmax(flat)), D.shape)
                cand = float(flat[ai, bi])
                if cand > best:
                    best = cand
                    best_at = (int(ai), int(bi), m)
        constants.append(float("inf") if had_positivity_failure else float(best))
        if best_at is not None:
            ai, bi, m = best_at
            worst.append(
                WorstPair(
                    n=n, m=m, a=_word_of_index(ai, k, n), b=_word_of_index(bi, k, m),
                    defect=float(best),
                )
            )
    return DecouplingReport(
        measure_label=Q.label,
        n_values=tuple(range(1, n_max + 1)),
        constants=tuple(constants),
        tau=tau,
        m_max=m_max,
        worst_pairs=tuple(worst),
        positivity_failures=tuple(failures),
    )


def decoupling_defect(
    Q: ShiftMeasure, a, b, tau_n: int, cap: int = WORD_CAP
) -> float:
    """log Q(a * b) - log Q(a) - log Q(b) for one word pair.

    Needs Q(a) > 0 and Q(b) > 0; the gap block of tau_n symbols is
    summed out.  This is the per-pair quantity whose maximum the audit
    reports.
    """
    a = Q.alphabet.validate_word(a)
    b = Q.alphabet.validate_word(b)
    if tau_n < 0:
        raise ConfigError("gap must be >= 0")
    la = Q.log_marginal(a)
    lb = Q.log_marginal(b)
    if la == -np.inf or lb == -np.inf:
        raise ValidationError("decoupling defect needs both halves positive")
    if tau_n == 0:
        joint = Q.log_marginal(np.concatenate([a, b]))
    else:
        k = Q.alphabet.size
        words = _words_over_cap(k, tau_n, cap)
        if words:
            raise CapExceededError(f"gap enumeration needs {words} words")
        pieces = np.empty(k**tau_n, dtype=np.float64)
        for i, g in enumerate(itertools.product(range(k), repeat=tau_n)):
            pieces[i] = Q.log_marginal(
                np.concatenate([a, np.asarray(g, dtype=np.int64), b])
            )
        joint = log_sum_exp(pieces)
    return float(joint - la - lb)
