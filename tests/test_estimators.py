from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from gapsub import (
    ConfigError,
    DecouplingFailure,
    GapSchedule,
    HiddenMarkovMeasure,
    IIDMeasure,
    MarkovMeasure,
    MixtureMeasure,
    brute_force_kl_level,
    cross_entropy_estimate,
    decoupling_to_theorem_data,
    marginal_entropy,
    mean_convergence_series,
    minimal_decoupling_constants,
    relative_entropy_estimate,
)

from conftest import (
    WORKED_H,
    WORKED_H_PI,
    WORKED_KL_VS_UNIFORM,
    WORKED_P,
    WORKED_PI,
    entropy_of,
)


# ------------------------------------------------------------ closed forms


def test_entropy_rate_worked_chain(worked_chain):
    h = worked_chain.entropy_rate()
    by_hand = WORKED_PI[0] * entropy_of([0.9, 0.1]) + WORKED_PI[1] * entropy_of(
        [0.2, 0.8]
    )
    assert abs(h - by_hand) < 1e-14
    assert abs(h - WORKED_H) < 1e-15


def test_entropy_rate_iid_is_shannon_entropy():
    p = [0.2, 0.3, 0.5]
    assert abs(IIDMeasure(p).entropy_rate() - entropy_of(p)) < 1e-14


def test_entropy_rate_with_a_zero_entry_warns_nothing():
    # 0 log 0 = 0 by continuity, with no nan from 0 * -inf on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h_iid = IIDMeasure([0.7, 0.3, 0.0]).entropy_rate()
        h_chain = MarkovMeasure([[0.5, 0.5], [1.0, 0.0]]).entropy_rate()
    assert abs(h_iid - entropy_of([0.7, 0.3])) < 1e-14
    # pi = (2/3, 1/3) and the deterministic row adds no entropy
    assert abs(h_chain - 2.0 / 3.0 * math.log(2.0)) < 1e-14


def test_entropy_rate_needs_stationary_start():
    off = MarkovMeasure(WORKED_P, start=[0.5, 0.5])
    assert off.entropy_rate() is None
    assert off.cross_entropy_rate(MarkovMeasure(WORKED_P)) is None
    assert off.kl_rate(MarkovMeasure(WORKED_P)) is None
    # only the first measure needs its stationary law: Q gives its kernel
    assert MarkovMeasure(WORKED_P).kl_rate(off) == 0.0


@pytest.mark.parametrize(
    "p, q",
    [
        ([0.25, 0.75], [0.5, 0.5]),
        ([0.2, 0.3, 0.5], [0.6, 0.0, 0.4]),
        ([0.7, 0.3, 0.0], [0.1, 0.1, 0.8]),
    ],
)
def test_iid_rates_are_the_identical_rows_chain_rates(p, q):
    P, Q = IIDMeasure(p), IIDMeasure(q)
    chain_P, chain_Q = MarkovMeasure([p] * len(p)), MarkovMeasure([q] * len(q))
    assert P.entropy_rate() == chain_P.entropy_rate()
    assert P.cross_entropy_rate(Q) == chain_P.cross_entropy_rate(chain_Q)
    assert P.kl_rate(Q) == chain_P.kl_rate(chain_Q)
    # iid against a chain and back reads the same kernels
    assert P.kl_rate(chain_Q) == chain_P.kl_rate(Q) == P.kl_rate(Q)


def test_entropy_rate_is_the_cross_rate_against_itself(worked_chain):
    for M in (worked_chain, IIDMeasure([0.2, 0.3, 0.5])):
        assert M.entropy_rate() == M.cross_entropy_rate(M)


_HMM = HiddenMarkovMeasure([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.1], [0.2, 0.8]])


@pytest.mark.parametrize(
    "M, has_kernel",
    [
        (_HMM, False),
        (MixtureMeasure([IIDMeasure([0.5, 0.5]), IIDMeasure([0.9, 0.1])], [0.5, 0.5]), False),
        (MarkovMeasure(WORKED_P, start=[0.5, 0.5]), True),
    ],
    ids=["hmm", "mixture", "non-stationary"],
)
def test_no_closed_form_rate_is_none(M, has_kernel, worked_chain):
    assert M.entropy_rate() is None
    assert M.cross_entropy_rate(worked_chain) is None
    assert M.kl_rate(worked_chain) is None
    # as the second measure, a chain needs only its kernel
    assert (worked_chain.kl_rate(M) is not None) == has_kernel


def test_rate_alphabet_mismatch_is_a_config_error(worked_chain):
    with pytest.raises(ConfigError, match="share one alphabet"):
        worked_chain.kl_rate(IIDMeasure([0.2, 0.3, 0.5]))
    with pytest.raises(ConfigError, match="share one alphabet"):
        IIDMeasure([0.2, 0.3, 0.5]).cross_entropy_rate(worked_chain)


def test_cross_entropy_rate_against_uniform_is_log2(worked_chain, uniform_chain):
    cross = worked_chain.cross_entropy_rate(uniform_chain)
    assert abs(cross - math.log(2.0)) < 1e-15


def test_kl_rate_worked_vs_uniform(worked_chain, uniform_chain):
    kl = worked_chain.kl_rate(uniform_chain)
    assert abs(kl - (math.log(2.0) - WORKED_H)) < 1e-14
    assert abs(kl - WORKED_KL_VS_UNIFORM) < 1e-15
    assert worked_chain.kl_rate(worked_chain) == 0.0


def test_kl_rate_iid_pair_by_hand():
    P = IIDMeasure([0.5, 0.5])
    Q = IIDMeasure([0.25, 0.75])
    expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert abs(P.kl_rate(Q) - expected) < 1e-14


def test_kl_rate_infinite_on_forbidden_step(worked_chain):
    Q = MarkovMeasure([[1.0, 0.0], [0.5, 0.5]], start=stationary_of_absorbing())
    assert worked_chain.cross_entropy_rate(Q) == np.inf
    assert worked_chain.kl_rate(Q) == np.inf


def stationary_of_absorbing():
    # explicit start so construction avoids the x P = x solve; the rate
    # formulas only read Q's kernel
    return [1.0, 0.0]


# --------------------------------------------------------- level brute force


def test_marginal_entropy_chain_rule(worked_chain):
    h1 = marginal_entropy(worked_chain, 1)
    h2 = marginal_entropy(worked_chain, 2)
    assert abs(h1 - WORKED_H_PI) < 1e-14
    assert abs((h2 - h1) - WORKED_H) < 1e-12


def test_marginal_entropy_iid_uniform():
    Q = IIDMeasure([0.25] * 4)
    assert abs(marginal_entropy(Q, 3) - 3 * math.log(4.0)) < 1e-12


def test_brute_force_kl_iid_is_additive():
    P = IIDMeasure([0.5, 0.5])
    Q = IIDMeasure([0.25, 0.75])
    kl1 = P.kl_rate(Q)
    for n in (1, 2, 5):
        assert abs(brute_force_kl_level(P, Q, n) - n * kl1) < 1e-12


def test_brute_force_kl_level_gap_is_constant(worked_chain, uniform_chain):
    """D(P_n || U_n) = n ln 2 - H_n(P), so n (D_n/n - rate) equals
    h - H(pi) at every n; the level sequence converges like C/n."""
    rate = worked_chain.kl_rate(uniform_chain)
    expected_gap = WORKED_H - WORKED_H_PI
    for n in (1, 2, 6, 10):
        level = brute_force_kl_level(worked_chain, uniform_chain, n)
        assert abs((level - n * rate) - expected_gap) < 1e-10


def test_brute_force_kl_support_mismatch():
    P = IIDMeasure([0.5, 0.5])
    Q = IIDMeasure([1.0, 0.0])
    assert brute_force_kl_level(P, Q, 2) == np.inf
    # the reverse direction stays finite: Q's support is inside P's
    assert np.isfinite(brute_force_kl_level(Q, P, 2))


# ----------------------------------------------------- decoupling gatekeeping


def test_estimator_refuses_uncertified_measures():
    # a stationary HMM is certified by its kernel bound; this start is not invariant
    H = HiddenMarkovMeasure(
        [[0.7, 0.3], [0.4, 0.6]], [[0.8, 0.2], [0.3, 0.7]], start=[0.5, 0.5]
    )
    with pytest.raises(DecouplingFailure):
        cross_entropy_estimate(H, H, N=50, seed=1)
    est = cross_entropy_estimate(H, H, N=50, seed=1, assume_decoupled=True)
    assert est.certificate == {"source": "assumed", "constant": None, "tau": None}


def test_estimator_refuses_non_stationary_markov():
    Q = MarkovMeasure(WORKED_P, start=[0.5, 0.5])
    with pytest.raises(DecouplingFailure):
        cross_entropy_estimate(Q, Q, N=50, seed=1)


def test_estimator_accepts_certificates(worked_chain):
    rep = minimal_decoupling_constants(worked_chain, 3, 3, GapSchedule.zero())
    est = cross_entropy_estimate(worked_chain, worked_chain, N=50, seed=1, decoupling=rep)
    assert est.certificate["source"] == "audit"
    data = decoupling_to_theorem_data(worked_chain.kernel_bound(0), 0)
    est2 = cross_entropy_estimate(worked_chain, worked_chain, N=50, seed=1, decoupling=data)
    assert est2.certificate["source"] == "bound"
    est3 = cross_entropy_estimate(worked_chain, worked_chain, N=50, seed=1)
    assert est3.certificate == {
        "source": "kernel", "constant": worked_chain.kernel_bound(0), "tau": 0
    }
    assert est3.to_json()["certificate"] == est3.certificate


# ------------------------------------------------------- trajectory estimates


def test_cross_estimate_iid_uniform_is_exact():
    Q = IIDMeasure([0.5, 0.5])
    est = cross_entropy_estimate(Q, Q, N=2000, seed=7)
    assert est.kind == "cross"
    assert est.rate == math.log(2.0)
    assert est.point_estimate == -math.log(2.0)
    assert not est.infinite
    assert est.to_json()["p"] == "iid(k=2)"


def test_cross_estimate_tracks_entropy_rate(worked_chain):
    est = cross_entropy_estimate(worked_chain, worked_chain, N=40000, seed=13)
    assert abs(est.rate - WORKED_H) < 0.01


def test_relative_estimate_matches_series_difference(worked_chain, uniform_chain):
    grid = np.asarray([100, 500, 1000])
    est = relative_entropy_estimate(
        worked_chain, uniform_chain, N=1000, seed=17, grid=grid
    )
    sq = cross_entropy_estimate(worked_chain, uniform_chain, N=1000, seed=17, grid=grid)
    sp = cross_entropy_estimate(worked_chain, worked_chain, N=1000, seed=17, grid=grid)
    assert (est.series.values == sq.series.values - sp.series.values).all()
    assert est.kind == "relative"
    assert "divergence = -raw" in est.series.meta["sign"]


def test_relative_estimate_near_oracle(worked_chain, uniform_chain):
    est = relative_entropy_estimate(worked_chain, uniform_chain, N=40000, seed=19)
    assert abs(est.rate - WORKED_KL_VS_UNIFORM) < 0.01


def test_infinite_rate_flagged():
    P = IIDMeasure([0.5, 0.5])
    Q = IIDMeasure([1.0, 0.0])
    est = relative_entropy_estimate(P, Q, N=64, seed=23)
    assert est.infinite
    assert est.rate == np.inf
    assert est.point_estimate == -np.inf


def test_estimate_offset_uses_later_symbols(worked_chain):
    a = cross_entropy_estimate(worked_chain, worked_chain, N=100, seed=29, offset=40)
    # the sampled path has N + offset symbols and evaluation starts at 40
    assert a.series.meta["offset"] == 40
    assert a.series.ns[-1] == 100


# ----------------------------------------------------------- mean over trials


def test_mean_series_uniform_iid_has_zero_se():
    Q = IIDMeasure([0.5, 0.5])
    res = mean_convergence_series(Q, Q, N=64, trials=3, seed=31)
    assert res.trials == 3
    assert (res.trial_terminals == -math.log(2.0)).all()
    assert res.estimate.point_estimate == -math.log(2.0)
    assert res.estimate.terminal_se == 0.0
    assert res.estimate.kind == "mean-cross"


def test_mean_series_trials_vary_and_average(worked_chain):
    res = mean_convergence_series(worked_chain, worked_chain, N=400, trials=8, seed=37)
    assert np.unique(res.trial_terminals).size > 1
    assert abs(res.series.terminal - res.trial_terminals.mean()) < 1e-15
    assert res.se.shape == res.series.values.shape
    assert res.estimate.terminal_se > 0
    js = res.to_json()
    assert js["trials"] == 8 and js["seed"] == 37


def test_mean_series_needs_two_trials(worked_chain):
    with pytest.raises(ConfigError):
        mean_convergence_series(worked_chain, worked_chain, N=100, trials=1, seed=1)


def test_mean_series_mixture_splits_into_clusters(half_half_mixture, iid_biased):
    res = mean_convergence_series(
        half_half_mixture, iid_biased, N=800, trials=24, seed=41
    )
    c1 = 0.9 * math.log(0.75) + 0.1 * math.log(0.25)
    c2 = 0.1 * math.log(0.75) + 0.9 * math.log(0.25)
    mid = 0.5 * (c1 + c2)
    upper = res.trial_terminals[res.trial_terminals > mid]
    lower = res.trial_terminals[res.trial_terminals <= mid]
    assert upper.size and lower.size
    assert np.abs(upper - c1).max() < 0.1
    assert np.abs(lower - c2).max() < 0.1
