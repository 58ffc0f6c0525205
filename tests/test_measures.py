from __future__ import annotations

import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from gapsub import (
    Alphabet,
    CapExceededError,
    ConfigError,
    HiddenMarkovMeasure,
    IIDMeasure,
    MarkovMeasure,
    MixtureMeasure,
    SchemaError,
    ValidationError,
    log_sum_exp,
    measure_from_spec,
    stationary_distribution,
    validate_measure,
)
from gapsub import measures

from conftest import WORKED_P, WORKED_PI


# ----------------------------------------------------------------- alphabet


def test_alphabet_basics():
    a = Alphabet(3)
    assert a.word_count(4) == 81
    assert len(list(a.words(2))) == 9
    assert list(a.words(1)) == [(0,), (1,), (2,)]
    with pytest.raises(ConfigError):
        Alphabet(1)


def test_validate_word():
    a = Alphabet(2)
    w = a.validate_word([0, 1, 0])
    assert w.dtype == np.int64
    with pytest.raises(ValidationError):
        a.validate_word([])
    with pytest.raises(ValidationError):
        a.validate_word([0, 2])
    with pytest.raises(ValidationError):
        a.validate_word([[0, 1]])


# ------------------------------------------------------- input validation


def test_bad_matrices_rejected():
    with pytest.raises(ValidationError):
        MarkovMeasure([[0.9, 0.2], [0.2, 0.8]])  # row sums off
    with pytest.raises(ValidationError):
        MarkovMeasure([[1.1, -0.1], [0.5, 0.5]])  # negative entry
    with pytest.raises(ValidationError):
        MarkovMeasure([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])  # not square
    with pytest.raises(ValidationError):
        MarkovMeasure(None)
    with pytest.raises(ValidationError):
        MarkovMeasure([["a", "b"], ["c", "d"]])
    with pytest.raises(ValidationError):
        IIDMeasure([0.5, 0.6])


# ------------------------------------------------------------- stationarity


def test_stationary_distribution_worked_chain():
    pi = stationary_distribution(np.asarray(WORKED_P))
    assert np.abs(pi - np.asarray(WORKED_PI)).max() < 1e-12


def test_stationary_distribution_periodic_chain():
    # period-2 chain still has the unique invariant law (1/2, 1/2)
    pi = stationary_distribution(np.asarray([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(pi - 0.5).max() < 1e-12


def test_stationary_distribution_reducible_rejected():
    with pytest.raises(ValidationError, match="reducible"):
        stationary_distribution(np.eye(2))


def test_stationary_distribution_checks_raw_input_at_its_pointer():
    with pytest.raises(ValidationError) as got:
        stationary_distribution([[0.5, 0.6], [0.5, 0.5]], field="/A")
    assert got.value.pointer == "/A/0"
    with pytest.raises(ValidationError) as got:
        stationary_distribution([[0.5, 0.5]])
    assert got.value.pointer == "/P"


@pytest.mark.parametrize("build", [
    lambda: MarkovMeasure(WORKED_P),
    lambda: HiddenMarkovMeasure(WORKED_P, [[0.3, 0.7], [0.6, 0.4]]),
], ids=["markov", "hmm"])
def test_each_matrix_is_checked_once(monkeypatch, build):
    """The default start solves for the stationary law on the matrix the
    constructor has already checked, with the same bits as the public solver."""
    seen, check = [], measures._check_stochastic

    def counted(raw, field, *args, **kwargs):
        seen.append(field)
        return check(raw, field, *args, **kwargs)

    monkeypatch.setattr(measures, "_check_stochastic", counted)
    Q = build()
    assert sorted(seen) == sorted(set(seen))
    monkeypatch.undo()
    matrix = Q.P if isinstance(Q, MarkovMeasure) else Q.A
    assert Q.start.tobytes() == stationary_distribution(matrix).tobytes()


# --------------------------------------------------------------------- iid


def test_iid_log_marginal_is_product():
    Q = IIDMeasure([0.2, 0.3, 0.5])
    w = [0, 2, 2, 1]
    expected = math.log(0.2) + 2 * math.log(0.5) + math.log(0.3)
    assert abs(Q.log_marginal(w) - expected) < 1e-12
    assert Q.family == "iid" and Q.label == "iid(k=3)"


def test_iid_zero_prob_symbol():
    Q = IIDMeasure([1.0, 0.0])
    assert Q.log_marginal([0, 0]) == 0.0
    assert Q.log_marginal([0, 1]) == -np.inf


def test_iid_level_enumeration_matches_loop():
    Q = IIDMeasure([0.25, 0.75])
    lv = Q.log_marginals_level(3)
    by_hand = [
        Q.log_marginal(np.asarray(w)) for w in Q.alphabet.words(3)
    ]
    assert np.abs(lv - np.asarray(by_hand)).max() < 1e-12
    assert abs(np.exp(log_sum_exp(lv)) - 1.0) < 1e-12


def test_level_cap():
    Q = IIDMeasure([0.5, 0.5])
    with pytest.raises(CapExceededError):
        Q.log_marginals_level(10, cap=100)


# ------------------------------------------------------------------ markov


def test_markov_log_marginal_by_hand(worked_chain):
    w = [0, 0, 1, 1, 0]
    expected = (
        math.log(2 / 3)
        + math.log(0.9)
        + math.log(0.1)
        + math.log(0.8)
        + math.log(0.2)
    )
    assert abs(worked_chain.log_marginal(w) - expected) < 1e-12
    incs = worked_chain.log_increments(np.asarray(w))
    assert abs(incs.sum() - expected) < 1e-12
    assert worked_chain.stationary_start


def test_markov_level_enumeration_matches_loop(worked_chain):
    lv = worked_chain.log_marginals_level(4)
    by_hand = [
        worked_chain.log_marginal(np.asarray(w))
        for w in worked_chain.alphabet.words(4)
    ]
    assert np.abs(lv - np.asarray(by_hand)).max() < 1e-12


def test_markov_explicit_start():
    Q = MarkovMeasure(WORKED_P, start=[0.5, 0.5])
    assert not Q.stationary_start
    assert "non-invariant" in Q.label
    assert abs(Q.log_marginal([1]) - math.log(0.5)) < 1e-15
    # passing the stationary law explicitly is detected as stationary
    R = MarkovMeasure([[0.5, 0.5], [0.5, 0.5]], start=[0.5, 0.5])
    assert R.stationary_start


def test_markov_forbidden_transition():
    Q = MarkovMeasure([[1.0, 0.0], [0.5, 0.5]], start=[0.5, 0.5])
    assert Q.log_marginal([0, 1]) == -np.inf
    assert Q.log_marginal([1, 0, 0]) == math.log(0.5) + math.log(0.5) + 0.0


# --------------------------------------------------------------------- hmm


def test_hmm_with_identity_emissions_equals_chain(worked_chain):
    H = HiddenMarkovMeasure(WORKED_P, np.eye(2))
    for w in ([0], [0, 1, 1], [1, 0, 0, 1, 0]):
        assert abs(H.log_marginal(w) - worked_chain.log_marginal(w)) < 1e-12


def test_hmm_with_uniform_emissions_is_iid_uniform():
    # whatever the hidden path does, observations are fair coin flips
    H = HiddenMarkovMeasure(WORKED_P, [[0.5, 0.5], [0.5, 0.5]])
    for n in (1, 3, 6):
        w = [0] * n
        assert abs(H.log_marginal(w) + n * math.log(2.0)) < 1e-12
    lv = H.log_marginals_level(3)
    assert np.abs(lv + 3 * math.log(2.0)).max() < 1e-12


def test_hmm_level_matches_loop():
    A = [[0.7, 0.3], [0.4, 0.6]]
    E = [[0.8, 0.1, 0.1], [0.2, 0.3, 0.5]]
    H = HiddenMarkovMeasure(A, E)
    lv = H.log_marginals_level(3)
    by_hand = [H.log_marginal(np.asarray(w)) for w in H.alphabet.words(3)]
    assert np.abs(lv - np.asarray(by_hand)).max() < 1e-12


def test_hmm_shape_validation():
    with pytest.raises(ValidationError):
        HiddenMarkovMeasure([[0.7, 0.3], [0.4, 0.6]], [[1.0], [1.0], [1.0]])


def test_hmm_level_cap_counts_hidden_states():
    H = HiddenMarkovMeasure([[0.7, 0.3], [0.4, 0.6]], [[0.8, 0.2], [0.3, 0.7]])
    with pytest.raises(CapExceededError):
        H.log_marginals_level(4, cap=20)


# ----------------------------------------------------------------- mixture


def test_mixture_log_marginal_is_weighted(half_half_mixture):
    w = [0, 0, 1]
    c1, c2 = half_half_mixture.components
    expected = np.logaddexp(
        math.log(0.5) + c1.log_marginal(w), math.log(0.5) + c2.log_marginal(w)
    )
    assert abs(half_half_mixture.log_marginal(w) - expected) < 1e-12
    assert half_half_mixture.family == "mixture"
    assert "iid(k=2)" in half_half_mixture.label


def test_mixture_of_identical_components_collapses():
    base = IIDMeasure([0.3, 0.7])
    mix = MixtureMeasure([IIDMeasure([0.3, 0.7]), IIDMeasure([0.3, 0.7])], [0.4, 0.6])
    for w in ([0], [1, 1, 0]):
        assert abs(mix.log_marginal(w) - base.log_marginal(w)) < 1e-12


def test_mixture_validation():
    with pytest.raises(ConfigError):
        MixtureMeasure([IIDMeasure([0.5, 0.5])], [1.0])
    with pytest.raises(ValidationError):
        MixtureMeasure(
            [IIDMeasure([0.5, 0.5]), IIDMeasure([0.3, 0.3, 0.4])], [0.5, 0.5]
        )
    with pytest.raises(ValidationError):
        MixtureMeasure(
            [IIDMeasure([0.5, 0.5]), IIDMeasure([0.4, 0.6])], [1.0, 0.0]
        )


# ------------------------------------------------------------- consistency


def test_marginal_consistency_spot_check(worked_chain):
    # summing the next symbol out of Q_3 must recover Q_2
    for ab in ([0, 0], [0, 1], [1, 0], [1, 1]):
        total = np.logaddexp(
            worked_chain.log_marginal(ab + [0]), worked_chain.log_marginal(ab + [1])
        )
        assert abs(total - worked_chain.log_marginal(ab)) < 1e-12


@pytest.mark.parametrize(
    "build",
    [
        lambda: IIDMeasure([0.2, 0.8]),
        lambda: MarkovMeasure(WORKED_P),
        lambda: HiddenMarkovMeasure([[0.7, 0.3], [0.4, 0.6]], [[0.8, 0.2], [0.3, 0.7]]),
        lambda: MixtureMeasure(
            [IIDMeasure([0.9, 0.1]), IIDMeasure([0.1, 0.9])], [0.5, 0.5]
        ),
    ],
    ids=["iid", "markov", "hmm", "mixture"],
)
def test_validate_measure_passes_for_all_families(build):
    rep = validate_measure(build(), n_max=4)
    assert rep.ok
    assert rep.levels_checked == 4
    assert max(rep.normalization_error.values()) < 1e-9
    assert max(rep.consistency_error.values()) < 1e-9


def test_validate_measure_flags_non_invariant_start():
    Q = MarkovMeasure(WORKED_P, start=[0.5, 0.5])
    rep = validate_measure(Q, n_max=3)
    assert not rep.ok
    assert any("inconsisten" in p for p in rep.problems)
    js = rep.to_json()
    assert js["ok"] is False and js["problems"]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=4)
)
def test_random_iid_levels_normalize(weights):
    p = np.asarray(weights) / np.sum(weights)
    Q = IIDMeasure(p)
    lv = Q.log_marginals_level(3)
    assert abs(np.exp(log_sum_exp(lv)) - 1.0) < 1e-9


# ----------------------------------------------------------------- specs


@pytest.mark.parametrize(
    "build",
    [
        lambda: IIDMeasure([0.2, 0.8]),
        lambda: MarkovMeasure(WORKED_P),
        lambda: MarkovMeasure(WORKED_P, start=[0.5, 0.5]),
        lambda: HiddenMarkovMeasure([[0.7, 0.3], [0.4, 0.6]], [[0.8, 0.2], [0.3, 0.7]]),
        lambda: MixtureMeasure(
            [IIDMeasure([0.9, 0.1]), IIDMeasure([0.1, 0.9])], [0.5, 0.5]
        ),
    ],
    ids=["iid", "markov", "markov-start", "hmm", "mixture"],
)
def test_spec_round_trip(build):
    Q = build()
    R = measure_from_spec(Q.to_spec())
    assert R.label == Q.label
    for w in ([0], [1, 0], [0, 1, 1]):
        assert abs(R.log_marginal(w) - Q.log_marginal(w)) < 1e-14


def test_hmm_explicit_start_survives_the_spec_round_trip():
    H = HiddenMarkovMeasure(
        [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]], start=[1.0, 0.0]
    )
    R = measure_from_spec(H.to_spec())
    assert R.to_spec() == H.to_spec()
    assert H.label == R.label == "hmm(hidden=2, k=2, non-invariant start)"
    for Q in (H, R):
        assert round(Q.log_marginal([1, 1, 0]), 4) == -3.4234
    assert "start" not in HiddenMarkovMeasure(H.A, H.E).to_spec()


BAD_ENTRY_BUILDS = pytest.mark.parametrize(
    "build",
    [
        lambda bad: IIDMeasure([bad, 0.5]),
        lambda bad: MarkovMeasure([[0.5, 0.5], [bad, 0.5]]),
        lambda bad: MarkovMeasure(WORKED_P, start=[bad, 0.5]),
        lambda bad: HiddenMarkovMeasure([[1.0, 0.0], [0.0, 1.0]], [[bad, 0.5], [0.5, 0.5]]),
        lambda bad: MixtureMeasure([IIDMeasure([0.5, 0.5])] * 2, [bad, 0.5]),
    ],
    ids=["iid-p", "markov-P", "markov-start", "hmm-E", "mixture-weights"],
)


@BAD_ENTRY_BUILDS
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_rejected(build, bad):
    with pytest.raises(ValidationError, match="non-finite"):
        build(bad)


@BAD_ENTRY_BUILDS
@pytest.mark.parametrize("bad", [True, "0.5"])
def test_boolean_and_string_entries_rejected(build, bad):
    # np.asarray would read True as 1.0, so the check looks at the raw entry
    with pytest.raises(ValidationError, match="non-numeric"):
        build(bad)


@pytest.mark.parametrize(
    "spec, pointer",
    [
        ({"family": "markov", "P": [[0.5, 0.5], [0.4, 0.5]]}, "/P/1"),
        ({"family": "markov", "P": [[1.0, 0.0], [0.0, 1.0]]}, "/P"),
        ({"family": "hmm", "A": [[1.0]], "E": [[0.5, 0.5], [0.5, 0.5]]}, "/E"),
        ({"family": "hmm", "A": [[1.0]], "E": [[0.5, 0.5]], "start": [0.5, 0.5]}, "/start"),
        ({"family": "mixture", "weights": [0.5, 0.5], "components": [
            {"family": "iid", "p": [0.5, 0.5]},
            {"family": "mixture", "weights": [1.0, 0.0], "components": [
                {"family": "iid", "p": [0.5, 0.5]}, {"family": "iid", "p": [0.5, 0.5]}]},
        ]}, "/components/1/weights"),
        ({"family": "mixture", "weights": [0.5, 0.5], "components": "x"}, "/components"),
    ],
    ids=["row", "reducible", "emission-rows", "hmm-start", "nested-mixture", "components"],
)
def test_measure_from_spec_points_at_the_field(spec, pointer):
    with pytest.raises(SchemaError) as exc:
        measure_from_spec(spec, "/measure")
    assert exc.value.problems[0][0] == "/measure" + pointer


def test_measure_from_spec_errors():
    with pytest.raises(ConfigError):
        measure_from_spec({"family": "gaussian"})
    with pytest.raises(ConfigError):
        measure_from_spec({"p": [0.5, 0.5]})
    with pytest.raises(ConfigError):
        measure_from_spec({"family": "mixture", "weights": [1.0]})
