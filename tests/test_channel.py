"""Tests for Pauli channel schedules, likelihoods, and sampling."""

import copy
import dataclasses
import hashlib
import json
import math
import pickle

import numpy as np
import pytest

from convqec.channel import (
    ChannelSchedule,
    channel_from_config,
    channel_id,
    channel_to_config,
    depolarizing,
    log_likelihood,
    log_likelihoods,
    make_rng,
    sample_error,
    sample_error_codes,
    schedule_from_probs,
)
from convqec.code import build_code
from convqec.decoder import decode_batch, metric_table
from convqec.pauli import identity, pauli_from_codes, pauli_from_string, weight
from convqec.sim import syndrome_bits_batch


def test_depolarizing_rows():
    assert (depolarizing(3, 0.0).probs == [1.0, 0.0, 0.0, 0.0]).all()
    s = depolarizing(12, 0.03)
    assert np.allclose(s.probs, [0.97, 0.01, 0.01, 0.01])
    s1 = depolarizing(2, 1.0)
    assert np.allclose(s1.probs, [0.0, 1 / 3, 1 / 3, 1 / 3])


def test_depolarizing_range_check():
    with pytest.raises(ValueError):
        depolarizing(3, -0.1)
    with pytest.raises(ValueError):
        depolarizing(3, 1.5)


def test_schedule_validation():
    with pytest.raises(ValueError):
        schedule_from_probs([[0.5, 0.5, 0.5, 0.5]])
    with pytest.raises(ValueError, match="qubit 2"):
        schedule_from_probs([[1, 0, 0, 0], [0.9, 0.2, 0, 0]])
    with pytest.raises(ValueError):
        schedule_from_probs([[1.1, -0.1, 0.0, 0.0]])
    with pytest.raises(ValueError):
        ChannelSchedule(np.ones((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_schedule_rejects_non_finite_probabilities(bad):
    with pytest.raises(ValueError, match="finite"):
        schedule_from_probs([[1.0, 0.0, 0.0, 0.0], [bad, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        channel_from_config({"type": "schedule", "probs": [[bad] * 4] * 7}, 7)


@pytest.mark.parametrize("probs", [
    [["0.97", "0.01", "0.01", "0.01"]] * 7,
    [[True, False, False, False]] * 7,
    [[1, 0, 0, None]] * 7,
    [1, 0, 0, 0],
    "1000",
    None,
])
def test_schedule_config_probs_must_be_rows_of_numbers(probs):
    config = {"type": "schedule", "probs": probs} if probs is not None else {"type": "schedule"}
    with pytest.raises(ValueError, match="'probs' as a list of rows of numbers"):
        channel_from_config(config, 7)


def test_sampling_is_deterministic_per_seed():
    s = depolarizing(20, 0.2)
    assert str(sample_error(s, 99)) == str(sample_error(s, 99))
    a = sample_error_codes(s, make_rng(5), 10)
    b = sample_error_codes(s, make_rng(5), 10)
    assert (a == b).all()


def test_sampling_rejects_negative_count_and_seed():
    s = depolarizing(4, 0.2)
    assert sample_error_codes(s, make_rng(5), 0).shape == (0, 4)
    with pytest.raises(ValueError, match="count must be >= 0, got -1"):
        sample_error_codes(s, make_rng(5), -1)
    for seed in (-1, np.int64(-7)):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
            make_rng(seed)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            sample_error(s, seed)


def test_sampling_rejects_non_integer_count_by_name():
    s = depolarizing(3, 0.1)
    for count in (True, False, 2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match=f"count must be a non-negative integer, got {count!r}"):
            sample_error_codes(s, make_rng(5), count)
    for count in (0, 2, np.int64(2), np.uint8(3)):
        assert sample_error_codes(s, make_rng(5), count).shape == (count, 3)


def test_sampling_zero_noise():
    s = depolarizing(9, 0.0)
    assert sample_error(s, 1) == identity(9)


def test_sampling_frequency_three_sigma():
    n = 10_000
    p = 0.1
    err = sample_error(depolarizing(n, p), 2024)
    fraction = weight(err) / n
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(fraction - p) < 3 * sigma


def test_sampling_chi_square_per_letter():
    """Chi-square goodness of fit of letter counts at a fixed seed."""
    quad = [0.7, 0.15, 0.05, 0.1]
    trials = 40_000
    codes = sample_error_codes(schedule_from_probs([quad]), make_rng(7), trials)[:, 0]
    # map per-qubit codes (I,Z,X,Y) back to quadruple order (I,X,Y,Z)
    counts = [int((codes == c).sum()) for c in (0, 2, 3, 1)]
    stat = sum((obs - trials * p) ** 2 / (trials * p) for obs, p in zip(counts, quad))
    assert stat < 16.266  # chi-square 0.999 quantile, 3 dof


def test_log_likelihood_closed_forms():
    s = depolarizing(7, 0.03)
    assert log_likelihood(s, identity(7)) == pytest.approx(7 * math.log(0.97), rel=1e-12)
    single_x = pauli_from_string("IIXIIII")
    assert log_likelihood(s, single_x) == pytest.approx(
        6 * math.log(0.97) + math.log(0.01), rel=1e-12
    )


def test_log_likelihood_forbidden_component():
    s = schedule_from_probs([[0.9, 0.1, 0.0, 0.0]] * 2)
    assert log_likelihood(s, pauli_from_string("YI")) == float("-inf")
    assert log_likelihood(s, pauli_from_string("XX")) > float("-inf")


def test_log_likelihood_dimension_check():
    with pytest.raises(ValueError):
        log_likelihood(depolarizing(3, 0.1), identity(4))


def test_log_likelihood_additive_over_disjoint_supports():
    rng = np.random.default_rng(21)
    s = depolarizing(16, 0.07)
    for _ in range(20):
        codes_a = [0] * 16
        codes_b = [0] * 16
        for q in range(0, 8):
            codes_a[q] = int(rng.integers(0, 4))
        for q in range(8, 16):
            codes_b[q] = int(rng.integers(0, 4))
        from convqec.pauli import multiply, pauli_from_codes

        a, b = pauli_from_codes(codes_a), pauli_from_codes(codes_b)
        lhs = log_likelihood(s, multiply(a, b))
        rhs = log_likelihood(s, a) + log_likelihood(s, b) - log_likelihood(s, identity(16))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_log_likelihoods_bit_exact_against_per_qubit_loop():
    """The batched sum adds left to right, as a per-qubit loop does: compared
    with ==, on a channel with zero-probability components, over enough rows
    to span several chunks."""
    rng = np.random.default_rng(23)
    n = 300
    probs = rng.dirichlet(np.ones(4), size=n)
    probs[[0, 150], 0] += probs[[0, 150], 2]
    probs[[0, 150], 2] = 0.0  # Y is forbidden on qubits 1 and 151
    s = schedule_from_probs(probs)
    codes = rng.integers(0, 4, size=(700, n)).astype(np.uint8)
    table = s.log_prob_by_code()
    got = log_likelihoods(s, codes)
    for row, value in zip(codes, got):
        total = 0.0
        for q, code in enumerate(row):
            total = total + float(table[q, code])
        assert value == total
    assert np.isinf(got).any() and np.isfinite(got).any()
    assert [log_likelihood(s, pauli_from_codes(row)) for row in codes[:20]] == got[:20].tolist()
    assert log_likelihoods(s, codes[:0]).shape == (0,)


def test_config_round_trip_is_bit_exact():
    rng = np.random.default_rng(31)
    probs = rng.random((9, 4))
    probs /= probs.sum(axis=1, keepdims=True)
    s = schedule_from_probs(probs)
    text = json.dumps(channel_to_config(s))
    restored = channel_from_config(json.loads(text), 9)
    assert (restored.probs == s.probs).all()


def test_config_strictness():
    with pytest.raises(ValueError, match="unknown channel config key"):
        channel_from_config({"type": "depolarizing", "p": 0.1, "extra": 1}, 7)
    with pytest.raises(ValueError, match="unknown channel type"):
        channel_from_config({"type": "amplitude-damping"}, 7)
    with pytest.raises(ValueError, match="covers 2 qubits"):
        channel_from_config({"type": "schedule", "probs": [[1, 0, 0, 0]] * 2}, 7)
    with pytest.raises(ValueError):
        channel_from_config({"type": "depolarizing"}, 7)
    for p in (None, True, "0.1", [0.1]):
        with pytest.raises(ValueError, match="number 'p'"):
            channel_from_config({"type": "depolarizing", "p": p}, 7)
    with pytest.raises(ValueError, match="must be in"):
        channel_from_config({"type": "depolarizing", "p": 10 ** 400}, 7)
    assert (channel_from_config({"type": "depolarizing", "p": 1}, 7).probs == depolarizing(7, 1.0).probs).all()


def test_channel_id_stability():
    assert channel_id({"type": "depolarizing", "p": 0.01}) == "0.01"
    a = channel_id({"type": "schedule", "probs": [[1, 0, 0, 0]]})
    b = channel_id({"type": "schedule", "probs": [[1, 0, 0, 0]]})
    assert a == b and a.startswith("schedule-")


def test_probs_are_read_only():
    s = depolarizing(3, 0.1)
    with pytest.raises(ValueError):
        s.probs[0, 0] = 0.5


def test_schedule_takes_only_probs_and_is_frozen():
    s = depolarizing(12, 0.3)
    with pytest.raises(TypeError):
        ChannelSchedule(s.probs, np.zeros((12, 4)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.probs = depolarizing(12, 0.1).probs
    x = pauli_from_string("X" * 12)
    assert log_likelihood(s, x) == log_likelihood(depolarizing(12, 0.3), x) == pytest.approx(12 * math.log(0.1))


def test_schedule_copies_its_input():
    """A view of the caller's array made before construction cannot reach
    the schedule's probabilities."""
    probs = np.tile([0.7, 0.1, 0.1, 0.1], (5, 1))
    view = probs[:]
    s = ChannelSchedule(probs)
    view[0] = [0.0, 1.0, 0.0, 0.0]
    assert (s.probs[0] == [0.7, 0.1, 0.1, 0.1]).all()


COPIES = {
    "pickle": lambda s: pickle.loads(pickle.dumps(s)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
    "replace": dataclasses.replace,
}


def test_schedule_copies_are_rebuilt_read_only():
    s = depolarizing(7, 0.1)
    for how, make_copy in COPIES.items():
        twin = make_copy(s)
        for table in (twin.probs, twin.log_prob_by_code(), metric_table(twin)):
            assert not table.flags.writeable, how
        assert (twin.probs == s.probs).all() and (metric_table(twin) == metric_table(s)).all()


@pytest.mark.parametrize("how", sorted(COPIES))
def test_schedule_copies_decode_bit_identically(how):
    code = build_code(4)
    rng = np.random.default_rng(29)
    s = schedule_from_probs(rng.dirichlet(np.ones(4), size=code.n))
    twin = COPIES[how](s)
    syndromes = syndrome_bits_batch(code, sample_error_codes(s, make_rng(6), 200))
    for rngs in (None, range(200)):
        a, b = (decode_batch(code, sched, syndromes, rngs=rngs) for sched in (s, twin))
        assert (a.codes == b.codes).all() and (a.tie_broken == b.tie_broken).all()
        assert a.log_likelihood.tobytes() == b.log_likelihood.tobytes()


def test_log_likelihoods_rejects_bad_codes():
    """A code outside 0..3 or a row of the wrong width is named, not read
    from another column (-1 would read Y's) or raised as an IndexError."""
    s = depolarizing(12, 0.1)
    for codes in (np.full((1, 12), -1), np.full((1, 12), 4), np.zeros((1, 11), dtype=np.uint8)):
        with pytest.raises(ValueError, match=r"\(rows, 12\) matrix of integer codes in 0..3"):
            log_likelihoods(s, codes)


def sampler_rows(rng):
    """Rows with zero-probability letters (equal cumulative thresholds), p = 0
    and p = 1 qubits, and random per-qubit rows."""
    fixed = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
             [0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0], [0.25, 0.25, 0.0, 0.5], [0.0, 1 / 3, 1 / 3, 1 / 3],
             [0.7, 0.1, 0.1, 0.1]]
    probs = rng.random((23, 4)) ** 3
    probs[rng.random((23, 4)) < 0.25] = 0.0
    probs[:, 0] += 1e-3
    return np.concatenate([fixed, probs / probs.sum(axis=1, keepdims=True)])


# Recorded from the sampler before its thresholds were compared one letter at a time.
SAMPLER_DIGEST = "750a6369c97508c09c2e312dae57b3a8682ea73fd536dddb8a0db29fd9207a6e"


def test_sample_error_codes_stream_pinned():
    rng = np.random.default_rng(31)
    schedule = schedule_from_probs(sampler_rows(rng))
    h = hashlib.sha256()
    for seed, count in ((0, 0), (1, 1), (2, 7), (3, 4096)):
        codes = sample_error_codes(schedule, make_rng(seed), count)
        assert codes.shape == (count, schedule.n) and codes.dtype == np.uint8
        u = make_rng(seed).random((count, schedule.n))
        cum = np.cumsum(schedule.probs, axis=1)
        category = (u[:, :, None] >= cum[None, :, :3]).sum(axis=2)
        assert (codes == np.array([0, 2, 3, 1], dtype=np.uint8)[category]).all()
        h.update(codes.tobytes())
    assert h.hexdigest() == SAMPLER_DIGEST


def test_schedule_config_rejects_an_extra_key():
    with pytest.raises(ValueError, match="unknown channel config key 'extra'"):
        channel_from_config({"type": "schedule", "probs": [[1, 0, 0, 0]] * 7, "extra": 1}, 7)


class _TopDraws(np.random.Generator):
    """Every uniform draw is 1 - 5e-14, inside the shortfall of a row summing to 1 - 1e-13."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.full(size, 1.0 - 5e-14)


def test_draws_in_a_tolerance_shortfall_never_sample_a_forbidden_letter():
    """A row may sum to 1 - 1e-13; a draw above its sum lands on the last
    positive letter, never on the zero-probability letters that follow it."""
    rows = [[1.0 - 1e-13, 0.0, 0.0, 0.0],   # zero tail of length 3: I
            [0.6, 0.4 - 1e-13, 0.0, 0.0],   # length 2: X
            [0.5, 0.25, 0.25 - 1e-13, 0.0],  # length 1: Y
            [0.5, 0.0, 0.5 - 1e-13, 0.0]]   # length 1 after a zero X: Y
    schedule = schedule_from_probs(rows)
    assert (np.abs(schedule.probs.sum(axis=1) - 1.0) > 1e-14).all()
    codes = sample_error_codes(schedule, _TopDraws(np.random.Philox(0)), 5)
    assert (codes == [0, 2, 3, 3]).all()  # codes I=0, X=2, Y=3
    assert np.isfinite(log_likelihoods(schedule, codes)).all()


def test_sampling_thresholds_are_the_cumulative_sums_up_to_a_zero_tail():
    """Threshold k is np.cumsum(probs)[:, k] bit for bit, and +inf exactly
    when every later letter in I, X, Y, Z order has probability 0."""
    schedule = schedule_from_probs(sampler_rows(np.random.default_rng(31)))
    cum = np.cumsum(schedule.probs, axis=1)[:, :3]
    zero_tail = np.array([[not schedule.probs[q, k + 1:].any() for k in range(3)] for q in range(schedule.n)])
    assert zero_tail.any() and not zero_tail.all()
    thresholds = schedule._thresholds
    assert thresholds[~zero_tail].tobytes() == cum[~zero_tail].tobytes()
    assert (thresholds[zero_tail] == np.inf).all()
    assert not thresholds.flags.writeable
