"""Tests for the trellis decoder against the exhaustive oracle."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from convqec.channel import (
    depolarizing,
    make_rng,
    sample_error,
    sample_error_codes,
    schedule_from_probs,
)
from convqec.code import Syndrome, build_code, syndrome_of
from convqec.decoder import (
    InfeasibleSyndromeError,
    brute_force_ml,
    brute_force_table,
    codes_of_index,
    decode_batch,
    initial_live_count,
    survivor_merge_lag,
    transition_live_count,
    viterbi_decode,
)
from convqec.pauli import pauli_from_codes, pauli_from_string
from convqec.sim import syndrome_bits_batch


def random_schedule(n, rng, zero_fraction=0.0):
    """Random positive per-qubit quadruples; optionally zero some entries."""
    probs = rng.random((n, 4)) ** 2 + 1e-6
    if zero_fraction:
        mask = rng.random((n, 4)) < zero_fraction
        mask[:, 0] = False  # keep identity possible everywhere
        probs[mask] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    return schedule_from_probs(probs)


def all_syndromes(code):
    n_bits = 4 * code.blocks + 2
    for s in range(1 << n_bits):
        yield s, Syndrome(tuple((s >> b) & 1 for b in range(n_bits)))


def assert_matches_oracle(code, schedule, pairs):
    ll_table, winner, tie_table, feasible = brute_force_table(code, schedule)
    for index, syn in pairs:
        if not feasible[index]:
            with pytest.raises(InfeasibleSyndromeError):
                viterbi_decode(code, schedule, syn)
            continue
        result = viterbi_decode(code, schedule, syn)
        assert result.log_likelihood == ll_table[index]
        assert list(result.error.codes()) == codes_of_index(winner[index], code.n).tolist()
        assert result.tie_broken == bool(tie_table[index])
        assert syndrome_of(code, result.error).bits == syn.bits


def test_zero_syndrome_decodes_to_identity():
    code = build_code(2)
    schedule = depolarizing(code.n, 0.01)
    result = viterbi_decode(code, schedule, Syndrome((0,) * 10))
    assert str(result.error) == "I" * 12
    assert result.log_likelihood == pytest.approx(12 * math.log(0.99), rel=1e-12)
    assert not result.tie_broken


def test_single_x_error_recovered():
    code = build_code(1)
    schedule = depolarizing(7, 0.01)
    syn = syndrome_of(code, pauli_from_string("XIIIIII"))
    result = viterbi_decode(code, schedule, syn)
    assert str(result.error) == "XIIIIII"
    # X on qubit 1 and Z on qubit 2 share this syndrome and tie in likelihood;
    # the reversed-read order prefers X1, matching the oracle
    assert result.tie_broken
    assert str(brute_force_ml(code, schedule, syn).error) == "XIIIIII"


def test_oracle_equivalence_one_block_depolarizing():
    code = build_code(1)
    assert_matches_oracle(code, depolarizing(7, 0.05), all_syndromes(code))


def test_oracle_equivalence_one_block_random_schedule():
    code = build_code(1)
    schedule = random_schedule(7, np.random.default_rng(2))
    assert_matches_oracle(code, schedule, all_syndromes(code))


def test_oracle_equivalence_one_block_with_zero_probabilities():
    code = build_code(1)
    schedule = random_schedule(7, np.random.default_rng(3), zero_fraction=0.3)
    assert_matches_oracle(code, schedule, all_syndromes(code))


def test_oracle_equivalence_two_blocks_sampled():
    code = build_code(2)
    schedule = depolarizing(12, 0.06)
    rng = make_rng(4)
    pairs = []
    for _ in range(60):
        syn = syndrome_of(code, sample_error(schedule, rng))
        pairs.append((sum(b << i for i, b in enumerate(syn.bits)), syn))
    assert_matches_oracle(code, schedule, pairs)


def test_brute_force_ml_agrees_with_its_table_and_keeps_its_errors():
    code = build_code(1)
    for schedule in (random_schedule(7, np.random.default_rng(3), zero_fraction=0.3), depolarizing(7, 0.0)):
        for _, syn in all_syndromes(code):
            try:
                expected = viterbi_decode(code, schedule, syn)
            except InfeasibleSyndromeError:
                with pytest.raises(InfeasibleSyndromeError):
                    brute_force_ml(code, schedule, syn)
                continue
            assert brute_force_ml(code, schedule, syn) == expected
    with pytest.raises(ValueError, match="syndrome has"):
        brute_force_ml(code, schedule, Syndrome((0,) * 5))
    with pytest.raises(ValueError, match="0 or 1"):
        brute_force_ml(code, schedule, Syndrome((0, 2, 0, 0, 0, 0)))
    with pytest.raises(ValueError, match="schedule covers"):
        brute_force_ml(code, depolarizing(8, 0.1), Syndrome((0,) * 6))


def test_brute_force_refuses_large_codes():
    code = build_code(3)
    with pytest.raises(ValueError, match="n <= 12"):
        brute_force_ml(code, depolarizing(code.n, 0.01), Syndrome((0,) * 14))


def test_syndrome_length_validation():
    code = build_code(2)
    schedule = depolarizing(12, 0.01)
    with pytest.raises(ValueError, match="expected 10"):
        viterbi_decode(code, schedule, Syndrome((0,) * 9))
    # values other than 0/1, including ones a uint8 cast would wrap or index with
    for position, value, dtype in [
        (3, 2, np.uint8), (3, 255, np.uint8), (3, 256, np.int64), (0, -1, np.int64), (9, 0.5, float),
    ]:
        bits = [0] * 10
        bits[position] = value
        with pytest.raises(ValueError, match="0 or 1"):
            viterbi_decode(code, schedule, Syndrome(tuple(bits)))
        with pytest.raises(ValueError, match="0 or 1"):
            decode_batch(code, schedule, np.array([[0] * 10, bits], dtype=dtype))


def test_initial_live_count_is_eight():
    code = build_code(1)
    schedule = depolarizing(7, 0.1)
    assert initial_live_count(code, schedule, 0) == 8
    assert initial_live_count(code, schedule, 1) == 8


def test_initial_live_count_rejects_non_bit_before_any_metric(monkeypatch):
    import convqec.decoder

    def no_metrics(schedule):
        raise AssertionError("built the metric table before checking the bit")

    monkeypatch.setattr(convqec.decoder, "metric_table", no_metrics)
    code = build_code(1)
    for bit in (2, -1):
        with pytest.raises(ValueError, match=f"syndrome bit must be 0 or 1, got {bit}"):
            initial_live_count(code, depolarizing(7, 0.1), bit)


def test_transition_live_count_uniform_1024():
    code = build_code(3)
    schedule = depolarizing(code.n, 0.1)
    rng = np.random.default_rng(8)
    for _ in range(12):
        stage = int(rng.integers(0, 3))
        bits = tuple(int(b) for b in rng.integers(0, 2, 4))
        assert transition_live_count(code, schedule, stage, bits) == 1024


def test_live_counts_validate_schedule_length():
    code = build_code(3)
    schedule = depolarizing(7, 0.1)
    with pytest.raises(ValueError, match="schedule covers 7 qubits, code has 17"):
        initial_live_count(code, schedule, 0)
    for stage in (0, 2):
        with pytest.raises(ValueError, match="schedule covers 7 qubits, code has 17"):
            transition_live_count(code, schedule, stage, (0, 0, 0, 0))


def test_transition_live_count_identity_channel():
    code = build_code(2)
    assert transition_live_count(code, depolarizing(12, 0.0), 0, (0, 0, 0, 0)) == 1
    assert transition_live_count(code, depolarizing(12, 0.0), 0, (1, 0, 0, 0)) == 0


def test_infeasible_syndrome_raises():
    code = build_code(1)
    with pytest.raises(InfeasibleSyndromeError):
        viterbi_decode(code, depolarizing(7, 0.0), Syndrome((1, 0, 0, 0, 0, 0)))


def test_decode_batch_flags_infeasible_rows_without_crashing():
    code = build_code(1)
    schedule = depolarizing(7, 0.0)
    mat = np.array([[0] * 6, [1, 0, 0, 0, 0, 0]], dtype=np.uint8)
    batch = decode_batch(code, schedule, mat)
    assert list(batch.feasible) == [True, False]
    assert list(batch.codes[0]) == [0] * 7
    assert batch.log_likelihood[1] == float("-inf")
    assert not batch.tie_broken[1]


def test_decode_batch_accepts_zero_trials():
    code = build_code(3)
    batch = decode_batch(code, depolarizing(code.n, 0.1), np.zeros((0, 14), dtype=np.uint8))
    assert batch.codes.shape == (0, code.n)
    assert batch.feasible.shape == batch.tie_broken.shape == batch.log_likelihood.shape == (0,)


def test_decode_batch_state_bytes_bounded():
    """Per-stage state kept by decode_batch is at most 10 bytes per
    block-trial, one uint16 decision word per successor class (8 B) and the
    stage's syndrome nibble (1 B): peak memory grows by no more than that
    per block-trial."""
    trials, peaks = 512, []
    for blocks in (100, 300):
        code = build_code(blocks)
        schedule = depolarizing(code.n, 0.02)
        codes = sample_error_codes(schedule, make_rng(3), trials)
        syndromes = syndrome_bits_batch(code, codes).astype(np.uint8)
        decode_batch(code, schedule, syndromes[:1])  # caches the metric table
        tracemalloc.start()
        decode_batch(code, schedule, syndromes)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (200 * trials) <= 10


def test_decode_batch_matches_single():
    code = build_code(2)
    schedule = depolarizing(12, 0.08)  # tie-rich
    rng = make_rng(5)
    syndromes = []
    for _ in range(200):
        syndromes.append(syndrome_of(code, sample_error(schedule, rng)).bits)
    mat = np.array(syndromes, dtype=np.uint8)
    batch = decode_batch(code, schedule, mat)
    assert batch.feasible.all()
    for t, bits in enumerate(syndromes):
        single = viterbi_decode(code, schedule, Syndrome(bits))
        assert list(single.error.codes()) == list(batch.codes[t])
        assert single.log_likelihood == batch.log_likelihood[t]
        assert single.tie_broken == bool(batch.tie_broken[t])


def test_decoded_syndrome_always_matches_input():
    rng = np.random.default_rng(6)
    for blocks in (1, 2, 5, 9):
        code = build_code(blocks)
        schedule = random_schedule(code.n, rng)
        sample_rng = make_rng(int(rng.integers(0, 2**32)))
        for _ in range(10):
            syn = syndrome_of(code, sample_error(schedule, sample_rng))
            result = viterbi_decode(code, schedule, syn)
            assert syndrome_of(code, result.error).bits == syn.bits


def test_relabeling_x_and_z_relabels_the_decoded_error():
    """Swapping the X and Z roles everywhere relabels the decoded error.

    Exchanging X and Z maps this code onto its Hadamard-conjugate, so the
    relabeled problem pairs the swapped channel with the swapped generators;
    the exhaustive oracle handles that code directly.
    """
    from convqec.code import ConvolutionalCode

    swap = {0: 0, 1: 2, 2: 1, 3: 3}  # exchanges Z and X codes, fixes I and Y

    def relabel(p):
        return pauli_from_codes([swap[c] for c in p.codes()])

    rng = np.random.default_rng(7)
    code = build_code(2)
    swapped_code = ConvolutionalCode(
        code.blocks, code.n,
        tuple(relabel(g) for g in code.generators),
        tuple(relabel(p) for p in code.logical_x),
        tuple(relabel(p) for p in code.logical_z),
        code.info_positions,
    )
    probs = rng.random((12, 4)) ** 2 + 1e-3
    probs /= probs.sum(axis=1, keepdims=True)
    schedule = schedule_from_probs(probs)
    # swapped schedule: p_X <-> p_Z per qubit (quadruple order is I,X,Y,Z)
    swapped_schedule = schedule_from_probs(probs[:, [0, 3, 2, 1]])

    _, winner, tie_table, _ = brute_force_table(swapped_code, swapped_schedule)
    sample_rng = make_rng(9)
    checked = 0
    for _ in range(60):
        e = sample_error(schedule, sample_rng)
        syn = syndrome_of(code, e)
        assert syndrome_of(swapped_code, relabel(e)).bits == syn.bits
        index = sum(b << i for i, b in enumerate(syn.bits))
        r1 = viterbi_decode(code, schedule, syn)
        if r1.tie_broken or tie_table[index]:
            continue  # the tie order reads raw codes and is not swap-invariant
        assert list(relabel(r1.error).codes()) == codes_of_index(winner[index], 12).tolist()
        checked += 1
    assert checked > 20


def test_random_tie_mode_is_seeded_and_explores_ties():
    code = build_code(1)
    schedule = depolarizing(7, 0.01)
    syn = syndrome_of(code, pauli_from_string("XIIIIII"))  # ties with Z on qubit 2
    with pytest.raises(ValueError, match="requires an explicit rng"):
        viterbi_decode(code, schedule, syn, tie_mode="random")
    first = viterbi_decode(code, schedule, syn, tie_mode="random", rng=123)
    again = viterbi_decode(code, schedule, syn, tie_mode="random", rng=123)
    assert str(first.error) == str(again.error)
    seen = {
        str(viterbi_decode(code, schedule, syn, tie_mode="random", rng=seed).error)
        for seed in range(40)
    }
    assert seen == {"XIIIIII", "IZIIIII"}
    deterministic = viterbi_decode(code, schedule, syn)
    for s in seen:
        assert syndrome_of(code, pauli_from_string(s)).bits == syn.bits
    assert first.log_likelihood == deterministic.log_likelihood


# Random-mode picks recorded from the decoder for a tie-rich N = 2 channel:
# (syndrome bits, deterministic winner, winners for rng seeds 0..3).
RANDOM_TIE_PINS = [
    ("1100000010", "YIIIIIIIIIZI", ["YIIIIIIIIIZI", "YIIIIIIIIIIX", "YIIIIIIIIIIX", "YIIIIIIIIIIX"]),
    ("0001001110", "IIIIIXIIYIII", ["IIIIIXIIYIII", "IIIIIXIIYIII", "IIXIIIIIIYII", "IIXIIIIIIYII"]),
    ("0110100000", "IIXYIIIIIIII", ["IIIXXIIIIIII", "IIZIIZIIIIII", "IIYIZIIIIIII", "IIXYIIIIIIII"]),
    ("0100000000", "XIIIIIIIIIII", ["IZIIIIIIIIII", "XIIIIIIIIIII", "IZIIIIIIIIII", "IZIIIIIIIIII"]),
    ("1110110000", "ZIIYIXIIIIII", ["IYIIZXIIIIII", "IXIXIIZIIIII", "IYIIIIXZIIII", "IYIIIIXZIIII"]),
]


def test_random_tie_mode_pinned_picks():
    code = build_code(2)
    schedule = depolarizing(code.n, 0.15)
    for bits, winner, picks in RANDOM_TIE_PINS:
        syn = Syndrome(tuple(int(b) for b in bits))
        deterministic = viterbi_decode(code, schedule, syn)
        assert str(deterministic.error) == winner
        assert deterministic.tie_broken
        for seed, pick in enumerate(picks):
            result = viterbi_decode(code, schedule, syn, tie_mode="random", rng=seed)
            assert str(result.error) == pick
            assert result.tie_broken
            assert result.log_likelihood == deterministic.log_likelihood


def test_decode_batch_random_ties_match_single_decodes():
    """Row t of decode_batch with rngs decodes as viterbi_decode with
    tie_mode="random" and the same seed, for batches around the 64-trial
    slices of the random choice pass and stage counts past its 64-stage
    chunks, on sampled and uniformly random (often infeasible) syndromes.
    Int seeds, SeedSequences and Generators as rngs decode alike."""
    rng = np.random.default_rng(64)
    code = build_code(70)
    levels = np.array([[0.7, 0.1, 0.1, 0.1], [0.25] * 4, [0.5, 0.25, 0.0, 0.25], [1.0, 0.0, 0.0, 0.0]])
    sparse = schedule_from_probs(levels[(rng.random(code.n) * len(levels)).astype(int)])
    infeasible = tied = 0
    for schedule in (depolarizing(code.n, 0.1), sparse):
        sampled = syndrome_bits_batch(code, sample_error_codes(schedule, rng, 40))
        uniform = rng.random((25, 4 * code.blocks + 2)) < 0.5
        syndromes = np.concatenate([uniform[:2], sampled, uniform[2:]]).astype(np.uint8)
        for trials in (1, 63, 64, 65):
            seeds = range(100 * trials, 101 * trials)
            batch = decode_batch(code, schedule, syndromes[:trials], rngs=[make_rng(s) for s in seeds])
            for rngs in (list(seeds), [np.random.SeedSequence(s) for s in seeds]):
                again = decode_batch(code, schedule, syndromes[:trials], rngs=rngs)
                for a, b in zip(vars(batch).values(), vars(again).values()):
                    assert np.array_equal(a, b)
            for t, seed in enumerate(seeds):
                syn = Syndrome(tuple(int(b) for b in syndromes[t]))
                try:
                    single = viterbi_decode(code, schedule, syn, tie_mode="random", rng=seed)
                except InfeasibleSyndromeError:
                    assert not batch.feasible[t]
                    continue
                assert batch.feasible[t]
                assert list(single.error.codes()) == batch.codes[t].tolist()
                assert single.log_likelihood == batch.log_likelihood[t]
                assert single.tie_broken == bool(batch.tie_broken[t])
            infeasible += int((~batch.feasible).sum())
            tied += int(batch.tie_broken.sum())
    assert infeasible and tied


def test_decode_batch_rejects_wrong_number_of_rngs():
    code = build_code(2)
    syndromes = np.zeros((3, 10), dtype=np.uint8)
    for count in (0, 2, 4):
        with pytest.raises(ValueError, match="generators for 3 trials"):
            decode_batch(code, depolarizing(code.n, 0.1), syndromes, rngs=[make_rng(s) for s in range(count)])


def test_unknown_tie_mode_rejected():
    code = build_code(1)
    with pytest.raises(ValueError, match="tie_mode"):
        viterbi_decode(code, depolarizing(7, 0.01), Syndrome((0,) * 6), tie_mode="coin")


def test_random_tie_mode_rejects_negative_seed():
    code = build_code(1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        viterbi_decode(code, depolarizing(7, 0.01), Syndrome((0,) * 6), tie_mode="random", rng=-1)


def test_survivor_merge_lag_bounds():
    code = build_code(8)
    schedule = depolarizing(code.n, 0.02)
    rng = make_rng(11)
    for _ in range(5):
        syn = syndrome_of(code, sample_error(schedule, rng))
        lags = survivor_merge_lag(code, schedule, syn)
        assert len(lags) == code.blocks
        assert all(0 <= lag <= stage for stage, lag in enumerate(lags, start=1))


def test_batch_syndrome_helper_matches_scalar():
    code = build_code(3)
    rng = make_rng(13)
    schedule = depolarizing(code.n, 0.2)
    errors = [sample_error(schedule, rng) for _ in range(20)]
    mat = np.array([e.codes() for e in errors], dtype=np.uint8)
    batch_bits = syndrome_bits_batch(code, mat)
    for row, e in zip(batch_bits, errors):
        assert tuple(int(b) for b in row) == syndrome_of(code, e).bits


# Merge lags recorded from the decoder at N = 8; the second channel has
# zero-probability components, so some survivors are dead.
MERGE_LAG_PINS = {
    "depolarizing": [
        ("0000000111000000000101111001000000", [1, 2, 2, 2, 2, 2, 3, 2]),
        ("0000110010100001100000000001110000", [1, 2, 3, 4, 2, 2, 2, 2]),
        ("0000000000000000111000000000000000", [1, 2, 2, 2, 2, 2, 2, 2]),
    ],
    "sparse": [
        ("0011101111010000111011011011100011", [1, 2, 2, 3, 2, 3, 4, 1]),
        ("1010110111001101000111011111100001", [1, 2, 2, 3, 2, 2, 2, 1]),
        ("0110100011110100000000001111010001", [1, 2, 2, 1, 2, 3, 3, 1]),
    ],
}


def test_survivor_merge_lag_pinned():
    code = build_code(8)
    schedules = {
        "depolarizing": depolarizing(code.n, 0.08),
        "sparse": random_schedule(code.n, np.random.default_rng(3), zero_fraction=0.3),
    }
    for name, pins in MERGE_LAG_PINS.items():
        for bits, lags in pins:
            syn = Syndrome(tuple(int(b) for b in bits))
            assert survivor_merge_lag(code, schedules[name], syn) == lags


def golden_channels(n, rng):
    """Depolarizing extremes, random rows with and without zero components,
    and rows repeated from a short list (exact ties across positions)."""
    yield from (depolarizing(n, p) for p in (0.0, 0.02, 0.3, 1.0))
    yield random_schedule(n, rng)
    yield random_schedule(n, rng, zero_fraction=0.3)
    levels = np.array([[0.7, 0.1, 0.1, 0.1], [0.4, 0.2, 0.2, 0.2], [0.25] * 4, [0.5, 0.25, 0.0, 0.25]])
    yield schedule_from_probs(levels[(rng.random(n) * len(levels)).astype(int)])


def decoder_digest():
    """sha256 over decode_batch and viterbi_decode outputs (codes, tie flags,
    feasibility) on a fixed grid of block counts, channels, and sampled plus
    uniformly random syndromes.  Only uniform draws feed the grid, so it is
    the same on every numpy version."""
    h = hashlib.sha256()
    rng = np.random.default_rng(2024)
    for blocks in (1, 2, 3, 10, 25):
        code = build_code(blocks)
        for schedule in golden_channels(code.n, rng):
            sampled = syndrome_bits_batch(code, sample_error_codes(schedule, rng, 32))
            uniform = rng.random((32, 4 * blocks + 2)) < 0.5
            syndromes = np.concatenate([sampled, uniform]).astype(np.uint8)
            batch = decode_batch(code, schedule, syndromes)
            for array in (batch.codes, batch.tie_broken, batch.feasible):
                h.update(np.ascontiguousarray(array).tobytes())
            for row in (0, 1, 2, 32, 33, 34):
                syn = Syndrome(tuple(int(b) for b in syndromes[row]))
                for kwargs in ({}, {"tie_mode": "random", "rng": row}):
                    try:
                        result = viterbi_decode(code, schedule, syn, **kwargs)
                        h.update(f"{result.error}|{result.tie_broken};".encode())
                    except InfeasibleSyndromeError:
                        h.update(b"infeasible;")
    return h.hexdigest()


# Recorded from the decoder before its stage kernel was rewritten.
DECODER_DIGEST = "9aac41fbe170fed8565c1972a7c86f0c4f8ac089e51c5b6a58c9d7db21d4496f"


def test_decoder_golden_digest():
    assert decoder_digest() == DECODER_DIGEST


def chunk_channels(n, rng):
    """Low-noise, tie-rich, zero-component, repeated-row and p = 0 channels."""
    levels = np.array([[0.7, 0.1, 0.1, 0.1], [0.25] * 4, [0.5, 0.25, 0.0, 0.25], [1.0, 0.0, 0.0, 0.0]])
    yield depolarizing(n, 0.02)
    yield depolarizing(n, 0.3)
    yield random_schedule(n, rng, zero_fraction=0.3)
    yield schedule_from_probs(levels[(rng.random(n) * len(levels)).astype(int)])
    yield depolarizing(n, 0.0)


def chunk_crossing_digest():
    """sha256 over decoder outputs whose stages span several chunks of the
    sweep (256 stages per chunk for one trial, 64 in random mode, fewer as
    the batch grows): viterbi_decode in both tie modes around and past the
    chunk edges, decode_batch at batch sizes around the chunk-size steps,
    and survivor_merge_lag, on sampled and uniformly random (often
    infeasible) syndromes.  Only uniform draws feed the grid."""
    h = hashlib.sha256()
    rng = np.random.default_rng(77)
    for blocks in (64, 65, 256, 257, 600):
        code = build_code(blocks)
        for schedule in chunk_channels(code.n, rng):
            sampled = syndrome_bits_batch(code, sample_error_codes(schedule, rng, 1))
            uniform = rng.random((1, 4 * blocks + 2)) < 0.5
            for row, bits in enumerate(np.concatenate([sampled, uniform]).astype(np.uint8)):
                syn = Syndrome(tuple(int(b) for b in bits))
                for kwargs in ({}, {"tie_mode": "random", "rng": blocks + row}):
                    try:
                        result = viterbi_decode(code, schedule, syn, **kwargs)
                        h.update(f"{result.error}|{result.tie_broken};".encode())
                    except InfeasibleSyndromeError:
                        h.update(b"infeasible;")
    code = build_code(300)
    for schedule in chunk_channels(code.n, rng):
        sampled = syndrome_bits_batch(code, sample_error_codes(schedule, rng, 224))
        uniform = rng.random((32, 4 * 300 + 2)) < 0.5
        syndromes = np.concatenate([uniform[:2], sampled, uniform[2:]]).astype(np.uint8)
        for trials in (1, 2, 15, 16, 17, 256):
            batch = decode_batch(code, schedule, syndromes[:trials])
            for array in (batch.codes, batch.tie_broken, batch.feasible):
                h.update(np.ascontiguousarray(array).tobytes())
        for bits in syndromes[[0, 2, 3]]:
            lags = survivor_merge_lag(code, schedule, Syndrome(tuple(int(b) for b in bits)))
            h.update(np.array(lags, dtype=np.int64).tobytes())
    return h.hexdigest()


# Recorded from the decoder before its per-stage recursion was rewritten to
# carry only the successor-class maxima.
CHUNK_CROSSING_DIGEST = "a814995d5d2a69c20fa595f5336bb68c7f44b4251e85b230c9f0b46b62125cc7"


def test_decoder_chunk_crossing_digest():
    assert chunk_crossing_digest() == CHUNK_CROSSING_DIGEST


def large_batch_digest():
    """sha256 over decode_batch outputs (codes, tie flags, feasibility) at
    batch sizes around the sweep's chunk of 4096 (stage, trial) pairs, where
    each chunk holds one stage of every trial, on the chunk_channels
    schedules with sampled and uniformly random syndromes.  Only uniform
    draws feed the grid."""
    h = hashlib.sha256()
    rng = np.random.default_rng(4096)
    for blocks in (1, 3, 10):
        code = build_code(blocks)
        for schedule in chunk_channels(code.n, rng):
            sampled = syndrome_bits_batch(code, sample_error_codes(schedule, rng, 3585))
            uniform = rng.random((512, 4 * blocks + 2)) < 0.5
            syndromes = np.concatenate([uniform[:2], sampled, uniform[2:]]).astype(np.uint8)
            for trials in (4095, 4096, 4097):
                batch = decode_batch(code, schedule, syndromes[:trials])
                for array in (batch.codes, batch.tie_broken, batch.feasible):
                    h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


# Recorded from the decoder before its sweep moved to the class-major layout.
LARGE_BATCH_DIGEST = "0201253f9e577eddc4e392092442b8a8f8d5bad27a6759ec07df63587a1584c3"


def test_decoder_large_batch_digest():
    assert large_batch_digest() == LARGE_BATCH_DIGEST


def test_decode_batch_transient_peak_bounded():
    """decode_batch's transient peak at N = 10 with one full chunk of 4096
    trials stays at most 96 bytes per block-trial (it measured 91.5 B before
    the sweep reused its work buffers, 78 B after): on the Monte Carlo path
    a larger transient peak shows up as page faults and lost throughput."""
    code = build_code(10)
    schedule = depolarizing(code.n, 0.02)
    syndromes = syndrome_bits_batch(code, sample_error_codes(schedule, make_rng(11), 4096)).astype(np.uint8)
    decode_batch(code, schedule, syndromes[:1])  # caches the metric table
    tracemalloc.start()
    decode_batch(code, schedule, syndromes)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak / (10 * 4096) <= 96


def test_decode_batch_random_ties_transient_peak_bounded():
    """Random ties draw 1024 doubles per (stage, trial), so the choice pass
    goes 64 trials at a time: at N = 10 with 4096 trials decode_batch's peak
    stays at most 192 bytes per block-trial, not the ~50 KB per block-trial
    of one pass over the whole batch."""
    code = build_code(10)
    schedule = depolarizing(code.n, 0.02)
    syndromes = syndrome_bits_batch(code, sample_error_codes(schedule, make_rng(11), 4096)).astype(np.uint8)
    decode_batch(code, schedule, syndromes[:1], rngs=[make_rng(0)])  # caches the metric table
    rngs = [make_rng(seed) for seed in range(4096)]
    tracemalloc.start()
    decode_batch(code, schedule, syndromes, rngs=rngs)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak / (10 * 4096) <= 192
