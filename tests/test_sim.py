"""Tests for the Monte Carlo harness and result emitters."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from convqec.channel import depolarizing
from convqec.code import build_code, logical_action, syndrome_of
from convqec.pauli import (
    code_rows,
    commutation_bits,
    multiply,
    pauli_from_codes,
    pauli_from_string,
    symplectic_product,
)
from convqec.sim import (
    classify_residual,
    collect_trials,
    derive_row_seed,
    rows_to_csv,
    rows_to_json,
    run_trials,
    sweep,
    syndrome_bits_batch,
    wilson_interval,
)


def _stats_fields(stats):
    d = dataclasses.asdict(stats)
    d.pop("elapsed")
    return d


def test_classify_equal_errors_is_success():
    code = build_code(2)
    e = pauli_from_string("IXIIIIIIIIII")
    assert classify_residual(code, e, e) == (0, 0, 0, 0)


def test_classify_degenerate_correction_is_success():
    code = build_code(2)
    sampled = pauli_from_string("IXIIIIIIIIII")
    decoded = multiply(sampled, code.generators[3])
    assert classify_residual(code, sampled, decoded) == (0, 0, 0, 0)


def test_classify_logical_slip_sets_conjugate_bit():
    code = build_code(2)
    sampled = pauli_from_string("IXIIIIIIIIII")
    decoded = multiply(sampled, code.logical_x[0])
    # residual acts as logical X1, so it anticommutes with logical Z1
    assert classify_residual(code, sampled, decoded) == (0, 1, 0, 0)


def test_classify_rejects_mismatched_syndromes():
    code = build_code(2)
    with pytest.raises(ValueError, match="different syndromes"):
        classify_residual(code, pauli_from_string("XIIIIIIIIIII"), pauli_from_string("I" * 12))


def test_noiseless_channel_never_errs():
    code = build_code(2)
    stats = run_trials(code, depolarizing(code.n, 0.0), 300, master_seed=1)
    assert stats.logical_errors == 0
    assert stats.rate == 0.0
    assert stats.infeasible == 0


def test_run_trials_reproducible_and_chunk_invariant():
    code = build_code(2)
    schedule = depolarizing(code.n, 0.02)
    a = run_trials(code, schedule, 4000, master_seed=42)
    b = run_trials(code, schedule, 4000, master_seed=42)
    c = run_trials(code, schedule, np.int64(4000), master_seed=42, chunk_size=np.int32(137))
    assert _stats_fields(a) == _stats_fields(b) == _stats_fields(c)
    different = run_trials(code, schedule, 4000, master_seed=43)
    assert _stats_fields(different) != _stats_fields(a)


def test_run_trials_random_tie_mode_reproducible():
    code = build_code(1)
    schedule = depolarizing(code.n, 0.05)
    a = run_trials(code, schedule, 200, master_seed=9, tie_mode="random")
    b = run_trials(code, schedule, 200, master_seed=9, tie_mode="random")
    assert _stats_fields(a) == _stats_fields(b)
    # recorded from the decoder; deterministic ties give 2 on this stream
    assert a.logical_errors == 5


# Random-mode logical error counts recorded from the per-trial decode loop
# that batched random ties replaced: (blocks, p, trials) -> count, seeded
# with 1000 * blocks + trials.  Trial counts sit around the 64-trial slices
# of the random-mode choice pass; every chunk size must give the same count.
RANDOM_RUN_TRIALS_PINS = {
    (1, 0.3, 63): 32, (1, 0.3, 64): 28, (1, 0.3, 65): 21, (1, 0.3, 129): 55,
    (10, 0.1, 63): 36, (10, 0.1, 64): 41, (10, 0.1, 65): 43, (10, 0.1, 129): 83,
    (300, 0.01, 65): 22,
}


def test_run_trials_random_tie_mode_pinned():
    for (blocks, p, trials), count in RANDOM_RUN_TRIALS_PINS.items():
        code = build_code(blocks)
        schedule = depolarizing(code.n, p)
        for chunk_size in (1, 7, 4096):
            stats = run_trials(code, schedule, trials, master_seed=1000 * blocks + trials,
                               tie_mode="random", chunk_size=chunk_size)
            assert (stats.logical_errors, stats.infeasible) == (count, 0)


def test_run_trials_random_ties_peak_bounded():
    """Random ties hand decode_batch one seed per trial, so run_trials at
    N = 10 with one chunk of 4096 trials peaks at most 112 bytes per
    block-trial under tracemalloc; building every generator of the chunk
    before decoding measured 148."""
    code = build_code(10)
    schedule = depolarizing(code.n, 0.02)
    run_trials(code, schedule, 1, master_seed=3, tie_mode="random")  # caches the metric table
    tracemalloc.start()
    run_trials(code, schedule, 4096, master_seed=3, tie_mode="random")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak / (10 * 4096) <= 112


def test_wrong_decode_fails_the_residual_check(monkeypatch):
    """A decode with another syndrome than the sampled error's is a decoder
    bug: AssertionError in run_trials and collect_trials alike, never the
    ValueError of a config error."""
    import convqec.sim

    decode_batch = convqec.sim.decode_batch

    def wrong_decode(code, schedule, syndromes, rngs=None):
        result = decode_batch(code, schedule, syndromes, rngs)
        result.codes[:, 0] ^= 1  # Z on qubit 1 anticommutes with the opening XZ generator
        return result

    monkeypatch.setattr(convqec.sim, "decode_batch", wrong_decode)
    code = build_code(2)
    schedule = depolarizing(code.n, 0.05)
    for tie_mode in ("deterministic", "random"):
        with pytest.raises(AssertionError, match="decoder is broken"):
            run_trials(code, schedule, 20, master_seed=1, tie_mode=tie_mode)
    with pytest.raises(AssertionError, match="decoder is broken"):
        collect_trials(code, schedule, 20, master_seed=1)


def test_unknown_decoder_rejected_before_sampling(monkeypatch):
    import convqec.sim

    def no_sampling(*args):
        raise AssertionError("sampled before checking the decoder")

    monkeypatch.setattr(convqec.sim, "sample_error_codes", no_sampling)
    code = build_code(1)
    with pytest.raises(ValueError, match="unknown decoder 'coin'"):
        collect_trials(code, depolarizing(code.n, 0.05), 5, master_seed=1, decoder="coin")


def test_unknown_tie_mode_rejected_before_sampling(monkeypatch):
    import convqec.sim

    def no_sampling(*args):
        raise AssertionError("sampled before checking tie_mode")

    monkeypatch.setattr(convqec.sim, "sample_error_codes", no_sampling)
    code = build_code(1)
    for tie_mode in ("coin", "Deterministic"):
        with pytest.raises(ValueError, match="unknown tie_mode"):
            run_trials(code, depolarizing(code.n, 0.05), 200, master_seed=9, tie_mode=tie_mode)
        with pytest.raises(ValueError, match="unknown tie_mode"):
            sweep([1], [0.05], trials=20, master_seed=1, tie_mode=tie_mode)


def test_negative_seed_rejected_before_sampling(monkeypatch):
    import convqec.sim

    def never(*args):
        raise AssertionError("sampled or ran a sweep row before checking the seed")

    monkeypatch.setattr(convqec.sim, "sample_error_codes", never)
    monkeypatch.setattr(convqec.sim, "_run_sweep_row", never)
    code = build_code(1)
    schedule = depolarizing(code.n, 0.05)
    for tie_mode in ("deterministic", "random"):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -3"):
            run_trials(code, schedule, 20, master_seed=-3, tie_mode=tie_mode)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        sweep([1], [0.05], trials=20, master_seed=-1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -2"):
        collect_trials(code, schedule, 5, master_seed=-2)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -4"):
        derive_row_seed(-4, 0)


@pytest.mark.parametrize("grid, kwargs, match", [
    (([40, 0], [0.02], 20000), {}, "block count must be >= 1, got 0"),
    (([1], [0.02, 1.5], 20), {}, r"\[0, 1\], got 1.5"),
    (([1], [float("nan")], 20), {}, r"\[0, 1\], got nan"),
    (([1], [0.02], 0), {}, "trials must be >= 1"),
    (([1], [0.02], 20), {"tie_mode": "coin"}, "unknown tie_mode"),
    (([1, 0], [0.02], 20), {"jobs": 2}, "block count"),
    (([1], [0.02], True), {}, "trials must be an integer, got True"),
    (([1], [0.02], 2.5), {}, "trials must be an integer, got 2.5"),
])
def test_sweep_checks_the_grid_before_any_row(monkeypatch, grid, kwargs, match):
    import convqec.sim

    def no_rows(task):
        raise AssertionError("ran a sweep row before checking the grid")

    monkeypatch.setattr(convqec.sim, "_run_sweep_row", no_rows)
    with pytest.raises(ValueError, match=match):
        sweep(*grid, master_seed=1, **kwargs)


@pytest.mark.parametrize("chunk_size", [0, -5])
def test_run_trials_rejects_nonpositive_chunk_size(chunk_size):
    code = build_code(1)
    with pytest.raises(ValueError, match="chunk_size"):
        run_trials(code, depolarizing(code.n, 0.02), 10, master_seed=1, chunk_size=chunk_size)


@pytest.mark.parametrize("kwargs, match", [
    ({"trials": True}, "trials must be an integer, got True"),
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"chunk_size": True}, "chunk_size must be an integer, got True"),
    ({"chunk_size": 2.5}, "chunk_size must be an integer, got 2.5"),
])
def test_run_trials_rejects_non_integer_counts_before_sampling(monkeypatch, kwargs, match):
    import convqec.sim

    def no_sampling(*args):
        raise AssertionError("sampled before checking the counts")

    monkeypatch.setattr(convqec.sim, "sample_error_codes", no_sampling)
    code = build_code(1)
    with pytest.raises(ValueError, match=match):
        run_trials(code, depolarizing(code.n, 0.02), **{"trials": 10, "master_seed": 1, **kwargs})


def test_wilson_interval_rejects_successes_outside_trials():
    for successes, trials in ((5, 3), (-1, 3)):
        with pytest.raises(ValueError, match=f"got {successes} of {trials}"):
            wilson_interval(successes, trials)


def test_wilson_interval_has_no_z_option():
    # a caller's z once gave wilson_interval(3, 10, z=-1) == (0.458, 0.179), lower above upper
    with pytest.raises(TypeError):
        wilson_interval(3, 10, z=-1)


@pytest.mark.parametrize("trials, match", [
    (0, "trials must be >= 1, got 0"),
    (True, "trials must be an integer, got True"),
    (2.5, "trials must be an integer, got 2.5"),
])
def test_collect_trials_checks_trials_before_sampling(monkeypatch, trials, match):
    import convqec.sim

    def no_sampling(*args):
        raise AssertionError("sampled before checking trials")

    monkeypatch.setattr(convqec.sim, "sample_error_codes", no_sampling)
    code = build_code(1)
    with pytest.raises(ValueError, match=match):
        collect_trials(code, depolarizing(code.n, 0.05), trials, master_seed=1)


@pytest.mark.parametrize("blocks, match", [
    (True, "block count must be an integer, got True"),
    (1.0, "block count must be an integer, got 1.0"),
])
def test_sweep_checks_block_counts_by_name_before_any_row(monkeypatch, blocks, match):
    import convqec.sim

    def no_rows(task):
        raise AssertionError("ran a sweep row before checking the block counts")

    monkeypatch.setattr(convqec.sim, "_run_sweep_row", no_rows)
    with pytest.raises(ValueError, match=match):
        sweep([1, blocks], [0.1], 10, master_seed=1)


def test_wilson_interval_contains_rate():
    for k, n in [(0, 10), (10, 10), (3, 17), (250, 100000), (1, 3)]:
        lo, hi = wilson_interval(k, n)
        assert lo <= k / n <= hi
        assert 0.0 <= lo <= hi <= 1.0
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0


def test_decoders_interchangeable_at_desk_scale():
    """Per-trial outcomes agree when the exhaustive oracle replaces the
    trellis decoder, under deterministic tie-breaking."""
    for blocks in (1, 2):
        code = build_code(blocks)
        schedule = depolarizing(code.n, 0.05)
        via_viterbi = collect_trials(code, schedule, 300, master_seed=7, decoder="viterbi")
        via_brute = collect_trials(code, schedule, 300, master_seed=7, decoder="brute")
        for a, b in zip(via_viterbi, via_brute):
            assert str(a.sampled_error) == str(b.sampled_error)
            assert str(a.decoded_error) == str(b.decoded_error)
            assert a.logical_bits == b.logical_bits


def test_trial_outcome_success_flag():
    code = build_code(1)
    outcomes = collect_trials(code, depolarizing(7, 0.1), 50, master_seed=3)
    for outcome in outcomes:
        assert outcome.success == (not any(outcome.logical_bits))


def test_sweep_shape_and_reproducibility():
    rows = sweep([1, 2], [0.0, 0.01], trials=150, master_seed=5)
    assert [(r.blocks, r.channel_label) for r in rows] == [
        (1, "0.0"), (1, "0.01"), (2, "0.0"), (2, "0.01"),
    ]
    assert rows[0].stats.rate == 0.0
    again = sweep([1, 2], [0.0, 0.01], trials=150, master_seed=5)
    assert rows_to_csv(rows) == rows_to_csv(again)


def test_sweep_parallel_equals_serial():
    serial = sweep([1, 2], [0.0, 0.005], trials=120, master_seed=8, jobs=1)
    parallel = sweep([1, 2], [0.0, 0.005], trials=120, master_seed=8, jobs=3)
    assert rows_to_csv(serial) == rows_to_csv(parallel)


def test_sweep_rates_do_not_significantly_decrease():
    rows = sweep([2], [0.002, 0.008, 0.03], trials=6000, master_seed=12)
    for lo_row, hi_row in zip(rows, rows[1:]):
        assert lo_row.stats.ci_low <= hi_row.stats.ci_high


def test_row_seed_derivation_is_stable():
    assert derive_row_seed(5, 0) == derive_row_seed(5, 0)
    assert derive_row_seed(5, 0) != derive_row_seed(5, 1)
    assert derive_row_seed(6, 0) != derive_row_seed(5, 0)


def test_csv_schema_and_determinism():
    rows = sweep([1], [0.0, 0.01], trials=100, master_seed=2)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "N,n,p_or_schedule_id,trials,logical_errors,rate,ci_low,ci_high,seed,elapsed_s"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "7" and first[2] == "0.0" and first[3] == "100"
    assert all(line.endswith(",0.000") for line in lines[1:])
    timed_lines = rows_to_csv(rows, include_timing=True).strip().split("\n")
    assert timed_lines[0] == lines[0]
    assert all(float(line.rsplit(",", 1)[1]) >= 0.0 for line in timed_lines[1:])


def test_json_rows_match_csv_fields():
    import json

    rows = sweep([1], [0.01], trials=80, master_seed=4)
    payload = json.loads(rows_to_json(rows))
    assert len(payload) == 1
    row = payload[0]
    assert row["N"] == 1 and row["n"] == 7 and row["trials"] == 80
    assert row["elapsed_s"] == 0.0
    assert set(row) == {
        "N", "n", "p_or_schedule_id", "trials", "logical_errors", "rate",
        "ci_low", "ci_high", "seed", "elapsed_s",
    }


def test_syndrome_bits_batch_validates_code_matrix():
    code = build_code(2)
    for bad in (
        np.zeros((3, code.n + 5), dtype=np.uint8),
        np.zeros((3, code.n - 1), dtype=np.uint8),
        np.full((3, code.n), -1),
        np.full((3, code.n), 7, dtype=np.uint8),
        np.full((3, code.n), 2.7),
    ):
        with pytest.raises(ValueError):
            syndrome_bits_batch(code, bad)
    assert syndrome_bits_batch(code, np.zeros((0, code.n), dtype=np.uint8)).shape == (0, len(code.generators))


def test_single_operator_paths_match_batched_rows():
    code = build_code(3)
    rng = np.random.default_rng(8)
    codes = rng.integers(0, 4, size=(40, code.n)).astype(np.uint8)
    for row, bits in zip(codes, syndrome_bits_batch(code, codes)):
        assert syndrome_of(code, pauli_from_codes(row)).bits == tuple(bits.tolist())
    ops = code.generators + code.logical_x + code.logical_z
    for _ in range(20):  # zero-syndrome products of generators and logicals
        p = pauli_from_string("I" * code.n)
        for k in np.flatnonzero(rng.integers(0, 2, len(ops))):
            p = multiply(p, ops[k])
        batched = commutation_bits(code_rows([p]), code.logical_table)[0].tolist()
        assert logical_action(code, p) == tuple(batched)
        logicals = [op for pair in zip(code.logical_x, code.logical_z) for op in pair]
        assert batched == [symplectic_product(p, op) for op in logicals]
