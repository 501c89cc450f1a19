"""Acceptance suite: one test per criterion, each printing its PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the assertions themselves are the gate.
"""

import itertools
import json
import time

import numpy as np

from convqec.channel import depolarizing, make_rng, sample_error, schedule_from_probs
from convqec.circuits import (
    build_decoding_circuit,
    build_encoding_circuit,
    max_error_spread,
    verify_layer_commutation,
)
from convqec.cli import main as cli_main
from convqec.code import (
    Syndrome,
    build_code,
    min_logical_weight_probe,
    syndrome_of,
    verify_code,
)
from convqec.decoder import _tables, brute_force_table, codes_of_index, viterbi_decode
from convqec.pauli import pauli_from_codes
from convqec.sim import classify_residual, run_trials, syndrome_bits_batch
from convqec.tableau import StabilizerTableau


def _report(number: int, title: str, started: float) -> None:
    print(f"ACCEPTANCE {number} ({title}): PASS in {time.perf_counter() - started:.1f}s")


def test_acceptance_1_algebraic_suite():
    started = time.perf_counter()
    for blocks in range(1, 65):
        code = build_code(blocks)
        report = verify_code(code)
        assert report.generator_commutation, blocks
        assert report.generator_rank == 4 * blocks + 2, blocks
        assert report.encoded_dimension_exponent == blocks, blocks
        assert all(report.logical_conditions.values()), blocks
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"algebraic suite took {elapsed:.1f}s, budget is 10s"
    _report(1, "algebraic suite N=1..64", started)


def test_acceptance_2_encoder_contract():
    started = time.perf_counter()
    rng = np.random.default_rng(20250810)
    for blocks in range(1, 9):
        code = build_code(blocks)
        circuit = build_encoding_circuit(blocks)
        if blocks <= 6:
            patterns = list(itertools.product((0, 1), repeat=blocks))
        else:
            patterns = [tuple(int(b) for b in rng.integers(0, 2, blocks)) for _ in range(64)]
        for pattern in patterns:
            bits = [0] * code.n
            for pos, bit in zip(code.info_positions, pattern):
                bits[pos - 1] = bit
            tableau = StabilizerTableau.from_bits(bits)
            tableau.apply_gates(circuit.gates())
            solver = tableau.solver()
            assert all(solver.sign_of(g) == 0 for g in code.generators), (blocks, pattern)
            signs = tuple(solver.sign_of(lz) for lz in code.logical_z)
            assert signs == pattern, (blocks, pattern)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"encoder contract took {elapsed:.1f}s, budget is 30s"
    _report(2, "encoder contract N=1..8", started)


def _random_time_varying_schedule(n, rng):
    probs = rng.random((n, 4)) ** 2 + 1e-5
    probs /= probs.sum(axis=1, keepdims=True)
    return schedule_from_probs(probs)


def _biased_schedule(n, px, py, pz):
    return schedule_from_probs([[1.0 - px - py - pz, px, py, pz]] * n)


def test_acceptance_3_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(424242)

    code = build_code(1)
    schedules = [depolarizing(7, 0.05), _biased_schedule(7, 0.08, 0.01, 0.002)]
    schedules += [_random_time_varying_schedule(7, rng) for _ in range(8)]
    assert len(schedules) == 10
    for schedule in schedules:
        ll_table, winner, tie_table, feasible = brute_force_table(code, schedule)
        for index in range(64):
            bits = tuple((index >> b) & 1 for b in range(6))
            result = viterbi_decode(code, schedule, Syndrome(bits))
            assert feasible[index]
            assert abs(result.log_likelihood - ll_table[index]) <= 1e-9
            assert list(result.error.codes()) == codes_of_index(winner[index], 7).tolist()
            assert result.tie_broken == bool(tie_table[index])

    code = build_code(2)
    schedules = [
        depolarizing(12, 0.06),
        _biased_schedule(12, 0.05, 0.004, 0.02),
        _random_time_varying_schedule(12, rng),
    ]
    for schedule in schedules:
        ll_table, winner, tie_table, feasible = brute_force_table(code, schedule)
        sample_rng = make_rng(777)
        seen = 0
        while seen < 200:
            syn = syndrome_of(code, sample_error(schedule, sample_rng))
            index = sum(b << i for i, b in enumerate(syn.bits))
            result = viterbi_decode(code, schedule, syn)
            assert abs(result.log_likelihood - ll_table[index]) <= 1e-9
            assert list(result.error.codes()) == codes_of_index(winner[index], 12).tolist()
            seen += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 900.0, f"oracle equivalence took {elapsed:.1f}s, budget is 15min"
    _report(3, "oracle equivalence N=1 exhaustive, N=2 sampled", started)


def test_acceptance_4_linear_complexity():
    started = time.perf_counter()
    _tables()  # transition tables are length-independent; build outside the clock
    cases = {}
    for blocks in (1000, 2000, 4000):
        code = build_code(blocks)
        schedule = depolarizing(code.n, 0.02)
        syn = syndrome_of(code, sample_error(schedule, make_rng(31)))
        result = viterbi_decode(code, schedule, syn)
        assert syndrome_of(code, result.error).bits == syn.bits
        cases[blocks] = (code, schedule, syn)
    # The lengths take turns over many rounds and the medians are compared, so
    # a swing in host speed lands on all three lengths alike, not on one.
    timings = {blocks: [] for blocks in cases}
    for _ in range(31):
        for blocks, (code, schedule, syn) in cases.items():
            t0 = time.perf_counter()
            viterbi_decode(code, schedule, syn)
            timings[blocks].append(time.perf_counter() - t0)
    median = {blocks: float(np.median(times)) for blocks, times in timings.items()}
    ratio_a = median[2000] / median[1000]
    ratio_b = median[4000] / median[2000]
    assert 1.6 <= ratio_a <= 2.6, f"time(2000)/time(1000) = {ratio_a:.2f}"
    assert 1.6 <= ratio_b <= 2.6, f"time(4000)/time(2000) = {ratio_b:.2f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"complexity check took {elapsed:.1f}s, budget is 2min"
    _report(4, f"linear complexity ratios {ratio_a:.2f}, {ratio_b:.2f}", started)


def test_acceptance_5_non_catastrophic_propagation():
    started = time.perf_counter()
    spreads = set()
    for blocks in (2, 4, 8, 16, 32):
        decoder_circuit = build_decoding_circuit(blocks)
        encoder_circuit = build_encoding_circuit(blocks)
        assert len(decoder_circuit.layers) == 6
        assert len(encoder_circuit.layers) == 6
        assert verify_layer_commutation(decoder_circuit)
        assert verify_layer_commutation(encoder_circuit)
        spreads.add(max_error_spread(decoder_circuit))
    assert len(spreads) == 1, f"spread varies with length: {spreads}"
    assert spreads == {7}  # golden constant, measured once
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"propagation check took {elapsed:.1f}s, budget is 1min"
    _report(5, "non-catastrophic propagation, spread constant 7", started)


def test_acceptance_6_syndrome_circuit_equivalence():
    started = time.perf_counter()
    for blocks in range(1, 5):
        code = build_code(blocks)
        base = StabilizerTableau.from_bits([0] * code.n)
        base.apply_gates(build_encoding_circuit(blocks).gates())
        single = [(q, letter) for q in range(code.n) for letter in (1, 2, 3)]
        faults = [dict([f]) for f in single]
        faults += [
            dict([a, b])
            for a, b in itertools.combinations(single, 2)
            if a[0] != b[0]
        ]
        for fault in faults:
            codes = [0] * code.n
            for q, letter in fault.items():
                codes[q] = letter
            error = pauli_from_codes(codes)
            corrupted = base.copy()
            corrupted.apply_pauli_error(error)
            circuit_bits = tuple(corrupted.measure_row(g) for g in code.generators)
            assert circuit_bits == syndrome_of(code, error).bits, (blocks, fault)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"syndrome equivalence took {elapsed:.1f}s, budget is 1min"
    _report(6, "circuit-level syndromes equal symplectic syndromes", started)


def test_acceptance_7_correction_power():
    started = time.perf_counter()
    code = build_code(2)
    assert min_logical_weight_probe(code, 3) == 3

    # every weight-1 error is corrected, deterministically
    schedule = depolarizing(12, 1e-3)
    for q in range(12):
        for letter in (1, 2, 3):
            codes = [0] * 12
            codes[q] = letter
            error = pauli_from_codes(codes)
            decoded = viterbi_decode(code, schedule, syndrome_of(code, error)).error
            assert not any(classify_residual(code, error, decoded)), (q, letter)

    trials = 100_000
    low = run_trials(code, depolarizing(12, 1e-3), trials, master_seed=20250801)
    high = run_trials(code, depolarizing(12, 2e-3), trials, master_seed=20250802)
    assert low.logical_errors > 0, "no events at p=1e-3; ratio undefined"
    ratio_lo = high.ci_low / low.ci_high
    ratio_hi = high.ci_high / low.ci_low
    assert ratio_lo <= 4.0 <= ratio_hi, (
        f"rate ratio CI [{ratio_lo:.2f}, {ratio_hi:.2f}] excludes 4 "
        f"(rates {low.rate:.2e} -> {high.rate:.2e})"
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"correction power took {elapsed:.1f}s, budget is 5min"
    _report(7, f"distance probe 3; doubling ratio CI [{ratio_lo:.1f}, {ratio_hi:.1f}]", started)


def test_acceptance_8_determinism(tmp_path):
    started = time.perf_counter()
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "blocks": [1, 2], "ps": [0.0, 0.01, 0.02], "trials": 400, "seed": 99,
    }))
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert cli_main(["sweep", str(config), "--out", str(paths[0])]) == 0
    assert cli_main(["sweep", str(config), "--out", str(paths[1])]) == 0
    assert cli_main(["sweep", str(config), "--jobs", "4", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]

    sim_config = tmp_path / "sim.json"
    sim_config.write_text(json.dumps({
        "blocks": 2, "channel": {"type": "depolarizing", "p": 0.01},
        "trials": 400, "seed": 7, "format": "json",
    }))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_main(["simulate", str(sim_config), "--out", str(out1)]) == 0
    assert cli_main(["simulate", str(sim_config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _report(8, "byte-identical outputs across runs and serial/parallel", started)


def test_batch_decode_consistency_guard():
    """Spot-check used by the harness: vectorized and scalar decoding agree."""
    code = build_code(2)
    schedule = depolarizing(12, 0.05)
    rng = make_rng(17)
    syndromes = np.array(
        [syndrome_of(code, sample_error(schedule, rng)).bits for _ in range(50)],
        dtype=np.uint8,
    )
    from convqec.decoder import decode_batch

    batch = decode_batch(code, schedule, syndromes)
    for t in range(50):
        single = viterbi_decode(code, schedule, Syndrome(tuple(int(b) for b in syndromes[t])))
        assert list(single.error.codes()) == list(batch.codes[t])

    mat = np.array([list(pauli_from_codes(batch.codes[t]).codes()) for t in range(50)],
                   dtype=np.uint8)
    assert (syndrome_bits_batch(code, mat) == syndromes).all()
