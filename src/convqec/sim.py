"""Monte Carlo harness: sample, decode, classify residuals, aggregate rates.

A trial samples a channel error, extracts its syndrome, decodes, and
multiplies the sampled and decoded errors.  A sampled error has positive
probability, so its syndrome is always feasible: a decode that flags it
infeasible is a decoder bug and raises AssertionError, and
``SimStats.infeasible`` is always 0.  The residual always has zero
syndrome (asserted on every trial); the trial is a success exactly when the
residual lies in the stabilizer group, i.e. its commutation bits against
every logical operator vanish.  Decoding to a different error than the one
sampled is fine as long as they differ by a stabilizer element.  Errors are
(trials, n) code matrices, checked by :func:`convqec.pauli.commutation_bits`.

Determinism: all randomness is drawn from Philox streams keyed as follows.

  * Trial sampling for a run uses SeedSequence(master_seed); errors are drawn
    in trial order, so chunk sizes and execution strategy cannot change them.
  * Random tie-breaking (opt-in) decodes in batches, trial t drawing only
    from its own SeedSequence(master_seed, spawn_key=(1, t)) stream.
  * Sweep row r derives its own master seed from
    SeedSequence((master_seed, r)); rows are therefore reproducible in
    isolation and independent of worker scheduling.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSchedule, _check_seed, channel_id, depolarizing, make_rng, sample_error_codes
from .code import ConvolutionalCode, _check_count, build_code, logical_action, syndrome_of
from .decoder import brute_force_table, codes_of_index, decode_batch, syndrome_index
from .pauli import Pauli, commutation_bits, multiply, pauli_from_codes

WILSON_Z = 1.959963984540054  # two-sided 95%


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval; well behaved at zero and full counts."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in 0..trials, got {successes} of {trials}")
    phat = successes / trials
    denom = 1.0 + WILSON_Z * WILSON_Z / trials
    center = (phat + WILSON_Z * WILSON_Z / (2 * trials)) / denom
    spread = phat * (1 - phat) / trials + WILSON_Z * WILSON_Z / (4 * trials * trials)
    half = WILSON_Z * float(np.sqrt(spread)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class TrialOutcome:
    sampled_error: Pauli
    decoded_error: Pauli
    logical_bits: tuple[int, ...]

    @property
    def success(self) -> bool:
        return not any(self.logical_bits)


@dataclass(frozen=True)
class SimStats:
    trials: int
    logical_errors: int
    rate: float
    ci_low: float
    ci_high: float
    master_seed: int
    elapsed: float
    infeasible: int = 0  # always 0: every sampled syndrome is feasible


def classify_residual(code: ConvolutionalCode, sampled: Pauli, decoded: Pauli) -> tuple[int, ...]:
    """Logical action of sampled*decoded; all-zero means successful correction.

    Raises if the two errors have different syndromes (a decoder bug).
    """
    if syndrome_of(code, sampled).bits != syndrome_of(code, decoded).bits:
        raise ValueError("sampled and decoded errors have different syndromes")
    return logical_action(code, multiply(sampled, decoded))


def syndrome_bits_batch(code: ConvolutionalCode, code_mat: np.ndarray) -> np.ndarray:
    """(trials, 4N+2) syndrome bits of a (trials, n) matrix of codes in 0..3;
    any other shape or value raises ValueError."""
    return commutation_bits(code_mat, code.generator_table)


def _check_run(trials: int, tie_mode: str, master_seed: int) -> None:
    _check_seed(master_seed)
    if tie_mode not in ("deterministic", "random"):
        raise ValueError(f"unknown tie_mode {tie_mode!r}")
    _check_count("trials", trials)


def _logical_actions(code: ConvolutionalCode, sampled: np.ndarray, decoded: np.ndarray) -> np.ndarray:
    """Logical action bits (trials, 2N) of each residual sampled*decoded.

    Raises AssertionError if a residual has a nonzero syndrome: the decoder
    returned an error whose syndrome differs from the sampled one.
    """
    residual = sampled ^ decoded  # codes XOR as the operators multiply
    if syndrome_bits_batch(code, residual).any():
        raise AssertionError("residual error has nonzero syndrome; decoder is broken")
    return commutation_bits(residual, code.logical_table)


def run_trials(
    code: ConvolutionalCode,
    schedule: ChannelSchedule,
    trials: int,
    master_seed: int,
    tie_mode: str = "deterministic",
    chunk_size: int = 4096,
) -> SimStats:
    """Sample/decode/classify ``trials`` times; bit-reproducible per seed."""
    _check_run(trials, tie_mode, master_seed)
    _check_count("chunk_size", chunk_size)
    start = time.perf_counter()
    rng = make_rng(np.random.SeedSequence(master_seed))
    logical_errors = 0
    done = 0
    while done < trials:
        batch = min(chunk_size, trials - done)
        sampled = sample_error_codes(schedule, rng, batch)
        syndromes = syndrome_bits_batch(code, sampled)
        if tie_mode == "deterministic":
            result = decode_batch(code, schedule, syndromes)
        else:
            seeds = [np.random.SeedSequence(master_seed, spawn_key=(1, t)) for t in range(done, done + batch)]
            result = decode_batch(code, schedule, syndromes, rngs=seeds)
        if not result.feasible.all():  # the sampled error itself has positive probability
            raise AssertionError("sampled syndrome decoded as infeasible; decoder is broken")
        actions = _logical_actions(code, sampled, result.codes)
        logical_errors += int((actions.any(axis=1)).sum())
        done += batch

    lo, hi = wilson_interval(logical_errors, trials)
    return SimStats(
        trials=trials,
        logical_errors=logical_errors,
        rate=logical_errors / trials,
        ci_low=lo,
        ci_high=hi,
        master_seed=master_seed,
        elapsed=time.perf_counter() - start,
    )


def collect_trials(
    code: ConvolutionalCode,
    schedule: ChannelSchedule,
    trials: int,
    master_seed: int,
    decoder: str = "viterbi",
) -> list[TrialOutcome]:
    """Per-trial outcomes for desk-scale studies; same sampling stream as
    :func:`run_trials`.  ``decoder`` is "viterbi" or "brute" (the latter
    decodes via the exhaustive table, for interchangeability checks)."""
    _check_seed(master_seed)
    _check_count("trials", trials)
    if decoder not in ("viterbi", "brute"):
        raise ValueError(f"unknown decoder {decoder!r}")
    rng = make_rng(np.random.SeedSequence(master_seed))
    sampled = sample_error_codes(schedule, rng, trials)
    syndromes = syndrome_bits_batch(code, sampled)
    if decoder == "viterbi":
        decoded = decode_batch(code, schedule, syndromes).codes
    else:
        _, winner, _, _ = brute_force_table(code, schedule)
        decoded = codes_of_index(winner[syndrome_index(syndromes)], code.n)
    actions = _logical_actions(code, sampled, decoded).tolist()
    return [TrialOutcome(pauli_from_codes(s), pauli_from_codes(d), tuple(bits))
            for s, d, bits in zip(sampled, decoded, actions)]


@dataclass(frozen=True)
class SweepRow:
    blocks: int
    n: int
    channel_label: str
    stats: SimStats


def derive_row_seed(master_seed: int, row_index: int) -> int:
    """Documented splitting rule: row r is seeded from SeedSequence((master, r))."""
    _check_seed(master_seed)
    return int(np.random.SeedSequence((master_seed, row_index)).generate_state(1, np.uint64)[0])


def _run_sweep_row(args) -> SweepRow:
    blocks, p, trials, row_seed, tie_mode = args
    code = build_code(blocks)
    schedule = depolarizing(code.n, p)
    stats = run_trials(code, schedule, trials, row_seed, tie_mode=tie_mode)
    return SweepRow(blocks, code.n, channel_id({"type": "depolarizing", "p": p}), stats)


def sweep(
    blocks_list,
    ps,
    trials: int,
    master_seed: int,
    tie_mode: str = "deterministic",
    jobs: int = 1,
) -> list[SweepRow]:
    """Depolarizing sweep over the (blocks, p) grid, one row per cell.

    Rows are independent; with jobs > 1 they run in a process pool, and the
    per-row seed derivation makes parallel output identical to serial.
    The whole grid is checked before any row runs.
    """
    _check_run(trials, tie_mode, master_seed)
    for blocks in blocks_list:
        _check_count("block count", blocks)
    for p in ps:
        depolarizing(1, p)  # raises for p outside [0, 1]
    tasks = []
    for idx, (blocks, p) in enumerate((b, p) for b in blocks_list for p in ps):
        tasks.append((blocks, p, trials, derive_row_seed(master_seed, idx), tie_mode))
    if jobs <= 1 or len(tasks) <= 1:
        return [_run_sweep_row(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # loaded only by runs that use a pool

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_sweep_row, tasks))


# elapsed_s stays last: each writer formats it apart from the seed-determined values
ROW_FIELDS = ("N", "n", "p_or_schedule_id", "trials", "logical_errors",
              "rate", "ci_low", "ci_high", "seed", "elapsed_s")
CSV_HEADER = ",".join(ROW_FIELDS)


def _row_values(row: SweepRow, include_timing: bool) -> tuple:
    """The row's values in ROW_FIELDS order.

    elapsed_s is 0.0 unless ``include_timing`` is set: run time is not a
    function of the seed, and emitting it would break byte-for-byte
    reproducibility of otherwise identical runs.
    """
    s = row.stats
    return (row.blocks, row.n, row.channel_label, s.trials, s.logical_errors,
            s.rate, s.ci_low, s.ci_high, s.master_seed, s.elapsed if include_timing else 0.0)


def rows_to_csv(rows, include_timing: bool = False) -> str:
    """CSV with header CSV_HEADER; elapsed_s has three decimals."""
    lines = [CSV_HEADER]
    for row in rows:
        *values, elapsed = _row_values(row, include_timing)
        lines.append(",".join(map(str, values)) + f",{elapsed:.3f}")
    return "\n".join(lines) + "\n"


def rows_to_json(rows, include_timing: bool = False) -> str:
    """A JSON list of objects keyed by ROW_FIELDS; elapsed_s rounded to 3 places."""
    payload = []
    for row in rows:
        *values, elapsed = _row_values(row, include_timing)
        payload.append(dict(zip(ROW_FIELDS, (*values, round(elapsed, 3)))))
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
