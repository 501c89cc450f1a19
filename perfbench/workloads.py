"""The four benchmark workloads: set-up, one fixed job, correctness checks
and per-layer metrics.

Every input is generated here from the benchmark seed; convqec only sees
the generated inputs, through its public entry points.  A *job* is the
fixed unit of work a run repeats as often as its time allows:

  mc_short_blocks  run_trials at N = 10, depolarizing p = 0.02, 4096 trials,
                   default chunk size.  Nearly all time is decode_batch.
  mc_long_blocks   run_trials at N = 500, p = 0.02, 256 trials,
                   chunk_size = 256.  Syndrome extraction, the residual check
                   and classification are about a quarter of the time.
  online_decode    20 single-syndrome viterbi_decode calls at N = 2000 on a
                   position-dependent channel, one caller in a closed loop.
  certify          the `convqec verify` checks at N = 64, the encoder's
                   fault spread, and decode_batch against the brute-force
                   oracle on all 1024 syndromes at N = 2.

Importing this module imports numpy and convqec; the caller times that as
part of set-up.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from convqec import sim
from convqec.channel import depolarizing, sample_error_codes, schedule_from_probs
from convqec.circuits import (
    build_decoding_circuit,
    build_encoding_circuit,
    max_error_spread,
    verify_layer_commutation,
)
from convqec.code import Syndrome, build_code, syndrome_of, verify_code
from convqec.decoder import (
    InfeasibleSyndromeError,
    brute_force_table,
    decode_batch,
    survivor_merge_lag,
    viterbi_decode,
)
from convqec.pauli import pauli_from_codes
from convqec.tableau import StabilizerTableau

from tracing import Tracer, patched

# decode_batch keeps back (N, B, 16) uint8 and ties (N, B, 16) bool for
# every stage: bytes per block-trial computed from those array sizes.
STATE_BYTES_PER_BLOCK_TRIAL = 16 * (np.dtype(np.uint8).itemsize + np.dtype(bool).itemsize)
LL_TOLERANCE = 1e-9  # the tolerance `convqec oracle-check` uses
MC_P = 0.02
MC_CROSS_CHECK_BLOCKS = 4000  # blocks of job 0 decoded again by viterbi_decode
EXPECTED_ERROR_SPREAD = 7  # length-independent fault spread of the encoder


@dataclass
class JobResult:
    wall_s: float | None  # None when the job raised
    latencies_s: list[float]
    blocks: int  # code blocks decoded by the job
    attempted: int
    failed: int


def input_rng(seed: int, stream: int) -> np.random.Generator:
    """Benchmark-side generator for input stream ``stream`` of ``seed``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def job_seed(seed: int, job: int) -> int:
    """Master seed that run_trials receives for job ``job`` of a run."""
    return int(np.random.SeedSequence([seed, job]).generate_state(1, np.uint64)[0])


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _pauli_bytes(p) -> bytes:
    size = (p.n + 7) // 8
    return p.x.to_bytes(size, "little") + p.z.to_bytes(size, "little")


class Workload:
    """Set-up happens in ``__init__``; ``prepare`` makes the inputs the jobs
    consume (untimed, not set-up); ``check`` runs the correctness checks that
    need the whole run and returns (attempted, failed)."""

    min_latency_samples = 1

    def __init__(self, seed: int, tracer: Tracer, golden: dict | None):
        self.seed = seed
        self.tracer = tracer
        self.golden = golden  # expected job-0 outputs, given for the default seed only
        self.notes: dict = {}  # extra facts for the result record

    def prepare(self) -> None:
        pass

    def _golden_check(self, observed: dict) -> int:
        """Record job 0's outputs; return 1 if they differ from the golden ones."""
        self.notes["job0"] = observed
        if self.golden is None:
            return 0
        return int(observed != self.golden)


class MonteCarlo(Workload):
    def __init__(self, seed, tracer, golden, blocks: int, trials: int, chunk_size: int | None):
        super().__init__(seed, tracer, golden)
        self.trials = trials
        self.run_kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
        self.ops_per_job = trials
        with tracer.span("code.build"):
            self.code = build_code(blocks)
        with tracer.span("channel.build"):
            self.schedule = depolarizing(self.code.n, MC_P)
        with tracer.span("decoder.warmup"):
            decode_batch(self.code, self.schedule, np.zeros((1, 4 * blocks + 2), dtype=np.uint8))
        self.first_job = None  # [(syndromes, BatchDecodeResult)] of job 0
        self.counted: set[int] = set()
        self.decoded = self.tie_broken = self.infeasible = 0
        self.logical_errors0 = None
        self._after_decode = False

    def job(self, r: int) -> JobResult:
        tracer = self.tracer
        chunks = []

        def wrap_decode(original):
            # Always installed: keeps a reference to each result so the
            # outputs can be checked after the timed region.
            def decode(code, schedule, syndromes):
                with tracer.span("decoder.batch", memory=True, rows=len(syndromes)):
                    result = original(code, schedule, syndromes)
                chunks.append((syndromes, result))
                self._after_decode = True
                return result
            return decode

        def wrap_syndromes(original):
            # run_trials calls syndrome_bits_batch twice per chunk: on the
            # sampled errors, then on the residuals after decoding.
            def syndromes(code, code_mat):
                name = "sim.residual_check" if self._after_decode else "sim.syndrome"
                self._after_decode = False
                with tracer.span(name):
                    return original(code, code_mat)
            return syndromes

        def wrap_sample(original):
            def sample(schedule, rng, count):
                with tracer.span("channel.sample"):
                    return original(schedule, rng, count)
            return sample

        with ExitStack() as stack:
            stack.enter_context(patched(sim, "decode_batch", wrap_decode))
            if tracer.active:
                stack.enter_context(patched(sim, "syndrome_bits_batch", wrap_syndromes))
                stack.enter_context(patched(sim, "sample_error_codes", wrap_sample))
            self._after_decode = False
            start = time.perf_counter()
            with tracer.span("sim.run_trials", trials=self.trials):
                stats = sim.run_trials(
                    self.code, self.schedule, self.trials, job_seed(self.seed, r), **self.run_kwargs
                )
            wall = time.perf_counter() - start

        if r not in self.counted:  # traced runs repeat each job index
            self.counted.add(r)
            self.decoded += sum(len(res.feasible) for _, res in chunks)
            self.tie_broken += sum(int(res.tie_broken.sum()) for _, res in chunks)
            self.infeasible += sum(int((~res.feasible).sum()) for _, res in chunks)
            if r == 0:
                self.first_job = chunks
                self.logical_errors0 = stats.logical_errors
        return JobResult(wall, [wall], self.trials * self.code.blocks, self.trials, stats.infeasible)

    def check(self) -> tuple[int, int]:
        """Cross-check the first rows of job 0 against the unbatched decoder,
        and job 0's outputs against the golden ones."""
        if self.first_job is None:
            return 0, 0  # job 0 raised and was counted as failed
        syndromes, batch = self.first_job[0]
        rows = min(len(syndromes), max(1, MC_CROSS_CHECK_BLOCKS // self.code.blocks))
        failed = 0
        for t in range(rows):
            try:
                single = viterbi_decode(
                    self.code, self.schedule, Syndrome(tuple(int(b) for b in syndromes[t]))
                )
            except InfeasibleSyndromeError:
                failed += 1
                continue
            if single.error != pauli_from_codes(batch.codes[t]) or single.tie_broken != bool(
                batch.tie_broken[t]
            ):
                failed += 1
        digest = _digest(
            part for _, res in self.first_job for part in (res.codes.tobytes(), res.tie_broken.tobytes())
        )
        failed += self._golden_check({"logical_errors": self.logical_errors0, "sha256": digest})
        return rows + 1, failed

    def layer_metrics(self, traced_jobs: list[int]) -> dict[str, float]:
        tr = self.tracer
        per_job: dict[str, list[float]] = {}
        for r in traced_jobs:
            for name in ("channel.sample", "sim.syndrome", "sim.residual_check", "decoder.batch"):
                per_job.setdefault(name, []).append(tr.total(name, r))
            root = tr.named("sim.run_trials", r)
            per_job.setdefault("sim.classify", []).append(sum(tr.self_time(s) for s in root))
        med = {name: statistics.median(values) for name, values in per_job.items()}
        batch_spans = tr.named("decoder.batch")
        return {
            "channel.sample_s": med["channel.sample"],
            "sim.syndrome_s": med["sim.syndrome"],
            "sim.residual_check_s": med["sim.residual_check"],
            "sim.classify_s": med["sim.classify"],
            "decoder.batch_s": med["decoder.batch"],
            "decoder.batch_us_per_block_trial": med["decoder.batch"]
            / (self.trials * self.code.blocks) * 1e6,
            "decoder.batch_peak_bytes_per_block_trial": max(
                s["peak_bytes"] / (s["rows"] * self.code.blocks) for s in batch_spans
            ),
            "decoder.state_bytes_per_block_trial": float(STATE_BYTES_PER_BLOCK_TRIAL),
            "decoder.tie_broken_frac": self.tie_broken / self.decoded,
            "decoder.infeasible": self.infeasible,
        }


def time_varying_channel(n: int, seed: int):
    """Per-qubit p drawn once in [0.005, 0.05], split unevenly over X/Y/Z."""
    rng = input_rng(seed, 0)
    p = rng.uniform(0.005, 0.05, n)
    split = rng.dirichlet(np.ones(3), n)
    return schedule_from_probs(np.column_stack([1.0 - p, p[:, None] * split]))


class OnlineDecode(Workload):
    blocks = 2000
    pool_size = 100  # distinct syndromes; jobs cycle through them
    per_job = 20
    lag_samples = 4  # syndromes whose survivor-merge lag the traced run measures
    min_latency_samples = 100  # so that at least ten lie above p90
    ops_per_job = per_job

    def __init__(self, seed, tracer, golden):
        super().__init__(seed, tracer, golden)
        with tracer.span("code.build"):
            self.code = build_code(self.blocks)
        with tracer.span("channel.build"):
            self.schedule = time_varying_channel(self.code.n, seed)
        with tracer.span("decoder.warmup"):
            viterbi_decode(self.code, self.schedule, Syndrome((0,) * (4 * self.blocks + 2)))
        self.results: dict = {}  # pool index -> first DecodeResult
        self.decoded = self.tie_broken = self.infeasible = 0

    def prepare(self) -> None:
        # syndrome_of per error: at this N it is ten times faster than
        # syndrome_bits_batch on 100 rows, and it is not what is measured.
        errors = sample_error_codes(self.schedule, input_rng(self.seed, 1), self.pool_size)
        self.pool = [syndrome_of(self.code, pauli_from_codes(row)) for row in errors]

    def job(self, r: int) -> JobResult:
        latencies = []
        failed = 0
        start = time.perf_counter()
        for i in range(self.per_job):
            index = (r * self.per_job + i) % self.pool_size
            t0 = time.perf_counter()
            try:
                with self.tracer.span("decoder.viterbi", index=index):
                    result = viterbi_decode(self.code, self.schedule, self.pool[index])
            except InfeasibleSyndromeError:
                self.infeasible += 1
                failed += 1
                continue
            latencies.append(time.perf_counter() - t0)
            first = self.results.setdefault(index, result)
            if first is result:
                self.decoded += 1
                self.tie_broken += result.tie_broken
            elif first != result:  # decoding the same syndrome again must repeat exactly
                failed += 1
        wall = time.perf_counter() - start
        return JobResult(wall, latencies, self.per_job * self.blocks, self.per_job, failed)

    def check(self) -> tuple[int, int]:
        """Job 0's decodes against decode_batch bit for bit, their residual
        syndromes, and their digest against the golden one."""
        indices = range(self.per_job)
        syndromes = np.array([syn.bits for syn in self.pool[: self.per_job]], dtype=np.uint8)
        batch = decode_batch(self.code, self.schedule, syndromes)
        failed = 0
        for t in indices:
            single = self.results.get(t)
            if single is None:
                continue  # raised, already counted as failed
            same = (
                bool(batch.feasible[t])
                and single.error == pauli_from_codes(batch.codes[t])
                and single.tie_broken == bool(batch.tie_broken[t])
                and abs(single.log_likelihood - float(batch.log_likelihood[t])) <= LL_TOLERANCE
            )
            if not same or syndrome_of(self.code, single.error) != self.pool[t]:
                failed += 1
        done = [self.results[t] for t in indices if t in self.results]
        digest = _digest(_pauli_bytes(res.error) + bytes([res.tie_broken]) for res in done)
        failed += self._golden_check({"decoded": len(done), "sha256": digest})
        return len(indices) + 1, failed

    def layer_metrics(self, traced_jobs: list[int]) -> dict[str, float]:
        """Also measures survivor-merge lag, which only the traced run does."""
        spans = [s for r in traced_jobs for s in self.tracer.named("decoder.viterbi", r)]
        busy = sum(s["end"] - s["start"] for s in spans)
        lags = []
        for index in range(self.lag_samples):
            with self.tracer.span("decoder.merge_lag", index=index):
                lags += survivor_merge_lag(self.code, self.schedule, self.pool[index])
        self.notes["merge_lag_histogram"] = dict(sorted(Counter(lags).items()))
        return {
            "decoder.viterbi_us_per_block": busy / (len(spans) * self.blocks) * 1e6,
            "decoder.merge_lag_p50": statistics.median(lags),
            "decoder.merge_lag_max": max(lags),
            "decoder.tie_broken_frac": self.tie_broken / self.decoded,
            "decoder.infeasible": self.infeasible,
        }


class Certify(Workload):
    verify_blocks = 64
    oracle_blocks = 2
    oracle_p = 0.05
    checks_per_job = 13  # 4 algebra + layer count + 2 commutation + 5 contract + spread

    def __init__(self, seed, tracer, golden):
        super().__init__(seed, tracer, golden)
        with tracer.span("code.build"):
            self.code = build_code(self.verify_blocks)
            self.oracle_code = build_code(self.oracle_blocks)
        with tracer.span("channel.build"):
            self.oracle_schedule = depolarizing(self.oracle_code.n, self.oracle_p)
        bits = 4 * self.oracle_blocks + 2
        with tracer.span("decoder.warmup"):
            decode_batch(self.oracle_code, self.oracle_schedule, np.zeros((1, bits), dtype=np.uint8))
        self.syndromes = ((np.arange(1 << bits)[:, None] >> np.arange(bits)) & 1).astype(np.uint8)
        self.ops_per_job = self.checks_per_job + len(self.syndromes)
        rng = input_rng(seed, 2)
        blocks = self.verify_blocks
        self.patterns = [[0] * blocks, [1] * blocks]
        self.patterns += [[int(b) for b in rng.integers(0, 2, blocks)] for _ in range(3)]
        self.batch = None  # decode_batch result of the first job

    def job(self, r: int) -> JobResult:
        span = self.tracer.span
        code = self.code
        start = time.perf_counter()
        with span("code.verify"):
            report = verify_code(code)
        checks = {
            "generators pairwise commute": report.generator_commutation,
            "generator rank": report.generator_rank == len(code.generators),
            "encoded dimension": report.encoded_dimension_exponent == code.blocks,
            "logical operator conditions": all(report.logical_conditions.values()),
        }
        with span("circuits.build"):
            encoder = build_encoding_circuit(code.blocks)
            decoder_circuit = build_decoding_circuit(code.blocks)
        checks["encoder has 6 layers"] = len(encoder.layers) == 6
        with span("circuits.layer_commutation"):
            checks["encoder intra-layer commutation"] = verify_layer_commutation(encoder)
            checks["decoder intra-layer commutation"] = verify_layer_commutation(decoder_circuit)
        with span("tableau.contract"):
            for k, pattern in enumerate(self.patterns):
                checks[f"encoder tableau contract, pattern {k}"] = self._contract(encoder, pattern)
        with span("circuits.error_spread"):
            checks["encoder fault spread"] = max_error_spread(encoder) == EXPECTED_ERROR_SPREAD
        with span("decoder.oracle_table", memory=True):
            ll, winner, tie, feasible = brute_force_table(self.oracle_code, self.oracle_schedule)
        with span("decoder.oracle_compare"):
            with span("decoder.batch", memory=True, rows=len(self.syndromes)):
                batch = decode_batch(self.oracle_code, self.oracle_schedule, self.syndromes)
            mismatches = self._oracle_mismatches(batch, ll, winner, tie, feasible)
        wall = time.perf_counter() - start

        if self.batch is None:
            self.batch = batch
        failed_checks = [name for name, ok in checks.items() if not ok]
        if failed_checks:
            self.notes.setdefault("failed_checks", sorted(set(failed_checks)))
        self.notes["oracle_mismatches"] = self.notes.get("oracle_mismatches", 0) + mismatches
        blocks = len(self.syndromes) * self.oracle_blocks
        return JobResult(wall, [wall], blocks, self.ops_per_job, len(failed_checks) + mismatches)

    def _contract(self, encoder, pattern) -> bool:
        code = self.code
        bits = [0] * code.n
        for pos, bit in zip(code.info_positions, pattern):
            bits[pos - 1] = bit
        tab = StabilizerTableau.from_bits(bits)
        tab.apply_gates(encoder.gates())
        solver = tab.solver()
        return all(solver.sign_of(g) == 0 for g in code.generators) and all(
            solver.sign_of(lz) == pattern[i] for i, lz in enumerate(code.logical_z)
        )

    def _oracle_mismatches(self, batch, ll, winner, tie, feasible) -> int:
        """Syndromes (row s is syndrome index s) where decode_batch and the
        oracle disagree on feasibility, decoded error, tie flag or
        log-likelihood."""
        digits = 2 * np.arange(self.oracle_code.n)
        expected = ((winner[:, None] >> digits) & 3).astype(np.uint8)
        delta = np.abs(np.where(feasible, batch.log_likelihood - ll, 0.0))
        bad = (batch.feasible != feasible) | (
            feasible
            & ((batch.codes != expected).any(axis=1) | (batch.tie_broken != tie) | ~(delta <= LL_TOLERANCE))
        )
        return int(bad.sum())

    def check(self) -> tuple[int, int]:
        return 0, 0  # every check runs inside each job

    def layer_metrics(self, traced_jobs: list[int]) -> dict[str, float]:
        tr = self.tracer

        def med(name):
            return statistics.median(tr.total(name, r) for r in traced_jobs)

        oracle_s = med("decoder.oracle_table")
        batch_spans = tr.named("decoder.batch")
        block_trials = len(self.syndromes) * self.oracle_blocks
        return {
            "code.verify_s": med("code.verify"),
            "circuits.layer_commutation_s": med("circuits.layer_commutation"),
            "circuits.error_spread_s": med("circuits.error_spread"),
            "tableau.contract_s": med("tableau.contract"),
            "decoder.oracle_table_s": oracle_s,
            "decoder.oracle_errors_per_s": 4 ** self.oracle_code.n / oracle_s,
            "decoder.oracle_compare_s": med("decoder.oracle_compare"),
            "decoder.oracle_peak_mb": max(s["peak_bytes"] for s in tr.named("decoder.oracle_table"))
            / 2 ** 20,
            "decoder.batch_s": med("decoder.batch"),
            "decoder.batch_us_per_block_trial": med("decoder.batch") / block_trials * 1e6,
            "decoder.batch_peak_bytes_per_block_trial": max(
                s["peak_bytes"] / (s["rows"] * self.oracle_blocks) for s in batch_spans
            ),
            "decoder.state_bytes_per_block_trial": float(STATE_BYTES_PER_BLOCK_TRIAL),
            "decoder.tie_broken_frac": float(self.batch.tie_broken.mean()),
            "decoder.infeasible": int((~self.batch.feasible).sum()),
        }


WORKLOADS = {
    "mc_short_blocks": lambda seed, tracer, golden: MonteCarlo(
        seed, tracer, golden, blocks=10, trials=4096, chunk_size=None
    ),
    "mc_long_blocks": lambda seed, tracer, golden: MonteCarlo(
        seed, tracer, golden, blocks=500, trials=256, chunk_size=256
    ),
    "online_decode": OnlineDecode,
    "certify": Certify,
}
