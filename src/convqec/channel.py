"""Memoryless Pauli channels: per-qubit error probabilities, likelihoods,
and reproducible sampling.

A schedule assigns every qubit its own quadruple (p_I, p_X, p_Y, p_Z), so
position-dependent ("time-varying") channels cost nothing extra.  All
likelihood arithmetic is done in log space; a forbidden component (zero
probability) contributes -inf, which the decoder treats as a dead branch.

Randomness comes from numpy's Philox counter-based generator, so a seed
produces the same stream on every platform.  Log-likelihoods are accumulated
strictly left-to-right over qubits 1..n; the decoder relies on this exact
summation order so that equal-probability errors compare bit-identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .pauli import Pauli, as_code_matrix, code_rows, pauli_from_codes

# Column order of the public quadruples.
QUAD_ORDER = "IXYZ"
# per-qubit integer code (see pauli.CODE_CHARS = "IZXY") -> probs column
_CODE_TO_QUAD = (0, 3, 1, 2)
_PROB_TOLERANCE = 1e-12

# Decoder metrics are log-probabilities in fixed point, scaled by 2^30.
METRIC_SCALE_BITS = 30
# Dead-branch sentinel: far below any real path metric (worst case is about
# -745 * 2^30 per qubit), yet small enough that a stage's unclamped sum of a
# survivor metric and five per-qubit terms cannot overflow int64 even if
# every term is dead.
DEAD_METRIC = np.int64(-(2 ** 59))


@dataclass(frozen=True, eq=False)
class ChannelSchedule:
    """Per-qubit Pauli error probabilities, an immutable value: the constructor checks
    them and builds the per-code and sampling tables, and the floor under every path
    metric, once; pickled and copied schedules rebuild."""

    probs: np.ndarray  # shape (n, 4), columns (p_I, p_X, p_Y, p_Z)
    _log_by_code: np.ndarray = field(init=False, repr=False)
    _metric_by_code: np.ndarray = field(init=False, repr=False)
    _thresholds: np.ndarray = field(init=False, repr=False)  # (n, 3) I|X|Y|Z cuts, +inf if only zeros follow
    _metric_floor: int = field(init=False, repr=False)  # each qubit's smallest live metric, summed

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=np.float64)  # a copy: no caller's view can change it
        if probs.ndim != 2 or probs.shape[1] != 4 or probs.shape[0] < 1:
            raise ValueError(f"probs must have shape (n, 4), got {probs.shape}")
        if not np.isfinite(probs).all():  # NaN passes both checks below
            raise ValueError("probabilities must be finite")
        if (probs < 0).any():
            raise ValueError("probabilities must be nonnegative")
        sums = probs.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > _PROB_TOLERANCE)
        if bad.size:
            raise ValueError(f"probabilities at qubit {bad[0] + 1} sum to {sums[bad[0]]!r}")
        with np.errstate(divide="ignore"):
            logp = np.log(probs[:, _CODE_TO_QUAD])
        scaled = np.round(logp * float(1 << METRIC_SCALE_BITS))
        metric = np.where(np.isfinite(logp), scaled, float(DEAD_METRIC)).astype(np.int64)
        later = np.logical_or.accumulate(probs[:, :0:-1] > 0, axis=1)[:, ::-1]
        thresholds = np.where(later, np.cumsum(probs, axis=1)[:, :3], np.inf)
        for f, table in zip(fields(self), (probs, logp, metric, thresholds)):
            table.setflags(write=False)
            object.__setattr__(self, f.name, table)
        lowest = metric.min(axis=1, where=metric > DEAD_METRIC, initial=0)  # each above -2^40: 2^22 fit int64
        floor = sum(int(lowest[lo:lo + (1 << 22)].sum()) for lo in range(0, len(lowest), 1 << 22))
        object.__setattr__(self, "_metric_floor", floor)

    def __reduce__(self):
        return ChannelSchedule, (self.probs,)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    def log_prob_by_code(self) -> np.ndarray:
        """(n, 4) log-probabilities indexed by per-qubit code (I,Z,X,Y order)."""
        return self._log_by_code


def metric_table(schedule: ChannelSchedule) -> np.ndarray:
    """(n, 4) int64 fixed-point log-probabilities by per-qubit code, shared by decoder and oracle."""
    return schedule._metric_by_code


def depolarizing(n: int, p: float) -> ChannelSchedule:
    """Uniform depolarizing channel: each qubit gets (1-p, p/3, p/3, p/3)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must be in [0, 1], got {p}")
    row = np.array([1.0 - p, p / 3.0, p / 3.0, p / 3.0])
    return ChannelSchedule(np.tile(row, (n, 1)))


def schedule_from_probs(rows) -> ChannelSchedule:
    """Schedule from an explicit list of per-qubit (p_I, p_X, p_Y, p_Z) rows."""
    return ChannelSchedule(np.array(rows, dtype=np.float64))


def _check_seed(seed) -> None:
    """Reject by name a seed that is not a non-negative integer: numpy would run ``True``
    as seed 1, and its errors for -1 or 1.5 name neither the seed nor its value."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def make_rng(seed) -> np.random.Generator:
    """Counter-based (Philox) generator; same seed gives the same stream
    on every platform.  Accepts an int, SeedSequence, or existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        _check_seed(seed)
    return np.random.Generator(np.random.Philox(seed))


def sample_error_codes(schedule: ChannelSchedule, rng, count: int) -> np.ndarray:
    """Sample ``count`` independent errors as a (count, n) matrix of codes.

    Per qubit, one uniform draw is bucketed against the cumulative
    (p_I, p_X, p_Y, p_Z) thresholds, in that documented order.  The schedule
    builds the thresholds once; one that only zero-probability letters follow
    is +inf, so every sampled letter has positive probability even when a row
    sums to slightly less than 1.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):  # numpy's TypeError names neither
        raise ValueError(f"count must be a non-negative integer, got {count!r}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = make_rng(rng)
    cum = schedule._thresholds
    u = rng.random((count, schedule.n))
    # u >= cum[:, k] is the same comparison one threshold at a time; the
    # thresholds ascend, so the three bits a >= b >= c give the code
    # (2a + b) ^ 2c: I=0, X=2, Y=3, Z=1
    codes = (u >= cum[:, 0]).view(np.uint8) << 1
    codes |= u >= cum[:, 1]
    codes ^= (u >= cum[:, 2]).view(np.uint8) << 1
    return codes


def sample_error(schedule: ChannelSchedule, rng) -> Pauli:
    """Draw one error; ``rng`` is a seed or a Generator (advanced in place)."""
    codes = sample_error_codes(schedule, rng, 1)[0]
    return pauli_from_codes(codes)


def log_likelihood(schedule: ChannelSchedule, e: Pauli) -> float:
    """Sum of per-qubit log-probabilities, accumulated over qubits 1..n.

    Returns -inf as soon as any factor has zero probability.
    """
    if e.n != schedule.n:
        raise ValueError(f"error acts on {e.n} qubits, schedule has {schedule.n}")
    return float(log_likelihoods(schedule, code_rows([e]))[0])


def log_likelihoods(schedule: ChannelSchedule, codes: np.ndarray) -> np.ndarray:
    """(B,) log-likelihoods of the rows of a (B, n) code matrix, each added left
    to right by np.add.accumulate (np.sum adds pairwise and changes the last
    bits), a bounded chunk of rows at a time."""
    codes = as_code_matrix(codes, schedule.n)
    table, qubits = schedule.log_prob_by_code(), np.arange(schedule.n)
    out = np.empty(len(codes))
    step = max(1, (1 << 16) // schedule.n)  # rows per chunk
    for lo in range(0, len(codes), step):
        terms = table[qubits, codes[lo:lo + step]]
        out[lo:lo + step] = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
    return out


def channel_to_config(schedule: ChannelSchedule) -> dict:
    """JSON-ready schedule description; floats round-trip exactly."""
    return {"type": "schedule", "probs": [[float(v) for v in row] for row in schedule.probs]}


def _is_number(value) -> bool:
    """An int or float from a config; a bool is not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def channel_from_config(config: dict, n: int) -> ChannelSchedule:
    """Build a schedule from a config dict; unknown or missing keys are errors.

    Accepted forms:
        {"type": "depolarizing", "p": <float>}
        {"type": "schedule", "probs": [[pI,pX,pY,pZ], ...]}   (length must be n)
    """
    if not isinstance(config, dict):
        raise ValueError("channel config must be an object")
    kind = config.get("type")
    if kind == "depolarizing":
        extra = set(config) - {"type", "p"}
        if extra:
            raise ValueError(f"unknown channel config key {sorted(extra)[0]!r}")
        p = config.get("p")
        if not _is_number(p):
            raise ValueError(f"depolarizing channel config requires a number 'p', got {p!r}")
        return depolarizing(n, p)
    if kind == "schedule":
        extra = set(config) - {"type", "probs"}
        if extra:
            raise ValueError(f"unknown channel config key {sorted(extra)[0]!r}")
        probs = config.get("probs")
        if not isinstance(probs, list) or not all(
            isinstance(row, list) and all(_is_number(v) for v in row) for row in probs
        ):
            raise ValueError("schedule channel config requires 'probs' as a list of rows of numbers")
        sched = schedule_from_probs(probs)
        if sched.n != n:
            raise ValueError(f"schedule covers {sched.n} qubits, code needs {n}")
        return sched
    raise ValueError(f"unknown channel type {kind!r}")


def channel_id(config: dict) -> str:
    """Short stable identifier for a channel config (used in result tables)."""
    if config.get("type") == "depolarizing":
        return repr(float(config["p"]))
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
    return f"schedule-{digest[:8]}"
