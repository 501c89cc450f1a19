"""Trellis maximum-likelihood error estimation, plus a brute-force oracle.

The algorithm sweeps the code block by block.  Its state after stage i is a
list of 16 survivors, one per Pauli pair on the block-boundary qubits
(5i+1, 5i+2); survivor j is a most likely error on qubits 1..5i+2 that is
consistent with all syndrome bits seen so far and ends in pair j.  The
boundary generator on qubits 1..2 fixes the initial list (half of the 16
pairs survive), each transition extends every survivor across the next five
qubits subject to the four block syndrome bits, and the final boundary
generator again halves the list before the best survivor is traced back.
The four bits checked at a transition touch earlier qubits only through the
boundary pair, which is why 16 survivors are exact and the total work is
linear in the number of blocks.

State and window indexing (fixed once, used everywhere):

  * per-qubit code 2x+z: I=0, Z=1, X=2, Y=3;
  * a boundary pair is indexed j = 4*code(first qubit) + code(second);
  * a transition window holds codes (c1..c7) for qubits 5i+1..5i+7, where
    (c1,c2) is the predecessor pair, (c3,c4,c5) the middle triple, and
    (c6,c7) the successor pair;
  * the four syndrome bits of stage i are packed little-endian into a nibble;
  * a middle triple is indexed t = c3 + 4*c4 + 16*c5, and a branch, the
    (predecessor pair, middle triple) a survivor extends, as 64*j + t.

One kernel.  Every caller runs the same forward pass (``_forward``) and the
same traceback (``_traceback``) over a (B, 4N+2) syndrome matrix:
:func:`decode_batch` with B trials, :func:`viterbi_decode` with B = 1, and
:func:`survivor_merge_lag` reading the per-stage choices and metrics.  Per
stage, the 16 survivor metrics plus the stage's 64 triple metrics give the
(B, 16 x 64) metric of every branch; the nibble's table gathers each
successor's 64 candidate branches from it, the successor-pair metric is
added, and an argmax over the 64 slots picks each survivor.  Pair and triple
metrics are summed for all stages up front, so a stage costs one broadcast
add, one gather and a few reductions however many trials it carries.  The
traceback records branch indices and unpacks the codes once at the end.

Metric arithmetic.  Path metrics are per-qubit log-probabilities quantized
to integer multiples of 2^-30 and summed in int64.  Integer addition is
associative, so a path's metric does not depend on summation order, ties
are mathematically well defined, and the trellis and the brute-force oracle
see bit-identical values for the same error string.  (Accumulating float
metrics instead makes "equal likelihood" depend on the order of additions:
two equally likely prefixes can differ by one ulp mid-stream and collide
again later, which breaks any exact tie contract.)  The reported
log-likelihood is the unquantized float sum for the decoded string; the
quantization only coarsens comparisons, treating errors within ~1e-9 log
units of each other as ties.  Zero-probability branches carry a large
negative sentinel and every stage clamps at that floor.

Tie-breaking (deterministic mode): among tied errors the decoder returns
the one whose code sequence is smallest when read from the LAST qubit
toward the first (code order I < Z < X < Y).  Comparing from the newest
qubit backwards means two tied candidates for the same survivor slot always
differ inside the current window, so every tie resolves in O(1) and the
linear running time survives channels with many exact ties (a depolarizing
channel ties every equal-weight pair).  The oracle replicates the order for
free: enumerating errors as base-4 integers with qubit 1 in the least
significant digit makes ascending index exactly this order.
``tie_mode="random"`` instead picks uniformly among tied candidates using a
caller-supplied seed, matching the behavior the construction allows while
keeping runs reproducible.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ChannelSchedule, log_likelihood, make_rng
from .code import ConvolutionalCode, Syndrome
from .pauli import Pauli, pauli_from_codes

MAX_BRUTE_FORCE_QUBITS = 12

METRIC_SCALE_BITS = 30
# Dead-branch sentinel: far below any real path metric (worst case is about
# -745 * 2^30 per qubit), yet small enough that a stage's unclamped sum of a
# survivor metric and five per-qubit terms cannot overflow int64 even if
# every term is dead.
DEAD_METRIC = np.int64(-(2 ** 59))

# Single-qubit symplectic form on codes: SP1[a, b] = 1 iff the letters anticommute.
_SP1 = np.zeros((4, 4), dtype=np.uint8)
for _a in range(4):
    for _b in range(4):
        _SP1[_a, _b] = ((_a >> 1) & (_b & 1)) ^ ((_a & 1) & ((_b >> 1) & 1))

_BLOCK_PATTERN = (1, 2, 2, 1)  # Z X X Z as codes
_ROWS16 = np.arange(16)

_METRIC_CACHE: "weakref.WeakKeyDictionary[ChannelSchedule, np.ndarray]" = (
    weakref.WeakKeyDictionary()
)


class InfeasibleSyndromeError(ValueError):
    """No error with positive probability matches the requested syndrome."""


def metric_table(schedule: ChannelSchedule) -> np.ndarray:
    """(n, 4) int64 fixed-point log-probabilities indexed by per-qubit code."""
    cached = _METRIC_CACHE.get(schedule)
    if cached is None:
        logp = schedule.log_prob_by_code()
        scaled = np.round(logp * float(1 << METRIC_SCALE_BITS))
        cached = np.where(np.isfinite(logp), scaled, float(DEAD_METRIC)).astype(np.int64)
        cached.setflags(write=False)
        _METRIC_CACHE[schedule] = cached
    return cached


@dataclass(frozen=True)
class _TrellisTables:
    """Stage-invariant transition structure, shared by every decode.

    For each syndrome nibble s, the 1024 windows satisfying the four block
    constraints are bucketed as (16 successor states) x (64 slots), presorted
    by the tie-break key.  A slot names its branch, the (predecessor state,
    middle triple) it extends, as 64 * state + triple.  A stage's candidates
    are gathered from the (B, 16 x 64) sums metrics[state] + triple metric
    and offset by the successor-pair metric; numpy's argmax over the slots
    returns the first maximum, i.e. the tie-break winner.
    """

    branch: np.ndarray     # (16, 16, 64) uint16 per (nibble, successor, slot)
    start_bit: np.ndarray  # (16,) syndrome bit of the opening boundary generator
    end_bit: np.ndarray    # (16,) same for the closing boundary generator
    end_order: np.ndarray  # (16,) states sorted by the tie-break key


@lru_cache(maxsize=1)
def _tables() -> _TrellisTables:
    w = np.arange(4 ** 7, dtype=np.int32)
    c = [((w >> (2 * t)) & 3).astype(np.uint8) for t in range(7)]

    sig = np.zeros(w.shape, dtype=np.uint8)
    for g in range(4):
        bit = np.zeros(w.shape, dtype=np.uint8)
        for offset, letter in enumerate(_BLOCK_PATTERN):
            bit ^= _SP1[c[g + offset], letter]
        sig |= bit << g

    state = c[0].astype(np.uint16) * 4 + c[1]
    branch = state * 64 + c[2] + c[3] * 4 + c[4] * 16
    k = (c[5] * 4 + c[6]).astype(np.uint8)

    buckets = []
    for s in range(16):
        idx = np.flatnonzero(sig == s)
        if idx.size != 1024:
            raise AssertionError(f"nibble {s} has {idx.size} windows, expected 1024")
        # sort by successor state, then by the reversed-read tie-break key
        order = np.lexsort((c[0][idx], c[1][idx], c[2][idx], c[3][idx], c[4][idx], k[idx]))
        idx = idx[order]
        if not (k[idx].reshape(16, 64) == np.arange(16, dtype=np.uint8)[:, None]).all():
            raise AssertionError(f"nibble {s}: successor states are not uniform")
        buckets.append(branch[idx].reshape(16, 64))

    pair_first = (_ROWS16 >> 2).astype(np.uint8)
    pair_second = (_ROWS16 & 3).astype(np.uint8)
    start_bit = _SP1[pair_first, 2] ^ _SP1[pair_second, 1]  # X on 1, Z on 2
    end_bit = _SP1[pair_first, 1] ^ _SP1[pair_second, 2]    # Z on n-1, X on n
    end_order = np.lexsort((pair_first, pair_second))

    return _TrellisTables(
        branch=np.stack(buckets),
        start_bit=start_bit,
        end_bit=end_bit,
        end_order=end_order.astype(np.intp),
    )


def _segment_metrics(mt: np.ndarray):
    """Unclamped metric sums of every boundary pair and middle triple.

    Returns (N+1, 16) pair metrics, row i for qubits 5i+1..5i+2, and (N, 64)
    triple metrics, row i for qubits 5i+3..5i+5, indexed as in the tables.
    """
    pairs = (mt[0::5, :, None] + mt[1::5, None, :]).reshape(-1, 16)
    triples = (mt[4::5, :, None, None] + mt[3::5, None, :, None] + mt[2::5, None, None, :])
    return pairs, triples.reshape(-1, 64)


def _nibbles(syndromes: np.ndarray) -> np.ndarray:
    """(B, N) uint8: each stage's four syndrome bits packed little-endian."""
    B, width = syndromes.shape
    blocks = syndromes[:, 1:-1].reshape(B, (width - 2) // 4, 4)
    return np.packbits(blocks, axis=2, bitorder="little")[:, :, 0]


def _stage(tab: _TrellisTables, metrics, triple_metrics, pair_metrics, nib, rows, rng):
    """One trellis stage: (slot choice, tied, metrics) of the 16 new survivors.

    Temporaries die on return, so the (B, 16, 64) candidates of consecutive
    stages never coexist.
    """
    cand = (metrics[:, :, None] + triple_metrics).reshape(-1, 1024)[rows, tab.branch[nib]]
    cand += pair_metrics[:, None]
    np.maximum(cand, DEAD_METRIC, out=cand)
    metrics = cand.max(axis=2)
    best = cand == metrics[:, :, None]
    if rng is None:
        choice = cand.argmax(axis=2)
    else:
        choice = np.where(best, rng.random(cand.shape), -1.0).argmax(axis=2)
    tied = best.sum(axis=2) > 1
    tied &= metrics > DEAD_METRIC
    return choice, tied, metrics


def _forward(tab: _TrellisTables, mt: np.ndarray, syndromes: np.ndarray, nibs: np.ndarray, rng=None):
    """The trellis recursion over a (B, 4N+2) 0/1 syndrome matrix.

    Yields, after each stage, the slot each of the 16 survivors extends,
    whether its best slot was tied, and the survivor metrics, each (B, 16).
    Without ``rng`` the choice is the first best slot (the tie-break order);
    with one it is uniform among the best slots.
    """
    pairs, triples = _segment_metrics(mt)
    metrics = np.where(
        tab.start_bit == syndromes[:, :1], np.maximum(pairs[0], DEAD_METRIC), DEAD_METRIC
    )
    rows = np.arange(len(syndromes))[:, None, None]
    for i in range(nibs.shape[1]):
        choice, tied, metrics = _stage(tab, metrics, triples[i], pairs[i + 1], nibs[:, i], rows, rng)
        yield choice, tied, metrics


def _traceback(tab: _TrellisTables, nibs: np.ndarray, back: np.ndarray, ties: np.ndarray, k):
    """Codes (B, n) of the survivors ending in states ``k``, and whether any
    stage on their paths was tied."""
    N, B = back.shape[:2]
    rows = np.arange(B)
    codes = np.empty((B, 5 * N + 2), dtype=np.uint8)
    steps = np.empty((N, B), dtype=np.uint16)
    states = np.empty((N + 1, B), dtype=np.uint8)
    states[N] = k
    for i in reversed(range(N)):
        steps[i] = tab.branch[nibs[:, i], k, back[i, rows, k]]
        k = steps[i] >> 6
    states[:N] = steps >> 6
    tied = ties[np.arange(N)[:, None], rows, states[1:]].any(axis=0)
    codes[:, 0::5] = (states >> 2).T
    codes[:, 1::5] = (states & 3).T
    codes[:, 2::5] = (steps & 3).T
    codes[:, 3::5] = ((steps >> 2) & 3).T
    codes[:, 4::5] = ((steps >> 4) & 3).T
    return codes, tied


def _decode(tab: _TrellisTables, mt: np.ndarray, syndromes: np.ndarray, rng=None):
    """Forward pass, final boundary and traceback for a (B, 4N+2) 0/1 matrix.

    Returns (codes, tie_broken, feasible); rows that are not feasible carry
    arbitrary codes.
    """
    nibs = _nibbles(syndromes)
    B, N = nibs.shape
    back = np.empty((N, B, 16), dtype=np.uint8)
    ties = np.empty((N, B, 16), dtype=bool)
    for i, (choice, tied, metrics) in enumerate(_forward(tab, mt, syndromes, nibs, rng)):
        back[i] = choice
        ties[i] = tied

    final = np.where(tab.end_bit == syndromes[:, -1:], metrics, DEAD_METRIC)
    best = final.max(axis=1)
    ordered = final[:, tab.end_order]
    if rng is None:
        k = tab.end_order[ordered.argmax(axis=1)]
    else:
        k = np.array([rng.choice(tab.end_order[row == row.max()]) for row in ordered])
    codes, path_tied = _traceback(tab, nibs, back, ties, k)
    tie_broken = path_tied | ((final == best[:, None]).sum(axis=1) > 1)
    return codes, tie_broken, best > DEAD_METRIC


@dataclass(frozen=True)
class DecodeResult:
    error: Pauli
    log_likelihood: float
    tie_broken: bool


def _check_inputs(code: ConvolutionalCode, schedule: ChannelSchedule, syn: Syndrome):
    if schedule.n != code.n:
        raise ValueError(f"schedule covers {schedule.n} qubits, code has {code.n}")
    expected = 4 * code.blocks + 2
    if len(syn.bits) != expected:
        raise ValueError(f"syndrome has {len(syn.bits)} bits, expected {expected}")
    if any(b not in (0, 1) for b in syn.bits):
        raise ValueError("syndrome bits must be 0 or 1")
    return np.array([syn.bits], dtype=np.uint8)


def viterbi_decode(
    code: ConvolutionalCode,
    schedule: ChannelSchedule,
    syn: Syndrome,
    tie_mode: str = "deterministic",
    rng=None,
) -> DecodeResult:
    """Most likely error consistent with ``syn`` under ``schedule``.

    ``tie_mode="deterministic"`` applies the documented reversed-read order;
    ``tie_mode="random"`` requires ``rng`` (seed or Generator) and picks
    uniformly among tied candidates.
    """
    syndromes = _check_inputs(code, schedule, syn)
    if tie_mode not in ("deterministic", "random"):
        raise ValueError(f"unknown tie_mode {tie_mode!r}")
    if tie_mode == "random":
        if rng is None:
            raise ValueError("tie_mode='random' requires an explicit rng or seed")
        rng = make_rng(rng)

    codes, tie_broken, feasible = _decode(_tables(), metric_table(schedule), syndromes, rng)
    if not feasible[0]:
        raise InfeasibleSyndromeError("no positive-probability error matches this syndrome")
    error = pauli_from_codes(codes[0])
    return DecodeResult(error, log_likelihood(schedule, error), bool(tie_broken[0]))


@dataclass(frozen=True)
class BatchDecodeResult:
    codes: np.ndarray           # (trials, n) per-qubit codes; zero where infeasible
    log_likelihood: np.ndarray  # (trials,), -inf where infeasible
    tie_broken: np.ndarray      # (trials,) bool
    feasible: np.ndarray        # (trials,) bool


def decode_batch(
    code: ConvolutionalCode, schedule: ChannelSchedule, syndromes: np.ndarray
) -> BatchDecodeResult:
    """Vectorized deterministic decoding of many syndromes at once.

    ``syndromes`` is a (trials, 4N+2) 0/1 matrix.  The per-trial results are
    identical to :func:`viterbi_decode`; trials are independent, so chunking
    a workload differently cannot change any answer.
    """
    syndromes = np.asarray(syndromes)
    if syndromes.ndim != 2 or syndromes.shape[1] != 4 * code.blocks + 2:
        raise ValueError(f"syndromes must have shape (trials, {4 * code.blocks + 2})")
    if schedule.n != code.n:
        raise ValueError(f"schedule covers {schedule.n} qubits, code has {code.n}")
    if ((syndromes != 0) & (syndromes != 1)).any():
        raise ValueError("syndrome bits must be 0 or 1")
    syndromes = syndromes.astype(np.uint8, copy=False)

    codes, tie_broken, feasible = _decode(_tables(), metric_table(schedule), syndromes)
    codes[~feasible] = 0
    logp = schedule.log_prob_by_code()
    ll = logp[0][codes[:, 0]]
    for q in range(1, code.n):
        ll = ll + logp[q][codes[:, q]]
    ll = np.where(feasible, ll, -np.inf)
    tie_broken &= feasible
    return BatchDecodeResult(codes, ll, tie_broken, feasible)


def _enumerate_errors(code: ConvolutionalCode, schedule: ChannelSchedule):
    """Quantized log-likelihood and syndrome index of every n-qubit Pauli.

    Error index e encodes qubit q in base-4 digit q-1, so ascending index is
    exactly the decoder's tie-break order.
    """
    n = code.n
    if n > MAX_BRUTE_FORCE_QUBITS:
        raise ValueError(
            f"brute force enumerates 4^n errors and is capped at n <= {MAX_BRUTE_FORCE_QUBITS}; "
            f"this code has n = {n}"
        )
    if schedule.n != n:
        raise ValueError(f"schedule covers {schedule.n} qubits, code has {n}")
    count = 1 << (2 * n)
    e = np.arange(count, dtype=np.uint32)
    mt = metric_table(schedule)
    metric = np.zeros(count, dtype=np.int64)
    for q in range(n):
        digit = ((e >> np.uint32(2 * q)) & np.uint32(3)).astype(np.uint8)
        metric = np.maximum(metric + mt[q][digit], DEAD_METRIC)
    syn_idx = np.zeros(count, dtype=np.int32)
    for g_pos, g in enumerate(code.generators):
        bit = np.zeros(count, dtype=np.uint8)
        for q in g.support():
            digit = ((e >> np.uint32(2 * (q - 1))) & np.uint32(3)).astype(np.uint8)
            bit ^= _SP1[digit, g.code_at(q)]
        syn_idx |= bit.astype(np.int32) << g_pos
    return metric, syn_idx


def _codes_of_index(e: int, n: int) -> list[int]:
    return [(e >> (2 * q)) & 3 for q in range(n)]


def _syndrome_index(syn: Syndrome) -> int:
    out = 0
    for pos, bit in enumerate(syn.bits):
        out |= bit << pos
    return out


def brute_force_ml(code: ConvolutionalCode, schedule: ChannelSchedule, syn: Syndrome) -> DecodeResult:
    """Exhaustive maximum-likelihood decode; the oracle viterbi is tested against.

    Shares the quantized metric and the deterministic tie-break with the
    trellis decoder, but knows nothing of its stage structure.
    """
    _check_inputs(code, schedule, syn)
    metric, syn_idx = _enumerate_errors(code, schedule)
    candidates = np.flatnonzero(syn_idx == _syndrome_index(syn))
    values = metric[candidates]
    if values.size == 0 or values.max() <= DEAD_METRIC:
        raise InfeasibleSyndromeError("no positive-probability error matches this syndrome")
    best = values.max()
    hits = candidates[values == best]
    error = pauli_from_codes(_codes_of_index(int(hits[0]), code.n))
    return DecodeResult(error, log_likelihood(schedule, error), bool(hits.size > 1))


def brute_force_table(code: ConvolutionalCode, schedule: ChannelSchedule):
    """Per-syndrome ML answers for every syndrome at once.

    Returns (log_likelihood, winner_index, tie, feasible) arrays indexed by
    syndrome integer; winner_index is -1 (and log_likelihood -inf) where no
    positive-probability error exists.
    """
    metric, syn_idx = _enumerate_errors(code, schedule)
    n_syndromes = 1 << len(code.generators)
    best = np.full(n_syndromes, DEAD_METRIC, dtype=np.int64)
    np.maximum.at(best, syn_idx, metric)
    feasible = best > DEAD_METRIC
    sel = (metric == best[syn_idx]) & (metric > DEAD_METRIC)
    idx = np.flatnonzero(sel)
    winner = np.full(n_syndromes, -1, dtype=np.int64)
    uniq, first = np.unique(syn_idx[idx], return_index=True)
    winner[uniq] = idx[first]
    counts = np.bincount(syn_idx[idx], minlength=n_syndromes)

    logp = schedule.log_prob_by_code()
    ll = np.full(n_syndromes, -np.inf)
    for s in np.flatnonzero(feasible):
        codes = _codes_of_index(int(winner[s]), code.n)
        total = logp[0][codes[0]]
        for q in range(1, code.n):
            total = total + logp[q][codes[q]]
        ll[s] = total
    return ll, winner, counts > 1, feasible


def initial_live_count(code: ConvolutionalCode, schedule: ChannelSchedule, bit: int) -> int:
    """Boundary-pair candidates consistent with the first syndrome bit and
    having positive probability."""
    pairs, _ = _segment_metrics(metric_table(schedule))
    return int(((_tables().start_bit == bit) & (pairs[0] > DEAD_METRIC)).sum())


def transition_live_count(
    code: ConvolutionalCode, schedule: ChannelSchedule, stage: int, bits
) -> int:
    """Number of (pair, triple, pair) windows at a transition that satisfy the
    four syndrome bits and have positive probability on all seven qubits.

    With an everywhere-positive channel this is 1024 = 16*64*16 / 2^4 for any
    bit pattern: the four constraints are independent and each halves the set.
    """
    if not 0 <= stage < code.blocks:
        raise ValueError(f"stage must be in 0..{code.blocks - 1}, got {stage}")
    bits = tuple(bits)
    if len(bits) != 4 or any(b not in (0, 1) for b in bits):
        raise ValueError("expected four 0/1 syndrome bits")
    nib = bits[0] | bits[1] << 1 | bits[2] << 2 | bits[3] << 3
    tab = _tables()
    pairs, triples = _segment_metrics(metric_table(schedule))
    # a window sum stays above the sentinel iff none of its seven terms is dead
    branches = (pairs[stage][:, None] + triples[stage]).ravel()
    window = branches[tab.branch[nib]] + pairs[stage + 1][:, None]
    return int((window > DEAD_METRIC).sum())


def survivor_merge_lag(
    code: ConvolutionalCode, schedule: ChannelSchedule, syn: Syndrome
) -> list[int]:
    """Diagnostic for online decoding: for each stage, how many steps back the
    tracebacks of all live survivors coincide.

    A lag of d at stage s means every survivor agrees about the error before
    the boundary pair of stage s-d; d == s means the survivors never fully
    merge.  This quantifies how far behind the stream an eager decoder would
    trail; the normative decoder always waits for the final boundary bit.
    """
    syndromes = _check_inputs(code, schedule, syn)
    tab = _tables()
    nibs = _nibbles(syndromes)
    preds, live = [], []
    for i, (choice, _, metrics) in enumerate(_forward(tab, metric_table(schedule), syndromes, nibs)):
        preds.append(tab.branch[nibs[0, i], _ROWS16, choice[0]] >> 6)
        live.append(np.flatnonzero(metrics[0] > DEAD_METRIC))

    lags = []
    for s in range(1, code.blocks + 1):
        states = {int(k) for k in live[s - 1]}
        cur = s
        while len(states) > 1 and cur > 0:
            states = {int(preds[cur - 1][k]) for k in states}
            cur -= 1
        lags.append(s - cur if len(states) == 1 else s)
    return lags
