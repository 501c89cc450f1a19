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
  * a middle triple is indexed t = c3 + 4*c4 + 16*c5;
  * a pair's survivor sits at position 4v + w, v its class and w its
    successor class; its tie rank 4*c2 + c1 lives in the tie tables only.

One kernel.  Every caller runs the same sweep (``_sweep``) and traceback
(``_traceback``) over a (B, 4N+2) syndrome matrix: :func:`decode_batch` with
B trials, :func:`viterbi_decode` with B = 1, and :func:`survivor_merge_lag`
reading the per-stage choices and metrics.  A stage is an add-compare-select
on the split syndrome described at :class:`_TrellisTables`: the best
survivor of each class, plus the best triple of the coset that leads from
that class to a successor class, is maximised over classes and broadcast to
the 16 new survivors with their pair metrics.  Each class holds exactly one
survivor per successor class, so the sequential recursion only needs the
best sum of each successor class, four numbers per trial, advanced by a
max-plus product x' = max(K, M x).  Such maps compose associatively, so for
small batches (one trial included) a chunk of up to 1024 stages runs as a
blocked scan in about 4 sqrt(n) numpy calls instead of two per stage
(``_scan``); larger batches step through the stages with each numpy call
covering every trial.  One vectorised pass per chunk
then rebuilds the survivor metrics and records which survivors and classes
attained their maxima, and a choice pass (``_choices``, or
``_random_choices`` for random ties) turns that into decision words, a
branch and its tie flag in one.  Both passes work class-major: the class
axes of length 4 come first and a chunk's (stage, trial) pairs last, so a
maximum, comparison or gather over classes is one numpy call on contiguous
slabs of n*B elements, not an inner loop of 4 elements per (stage, trial),
which is what bounded the batched Monte Carlo path.  A deterministic
:func:`decode_batch` sweeps each distinct syndrome row once and copies its
answer to the repeats, and its result computes log-likelihoods on first read.

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
negative sentinel, DEAD_METRIC = -2^59, and every stage clamps at that
floor.  A schedule sums each qubit's smallest live metric once, a floor
under every live path metric, and every sweep first checks that it is above
the sentinel, raising ValueError otherwise: depolarizing p = 0.02 passes up
to about 1e8 qubits, the worst per-qubit term, about -745 * 2^30, up to
about 7.2e5.

Tie-breaking (deterministic mode): among tied errors the decoder returns
the one whose code sequence is smallest when read from the LAST qubit
toward the first (code order I < Z < X < Y).  Comparing from the newest
qubit backwards means two tied candidates for the same survivor slot always
differ inside the current window, so every tie resolves in O(1) and the
linear running time survives channels with many exact ties (a depolarizing
channel ties every equal-weight pair).  Within a stage this means the
smallest triple first, then the smallest predecessor rank 4*c2 + c1: among
tied survivor classes the one whose coset's smallest best triple is
smallest wins, and within it the tied survivor of least rank.  The oracle
replicates the order for free: enumerating errors as base-4 integers with
qubit 1 in the least significant digit makes ascending index exactly this
order.  It builds the metrics and syndromes of all 4^n errors one qubit at
a time, as outer sums and outer XORs of per-qubit rows.
``tie_mode="random"`` (``decode_batch`` with one seed or Generator per trial)
instead picks uniformly among tied candidates from caller-supplied seeds,
matching the behavior the construction allows while keeping runs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt

import numpy as np

# the metric constants live with the schedule's metric table; both stay importable from here
from .channel import DEAD_METRIC, METRIC_SCALE_BITS, ChannelSchedule, log_likelihoods, make_rng, metric_table
from .code import ConvolutionalCode, Syndrome, build_code
from .pauli import Pauli, commutation_bits, pauli_from_codes

MAX_BRUTE_FORCE_QUBITS = 12

_ROWS16 = np.arange(16)


class InfeasibleSyndromeError(ValueError):
    """No error with positive probability matches the requested syndrome."""


@dataclass(frozen=True)
class _TrellisTables:
    """Stage-invariant transition structure, shared by every decode.

    The block syndrome is linear in the window's codes and splits as
    sig_pred(c1,c2) ^ sig_mid(c3,c4,c5) ^ sig_succ(c6,c7), with sig_pred in
    bits 0-1 and sig_succ in bits 2-3.  So the states fall into 4 classes
    v = sig_pred and 4 successor classes w = sig_succ >> 2, the triples into
    16 cosets of sig_mid, 4 each, and under nibble s class v reaches class w
    through the triples of coset s ^ 4w ^ v.  Each class holds one state of
    each successor class, its survivor at position 4v + w; the tie rank
    4*c2 + c1 lives only in survivor_pick and slot_branch.  A decision word
    is the branch 64 * (predecessor position) + triple, plus _TIE if tied.
    """

    order: np.ndarray          # (16,) uint8 state at each position
    members: np.ndarray        # (16, 4) uint8 triples of each coset, ascending
    survivor_pick: np.ndarray  # (64,) uint16 per 16v + flags w: least-rank flagged 4v + w, +16 if several
    slot_branch: np.ndarray    # (16, 16, 64) uint16 per (nibble, successor state): tie order
    state_class: np.ndarray    # (16, 1) 16 + 4w of each state, w its successor class
    start_bit: np.ndarray      # (16,) syndrome bit of the opening boundary generator
    end_bit: np.ndarray        # (16,) same for the closing boundary generator
    end_order: np.ndarray      # (16,) positions sorted by the tie-break key


@lru_cache(maxsize=1)
def _tables() -> _TrellisTables:
    bits = _single_qubit_syndromes(build_code(1))  # the 7-qubit window of one block
    flip = (bits[:, :, 1:5] << np.arange(4)).sum(axis=2).T  # nibble of code a at position p
    first, second, t = _ROWS16 >> 2, _ROWS16 & 3, np.arange(64)
    sig_pred = flip[first, 0] ^ flip[second, 1]
    sig_mid = flip[t & 3, 2] ^ flip[(t >> 2) & 3, 3] ^ flip[t >> 4, 4]
    sig_succ = flip[first, 5] ^ flip[second, 6]
    position = 4 * sig_pred + (sig_succ >> 2)  # one state per (class, successor class) pair
    if (sig_succ & 3).any() or {*np.bincount(sig_mid)} != {4} or (np.bincount(position) != 1).any():
        raise AssertionError("block syndrome does not split into predecessor, middle and successor parts")

    order = np.argsort(position)
    rank = (4 * second + first)[order].reshape(4, 4)  # [v, w]
    flagged = _ROWS16[:, None] >> np.arange(4) & 1    # [flags, w]
    pick = 4 * np.arange(4)[:, None] + (rank[:, None] - 16 * flagged).argmin(axis=2)
    # random-mode slots: each admissible triple ascending, then its class's 4 survivors by rank
    need = sig_mid ^ (_ROWS16[:, None, None] ^ sig_succ[:, None])  # class each triple needs
    triples = np.nonzero(need < 4)[2].reshape(16, 16, 16)
    classes = np.take_along_axis(need, triples, axis=2)
    preds = 4 * classes[..., None] + np.argsort(rank, axis=1)[classes]
    start_bit = bits[0, first, 0] ^ bits[1, second, 0]  # XZ on qubits 1, 2
    end_bit = bits[5, first, 5] ^ bits[6, second, 5]    # ZX on qubits n-1, n
    return _TrellisTables(
        order=order.astype(np.uint8),
        members=np.argsort(sig_mid, kind="stable").reshape(16, 4).astype(np.uint8),
        survivor_pick=(pick + 16 * (flagged.sum(axis=1) > 1)).ravel().astype(np.uint16),
        slot_branch=(64 * preds + triples[..., None]).reshape(16, 16, 64).astype(np.uint16),
        state_class=16 + sig_succ[:, None],
        start_bit=start_bit[order],
        end_bit=end_bit[order],
        end_order=np.argsort(rank, axis=None),
    )


def _segment_metrics(mt: np.ndarray):
    """Unclamped metric sums of every boundary pair and middle triple.

    Returns (N+1, 16) pair metrics, row i for qubits 5i+1..5i+2, and (N, 64)
    triple metrics, row i for qubits 5i+3..5i+5, indexed by state and triple.
    """
    pairs = (mt[0::5, :, None] + mt[1::5, None, :]).reshape(-1, 16)
    triples = (mt[4::5, :, None, None] + mt[3::5, None, :, None] + mt[2::5, None, None, :])
    return pairs, triples.reshape(-1, 64)


@dataclass(frozen=True)
class _Segments:
    """Metric tables of a run of stages, for one channel."""

    pairs: np.ndarray  # (n+1, 4, 4) pair metrics at positions, P [v, w]
    best: np.ndarray   # (n, 16) best triple metric of each coset
    key: np.ndarray    # (n, 16) uint16 (smallest best triple) << 6 | (several best triples) << 5
    hit: np.ndarray    # (n, 64) whether each triple attains its coset's best


def _segments(tab: _TrellisTables, mt: np.ndarray) -> _Segments:
    pairs, triples = _segment_metrics(mt)
    by_coset = triples[:, tab.members]
    best = by_coset.max(axis=2)
    hit = by_coset == best[:, :, None]
    first = tab.members.ravel()[4 * _ROWS16 + hit.argmax(axis=2)]
    triple_hit = np.empty((len(best), 64), dtype=bool)
    triple_hit[:, tab.members.ravel()] = hit.reshape(-1, 64)
    key = first.astype(np.uint16) << 6 | (hit.sum(axis=2) > 1).astype(np.uint16) << 5
    return _Segments(pairs[:, tab.order].reshape(-1, 4, 4), best, key, triple_hit)


def _nibbles(syndromes: np.ndarray) -> np.ndarray:
    """(N, B) uint8: each stage's four syndrome bits packed little-endian,
    stage-major, so that a run of stages is one contiguous run of (stage, trial)."""
    bits = syndromes.T
    nibs = bits[1:-1:4] | bits[2:-1:4] << 1
    nibs |= bits[3:-1:4] << 2
    nibs |= bits[4::4] << 3
    return nibs


_CLASS_BITS = np.arange(0, 64, 16, dtype=np.uint8)[:, None]
_FLAG_SHIFTS = np.arange(4, dtype=np.uint8)[:, None]  # survivor flag w in bit w
_TIE = np.uint16(1 << 10)  # tie flag of a decision word, the bit above its 10-bit branch


def _choices(tab: _TrellisTables, flags: np.ndarray, keys: np.ndarray, words: np.ndarray) -> None:
    """Deterministic decision word of each successor class, written into
    ``words`` (4, n, B), from a chunk's class-major survivor and class flags
    (2, 4, 4, n*B) and coset keys (4, 4, n*B) [w, v, j].

    Among tied classes the winner is the one whose coset's smallest best
    triple is smallest; within it, the tied survivor of least rank.  A
    successor's word carries _TIE unless one class, one survivor and one
    triple attain its best.  Cosets are disjoint, so a key's triple alone
    decides the least key, and the winning class's survivor bits ride along
    below it.
    """
    survivors, classes = flags.view(np.uint8)  # [v, w, j] and [w, v, j]
    mask = np.bitwise_or.reduce(survivors << _FLAG_SHIFTS, axis=1)  # [v, j]
    keys |= tab.survivor_pick.take(mask | _CLASS_BITS)
    np.copyto(keys, np.uint16(0xFFFF), where=~flags[1])
    least = np.minimum.reduce(keys, axis=1).reshape(words.shape)
    several = np.add.reduce(classes, axis=1, dtype=np.uint8).reshape(words.shape) > 1
    several |= (least & 48) > 0  # several survivors or several triples
    np.bitwise_or((least & 15) << 6, least >> 6, out=words)
    words |= several * _TIE  # a masked OR (where=several) ran over 2x slower on this strided view


def _random_choices(tab: _TrellisTables, seg: _Segments, nibs: np.ndarray, flags: np.ndarray, rngs):
    """Random-mode decision word (n, B, 16) of each successor position: its
    state's best slot with the largest of its trial's ``random((n, 16, 64))``
    draw from ``rngs``, whose axes are stages, states and slots in tie order,
    plus _TIE if several slots are best.  ``flags`` holds flag X of (stage,
    trial) j at [X, j]: survivor position 4v + w at X = 4v + w, class v of
    successor class w at X = 16 + 4w + v.

    A state's 64 slots are exactly its (class, survivor, triple) combinations,
    so several best slots is the rule of :func:`_choices`: tied unless one
    class, one survivor and one triple attain the best.
    """
    n, B = nibs.shape
    branch, flat = tab.slot_branch[nibs], flags.reshape(32, -1).T.ravel()  # branch: (n, B, 16, 64)
    at = 32 * np.arange(n * B).reshape(n, B, 1, 1)
    index = np.add(branch >> 6, at, dtype=np.intp)  # one index buffer, rebuilt in place per take
    best = flat.take(index)
    np.add(branch >> 8, at + tab.state_class, out=index)
    best &= flat.take(index)
    np.add(branch & 63, 64 * np.arange(n).reshape(n, 1, 1, 1), out=index)
    best &= seg.hit.ravel().take(index)
    del index  # freed before the draws allocate
    pick = np.where(best, np.stack([g.random((n, 16, 64)) for g in rngs], axis=1), -1.0).argmax(axis=3)
    words = np.take_along_axis(branch, pick[..., None], axis=3)[..., 0]
    words |= (best.sum(axis=3, dtype=np.uint8) > 1) * _TIE  # at most 64 best slots
    return words[..., tab.order]


# (stage, trial) pairs per chunk of _sweep; _RANDOM_CHUNK when each pair carries 1024 random
# draws (~50 KB of temporaries), which is also how many trials decode_batch decodes at once
_CHUNK = 1 << 12
_RANDOM_CHUNK = _CHUNK // 64
# stages per chunk at most, reached by 1 to 4 deterministic trials: _scan's ~4 sqrt(n) numpy calls
# per chunk then cost a bounded amount per stage, so decode time stays linear in N (with chunks of
# 4096 stages time(2000)/time(1000) read 1.6-1.7), and one trial at N = 2000 ran no slower
_CHUNK_STAGES = 1 << 10
# trials up to which _sweep runs a chunk's stage recursion as the blocked scan of _scan: it beat
# the per-stage slab loop at every N from 30 to 2000 up to 12 trials and broke even near 16
_TABLE_TRIALS = 12


def _scan(cosets: np.ndarray, pairs: np.ndarray, x: np.ndarray) -> None:
    """x[:, i] = max(K_i, M_i x[:, i-1]) for i = 1..n-1, written into ``x``
    (4, n, B) whose column 0 is given, by a blocked max-plus scan.  The maps
    come from the coset maxima ``cosets`` C (4, 4, n, B) [w, v, i, b] and the
    pair metrics ``pairs`` P (n+1, 4, 4) [i, v, w] as in :func:`_sweep`:
    M_i [w, w'] = max_v C_i[w, v] + P_i[v, w'] and K_i = max_v C_i + DEAD.

    With a constant 0 appended to x, a stage is the max-plus product with
    the 5x5 matrix A = [M K; 0 0], and such products compose associatively
    (Fettweis and Meyr 1989).  The n-1 maps are cut into S segments of
    L = ceil(sqrt(n-1)) stages, the last one padded.  Then, in about 2L + 2S
    numpy calls instead of 2n:
      * segment prefixes: L-1 steps build the prefix products of every
        segment at once, prefix_l = A_l prefix_{l-1} across segments and
        trials;
      * boundary pass: one sequential pass over the S segment boundaries
        applies each segment's whole product to the x entering it;
      * apply pass: one vectorised pass applies every prefix to the x
        entering its segment.

    Exactness.  Every entry and every x is at most 0, so the zero row keeps
    the appended coordinate at max(0, x) = 0, and each product gives x bit
    for bit, dead classes included, with no clamp: the integer sums are
    exact unless they leave int64, and they cannot.  M >= -5 * 2^59 (a
    triple and a pair of dead letters) and K >= -4 * 2^59; a prefix entry
    is at least the K of its last stage (through the 0 coordinate) or, at
    its first stage, an entry of M, so every sum stays at or above
    -10 * 2^59.  The padded stages hold 0 and only feed prefixes that are
    never read.

    Layout: maps[c, r, l, s, b] holds entry [r, c] of the map of stage
    1 + s*L + l, overwritten by its segment's prefix product up to it.  A
    product reduces over the leading axis, and a step's (segment, trial)
    pairs are contiguous, which ran about 1.7x faster than stage order at
    B = 2.
    """
    _, _, n, B = cosets.shape
    m = n - 1
    if m < 1:
        return
    L = isqrt(m - 1) + 1
    S = -(-m // L)
    # M^T [w', w] and K [w] of each stage in stage order, then the padding
    flat = np.empty((5, 4, S * L, B), dtype=np.int64)
    stages, term = flat[:4, :, :m], np.empty((4, 4, m, B), dtype=np.int64)
    for v in range(4):
        np.add(cosets[:, v, 1:], pairs[1:n, v].T[:, None, :, None], out=term if v else stages)
        if v:
            np.maximum(stages, term, out=stages)
    del term
    np.maximum.reduce(cosets[:, :, 1:], axis=1, out=flat[4, :, :m])
    flat[4, :, :m] += DEAD_METRIC
    flat[:, :, m:] = 0
    # maps[c, r, l, s, b] with (s, b) contiguous, and the zero row r = 4
    maps = np.zeros((5, 5, L, S, B), dtype=np.int64)
    maps[:, :4] = flat.reshape(5, 4, S, L, B).swapaxes(2, 3)
    del flat
    for l in range(1, L):
        # prefix_l [r, c] = max_k A_l[r, k] + prefix_{l-1}[k, c]
        sums = maps[:, :4, None, l] + maps[:, :, l - 1].swapaxes(0, 1)[:, None]
        np.maximum.reduce(sums, axis=0, out=maps[:, :4, l].swapaxes(0, 1))
    entry = np.zeros((5, S, B), dtype=np.int64)  # x entering each segment, then its 0
    entry[:4, 0] = x[:, 0]
    ends = maps[:, :4, L - 1]
    step = np.empty((5, 4, B), dtype=np.int64)
    for s in range(S - 1):
        np.add(ends[:, :, s], entry[:, s, None], out=step)
        np.maximum.reduce(step, axis=0, out=entry[:4, s + 1])
    np.add(maps[:, :4], entry[:, None, None], out=maps[:, :4])
    x[:, 1:] = np.maximum.reduce(maps[:, :4], axis=0).swapaxes(1, 2).reshape(4, S * L, B)[:, :m]


def _sweep(tab: _TrellisTables, mt: np.ndarray, syndromes: np.ndarray, rngs=None, live=None):
    """Forward and choice passes over a (B, 4N+2) 0/1 syndrome matrix.

    Returns the final (B, 16) survivor metrics at positions and the decision
    words back (N, 4, B) of each successor class.  The stages run a chunk of
    _CHUNK (stage, trial) pairs, at most _CHUNK_STAGES stages, at a time
    (_RANDOM_CHUNK pairs with ``rngs``), so temporaries stay bounded
    whatever N and B.

    The layout is class-major (see the module docstring): the axes of
    length 4 lead and a chunk's (stage, trial) pairs j = i*B + b trail.  The
    work buffers are allocated once per sweep and viewed per chunk, which
    keeps the transient peak below that of per-chunk temporaries.

    The sequential loop carries only x [w, i, b], the best sum of each
    successor class after a stage.  Position 4v + w enters the next stage
    with x[w] + P[v, w], P the pair metrics at positions, so the class
    maxima there are group[v] = max(DEAD, max_w P[v, w] + x[w]).  With C
    the coset maxima [w, v] of that stage's nibble, x' = max_v C[w, v] +
    group[v] is the max-plus x' = max(K, M x), M = C P and K = max_v C +
    DEAD, exactly: no term falls below -9 * 2^59, so int64 holds every sum.
    Up to _TABLE_TRIALS trials :func:`_scan` runs a chunk's recursion as a
    blocked max-plus scan in about 4 sqrt(n) numpy calls; larger batches
    step through P and C one stage at a time with maxima over (4, 4, B)
    slabs, which beats building a 5x5 map per (stage, trial).
    After the recursion one vectorised pass per chunk rebuilds the entering
    metrics [v, w, i, b] and the flags (2, 4, 4, n*B), which survivors
    attain their class maximum and which classes v attain the best sum of
    each successor class w, that the choice pass reads.  With ``rngs``,
    Generators, back is (N, 16, B) by successor position, the decision
    words of :func:`_random_choices`.
    ``live``, a list, receives the live positions per stage (B = 1).
    """
    nibs = _nibbles(syndromes)
    N, B = nibs.shape
    back = np.empty((N, 4 if rngs is None else 16, B), dtype=np.uint16)
    step = max(1, min(_CHUNK_STAGES, (_CHUNK if rngs is None else _RANDOM_CHUNK) // max(B, 1)))
    size = min(step, N) * B
    # row 0 holds the survivor metrics entering the chunk, row n those leaving it
    entering_buf = np.empty((4, 4, min(step, N) + 1, B), dtype=np.int64)
    start = np.maximum((mt[0, :, None] + mt[1]).ravel()[tab.order], DEAD_METRIC)
    entering_buf[:, :, 0] = np.where(tab.start_bit[:, None] == syndromes[:, 0], start[:, None],
                                     DEAD_METRIC).reshape(4, 4, B)
    cosets_buf, keys_buf = np.empty(16 * size, dtype=np.int64), np.empty(16 * size, dtype=np.uint16)
    x_buf, group_buf = np.empty(4 * size, dtype=np.int64), np.empty(4 * size, dtype=np.int64)
    flags_buf = np.empty(32 * size, dtype=bool)
    for lo in range(0, N, step):
        seg = _segments(tab, mt[5 * lo:5 * (lo + step) + 2])
        n = len(seg.best)
        entering = entering_buf[:, :, :n + 1]
        # coset maxima and keys [w, v, j] of coset nibble ^ (4w + v), by flat takes
        # at 16 i + nibble ^ k, k = 4w + v; the indices are in range, and
        # mode="clip" writes straight into out
        at = (nibs[lo:lo + n] + 16 * np.arange(n)[:, None]).reshape(1, -1) ^ _ROWS16[:, None]
        cosets = seg.best.take(at, out=cosets_buf[:at.size].reshape(at.shape), mode="clip")
        keys = seg.key.take(at, out=keys_buf[:at.size].reshape(at.shape), mode="clip")
        cosets, keys = cosets.reshape(4, 4, n, B), keys.reshape(4, 4, -1)
        del at  # 16 n B indices, freed before the flag pass allocates
        x, group = x_buf[:4 * n * B].reshape(4, n, B), group_buf[:4 * n * B].reshape(4, n, B)
        np.maximum.reduce(entering[:, :, 0], axis=1, out=group[:, 0])
        cosets[:, :, 0] += group[:, 0]
        np.maximum.reduce(cosets[:, :, 0], axis=1, out=x[:, 0])
        if B <= _TABLE_TRIALS:
            _scan(cosets, seg.pairs, x)
        elif n > 1:
            sums, to_class = np.empty((4, 4, B), dtype=np.int64), np.empty((4, B), dtype=np.int64)
            for i in range(1, n):
                np.add(seg.pairs[i][:, :, None], x[:, i - 1], out=sums)  # [v, w, b]
                np.maximum.reduce(sums, axis=1, out=to_class)
                np.maximum(to_class, DEAD_METRIC, out=to_class)
                np.add(cosets[:, :, i], to_class, out=sums)  # [w, v, b]
                np.maximum.reduce(sums, axis=1, out=x[:, i])
        np.add(x, seg.pairs[1:].transpose(1, 2, 0)[..., None], out=entering[:, :, 1:])
        np.maximum(entering[:, :, 1:], DEAD_METRIC, out=entering[:, :, 1:])
        if live is not None:
            live.extend(np.flatnonzero(row > DEAD_METRIC) for row in entering[:, :, 1:, 0].reshape(16, n).T)
        np.maximum.reduce(entering[:, :, 1:n], axis=1, out=group[:, 1:])
        flags = flags_buf[:32 * n * B].reshape(2, 4, 4, -1)
        np.equal(entering[:, :, :n], group[:, None], out=flags[0].reshape(4, 4, n, B))
        cosets[:, :, 1:] += group[:, 1:]
        np.equal(cosets, x[:, None], out=flags[1].reshape(4, 4, n, B))
        if rngs is None:
            _choices(tab, flags, keys, back[lo:lo + n].swapaxes(0, 1))
        else:
            back[lo:lo + n] = _random_choices(tab, seg, nibs[lo:lo + n], flags, rngs).swapaxes(1, 2)
        entering[:, :, 0] = entering[:, :, n]
    return entering_buf[:, :, 0].reshape(16, B).T.copy(), back


def _traceback(tab: _TrellisTables, back, k):
    """Codes (B, n) of the survivors at positions ``k``, and whether any stage
    on their paths was tied.  Position r took decision word back[i, r % width]
    at stage i: its predecessor position is (word >> 6) & 15 and its tie
    flag _TIE.  The pointer chase is sequential: one trial chases Python
    ints, which costs less than one numpy call per stage; a batch chases all
    its trials per stage.  The codes are then filled from the words at once."""
    N, width, B = back.shape
    rows = np.arange(B)
    codes = np.empty((B, 5 * N + 2), dtype=np.uint8)
    steps = np.empty((N, B), dtype=np.uint16)
    positions = np.empty((N + 1, B), dtype=np.uint8)
    positions[N] = k
    if B == 1:
        flat = back.ravel().tolist()
        chain, at = [], int(k[0])
        for base in range(width * (N - 1), -1, -width):
            chain.append(flat[base + at % width])
            at = chain[-1] >> 6 & 15
        steps[:, 0] = chain[::-1]
    else:
        for i in reversed(range(N)):
            steps[i] = back[i, k % width, rows]
            k = (steps[i] >> 6) & 15
    positions[:N] = (steps >> 6) & 15
    states = tab.order[positions]
    codes[:, 0::5] = (states >> 2).T
    codes[:, 1::5] = (states & 3).T
    codes[:, 2::5] = (steps & 3).T
    codes[:, 3::5] = ((steps >> 2) & 3).T
    codes[:, 4::5] = ((steps >> 4) & 3).T
    return codes, (steps >= _TIE).any(axis=0)


def _distinct_rows(syndromes: np.ndarray):
    """(first, inverse) of a (B, m) 0/1 matrix: the first row of each distinct
    row, and the index of each row among them.  Eight stage-major rows of the
    transpose are OR-ed into bytes (np.packbits on the F-ordered matrix that
    commutation_bits returns ran 2-7x slower), and np.unique compares each
    trial's bytes as one opaque value.  The keys die on return, before any
    sweep allocates: alive, they would add half a byte per block-trial."""
    bits, shifts = syndromes.T, np.arange(8, dtype=np.uint8)[:, None]
    whole, B = len(bits) // 8, bits.shape[1]
    packed = np.zeros((-(-len(bits) // 8), B), dtype=np.uint8)
    np.bitwise_or.reduce(bits[:8 * whole].reshape(whole, 8, B) << shifts, axis=1, out=packed[:whole])
    packed[whole:] = np.bitwise_or.reduce(bits[8 * whole:] << shifts[:len(bits) % 8], axis=0)
    keys = np.ascontiguousarray(packed.T).view(f"V{len(packed)}").ravel()
    return np.unique(keys, return_index=True, return_inverse=True)[1:]


def _decode_distinct(tab: _TrellisTables, mt: np.ndarray, syndromes: np.ndarray):
    """Deterministic :func:`_decode` that decodes each distinct row once.

    A row decodes to the same answer alone or in any batch, so the distinct
    rows are decoded and their results scattered back; when every row is
    distinct, ``syndromes`` is decoded as it is, with no copy.
    """
    if len(syndromes) > 1:
        first, inverse = _distinct_rows(syndromes)
        if len(first) < len(syndromes):
            return tuple(part[inverse] for part in _decode(tab, mt, syndromes[first]))
    return _decode(tab, mt, syndromes)


def _decode(tab: _TrellisTables, mt: np.ndarray, syndromes: np.ndarray, rngs=None):
    """Forward pass, final boundary and traceback for a (B, 4N+2) 0/1 matrix.

    Returns (codes, tie_broken, feasible); rows that are not feasible carry
    arbitrary codes.
    """
    metrics, back = _sweep(tab, mt, syndromes, rngs)
    final = np.where(tab.end_bit == syndromes[:, -1:], metrics, DEAD_METRIC)
    best = final.max(axis=1)
    ordered = final[:, tab.end_order]
    if rngs is None:
        k = tab.end_order[ordered.argmax(axis=1)]
    else:
        k = np.array([g.choice(tab.end_order[row == row.max()]) for g, row in zip(rngs, ordered)])
    codes, path_tie = _traceback(tab, back, k)
    return codes, path_tie | ((final == best[:, None]).sum(axis=1) > 1), best > DEAD_METRIC


@dataclass(frozen=True)
class DecodeResult:
    error: Pauli
    log_likelihood: float
    tie_broken: bool


def _check_schedule(code: ConvolutionalCode, schedule: ChannelSchedule) -> None:
    if schedule.n != code.n:
        raise ValueError(f"schedule covers {schedule.n} qubits, code has {code.n}")


def _check_metric_range(schedule: ChannelSchedule) -> None:
    """ValueError unless the sum over qubits of each qubit's smallest live
    metric, a floor under every live path metric, is above DEAD_METRIC."""
    if schedule._metric_floor <= int(DEAD_METRIC):  # as Python ints: the sum can lie below int64
        raise ValueError(f"live path metrics on {schedule.n} qubits can reach the dead-branch floor "
                         f"{int(DEAD_METRIC)}: each qubit's smallest live metric sums to {schedule._metric_floor}")


def _check_bits(syndromes: np.ndarray) -> np.ndarray:
    """The uint8 0/1 matrix ``syndromes``; ValueError if any entry is not 0 or 1."""
    if ((syndromes != 0) & (syndromes != 1)).any():
        raise ValueError("syndrome bits must be 0 or 1")
    return syndromes.astype(np.uint8, copy=False)


def _check_inputs(code: ConvolutionalCode, schedule: ChannelSchedule, syn: Syndrome):
    _check_schedule(code, schedule)
    expected = 4 * code.blocks + 2
    if len(syn.bits) != expected:
        raise ValueError(f"syndrome has {len(syn.bits)} bits, expected {expected} bits")
    try:  # bytes() converts ints in 0..255 without a Python loop over the bits
        bits = np.frombuffer(bytes(syn.bits), dtype=np.uint8)
    except (TypeError, ValueError):
        bits = np.array(syn.bits, dtype=object)
    return _check_bits(bits[None])


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
    if tie_mode == "random" and rng is None:
        raise ValueError("tie_mode='random' requires an explicit rng or seed")

    result = decode_batch(code, schedule, syndromes, [rng] if tie_mode == "random" else None)
    if not result.feasible[0]:
        raise InfeasibleSyndromeError("no positive-probability error matches this syndrome")
    return DecodeResult(pauli_from_codes(result.codes[0]), float(result.log_likelihood[0]),
                        bool(result.tie_broken[0]))


@dataclass(frozen=True)
class BatchDecodeResult:
    codes: np.ndarray          # (trials, n) per-qubit codes; zero where infeasible
    tie_broken: np.ndarray     # (trials,) bool
    feasible: np.ndarray       # (trials,) bool
    schedule: ChannelSchedule  # the channel decoded under

    @cached_property
    def log_likelihood(self) -> np.ndarray:
        """(trials,) log-likelihood of each decoded error, -inf where infeasible,
        computed on first read: the Monte Carlo path reads only codes and flags."""
        return np.where(self.feasible, log_likelihoods(self.schedule, self.codes), -np.inf)


def decode_batch(
    code: ConvolutionalCode, schedule: ChannelSchedule, syndromes: np.ndarray, rngs=None
) -> BatchDecodeResult:
    """Vectorized decoding of many syndromes at once.

    ``syndromes`` is a (trials, 4N+2) 0/1 matrix.  The per-trial results are
    identical to :func:`viterbi_decode`; trials are independent, so chunking
    a workload differently cannot change any answer.  Without ``rngs`` each
    distinct row is decoded once and its answer copied to the rows that repeat
    it.  ``log_likelihood`` is computed on its first read, not here.

    With ``rngs``, one seed or Generator per trial (anything
    :func:`~convqec.channel.make_rng` accepts), ties are broken uniformly at
    random instead, each trial drawing from its own generator only: its stage
    draws in stage order, then its final choice, as :func:`viterbi_decode` does.
    Generators are made from the seeds one slice of trials at a time.
    """
    syndromes = np.asarray(syndromes)
    if syndromes.ndim != 2 or syndromes.shape[1] != 4 * code.blocks + 2:
        raise ValueError(f"syndromes must have shape (trials, {4 * code.blocks + 2})")
    _check_schedule(code, schedule)
    _check_metric_range(schedule)
    syndromes = _check_bits(syndromes)
    if rngs is not None and len(rngs) != len(syndromes):
        raise ValueError(f"rngs holds {len(rngs)} generators for {len(syndromes)} trials")

    tab, mt = _tables(), metric_table(schedule)
    if rngs is None or not len(syndromes):  # no trials, nothing to draw
        codes, tie_broken, feasible = _decode_distinct(tab, mt, syndromes)
    else:
        slices = (slice(lo, lo + _RANDOM_CHUNK) for lo in range(0, len(syndromes), _RANDOM_CHUNK))
        decoded = [_decode(tab, mt, syndromes[at], [make_rng(r) for r in rngs[at]]) for at in slices]
        codes, tie_broken, feasible = (np.concatenate(parts) for parts in zip(*decoded))
    codes[~feasible] = 0
    tie_broken &= feasible
    return BatchDecodeResult(codes, tie_broken, feasible, schedule)


def _enumerate_errors(code: ConvolutionalCode, schedule: ChannelSchedule):
    """Quantized log-likelihood and syndrome index of every n-qubit Pauli.

    Error index e encodes qubit q in base-4 digit q-1, so ascending index is
    exactly the decoder's tie-break order.  Each new qubit is the most
    significant digit so far; metrics are clamped at every step, as in a stage.
    """
    n = code.n
    if n > MAX_BRUTE_FORCE_QUBITS:
        raise ValueError(
            f"brute force enumerates 4^n errors and is capped at n <= {MAX_BRUTE_FORCE_QUBITS}; "
            f"this code has n = {n}"
        )
    _check_schedule(code, schedule)
    mt = metric_table(schedule)
    masks = syndrome_index(_single_qubit_syndromes(code)).astype(np.int32)
    metric, syn_idx = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int32)
    for q in range(n):
        total = mt[q][:, None] + metric
        metric = np.maximum(total, DEAD_METRIC, out=total).ravel()
        syn_idx = (masks[q][:, None] ^ syn_idx).ravel()
    return metric, syn_idx


def _single_qubit_syndromes(code: ConvolutionalCode) -> np.ndarray:
    """(n, 4, 4N+2) syndrome bits of code a on qubit q alone, at [q, a]."""
    singles = np.kron(np.eye(code.n, dtype=np.uint8), np.arange(4, dtype=np.uint8)[:, None])
    return commutation_bits(singles, code.generator_table).reshape(code.n, 4, -1)


def codes_of_index(index, n: int) -> np.ndarray:
    """(..., n) uint8 codes of oracle error indices, qubit q in base-4 digit q-1."""
    return ((np.asarray(index)[..., None] >> (2 * np.arange(n))) & 3).astype(np.uint8)


def syndrome_index(syndromes: np.ndarray) -> np.ndarray:
    """Oracle syndrome integers of (..., m) 0/1 syndrome bits: bit k is generator k's."""
    return syndromes @ (1 << np.arange(syndromes.shape[-1]))


def brute_force_ml(code: ConvolutionalCode, schedule: ChannelSchedule, syn: Syndrome) -> DecodeResult:
    """Exhaustive maximum-likelihood decode; the oracle viterbi is tested against.

    Shares the quantized metric and the deterministic tie-break with the
    trellis decoder, but knows nothing of its stage structure.  Looks the
    syndrome up in :func:`brute_force_table`.
    """
    syndromes = _check_inputs(code, schedule, syn)
    ll, winner, tie, feasible = brute_force_table(code, schedule)
    s = int(syndrome_index(syndromes[0]))
    if not feasible[s]:
        raise InfeasibleSyndromeError("no positive-probability error matches this syndrome")
    error = pauli_from_codes(codes_of_index(winner[s], code.n))
    return DecodeResult(error, float(ll[s]), bool(tie[s]))


def brute_force_table(code: ConvolutionalCode, schedule: ChannelSchedule):
    """Per-syndrome ML answers for every syndrome at once.

    Returns (log_likelihood, winner_index, tie, feasible) arrays indexed by
    syndrome integer; winner_index is -1 (and log_likelihood -inf) where no
    positive-probability error exists.
    """
    metric, syn_idx = _enumerate_errors(code, schedule)
    n_syndromes = 1 << code.generator_table.qubits.shape[1]
    best = np.full(n_syndromes, DEAD_METRIC, dtype=np.int64)
    np.maximum.at(best, syn_idx, metric)
    feasible = best > DEAD_METRIC
    idx = np.flatnonzero((metric == best[syn_idx]) & (metric > DEAD_METRIC))
    winner = np.full(n_syndromes, -1, dtype=np.int64)
    uniq, first = np.unique(syn_idx[idx], return_index=True)
    winner[uniq] = idx[first]
    counts = np.bincount(syn_idx[idx], minlength=n_syndromes)
    ll = np.full(n_syndromes, -np.inf)
    ll[feasible] = log_likelihoods(schedule, codes_of_index(winner[feasible], code.n))
    return ll, winner, counts > 1, feasible


def initial_live_count(code: ConvolutionalCode, schedule: ChannelSchedule, bit: int) -> int:
    """Boundary-pair candidates consistent with the first syndrome bit and
    having positive probability."""
    _check_schedule(code, schedule)
    if bit not in (0, 1):
        raise ValueError(f"syndrome bit must be 0 or 1, got {bit!r}")
    tab = _tables()
    pairs, _ = _segment_metrics(metric_table(schedule)[:2])
    return int(((tab.start_bit == bit) & (pairs[0, tab.order] > DEAD_METRIC)).sum())


def transition_live_count(
    code: ConvolutionalCode, schedule: ChannelSchedule, stage: int, bits
) -> int:
    """Number of (pair, triple, pair) windows at a transition that satisfy the
    four syndrome bits and have positive probability on all seven qubits.

    With an everywhere-positive channel this is 1024 = 16*64*16 / 2^4 for any
    bit pattern: the four constraints are independent and each halves the set.
    """
    _check_schedule(code, schedule)
    if isinstance(stage, bool) or not isinstance(stage, (int, np.integer)) or not 0 <= stage < code.blocks:
        raise ValueError(f"stage must be in 0..{code.blocks - 1}, got {stage}")
    bits = tuple(bits)
    if len(bits) != 4 or any(b not in (0, 1) for b in bits):
        raise ValueError("expected four 0/1 syndrome bits")
    nib = sum(int(b) << k for k, b in enumerate(bits))  # int(): 1.0 is a 0/1 value, as in _check_bits
    tab = _tables()
    pairs, triples = _segment_metrics(metric_table(schedule)[5 * stage:5 * stage + 7])  # the stage's window
    # a window is live iff its predecessor pair [v, w], triple and successor pair are
    live = (pairs[:, tab.order] > DEAD_METRIC).reshape(2, 4, 4)
    cosets = (triples[0, tab.members] > DEAD_METRIC).sum(axis=1)
    # class v meets successor class w through coset nib ^ (4w + v)
    return int(live[1].sum(axis=0) @ cosets[(nib ^ _ROWS16).reshape(4, 4)] @ live[0].sum(axis=1))


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
    _check_metric_range(schedule)
    tab, live = _tables(), []
    _, back = _sweep(tab, metric_table(schedule), syndromes, live=live)
    preds = (np.tile(back[:, :, 0], 4) >> 6) & 15  # [stage, position], position 4v + w

    lags = []
    for s in range(1, code.blocks + 1):
        states, cur = {int(k) for k in live[s - 1]}, s
        while len(states) > 1 and cur > 0:
            states = {int(preds[cur - 1][k]) for k in states}
            cur -= 1
        lags.append(s - cur if len(states) == 1 else s)
    return lags
