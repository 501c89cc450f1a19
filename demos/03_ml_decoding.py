#!/usr/bin/env python3
"""Maximum-likelihood decoding on the trellis, checked against brute force.

Decodes every syndrome of the one-block code under an asymmetric,
position-dependent channel and compares with exhaustive enumeration; then
shows a degenerate tie, the survivor-merge lag, and the growth of decode
time with code length, up to N = 100000 blocks (500002 qubits).
"""

import time

import numpy as np

from convqec import (
    Syndrome,
    brute_force_ml,
    build_code,
    depolarizing,
    pauli_from_string,
    sample_error,
    schedule_from_probs,
    survivor_merge_lag,
    syndrome_of,
    viterbi_decode,
)
from convqec.channel import make_rng

code = build_code(1)
rng = np.random.default_rng(1)
probs = rng.random((7, 4)) ** 2 + 1e-4
probs /= probs.sum(axis=1, keepdims=True)
channel = schedule_from_probs(probs)  # every qubit has its own quadruple

worst = 0.0
agree = 0
for index in range(64):
    syn = Syndrome(tuple((index >> b) & 1 for b in range(6)))
    fast = viterbi_decode(code, channel, syn)
    slow = brute_force_ml(code, channel, syn)
    worst = max(worst, abs(fast.log_likelihood - slow.log_likelihood))
    agree += str(fast.error) == str(slow.error)
print(f"all 64 syndromes, time-varying channel: {agree}/64 identical answers, "
      f"max |delta LL| = {worst!r}")

# degenerate tie: X on qubit 1 and Z on qubit 2 share a syndrome and, under a
# depolarizing channel, a likelihood; the tie flag reports it
syn = syndrome_of(code, pauli_from_string("XIIIIII"))
result = viterbi_decode(code, depolarizing(7, 0.01), syn)
print(f"\nsyndrome {syn.as_string()}: decoded {result.error}, tie_broken={result.tie_broken}")
random_pick = viterbi_decode(code, depolarizing(7, 0.01), syn, tie_mode="random", rng=4)
print(f"same syndrome, random tie mode (seed 4): {random_pick.error}")

# survivors agree about all but the last few positions well before the end
big = build_code(40)
noisy = depolarizing(big.n, 0.03)
syn = syndrome_of(big, sample_error(noisy, make_rng(5)))
lags = survivor_merge_lag(big, noisy, syn)
print(f"\nsurvivor merge lag over 40 stages: max {max(lags)}, "
      f"mean {sum(lags) / len(lags):.2f}")

print("\ndecode wall time vs length (same channel strength):")
for blocks in (500, 1000, 2000, 4000, 16000, 100000):
    c = build_code(blocks)
    s = depolarizing(c.n, 0.02)
    syn = syndrome_of(c, sample_error(s, make_rng(9)))
    t0 = time.perf_counter()
    viterbi_decode(c, s, syn)
    print(f"  N={blocks:>6}: {1e3 * (time.perf_counter() - t0):7.1f} ms")
