"""Rate-1/5 quantum convolutional code: construction, verification, and
linear-time maximum-likelihood error estimation over memoryless Pauli
channels."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .channel import (
    ChannelSchedule,
    channel_from_config,
    channel_to_config,
    depolarizing,
    log_likelihood,
    make_rng,
    sample_error,
    schedule_from_probs,
)
from .circuits import (
    LayeredCircuit,
    build_decoding_circuit,
    build_encoding_circuit,
    export_circuit,
    max_error_spread,
    propagate_error,
    support_window,
    verify_layer_commutation,
)
from .code import (
    ConvolutionalCode,
    Syndrome,
    build_code,
    describe,
    in_stabilizer,
    logical_action,
    min_logical_weight_probe,
    syndrome_of,
    verify_code,
)
from .decoder import (
    DecodeResult,
    InfeasibleSyndromeError,
    brute_force_ml,
    brute_force_table,
    decode_batch,
    initial_live_count,
    survivor_merge_lag,
    transition_live_count,
    viterbi_decode,
)
from .pauli import (
    Pauli,
    identity,
    multiply,
    pauli_from_codes,
    pauli_from_string,
    shift,
    symplectic_product,
    weight,
)
from .sim import (
    SimStats,
    TrialOutcome,
    classify_residual,
    collect_trials,
    rows_to_csv,
    rows_to_json,
    run_trials,
    sweep,
    wilson_interval,
)
from .tableau import CliffordGate, SignedPauli, StabilizerTableau, gate_cx, gate_cz, gate_h

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
