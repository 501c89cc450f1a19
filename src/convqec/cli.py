"""Command-line interface.

Subcommands: verify, decode, oracle-check, simulate, sweep, export-circuit.
Exit codes: 0 success, 1 check failure, 2 usage/config error.  The CLI checks
a config's JSON shape and types (an object, no unknown or missing keys, ints
that are not bools); the library function that uses a value checks its range.
Either raises ValueError, which exits 2 with one ``error:`` line.  Randomized
commands take an explicit --seed and otherwise fall back to DEFAULT_SEED;
nothing is ever seeded from the clock.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .channel import channel_from_config, channel_id, make_rng, sample_error_codes
from .circuits import (
    build_decoding_circuit,
    build_encoding_circuit,
    export_circuit,
    verify_layer_commutation,
)
from .code import Syndrome, build_code, describe, verify_code
from .decoder import InfeasibleSyndromeError, brute_force_table, codes_of_index, decode_batch
from .decoder import syndrome_index, viterbi_decode
from .sim import SweepRow, rows_to_csv, rows_to_json, run_trials, sweep, syndrome_bits_batch
from .tableau import StabilizerTableau

DEFAULT_SEED = 20210325


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _require_keys(config, required: dict, optional: dict, where: str) -> dict:
    """Shape and JSON types only; a kind of None leaves the value to the library."""
    if not isinstance(config, dict):
        raise ValueError(f"{where}: config must be an object, got {type(config).__name__}")
    unknown = set(config) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    out = {}
    for key, kind in {**required, **optional}.items():
        if key in config:
            out[key] = config[key] if kind is None else _coerce(config[key], kind, key, where)
        elif key in required:
            raise ValueError(f"{where}: missing required key {key!r}")
    return out


def _coerce(value, kind, key: str, where: str):
    if kind == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{where}: key {key!r} must be an integer")
        return value
    if kind == "int_list":
        if not isinstance(value, list) or not value or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ValueError(f"{where}: key {key!r} must be a non-empty list of integers")
        return value
    if kind == "float_list":
        if not isinstance(value, list) or not value or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        ):
            raise ValueError(f"{where}: key {key!r} must be a non-empty list of numbers")
        return [float(v) for v in value]
    raise AssertionError(kind)


def _formatter(config: dict):
    """The rows-to-text function the config's "format" names, checked before any run."""
    fmt = config.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r} (expected 'csv' or 'json')")
    return rows_to_csv if fmt == "csv" else rows_to_json


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_verify(args) -> int:
    code = build_code(args.blocks)
    report = verify_code(code)
    checks: list[tuple[str, bool]] = [
        ("generators pairwise commute", report.generator_commutation),
        (f"generator rank == {len(code.generators)}", report.generator_rank == len(code.generators)),
        (f"encoded dimension exponent == {code.blocks}",
         report.encoded_dimension_exponent == code.blocks),
        ("logical operator conditions", all(report.logical_conditions.values())),
    ]

    encoder = build_encoding_circuit(args.blocks)
    decoder_circuit = build_decoding_circuit(args.blocks)
    checks.append(("encoder has 6 layers", len(encoder.layers) == 6))
    checks.append(("encoder intra-layer commutation", verify_layer_commutation(encoder)))
    checks.append(("decoder intra-layer commutation", verify_layer_commutation(decoder_circuit)))

    rng = make_rng(args.seed)
    patterns = [[0] * code.blocks, [1] * code.blocks]
    patterns += [list(rng.integers(0, 2, code.blocks)) for _ in range(3)]
    contract_ok = True
    for pattern in patterns:
        bits = [0] * code.n
        for pos, bit in zip(code.info_positions, pattern):
            bits[pos - 1] = int(bit)
        tab = StabilizerTableau.from_bits(bits)
        tab.apply_gates(encoder.gates())
        solver = tab.solver()
        if any(solver.sign_of(g) != 0 for g in code.generators):
            contract_ok = False
        if any(solver.sign_of(lz) != pattern[i] for i, lz in enumerate(code.logical_z)):
            contract_ok = False
    checks.append(("encoder tableau contract (5 bit patterns)", contract_ok))

    failures = [name for name, ok in checks if not ok]
    width = max(len(name) for name, _ in checks)
    for name, ok in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
    if args.describe is not None:
        _write_output(json.dumps(describe(code), indent=2) + "\n", args.describe)
    if failures:
        print(f"FAILED: {failures[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_decode(args) -> int:
    code = build_code(args.blocks)
    syn = Syndrome.from_string(args.syndrome)
    schedule = channel_from_config(_load_json(args.channel), code.n)
    try:
        result = viterbi_decode(code, schedule, syn, tie_mode=args.tie, rng=args.seed)
    except InfeasibleSyndromeError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "error": str(result.error),
        "log_likelihood": result.log_likelihood,
        "tie_broken": result.tie_broken,
    }))
    return 0


def cmd_oracle_check(args) -> int:
    if args.samples is not None and args.samples < 1:  # 0 samples would check nothing and pass
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    code = build_code(args.blocks)
    schedule = channel_from_config(_load_json(args.channel), code.n)
    # first, so that the oracle's n <= 12 cap fires before any sampling
    ll_table, winner, tie_table, feasible = brute_force_table(code, schedule)
    n_bits = 4 * args.blocks + 2

    if args.all_syndromes:
        syndromes = (np.arange(1 << n_bits)[:, None] >> np.arange(n_bits)) & 1
    else:
        sampled = sample_error_codes(schedule, make_rng(args.seed), args.samples)
        syndromes = syndrome_bits_batch(code, sampled)

    batch = decode_batch(code, schedule, syndromes)
    index = syndrome_index(syndromes)
    both = batch.feasible & feasible[index]
    mismatches = int((batch.feasible != feasible[index]).sum())
    index = index[both]
    delta = np.abs(batch.log_likelihood[both] - ll_table[index])
    agree = (batch.codes[both] == codes_of_index(winner[index], code.n)).all(axis=1)
    agree &= (batch.tie_broken[both] == tie_table[index]) & (delta <= 1e-9)
    mismatches += int((~agree).sum())
    print(f"syndromes checked: {len(syndromes)}")
    print(f"max |delta log-likelihood|: {float(delta.max(initial=0.0))!r}")
    print(f"mismatches: {mismatches}")
    return 0 if mismatches == 0 else 1


def cmd_simulate(args) -> int:
    config = _require_keys(
        _load_json(args.config),
        required={"blocks": "int", "channel": None, "trials": "int", "seed": "int"},
        optional={"tie_mode": None, "format": None},
        where=args.config,
    )
    to_text = _formatter(config)
    code = build_code(config["blocks"])
    schedule = channel_from_config(config["channel"], code.n)
    stats = run_trials(code, schedule, config["trials"], config["seed"],
                       tie_mode=config.get("tie_mode", "deterministic"))
    row = SweepRow(code.blocks, code.n, channel_id(config["channel"]), stats)
    _write_output(to_text([row], include_timing=args.timing), args.out)
    return 0


def cmd_sweep(args) -> int:
    config = _require_keys(
        _load_json(args.config),
        required={"blocks": "int_list", "ps": "float_list", "trials": "int", "seed": "int"},
        optional={"format": None},
        where=args.config,
    )
    to_text = _formatter(config)
    rows = sweep(config["blocks"], config["ps"], config["trials"], config["seed"], jobs=args.jobs)
    _write_output(to_text(rows, include_timing=args.timing), args.out)
    return 0


def cmd_export_circuit(args) -> int:
    builder = build_encoding_circuit if args.which == "encode" else build_decoding_circuit
    _write_output(export_circuit(builder(args.blocks)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convqec",
        description="Rate-1/5 quantum convolutional code: verification, decoding, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check code algebra, circuits, and encoder contract")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--describe", default=None, metavar="PATH",
                   help="also write the code description (generators, logicals) as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decode", help="decode one syndrome bit string")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--syndrome", required=True, help="bit string, length 4N+2")
    p.add_argument("--channel", required=True, help="channel config JSON file")
    p.add_argument("--tie", choices=("deterministic", "random"), default="deterministic")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("oracle-check", help="compare the decoder with brute force (N <= 2)")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--channel", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all-syndromes", action="store_true")
    group.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("simulate", help="Monte Carlo run from a config file")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--timing", action="store_true", help="emit measured elapsed_s")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="Monte Carlo sweep over blocks x depolarizing strengths")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-circuit", help="write the layered gate list of a circuit")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--which", choices=("encode", "decode"), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_circuit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
