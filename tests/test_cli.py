"""Tests for the command-line interface: behavior, formats, exit codes."""

import json
import math

import pytest

from convqec.cli import main

DEPOL = {"type": "depolarizing", "p": 0.01}


@pytest.fixture()
def channel_file(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(DEPOL))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def test_verify_passes(capsys):
    assert run_cli("verify", "--blocks", "1") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_larger_code():
    assert run_cli("verify", "--blocks", "12") == 0


def test_verify_rejects_zero_blocks(capsys):
    assert run_cli("verify", "--blocks", "0") == 2


def test_verify_reports_a_failed_check(capsys, monkeypatch):
    import convqec.cli

    monkeypatch.setattr(convqec.cli, "verify_layer_commutation", lambda circuit: False)
    assert run_cli("verify", "--blocks", "1") == 1
    captured = capsys.readouterr()
    assert "encoder intra-layer commutation" in captured.out and "FAIL\n" in captured.out
    assert captured.err == "FAILED: encoder intra-layer commutation\n"


def test_verify_describe_export(tmp_path, capsys):
    out = tmp_path / "code.json"
    assert run_cli("verify", "--blocks", "1", "--describe", str(out)) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["n"] == 7
    assert doc["generators"] == [
        "XZIIIII", "ZXXZIII", "IZXXZII", "IIZXXZI", "IIIZXXZ", "IIIIIZX",
    ]
    assert doc["logical_x"] == ["IZIXIZI"]
    assert doc["logical_z"] == ["IZZZZZI"]


def test_decode_zero_syndrome(capsys, channel_file):
    assert run_cli("decode", "--blocks", "1", "--syndrome", "000000",
                   "--channel", channel_file) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "IIIIIII"
    assert payload["log_likelihood"] == pytest.approx(7 * math.log(0.99), rel=1e-12)
    assert payload["tie_broken"] is False


def test_decode_single_error_syndrome(capsys, channel_file):
    assert run_cli("decode", "--blocks", "1", "--syndrome", "010000",
                   "--channel", channel_file) == 0
    assert json.loads(capsys.readouterr().out)["error"] == "XIIIIII"


def test_decode_wrong_syndrome_length(capsys, channel_file):
    assert run_cli("decode", "--blocks", "1", "--syndrome", "00000",
                   "--channel", channel_file) == 2
    assert "6 bits" in capsys.readouterr().err


def test_decode_infeasible_syndrome_exits_1(tmp_path, capsys):
    noiseless = tmp_path / "noiseless.json"
    noiseless.write_text(json.dumps({"type": "depolarizing", "p": 0.0}))
    assert run_cli("decode", "--blocks", "1", "--syndrome", "100000",
                   "--channel", str(noiseless)) == 1
    assert "no positive-probability error" in capsys.readouterr().err


def test_decode_random_tie_mode(capsys, channel_file):
    assert run_cli("decode", "--blocks", "1", "--syndrome", "010000",
                   "--channel", channel_file, "--tie", "random", "--seed", "5") == 0
    first = json.loads(capsys.readouterr().out)
    assert run_cli("decode", "--blocks", "1", "--syndrome", "010000",
                   "--channel", channel_file, "--tie", "random", "--seed", "5") == 0
    assert json.loads(capsys.readouterr().out) == first


def test_channel_file_must_hold_an_object(tmp_path, capsys):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps([DEPOL]))
    assert run_cli("decode", "--blocks", "1", "--syndrome", "000000", "--channel", str(path)) == 2
    assert run_cli("oracle-check", "--blocks", "1", "--channel", str(path), "--all-syndromes") == 2
    assert capsys.readouterr().err.count("channel config must be an object") == 2


def test_oracle_check_all_syndromes(capsys, channel_file):
    assert run_cli("oracle-check", "--blocks", "1", "--channel", channel_file,
                   "--all-syndromes") == 0
    out = capsys.readouterr().out
    assert "syndromes checked: 64" in out
    assert "mismatches: 0" in out


def test_oracle_check_sampled(capsys, channel_file):
    assert run_cli("oracle-check", "--blocks", "2", "--channel", channel_file,
                   "--samples", "50", "--seed", "3") == 0
    assert "mismatches: 0" in capsys.readouterr().out


def test_oracle_check_refuses_three_blocks(capsys, channel_file):
    assert run_cli("oracle-check", "--blocks", "3", "--channel", channel_file,
                   "--all-syndromes") == 2


def test_simulate_zero_noise(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "blocks": 2,
        "channel": {"type": "depolarizing", "p": 0.0},
        "trials": 50,
        "seed": 1,
    }))
    assert run_cli("simulate", str(config)) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1].split(",")[4] == "0"  # logical_errors
    assert lines[1].split(",")[5] == "0.0"


def test_simulate_random_tie_mode_pinned(tmp_path, capsys):
    """One full 4096-trial chunk of random ties at N = 10; the CSV was
    recorded from the per-trial decode loop that batched random ties replaced."""
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "blocks": 10, "channel": {"type": "depolarizing", "p": 0.05},
        "trials": 4096, "seed": 7, "tie_mode": "random",
    }))
    assert run_cli("simulate", str(config)) == 0
    assert capsys.readouterr().out == (
        "N,n,p_or_schedule_id,trials,logical_errors,rate,ci_low,ci_high,seed,elapsed_s\n"
        "10,52,0.05,4096,931,0.227294921875,0.21471967851488727,0.24038120222926646,7,0.000\n"
    )


@pytest.mark.parametrize("p", [None, True, "0.1"])
def test_malformed_depolarizing_p_exits_2(tmp_path, capsys, p):
    channel = {"type": "depolarizing", "p": p}
    channel_path = tmp_path / "channel.json"
    channel_path.write_text(json.dumps(channel))
    assert run_cli("decode", "--blocks", "1", "--syndrome", "000000", "--channel", str(channel_path)) == 2
    assert "number 'p'" in capsys.readouterr().err
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"blocks": 1, "channel": channel, "trials": 10, "seed": 1}))
    assert run_cli("simulate", str(config)) == 2
    captured = capsys.readouterr()
    assert "number 'p'" in captured.err and captured.out == ""


def test_simulate_has_no_jobs_option(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"blocks": 1, "channel": DEPOL, "trials": 10, "seed": 1}))
    assert run_cli("simulate", str(config), "--jobs", "2") == 2
    assert "--jobs" in capsys.readouterr().err


def test_simulate_strict_config(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "blocks": 2, "channel": DEPOL, "trials": 10, "seed": 1, "typo_key": 3,
    }))
    assert run_cli("simulate", str(config)) == 2
    assert "typo_key" in capsys.readouterr().err


def test_simulate_missing_key(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"blocks": 2, "channel": DEPOL, "trials": 10}))
    assert run_cli("simulate", str(config)) == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_invalid_json_reports_line(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text('{"blocks": 2,\n  "trials": }')
    assert run_cli("simulate", str(config)) == 2
    assert "line 2" in capsys.readouterr().err


def test_simulate_schedule_channel(tmp_path, capsys):
    rows = [[0.98, 0.01, 0.005, 0.005]] * 7
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "blocks": 1,
        "channel": {"type": "schedule", "probs": rows},
        "trials": 30,
        "seed": 2,
    }))
    assert run_cli("simulate", str(config)) == 0
    row = capsys.readouterr().out.strip().split("\n")[1]
    assert row.split(",")[2].startswith("schedule-")


def test_sweep_deterministic_and_parallel(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "blocks": [1, 2], "ps": [0.0, 0.01], "trials": 100, "seed": 3,
    }))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_c = tmp_path / "c.csv"
    assert run_cli("sweep", str(config), "--out", str(out_a)) == 0
    assert run_cli("sweep", str(config), "--out", str(out_b)) == 0
    assert run_cli("sweep", str(config), "--jobs", "3", "--out", str(out_c)) == 0
    assert out_a.read_bytes() == out_b.read_bytes() == out_c.read_bytes()


def test_sweep_json_format(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "blocks": [1], "ps": [0.0], "trials": 20, "seed": 3, "format": "json",
    }))
    assert run_cli("sweep", str(config)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rate"] == 0.0


def test_sweep_rejects_bad_p(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"blocks": [1], "ps": [1.5], "trials": 5, "seed": 0}))
    assert run_cli("sweep", str(config)) == 2


def test_export_circuit_layout(tmp_path):
    out = tmp_path / "enc.txt"
    assert run_cli("export-circuit", "--blocks", "1", "--which", "encode",
                   "--out", str(out)) == 0
    sections = out.read_text().strip().split("\n\n")
    assert len(sections) == 6
    assert sections[0].startswith("H 1")

    again = tmp_path / "enc2.txt"
    assert run_cli("export-circuit", "--blocks", "1", "--which", "encode",
                   "--out", str(again)) == 0
    assert out.read_bytes() == again.read_bytes()

    dec = tmp_path / "dec.txt"
    assert run_cli("export-circuit", "--blocks", "1", "--which", "decode",
                   "--out", str(dec)) == 0
    dec_sections = dec.read_text().strip().split("\n\n")
    assert dec_sections == list(reversed(sections))


def test_unknown_command_exits_2():
    assert run_cli("frobnicate") == 2


def test_console_script_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import convqec

    # the child imports the same convqec as this session, installed or not
    package_root = str(Path(convqec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "convqec.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "convqec" in proc.stdout


def test_import_loads_no_process_pool():
    """Only a sweep with --jobs > 1 runs a pool, so importing the package loads
    neither multiprocessing nor concurrent.futures."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import convqec

    package_root = str(Path(convqec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    probe = "import sys, convqec; print(sorted(m for m in sys.modules if m.split('.')[0] in " \
            "('multiprocessing', 'concurrent')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_package_all_names_no_modules():
    import types

    import convqec

    assert {"build_code", "decode_batch", "StabilizerTableau"} <= set(convqec.__all__)
    assert not [name for name in convqec.__all__ if isinstance(getattr(convqec, name), types.ModuleType)]


SIM = {"blocks": 1, "channel": DEPOL, "trials": 10, "seed": 1}
SWEEP = {"blocks": [1], "ps": [0.01], "trials": 10, "seed": 1}


def config_path(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    return str(path)


NEG_SEED = "seed must be a non-negative integer, got -1"
NAN_ROWS = ", ".join(["[NaN, NaN, NaN, NaN]"] * 7)  # json parses the literal NaN

# (subcommand, config file contents or None, extra argv, text the error line names)
ERROR_CASES = {
    "simulate blocks 0": ("simulate", {**SIM, "blocks": 0}, [], "got 0"),
    "simulate trials 0": ("simulate", {**SIM, "trials": 0}, [], "trials must be >= 1"),
    "simulate tie_mode coin": ("simulate", {**SIM, "tie_mode": "coin"}, [], "tie_mode 'coin'"),
    "simulate tie_mode 5": ("simulate", {**SIM, "tie_mode": 5}, [], "tie_mode 5"),
    "simulate format xml": ("simulate", {**SIM, "format": "xml"}, [], "format 'xml'"),
    "simulate format list": ("simulate", {**SIM, "format": ["csv"]}, [], "format ['csv']"),
    "simulate NaN probs": ("simulate", '{"blocks": 1, "channel": {"type": "schedule", "probs": [%s]}, '
                           '"trials": 20, "seed": 7}' % NAN_ROWS, [], "probabilities must be finite"),
    "simulate string probs": ("simulate", {**SIM, "channel": {"type": "schedule", "probs": [
        ["0.97", "0.01", "0.01", "0.01"]] * 7}}, [], "'probs'"),
    "simulate bool probs": ("simulate", {**SIM, "channel": {"type": "schedule", "probs": [
        [True, False, False, False]] * 7}}, [], "'probs'"),
    "sweep blocks [0]": ("sweep", {**SWEEP, "blocks": [0]}, [], "got 0"),
    "sweep ps [1.5]": ("sweep", {**SWEEP, "ps": [1.5]}, [], "got 1.5"),
    "simulate trials 2.5": ("simulate", {**SIM, "trials": 2.5}, [], "key 'trials' must be an integer"),
    "sweep blocks []": ("sweep", {**SWEEP, "blocks": []}, [],
                        "key 'blocks' must be a non-empty list of integers"),
    "sweep ps ['a']": ("sweep", {**SWEEP, "ps": ["a"]}, [], "key 'ps' must be a non-empty list of numbers"),
    "decode blocks 0": ("decode", None, ["--blocks", "0", "--syndrome", "00"], "got 0"),
    "decode short syndrome": ("decode", None, ["--blocks", "1", "--syndrome", "00000"], "5 bits, expected 6 bits"),
    "decode non-0/1 syndrome": ("decode", None, ["--blocks", "1", "--syndrome", "00002a"], "'00002a'"),
    "oracle-check blocks 3 samples": ("oracle-check", None, ["--blocks", "3", "--samples", "5"], "n = 17"),
    "oracle-check blocks 3 all": ("oracle-check", None, ["--blocks", "3", "--all-syndromes"], "n = 17"),
    "oracle-check samples 0": ("oracle-check", None, ["--blocks", "1", "--samples", "0"],
                               "--samples must be >= 1, got 0"),
    "oracle-check samples -1": ("oracle-check", None, ["--blocks", "1", "--samples", "-1"],
                                "--samples must be >= 1, got -1"),
    "oracle-check seed -1": ("oracle-check", None, ["--blocks", "1", "--samples", "5", "--seed", "-1"],
                             NEG_SEED),
    "simulate seed -1": ("simulate", {**SIM, "seed": -1}, [], NEG_SEED),
    "sweep seed -1": ("sweep", {**SWEEP, "seed": -1}, [], NEG_SEED),
    "decode random seed -1": ("decode", None, ["--blocks", "1", "--syndrome", "000000", "--tie", "random",
                                               "--seed", "-1"], NEG_SEED),
    "verify seed -1": ("verify", None, ["--blocks", "1", "--seed", "-1"], NEG_SEED),
    "verify blocks 0": ("verify", None, ["--blocks", "0"], "got 0"),
    "export-circuit blocks 0": ("export-circuit", None, ["--blocks", "0", "--which", "encode"], "got 0"),
}
ERROR_CASES.update({
    f"{command} config {text}": (command, text, [], "config must be an object")
    for command in ("simulate", "sweep") for text in ("5", "null", '[{"a": 1}]', '"abc"')
})


@pytest.mark.parametrize("case", ERROR_CASES)
def test_config_errors_exit_2_with_one_error_line(tmp_path, capsys, channel_file, case):
    command, config, extra, named = ERROR_CASES[case]
    if config is not None:
        argv = [command, config_path(tmp_path, config)]
    elif command in ("decode", "oracle-check"):
        argv = [command, "--channel", channel_file]
    else:
        argv = [command]
    assert run_cli(*argv, *extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert named in captured.err


def test_bad_config_runs_nothing(tmp_path, capsys, monkeypatch, channel_file):
    import convqec.cli
    import convqec.sim

    def never(*args, **kwargs):
        raise AssertionError("ran before the config was checked")

    for name in ("run_trials", "sweep", "sample_error_codes"):
        monkeypatch.setattr(convqec.cli, name, never)
    assert run_cli("simulate", config_path(tmp_path, {**SIM, "format": "xml"})) == 2
    assert run_cli("sweep", config_path(tmp_path, {**SWEEP, "format": "xml"})) == 2
    assert run_cli("oracle-check", "--blocks", "3", "--channel", channel_file, "--samples", "5") == 2
    monkeypatch.undo()
    monkeypatch.setattr(convqec.sim, "_run_sweep_row", never)
    for grid in ({"blocks": [40, 0]}, {"ps": [0.02, 1.5]}, {"trials": 0}):
        assert run_cli("sweep", config_path(tmp_path, {**SWEEP, **grid})) == 2


# Per-qubit rows with zero-probability letters, zero tails of length 1 to 3, and
# rows summing to 1 - 1e-13; the outputs were recorded from the sampler that
# compared draws against np.cumsum of the rows, before thresholds skipped zero tails.
ZERO_LETTER_ROWS = [
    [0.5, 0.5, 0.0, 0.0], [0.8, 0.1, 0.1, 0.0], [1.0, 0.0, 0.0, 0.0], [0.7, 0.0, 0.3 - 1e-13, 0.0],
    [0.5, 0.25, 0.25, 0.0], [0.6, 0.4 - 1e-13, 0.0, 0.0], [0.0, 0.5, 0.0, 0.5], [0.9, 0.0, 0.0, 0.1],
    [1.0 - 1e-13, 0.0, 0.0, 0.0], [0.4, 0.3, 0.3, 0.0], [0.7, 0.1, 0.1, 0.1], [0.5, 0.0, 0.5, 0.0],
]
ZERO_LETTER_PINS = {
    "deterministic": ("1445", "0.4816666666666667", "0.46382162332130494", "0.49955860113195705"),
    "random": ("1457", "0.4856666666666667", "0.46781183860604003", "0.5035581550574194"),
}


@pytest.mark.parametrize("tie_mode", sorted(ZERO_LETTER_PINS))
def test_simulate_zero_letter_schedule_pinned(tmp_path, capsys, tie_mode):
    errors, rate, lo, hi = ZERO_LETTER_PINS[tie_mode]
    expected = {
        "csv": "N,n,p_or_schedule_id,trials,logical_errors,rate,ci_low,ci_high,seed,elapsed_s\n"
               f"2,12,schedule-533368da,3000,{errors},{rate},{lo},{hi},11,0.000\n",
        "json": f'[\n  {{\n    "N": 2,\n    "ci_high": {hi},\n    "ci_low": {lo},\n    "elapsed_s": 0.0,\n'
                f'    "logical_errors": {errors},\n    "n": 12,\n    "p_or_schedule_id": "schedule-533368da",\n'
                f'    "rate": {rate},\n    "seed": 11,\n    "trials": 3000\n  }}\n]\n',
    }
    for fmt, text in expected.items():
        config = tmp_path / f"{fmt}.json"
        config.write_text(json.dumps({
            "blocks": 2, "channel": {"type": "schedule", "probs": ZERO_LETTER_ROWS},
            "trials": 3000, "seed": 11, "tie_mode": tie_mode, "format": fmt,
        }))
        assert run_cli("simulate", str(config)) == 0
        assert capsys.readouterr().out == text
