import argparse
import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mzlab.cli
import mzlab.measurement
import mzlab.optics
import mzlab.scenarios
from mzlab.cli import main
from mzlab.measurement import histogram_rows, lossy_distribution, sample_counts
from mzlab.scenarios import SCENARIOS, noon_output_distribution

from conftest import oracle_counts


def test_sweep_writes_csv_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "fock.csv"
    code = main(["sweep", "--scenario", "fock", "--n", "16", "--phi", "0:3.14159:181", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 182  # header + one row per grid point
    assert lines[0].startswith("phi,mean_o")


def test_qfi_table_three_rows(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["qfi-table", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "case,f_q,f_q_numeric,delta_phi_min,delta_phi_error_prop,ratio,note"


def test_metric_check_runs(tmp_path):
    out = tmp_path / "metric.csv"
    assert main(["metric-check", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 7


def test_sample_byte_identical_reruns(tmp_path, capsys):
    args = ["sample", "--scenario", "noon", "--n", "4", "--eta", "0.9",
            "--trials", "20000", "--seed", "42", "--post-select"]
    out1, out2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    text1 = capsys.readouterr().out
    assert main(args + ["--out", str(out2)]) == 0
    text2 = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    assert text1.replace("h1.csv", "") == text2.replace("h2.csv", "")
    assert "filtered_estimate" in text1


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["sweep", "--scenario", "bogus", "--out", "x.csv"]) == 2
    assert main(["sweep", "--no-such-flag"]) == 2
    assert main(["sweep", "--scenario", "fock"]) == 2  # missing --out
    assert main(["sweep", "--scenario", "fock", "--phi", "0-1-5", "--out", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("scenario = fock\nn = 4\nphi_steps = 21\n")
    out = tmp_path / "a.csv"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 22
    # flag overrides the file
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfgfile), "--phi", "0:3.14:11", "--out", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 12


def test_config_file_epsilon_trunc_is_not_masked_by_a_flag_default(tmp_path, capsys):
    # n_cap = 28 leaves a deficit of about 8e-9: inside the file's 1e-7, outside the 1e-10 default
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("scenario = coherent\nn_cap = 28\nepsilon_trunc = 1e-7\nphi_steps = 5\n")
    assert main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["sweep", "--config", str(cfgfile), "--epsilon-trunc", "1e-10", "--out", str(tmp_path / "b.csv")]) == 3
    capsys.readouterr()


# (command, config line, flags): a non-default value in the file for each ScenarioConfig field a sweep or
# sample flag sets, and flags that set the field to another value
PRECEDENCE_CASES = [
    ("sweep", "scenario = twin_fock", ["--scenario", "noon"]),
    ("sweep", "n = 7", ["--n", "5"]),
    ("sweep", "alpha_mag = 3.5", ["--alpha", "1.5"]),
    ("sweep", "beta_mag = 3.5", ["--beta", "1.5"]),
    ("sweep", "theta1 = 0.25", ["--theta1", "0.5"]),
    ("sweep", "theta2 = 0.25", ["--theta2", "0.5"]),
    ("sweep", "r = 0.25", ["--r", "0.5"]),
    ("sweep", "theta = 0.25", ["--theta", "0.5"]),
    ("sweep", "f = 0.25", ["--f", "0.5"]),
    ("sweep", "phi_start = -1", ["--phi=-2:1:5"]),
    ("sweep", "phi_stop = 2", ["--phi", "0:1:5"]),
    ("sweep", "phi_steps = 9", ["--phi", "0:1:5"]),
    ("sweep", "n_cap = 30", ["--n-cap", "40"]),
    ("sweep", "epsilon_trunc = 1e-7", ["--epsilon-trunc", "1e-8"]),
    ("sample", "scenario = fock", ["--scenario", "noon"]),
    ("sample", "n = 7", ["--n", "5"]),
    ("sample", "seed = 9", ["--seed", "11"]),
    ("sample", "eta_a = 0.5", ["--eta-a", "0.7"]),
    ("sample", "eta_b = 0.5", ["--eta-b", "0.7"]),
    ("sample", "eta_a = 0.5", ["--eta", "0.7"]),
    ("sample", "eta_b = 0.5", ["--eta", "0.7"]),
    ("sample", "trials = 77", ["--trials", "88"]),
    ("sample", "post_select = true", ["--post-select"]),  # the flag can only set the non-default value
    ("sample", "sample_phi = 0.2", ["--phi-at", "0.3"]),
    ("sample", "epsilon_trunc = 1e-7", ["--epsilon-trunc", "1e-8"]),
]


def _assembled(argv):
    """The config ``main`` would run for ``argv``, built by ``_assemble_config`` after ``parse_args``."""
    given = vars(mzlab.cli._build_parser().parse_args(argv + ["--out", "x.csv"]))
    del given["out"]
    return mzlab.cli._assemble_config(given.pop("command"), given)


@pytest.mark.parametrize("command,line,flags", PRECEDENCE_CASES,
                         ids=[f"{c} {line} {' '.join(f)}" for c, line, f in PRECEDENCE_CASES])
def test_config_file_value_stands_unless_a_flag_sets_it(tmp_path, command, line, flags):
    field = line.split()[0]
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{line}\n")
    from_file = mzlab.scenarios.parse_config_text(line)[field]
    baseline = getattr(_assembled([command]), field)
    assert from_file != baseline
    assert getattr(_assembled([command, "--config", str(cfgfile)]), field) == from_file
    from_flags = getattr(_assembled([command, *flags]), field)
    assert from_flags != from_file or field == "post_select"
    assert getattr(_assembled([command, *flags, "--config", str(cfgfile)]), field) == from_flags
    assert getattr(_assembled([command, "--config", str(cfgfile), *flags]), field) == from_flags


def test_precedence_cases_cover_every_flag_of_sweep_and_sample():
    sub = next(a for a in mzlab.cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    # the flags that set no field of their name: --phi sets the grid, --eta both arms, --config and --out no field
    spread = {"phi": {"phi_start", "phi_stop", "phi_steps"}, "eta": {"eta_a", "eta_b"}, "config": set(), "out": set()}
    for command in ("sweep", "sample"):
        dests = {a.dest for a in sub.choices[command]._actions if a.dest != "help"}
        fields = set().union(*(spread.get(dest, {dest}) for dest in dests))
        assert fields <= set(mzlab.scenarios._CONFIG_FIELDS)
        assert fields == {line.split()[0] for c, line, _ in PRECEDENCE_CASES if c == command}


def test_sample_refuses_a_config_file_scenario_other_than_noon(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("scenario = fock\nn = 3\ntrials = 100\n")
    out = tmp_path / "x.csv"
    assert main(["sample", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'fock'" in err and "Traceback" not in err
    assert not out.exists()


def test_sample_runs_a_config_file_noon_scenario(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("scenario = noon\nn = 3\ntrials = 100\n")
    assert main(["sample", "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")]) == 0
    assert "scenario = noon  n = 3" in capsys.readouterr().out


def test_sample_without_a_scenario_samples_noon(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n = 3\ntrials = 100\n")
    bare, named = tmp_path / "bare.csv", tmp_path / "named.csv"
    assert _assembled(["sample", "--config", str(cfgfile)]).scenario == "noon"
    assert main(["sample", "--config", str(cfgfile), "--out", str(bare)]) == 0
    bare_stdout = capsys.readouterr().out.replace(str(bare), "<out>")
    assert main(["sample", "--config", str(cfgfile), "--scenario", "noon", "--out", str(named)]) == 0
    assert bare_stdout == capsys.readouterr().out.replace(str(named), "<out>")
    assert bare.read_bytes() == named.read_bytes()


def test_config_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_bytes(b"n = 4\n\xff\n")
    out = tmp_path / "x.csv"
    for command in ("sweep", "sample"):
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file ") and "Traceback" not in err
        assert not out.exists()


# (command, the flags that name its runner's defaults)
TABLE_DEFAULTS = [
    ("qfi-table", ["--beta", "2", "--fock-n", "9", "--noon-n", "4", "--epsilon-trunc", "1e-10"]),
    ("metric-check", ["--beta", "2", "--noon-n", "4", "--step", "1e-4"]),
]


@pytest.mark.parametrize("command,flags", TABLE_DEFAULTS, ids=[c for c, _ in TABLE_DEFAULTS])
def test_bare_table_matches_its_defaults_named(tmp_path, capsys, command, flags):
    bare, named = tmp_path / "bare.csv", tmp_path / "named.csv"
    assert main([command, "--out", str(bare)]) == 0
    bare_stdout = capsys.readouterr().out.replace(str(bare), "<out>")
    assert main([command, *flags, "--out", str(named)]) == 0
    assert bare_stdout == capsys.readouterr().out.replace(str(named), "<out>")
    assert bare.read_bytes() == named.read_bytes()


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("wavelength = 633\n")
    assert main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "unknown key" in err


def test_config_key_set_twice_exits_two_naming_both_lines(tmp_path, capsys):
    cfgfile = tmp_path / "twice.cfg"
    cfgfile.write_text("scenario = fock\nn = 3\n# the second n used to win silently\nn = 5\n")
    out = tmp_path / "x.csv"
    for command in ("sweep", "sample"):
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfgfile}:4: duplicate key 'n', first set on line 2"), err
        assert not out.exists()


def test_numerical_failure_exits_three(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--scenario", "coherent", "--n-cap", "5", "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_console_script_smoke(tmp_path):
    out = tmp_path / "noon.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "mzlab", "sweep", "--scenario", "noon", "--n", "2",
         "--phi", "0:3.14159:21", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


NON_FINITE_CASES = [
    (["sweep", "--scenario", "coherent"], flag)
    for flag in ("--alpha", "--beta", "--theta1", "--theta2", "--epsilon-trunc")
] + [
    (["sweep", "--scenario", "squeezed", "--alpha", "4"], flag) for flag in ("--r", "--theta", "--f")
] + [
    (["sample", "--n", "4"], flag) for flag in ("--phi-at", "--eta-a", "--eta-b")
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("head,flag", NON_FINITE_CASES, ids=[f for _, f in NON_FINITE_CASES])
def test_non_finite_values_exit_two(tmp_path, capsys, head, flag, value):
    assert main(head + [f"{flag}={value}", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("grid", ["nan:1:5", "0:inf:5"])
def test_non_finite_phi_grid_exits_two(tmp_path, capsys, grid):
    assert main(["sweep", "--scenario", "fock", "--phi", grid, "--out", str(tmp_path / "x.csv")]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_non_finite_value_exits_two_without_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mzlab", "sweep", "--scenario", "squeezed", "--alpha", "4", "--r", "nan",
         "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "r must be finite" in proc.stderr


OUT_OF_RANGE_CASES = [
    ["qfi-table", "--beta", "nan"],
    ["qfi-table", "--beta", "-1"],
    ["qfi-table", "--fock-n", "-1"],
    ["qfi-table", "--noon-n", "0"],
    ["qfi-table", "--epsilon-trunc", "0.5"],
    ["qfi-table", "--epsilon-trunc", "0"],
    ["qfi-table", "--beta", "0"],  # the vacuum has F_Q = 0: no bound to take the ratio against
    ["metric-check", "--beta", "inf"],
    ["metric-check", "--noon-n", "0"],
    ["metric-check", "--step", "0"],
    ["metric-check", "--step", "nan"],
    ["metric-check", "--beta", "0"],  # the vacuum has F_Q = 0: no F/4 to compare against
    ["qfi-table", "--beta", "1e-200"],  # F_Q = 4 beta^2 underflows to 0
    ["metric-check", "--beta", "1e-200"],
    ["metric-check", "--step", "1e-300"],  # phi + step == phi: no step is taken, and (dist / step)^2 overflows
    ["metric-check", "--step", "1e308"],  # step times the coherent probe's largest photon number overflows
    ["sample", "--n", "4", "--seed", "18446744073709551616"],
    ["sample", "--n", "4", "--seed", "-1"],
    ["sweep", "--scenario", "noon", "--n", "4", "--n-cap", "1"],
    ["sweep", "--scenario", "squeezed", "--alpha", "4", "--r", "-1"],
    ["sweep", "--scenario", "squeezed", "--alpha", "4", "--r", "1000"],  # sinh(r) overflows
    ["sweep", "--scenario", "squeezed", "--alpha", "1e200", "--r", "1000"],  # and so does |alpha|^2
    ["sweep", "--scenario", "fock", "--n", "3", "--phi", "1e8:100000000.000001:5"],  # steps round unequal
    ["sweep", "--scenario", "fock", "--phi", f"0:1:{10**20}"],  # more points than numpy can address
    ["sweep", "--scenario", "noon", "--n", "4", "--phi", "0:1e308:5"],  # 4 phi overflows
    ["sweep", "--scenario", "fock", "--phi", "0:9e307:5"],  # 2 phi, the second moment's harmonic, overflows
    ["sweep", "--scenario", "fock", "--phi=-1e308:1e308:5"],  # stop - start overflows
    ["sample", "--n", "4", "--phi-at", "1e308"],  # the phase factor exp(-i phi (n1 - n2)/2) overflows
]


def _harmonic_edge(name):
    """The largest |phi| whose top harmonic top * phi stays finite: top = 2 for an exchange readout, N for noon."""
    return sys.float_info.max / (4 if name == "noon" else 2)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_largest_grid_whose_top_harmonic_is_finite(tmp_path, capsys, name):
    head = ["sweep", "--scenario", name, "--out", str(tmp_path / "x.csv")] + {"noon": ["--n", "4"], "squeezed": ["--alpha", "4"]}.get(name, [])
    edge = _harmonic_edge(name)
    assert main(head + [f"--phi=-{edge!r}:{edge!r}:5"]) == 0
    assert "nan" not in (tmp_path / "x.csv").read_text()
    assert main(head + [f"--phi=0:{math.nextafter(edge, math.inf)!r}:5"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_largest_sampled_phase_whose_phase_factor_is_finite(tmp_path, capsys):
    # (phi / 2) (n1 - n2) reaches (phi / 2) n: finite up to phi = 2 max / n, at n = 4 max / 2
    edge = sys.float_info.max / 2
    head = ["sample", "--n", "4", "--trials", "1000", "--out", str(tmp_path / "x.csv")]
    assert main(head + ["--phi-at", repr(edge)]) == 0
    assert "nan" not in capsys.readouterr().out
    assert main(head + ["--phi-at", repr(math.nextafter(edge, math.inf))]) == 2
    assert main(["sample", "--n", "3", "--phi-at", "1e308", "--out", str(tmp_path / "x.csv")]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", OUT_OF_RANGE_CASES, ids=[" ".join(a) for a in OUT_OF_RANGE_CASES])
def test_out_of_range_inputs_exit_two(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


COMMANDS = [["sweep", "--scenario", "fock", "--n", "3"], ["sample", "--n", "2", "--trials", "100"], ["qfi-table"],
            ["metric-check"]]


@pytest.mark.parametrize("missing_dir", [True, False], ids=["missing-dir", "a-directory"])
@pytest.mark.parametrize("argv", COMMANDS, ids=[a[0] for a in COMMANDS])
def test_unwritable_out_exits_two(tmp_path, capsys, argv, missing_dir):
    out = tmp_path / "no" / "x.csv" if missing_dir else tmp_path
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ") and "Traceback" not in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


TOO_LARGE_CASES = [
    ["sweep", "--scenario", "squeezed", "--alpha", "1e200", "--r", "0.5"],
    ["sweep", "--scenario", "coherent", "--alpha", "1e200", "--beta", "1"],
    ["metric-check", "--beta", "1e200"],
    ["sweep", "--scenario", "coherent", "--alpha", "1e10", "--beta", "1"],
    ["sweep", "--scenario", "squeezed", "--alpha", "1e10", "--r", "0.5"],
    ["qfi-table", "--beta", "1e10"],
    # (N+1)(N+2)/2 amplitudes of 16 bytes pass sys.maxsize from N = 2**30 - 1 on (twin_fock holds 2N photons)
    ["sweep", "--scenario", "fock", "--n", "1073741823"],
    ["sweep", "--scenario", "noon", "--n", "1073741823"],
    ["sweep", "--scenario", "twin_fock", "--n", "536870912"],
    ["qfi-table", "--fock-n", "1073741823"],
    ["metric-check", "--noon-n", "1073741823"],
    ["sample", "--n", str(10**11)],
    # under the sys.maxsize / 16 guard but past any 2^47-byte address space: the padded basis is allocated before
    # the column's exact integers are computed, so the allocation fails at once and touches no memory
    ["sweep", "--scenario", "twin_fock", "--n", "100000000"],
    ["sweep", "--scenario", "fock", "--n", "100000000"],
    ["sweep", "--scenario", "noon", "--n", "100000000"],
]


@pytest.mark.parametrize("argv", TOO_LARGE_CASES, ids=[" ".join(a) for a in TOO_LARGE_CASES])
def test_probe_too_large_to_address_exits_three(tmp_path, capsys, argv):
    # |alpha|^2 photons of cutoff, or a basis past the address space: refused before |alpha|^2 overflows
    # or any array is allocated
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: out of memory") and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_n_cap_beyond_every_pair_writes_the_default_cap_table(tmp_path, capsys):
    # no pair of the two inputs lies above the sum of their cutoffs, so a larger cap changes nothing
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    head = ["sweep", "--scenario", "coherent", "--alpha", "2", "--beta", "2"]
    assert main(head + ["--n-cap", str(10**20), "--out", str(a)]) == 0
    assert main(head + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_sweep_after_sample_matches_a_fresh_process(tmp_path):
    # a sweep's numbers must not depend on what ran earlier in the process; each side gets a
    # fresh interpreter, so what this test session ran before cannot hide a difference
    sweep = ["sweep", "--scenario", "squeezed", "--alpha", "4", "--r", "1"]
    sample = ["sample", "--n", "2", "--eta", "0.9", "--trials", "10", "--out", str(tmp_path / "h.csv")]
    after = sweep + ["--out", str(tmp_path / "after_sample.csv")]
    code = f"from mzlab.cli import main; assert main({sample!r}) == 0; assert main({after!r}) == 0"
    for argv in (["-c", code], ["-m", "mzlab", *sweep, "--out", str(tmp_path / "fresh.csv")]):
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "after_sample.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


UNKNOWN_FLAG_CASES = [[cmd, flag, value] for cmd in ("qfi-table", "metric-check")
                      for flag, value in (("--config", "/nonexistent.cfg"), ("--seed", "5"))]


@pytest.mark.parametrize("argv", UNKNOWN_FLAG_CASES, ids=[" ".join(a) for a in UNKNOWN_FLAG_CASES])
def test_table_commands_reject_config_and_seed(tmp_path, capsys, argv):
    # the tables read no config file and draw no random numbers, so either flag would be ignored
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_largest_u64_seed_is_accepted(tmp_path):
    args = ["sample", "--n", "2", "--trials", "10", "--seed", str(2**64 - 1), "--out", str(tmp_path / "x.csv")]
    assert main(args) == 0


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency, and fractions/decimal cost import time
    # no run needs; importing the CLI must pull in none of them
    code = ("import sys, mzlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'fractions', 'decimal', '_decimal')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweeps_and_tables_load_no_random_sampler(tmp_path):
    # only sample draws random numbers; numpy loads numpy.random on first use, so no other command pays for it
    out = str(tmp_path / "x.csv")
    # nor does any of them start a thread: only the sampler spreads its chunks over the CPUs
    code = ("import sys, threading, numpy; eager = 'numpy.random' in sys.modules; started = []; "
            "start = threading.Thread.start; threading.Thread.start = lambda t: (started.append(t), start(t))[1]; "
            "import mzlab.cli; rc = [mzlab.cli.main(a + ['--out', sys.argv[1]]) for a in "
            "(['sweep', '--scenario', 'fock', '--n', '4'], ['qfi-table'], ['metric-check'])]; "
            "print(len(started), eager, rc, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, out], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    threads, eager, rest = proc.stdout.splitlines()[-1].split(" ", 2)  # the tables print their paths first
    assert threads == "0"
    if eager == "True":
        pytest.skip("this numpy loads numpy.random with numpy itself")
    assert rest.strip() == "[0, 0, 0] False"


def test_cli_import_keeps_only_the_checking_records_as_dataclasses():
    # a frozen dataclass generates its methods at import; only records that are mutable or check their
    # input in __post_init__ stay dataclasses, the plain ones are NamedTuples
    code = ("import dataclasses, inspect, sys, mzlab.cli; "
            "print(sorted({c.__name__ for m, mod in list(sys.modules.items()) if m.split('.')[0] == 'mzlab' "
            "for c in vars(mod).values() if inspect.isclass(c) and c.__module__ == m and dataclasses.is_dataclass(c)}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(sorted(["BeamSplitterSpec", "CountDistribution", "ScenarioConfig", "TwoModeState"]))


def test_sweep_rejects_seed_flag(tmp_path, capsys):
    # only sample draws random numbers
    out = tmp_path / "x.csv"
    assert main(["sweep", "--scenario", "fock", "--n", "4", "--seed", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["seed = 5", "trials = 10", "post_select = true", "eta_a = 0.5", "eta_b = 0.5",
                                  "sample_phi = 0.3"])
def test_sweep_rejects_sampling_settings(tmp_path, capsys, line):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"scenario = fock\nn = 4\n{line}\n")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and line.split()[0] in err and "Traceback" not in err
    assert not out.exists()


def _must_not_run(*args, **kwargs):
    raise AssertionError("reached work that a refused input must not start")


def test_overflowing_noon_grid_is_refused_before_any_splitter_block(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mzlab.optics, "bs2_jx_edges", _must_not_run)  # the parity readout's BS2_JX edge columns
    out = tmp_path / "x.csv"
    assert main(["sweep", "--scenario", "noon", "--n", "400", "--phi", "0:1e306:5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: phi grid 0.0:1e+306:5 refused: 400 phi, the phase of the noon readout's "
                          "top harmonic, overflows\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--scenario", "fock", "--n", "3000"],
    ["sample", "--n", "300", "--trials", "1000"],
    ["qfi-table", "--noon-n", "300"],
    ["metric-check"],
])
def test_missing_out_is_refused_before_the_run(capsys, monkeypatch, argv):
    for name in ("run_sweep", "run_noon_sampling", "run_qfi_table", "run_metric_check"):
        monkeypatch.setattr(mzlab.cli, name, _must_not_run)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "the following arguments are required: --out" in err and "Traceback" not in err


def test_negative_phi_start_takes_the_equals_form(tmp_path, capsys):
    out = tmp_path / "x.csv"
    head = ["sweep", "--scenario", "fock", "--n", "3", "--out", str(out)]
    assert main(head + ["--phi", "-1:1:5"]) == 2  # argparse reads a value that starts with '-' as an option
    assert "argument --phi: expected one argument" in capsys.readouterr().err
    assert main(head + ["--phi=-1:1:5"]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 5 and rows[0].startswith("-1,") and rows[-1].startswith("1,")


def test_out_of_memory_exits_three(tmp_path, capsys, monkeypatch):
    def run_sweep(cfg):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (5000250001,)")

    monkeypatch.setattr(mzlab.cli, "run_sweep", run_sweep)
    out = tmp_path / "x.csv"
    assert main(["sweep", "--scenario", "fock", "--n", "100000", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: out of memory") and err.count("\n") == 1
    assert not out.exists()


# with two workers, chunk 2 is the caller's and chunk 3 a thread's; "buffers" fails while a worker allocates its set
@pytest.mark.parametrize("bad_chunk", [2, 3, "caller buffers", "thread buffers"])
def test_sampler_out_of_memory_in_any_worker_exits_three(bad_chunk, tmp_path, capsys, monkeypatch):
    seed_sequence, new_buffers = np.random.SeedSequence, mzlab.measurement._new_chunk_buffers

    def failing(entropy):
        if entropy[1] == bad_chunk:
            raise MemoryError("Unable to allocate 512. KiB for an array with shape (65536,)")
        return seed_sequence(entropy)

    def failing_buffers():
        if (threading.current_thread() is threading.main_thread()) == (bad_chunk == "caller buffers"):
            raise MemoryError("Unable to allocate 512. KiB for an array with shape (65536,)")
        return new_buffers()

    monkeypatch.setattr(mzlab.measurement, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(np.random, "SeedSequence", failing)
    monkeypatch.setattr(mzlab.measurement, "_new_chunk_buffers", failing_buffers)
    monkeypatch.setattr(mzlab.measurement, "_SPARE", [])  # every worker allocates its first set
    before = threading.active_count()
    out = tmp_path / "x.csv"
    assert main(["sample", "--n", "4", "--trials", "300000", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: out of memory: Unable to allocate 512. KiB") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()
    assert threading.active_count() == before
    monkeypatch.setattr(np.random, "SeedSequence", seed_sequence)
    monkeypatch.setattr(mzlab.measurement, "_new_chunk_buffers", new_buffers)
    d = lossy_distribution(noon_output_distribution(4, 0.3), 0.9, 0.8)
    h = sample_counts(d, 300000, seed=5)
    assert {(l1, l2): c for l1, l2, c in histogram_rows(h)} == oracle_counts(d, 300000, 5)
    assert len(mzlab.measurement._SPARE) <= 2 and threading.active_count() == before


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity and two usable CPUs")
def test_sample_output_is_the_same_on_one_cpu_and_on_all(tmp_path):
    one = {min(os.sched_getaffinity(0))}
    outputs = []
    for name, preexec in (("one", lambda: os.sched_setaffinity(0, one)), ("all", None)):
        out = tmp_path / f"{name}.csv"
        argv = ["sample", "--n", "8", "--eta", "0.8", "--trials", "300000", "--post-select", "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "mzlab", *argv], capture_output=True, preexec_fn=preexec)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout.replace(bytes(out), b"OUT"), out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_large_coherent_sweep(tmp_path):
    # exp(-|alpha|^2/2) underflows at |alpha| = 45; a fine grid puts phi = pi/2 in the middle
    out = tmp_path / "coherent.csv"
    grid = f"{math.pi / 2 - 2e-4!r}:{math.pi / 2 + 2e-4!r}:5"
    assert main(["sweep", "--scenario", "coherent", "--alpha", "45", "--beta", "45", "--phi", grid, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    for row in rows:
        assert float(row["qfi"]) == pytest.approx(4 * 45.0**2, rel=1e-9)
    mid = rows[2]
    assert float(mid["phi"]) == pytest.approx(math.pi / 2, abs=1e-15)
    assert float(mid["delta_phi"]) == pytest.approx(float(mid["closed_form_delta_phi"]), rel=1e-6)


def _sweep_rows(tmp_path, capsys, argv) -> list[dict]:
    """The rows of a sweep that must exit 0 without a traceback."""
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    return list(csv.DictReader(out.read_text().splitlines()))


@pytest.mark.parametrize("n", ["1362", "1991"])
def test_large_fock_sweep_exits_zero_with_no_negative_variance(tmp_path, capsys, n):
    # second_o rounds below mean_o^2 by more than 1e-10 at the endpoints, where (N/2)^2 is ~5e5
    rows = _sweep_rows(tmp_path, capsys, ["sweep", "--scenario", "fock", "--n", n])
    assert len(rows) == 181 and all(float(row["var_o"]) >= 0 for row in rows)


def test_coherent_sweep_past_the_int64_word_weights_keeps_its_fisher_information(tmp_path, capsys):
    # the |beta| = 240 array holds ~61,000 entries; an int64 product of four ladder factors overflows past ~55,100
    rows = _sweep_rows(tmp_path, capsys, ["sweep", "--scenario", "coherent", "--alpha", "0.5", "--beta", "240"])
    for row in rows:
        assert float(row["qfi"]) == pytest.approx(4 * 240.0**2, rel=1e-8)


def test_squeezed_sweep_past_the_int64_word_weights_has_no_nan(tmp_path, capsys):
    rows = _sweep_rows(tmp_path, capsys, ["sweep", "--scenario", "squeezed", "--alpha", "240", "--r", "1"])
    assert not any(cell == "nan" for row in rows for cell in row.values())
    for row in rows:
        target = math.cos(float(row["phi"])) * (240.0**2 - math.sinh(1.0) ** 2)
        assert abs(float(row["mean_o"]) - target) <= 1e-11 * max(1.0, abs(target))  # 5.03e-12 at phi = 0


def test_subnormal_grid_step_warns_nothing_and_is_singular_everywhere(tmp_path):
    # the singular threshold 1e-9 max(1, |m|) / step overflows at a step of 2.5e-321: it reads inf, quietly
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--scenario", "fock", "--phi", "0:1e-320:5", "--out", str(out)]) == 0
    assert [row["delta_phi"] for row in csv.DictReader(out.read_text().splitlines())] == ["inf"] * 5


def test_weak_probe_on_a_huge_step_warns_nothing_and_is_singular_everywhere(tmp_path):
    # 1e-9 rms / step underflows to 0 (rms ~ 7e-161, step 4e307) and the central differences round to
    # +-0: a zero difference must read singular, not 0 / 0
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--scenario", "coherent", "--alpha", "1e-160", "--beta", "1e-160",
                     "--phi", "0:8e307:3", "--out", str(out)]) == 0
    assert [row["delta_phi"] for row in csv.DictReader(out.read_text().splitlines())] == ["inf"] * 3


@pytest.mark.parametrize("command", ["qfi-table", "metric-check"])
def test_tables_refuse_a_subnormal_fisher_information(tmp_path, capsys, command):
    # F_Q = 4 beta^2 is 4e-320 at beta = 1e-160, a subnormal with ~5 digits left; 4e-300 is a normal float
    out = tmp_path / "x.csv"
    assert main([command, "--beta", "1e-160", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command} needs Fisher information >= 2.22507e-308, and coherent beta=1e-160 "
                          "has F_Q = 3.99996e-320") and "Traceback" not in err
    assert not out.exists()
    assert main([command, "--beta", "1e-150", "--out", str(out)]) == 0


EPS_TRUNC_UNREAD_CASES = [
    ["sweep", "--scenario", "fock", "--n", "4"],
    ["sweep", "--scenario", "twin_fock", "--n", "2"],
    ["sweep", "--scenario", "noon", "--n", "4"],
    ["sample", "--n", "4", "--trials", "10"],
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv", EPS_TRUNC_UNREAD_CASES, ids=[" ".join(a[:3]) for a in EPS_TRUNC_UNREAD_CASES])
def test_epsilon_trunc_rejected_where_no_run_reads_it(tmp_path, capsys, argv, source):
    # these bases are fixed by n and exact, so a truncation tolerance would be silently ignored
    if source == "flag":
        extra = ["--epsilon-trunc", "1e-7"]
    else:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("epsilon_trunc = 1e-7\n")
        extra = ["--config", str(cfgfile)]
    out = tmp_path / "x.csv"
    assert main(argv + extra + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "epsilon_trunc" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", EPS_TRUNC_UNREAD_CASES, ids=[" ".join(a[:3]) for a in EPS_TRUNC_UNREAD_CASES])
def test_default_epsilon_trunc_is_accepted_everywhere(tmp_path, capsys, argv):
    # the default changes nothing, so naming it explicitly stays valid
    assert main(argv + ["--epsilon-trunc", "1e-10", "--out", str(tmp_path / "x.csv")]) == 0
    capsys.readouterr()


PHI = ["--phi", "0:3:7"]
# (first call, expected exit code, later call): the later call must not see anything of the first
PARSER_STATE_CASES = [
    (["sweep", "--scenario", "coherent", "--alpha", "1", "--beta", "1", "--n-cap", "30", *PHI], 0,
     ["sweep", "--scenario", "coherent", "--alpha", "1", "--beta", "1", *PHI]),
    (["sweep", "--scenario", "bogus"], 2, ["sweep", "--scenario", "fock", "--n", "3", *PHI]),
    (["sample", "--n", "2", "--trials", "1000", "--seed", "3", "--eta", "0.8"], 0,
     ["sample", "--n", "2", "--trials", "1000", "--seed", "3"]),
]


@pytest.mark.parametrize("first,code,later", PARSER_STATE_CASES, ids=["n-cap", "usage-error", "eta"])
def test_cached_parser_carries_no_state_between_calls(tmp_path, capsys, first, code, later):
    assert mzlab.cli._build_parser() is mzlab.cli._build_parser()
    assert main(first + ["--out", str(tmp_path / "first.csv")]) == code
    capsys.readouterr()
    here, fresh = tmp_path / "later.csv", tmp_path / "fresh.csv"
    assert main(later + ["--out", str(here)]) == 0
    stdout = capsys.readouterr().out.replace(str(here), "<out>")
    proc = subprocess.run([sys.executable, "-m", "mzlab", *later, "--out", str(fresh)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert stdout == proc.stdout.replace(str(fresh), "<out>")
    assert here.read_bytes() == fresh.read_bytes()
    if later[0] == "sample":
        assert "eta_a = 1  eta_b = 1" in stdout


UNREAD_PARAMETER_FLAGS = [
    (["sweep", "--scenario", "fock", "--n", "4", "--alpha", "3", "--r", "0.2"], "alpha_mag, r"),
    (["sweep", "--scenario", "coherent", "--n", "9"], "n"),
    (["sweep", "--scenario", "noon", "--n", "4", "--theta1", "0.5"], "theta1"),
    (["sweep", "--scenario", "twin_fock", "--n", "2", "--f", "0.1"], "f"),
    (["sweep", "--scenario", "squeezed", "--alpha", "4", "--beta", "3"], "beta_mag"),
    (["sweep", "--scenario", "squeezed", "--alpha", "4", "--theta2", "0.3"], "theta2"),
]


@pytest.mark.parametrize("argv,names", UNREAD_PARAMETER_FLAGS, ids=[" ".join(a[2:]) for a, _ in UNREAD_PARAMETER_FLAGS])
def test_sweep_rejects_scenario_flags_it_does_not_read(tmp_path, capsys, argv, names):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"does not read {names};" in err and "Traceback" not in err
    assert not out.exists()


UNREAD_CONFIG_KEYS = [
    (["sample", "--n", "2", "--trials", "100"], line)
    for line in ("alpha_mag = 3", "r = 0.5", "phi_steps = 7", "theta = 0.1", "n_cap = 5")
] + [
    (["sweep", "--scenario", "fock", "--n", "4"], line) for line in ("beta_mag = 1.5", "f = 0.2", "n_cap = 9")
]


@pytest.mark.parametrize("argv,line", UNREAD_CONFIG_KEYS, ids=[f"{a[0]} {line}" for a, line in UNREAD_CONFIG_KEYS])
def test_runs_reject_config_keys_they_do_not_read(tmp_path, capsys, argv, line):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{line}\n")
    out = tmp_path / "x.csv"
    assert main(argv + ["--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"does not read {line.split()[0]};" in err and "Traceback" not in err
    assert not out.exists()


def test_scenario_parameter_at_its_default_is_accepted(tmp_path, capsys):
    # naming a default changes nothing, so it stays valid, as for epsilon_trunc
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--scenario", "fock", "--n", "4", "--alpha", "2", "--out", str(a)]) == 0
    assert main(["sweep", "--scenario", "fock", "--n", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


# ----- fuzzing the whole flag surface ------------------------------------------------

_MAGNITUDES = ["0", "0.7", "2", "9", "1e10", "1e200", "-1", "nan", "inf", "-inf"]
_ANGLES = ["0", "0.3", "-2", "7", "1e6", "nan", "inf", "-inf"]
_PHOTONS = ["-1", "0", "1", "2", "6", "x"]
_EPS = ["0", "1e-12", "1e-10", "1e-6", "1e-5", "-1", "nan", "inf"]
_ETAS = ["-0.1", "0", "0.5", "1", "1.0000001", "nan", "inf"]
_PHI = ["0:3.14159:5", "0:1:3", "0:1:2", "1:0:5", "0:0:5", "-3:3:2000", "nan:1:5", "0:inf:5", "0:1:-1", "0-1-5", "0:1:x",
        "1e8:100000000.000001:5", "0:1e308:5"]
_FLAGS = {
    "sweep": {
        "--scenario": ["coherent", "fock", "twin_fock", "squeezed", "noon", "bogus"],
        "--n": _PHOTONS, "--alpha": _MAGNITUDES, "--beta": [*_MAGNITUDES, "1e-200"], "--theta1": _ANGLES, "--theta2": _ANGLES,
        "--r": ["0", "0.3", "1", "2", "1000", "-0.5", "nan", "inf"], "--theta": _ANGLES, "--f": _ANGLES, "--phi": _PHI,
        "--n-cap": ["-1", "0", "5", "40", str(10**20)], "--epsilon-trunc": _EPS,
    },
    "sample": {
        "--scenario": ["noon", "fock"], "--n": _PHOTONS, "--seed": ["-1", "0", "12345", str(2**64 - 1), str(2**64)],
        "--eta": _ETAS, "--eta-a": _ETAS, "--eta-b": _ETAS, "--trials": ["-5", "0", "1", "777", "10000"],
        "--post-select": None, "--phi-at": ["0", "0.3", "-1", "1e6", "1e308", "nan", "inf"], "--epsilon-trunc": _EPS,
    },
    "qfi-table": {"--beta": ["0", "1e-200", "1", "2.5", "1e10", "1e200", "-1", "nan", "inf"], "--fock-n": _PHOTONS,
                  "--noon-n": _PHOTONS, "--epsilon-trunc": _EPS},
    "metric-check": {"--beta": ["0", "1e-200", "1", "2.5", "1e10", "1e200", "-1", "nan", "inf"], "--noon-n": _PHOTONS,
                     "--step": ["0", "1e-300", "1e-4", "-1e-3", "0.5", "nan", "inf"], "--epsilon-trunc": _EPS},
}
# config-file lines for the subcommands that read one: scenario keys and values as the flags draw them
_CONFIG_LINES = [f"{key} = {val}" for key, vals in (
    ("n", _PHOTONS), ("alpha_mag", _MAGNITUDES), ("r", ["0", "0.5", "-1"]), ("phi_steps", ["2", "7"]),
    ("eta_a", _ETAS), ("trials", ["0", "50"]), ("post_select", ["true", "maybe"]), ("epsilon_trunc", _EPS),
    ("n_cap", ["0", "30"]), ("seed", ["3"]), ("wavelength", ["633"]),
) for val in vals]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=6, unique=True)):
        argv += [flag] if flags[flag] is None else [flag, draw(st.sampled_from(flags[flag]))]
    config = None
    if command in ("sweep", "sample") and draw(st.booleans()):
        # one line a key: a key set twice stops at the duplicate-key refusal, which has its own test
        config = draw(st.lists(st.sampled_from(_CONFIG_LINES), max_size=3, unique_by=lambda line: line.split(" = ")[0]))
    return argv, config


def _assert_exit_code_contract(argv, config):
    """Run one argv (with an optional config file) and check the exit-code contract on it."""
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            cfgfile = Path(tmp) / "run.cfg"
            cfgfile.write_text("\n".join(config) + "\n")
            argv = argv + ["--config", str(cfgfile)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(Path(tmp) / "x.csv")])
        assert code in (0, 2, 3), (argv, config, code)
        assert "Traceback" not in err.getvalue()
        assert (Path(tmp) / "x.csv").exists() == (code == 0), (argv, config, code)
        if code == 0:
            with open(Path(tmp) / "x.csv", newline="") as fh:
                assert not any(cell == "nan" for row in csv.reader(fh) for cell in row), (argv, config)


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_cli_fuzz_keeps_the_exit_code_contract(case):
    """Any argv over every flag of every subcommand exits 0, 2 or 3, never with an exception."""
    _assert_exit_code_contract(*case)


# the ScenarioConfig field each sweep flag sets, where it differs from the flag's name
_SWEEP_FIELD = {"--alpha": "alpha_mag", "--beta": "beta_mag"}


def _one_flag_cases():
    """Every listed value of every flag of each subcommand; a sweep flag under each scenario that reads it."""
    cases = []
    for command, flags in _FLAGS.items():
        for flag, values in flags.items():
            heads = [[command]]
            if command == "sweep" and flag != "--scenario":
                field = _SWEEP_FIELD.get(flag, flag[2:].replace("-", "_"))
                heads = [["sweep", "--scenario", name] for name, sc in SCENARIOS.items()
                         if flag == "--phi" or field in sc.reads]
                assert heads, flag
            args = [[flag]] if values is None else [[flag, value] for value in values]
            cases += [head + arg for head in heads for arg in args]
    return cases


def test_every_listed_flag_value_keeps_the_exit_code_contract():
    """The fuzz test's contract on each listed value of each flag, so no value depends on a random draw."""
    for argv in _one_flag_cases():
        _assert_exit_code_contract(argv, None)


# ----- reading argv without argparse ---------------------------------------------------

# tokens a well-formed command line never holds, or holds elsewhere: negatives, help, the end-of-options marker,
# empty strings, '=' forms, abbreviations, values argparse may read differently, and flags of other subcommands
_HOSTILE_TOKENS = ["-1", "-h", "--help", "--", "", "-", "=", "--n=3", "--phi=-1:1:5", "--out=x.csv", "--alp", "--scen",
                   "--e", "--eta-", "nan", "1_0", " 7", "bogus", "fock", "--seed", "--fock-n", "--step", "--post-select",
                   "--config", "--out"]


@st.composite
def _command_line(draw):
    """A command (or an unknown one), then mostly its own flags with their listed values, mixed with hostile
    tokens, and usually --out somewhere, even between a flag and its value."""
    command = draw(st.sampled_from([*sorted(_FLAGS), "bogus"]))
    own = _FLAGS.get(command, {})
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        if own and draw(st.integers(0, 3)):
            flag = draw(st.sampled_from(sorted(own)))
            argv += [flag] if own[flag] is None else [flag, draw(st.sampled_from(own[flag]))]
        else:
            argv.append(draw(st.sampled_from(_HOSTILE_TOKENS)))
    if draw(st.integers(0, 3)):
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = ["--out", "x.csv"]
    return argv


def _argparse_given(argv):
    """``vars(parse_args(argv))``, or None where argparse exits; either shown with its order and types."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return repr(list(vars(mzlab.cli._build_parser().parse_args(argv)).items()))
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(_command_line())
def test_read_argv_gives_argparse_dict_or_defers_to_argparse(argv):
    read = mzlab.cli._read_argv(argv)
    if read is not None:
        assert repr(list(read.items())) == _argparse_given(argv), argv


def test_read_argv_reads_every_listed_flag_value_argparse_accepts_but_negatives():
    """The fuzz table's values, one flag at a time: the reader defers only what argparse refuses or a value
    that starts with '-', so a well-formed line never builds the parser."""
    for argv in _one_flag_cases():
        argv = argv + ["--out", "x.csv"]
        read = mzlab.cli._read_argv(argv)
        negative = any(token.startswith("-") and not token.startswith("--") for token in argv)
        assert (None if read is None else repr(list(read.items()))) == (None if negative else _argparse_given(argv))


@pytest.mark.parametrize("argv,usage", [(["-h"], "usage: mzlab [-h]"), (["sweep", "-h"], "usage: mzlab sweep [-h]")])
def test_help_exits_zero_with_usage_on_stdout(argv, usage):
    proc = subprocess.run([sys.executable, "-m", "mzlab", *argv], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith(usage)
    assert proc.stderr == ""


def test_well_formed_runs_never_build_the_argparse_parser(tmp_path):
    code = ("import sys, mzlab.cli; "
            "rc = [mzlab.cli.main(a + ['--out', sys.argv[1]]) for a in "
            "(['sweep', '--scenario', 'fock', '--n', '4'], ['sample', '--n', '2', '--trials', '100', '--post-select'], "
            "['qfi-table', '--noon-n', '3'], ['metric-check', '--beta', '1.5'])]; "
            "print(rc, 'argparse' in sys.modules, mzlab.cli._build_parser.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "x.csv")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] False 0"
