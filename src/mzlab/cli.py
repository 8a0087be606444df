"""Command-line surface: sweep, sample, qfi-table, metric-check.

Every subcommand requires --out.  Input is refused before the work it
would waste: argparse checks the flags, ``ScenarioConfig`` checks a config
when it is built, and a sweep checks its grid against its readout's top
harmonic before it reads the probe out.

The parsers hold no defaults: a flag left out is absent, not set, so it
never masks a config file.  ``sweep`` and ``sample`` build their config
from the command's default (``sample``: ``scenario = noon``, and it
refuses any other), then the ``--config`` file, then the flags given; a
field none of them sets takes its ``ScenarioConfig`` default.  The tables
pass the flags given to ``run_qfi_table`` / ``run_metric_check``, whose
signatures hold their defaults.  A config file that cannot be read or is
not UTF-8 exits 2.

Exit codes: 0 success, 2 argument/config errors (argparse prints usage) or
an unwritable --out, 3 numerical failures such as an exhausted
post-selection filter, a truncation deficit above the configured epsilon,
or a basis too large for the memory at hand.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ConfigError, NumericsError
from .measurement import write_histogram_csv
from .scenarios import (
    EPS_TRUNC_DEFAULT,
    SCENARIO_NAMES,
    ScenarioConfig,
    config_from_values,
    load_config_file,
    run_metric_check,
    run_noon_sampling,
    run_qfi_table,
    run_sweep,
    write_metric_csv,
    write_qfi_table_csv,
)


def _parse_phi_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--phi expects start:stop:steps, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--phi expects start:stop:steps, got {text!r}") from exc


def _add_parser(sub, name: str, summary: str, config_file: bool) -> argparse.ArgumentParser:
    """A subcommand whose flags default to absent, with the flags of every subcommand.
    Those that read a config file (sweep, sample) also take --config."""
    p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--epsilon-trunc", type=float, dest="epsilon_trunc",
                   help=f"allowed truncation deficit (default {EPS_TRUNC_DEFAULT:g})")
    if config_file:
        p.add_argument("--config", help="flat key = value config file; flags override it")
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="mzlab", description="Two-mode interferometer phase-estimation laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    sw = _add_parser(sub, "sweep", "phase sweep of one scenario, written as CSV", config_file=True)
    sw.add_argument("--scenario", choices=SCENARIO_NAMES)
    sw.add_argument("--n", type=int, help="photon number for fock/twin_fock/noon")
    sw.add_argument("--alpha", type=float, dest="alpha_mag", help="|alpha| of the first arm")
    sw.add_argument("--beta", type=float, dest="beta_mag", help="|beta| of the second arm")
    sw.add_argument("--theta1", type=float)
    sw.add_argument("--theta2", type=float)
    sw.add_argument("--r", type=float, help="squeezing magnitude")
    sw.add_argument("--theta", type=float, help="squeezing phase")
    sw.add_argument("--f", type=float, help="coherent phase of the squeezed scenario (default (pi - theta)/2)")
    sw.add_argument("--phi", help="grid as start:stop:steps (default 0:pi:181); write a negative start as --phi=-1:1:5")
    sw.add_argument("--n-cap", type=int, dest="n_cap", help="override the automatic basis cutoff (coherent, squeezed)")

    sa = _add_parser(sub, "sample", "Monte Carlo photon counting with loss (noon scenario)", config_file=True)
    sa.add_argument("--scenario", choices=("noon",))
    sa.add_argument("--n", type=int)
    sa.add_argument("--seed", type=int, help="sampling seed (unsigned 64-bit)")
    sa.add_argument("--eta", type=float, help="transmissivity of both arms")
    sa.add_argument("--eta-a", type=float, dest="eta_a")
    sa.add_argument("--eta-b", type=float, dest="eta_b")
    sa.add_argument("--trials", type=int)
    sa.add_argument("--post-select", dest="post_select", action="store_const", const=True,
                    help="keep only events with l1 + l2 equal to the prepared photon number")
    sa.add_argument("--phi-at", type=float, dest="sample_phi", help="phase at which to sample (default pi/(3n))")

    qt = _add_parser(sub, "qfi-table", "Fisher-information comparison table", config_file=False)
    qt.add_argument("--beta", type=float, dest="beta_mag")
    qt.add_argument("--fock-n", type=int, dest="fock_n")
    qt.add_argument("--noon-n", type=int, dest="noon_n")

    mc = _add_parser(sub, "metric-check", "projective-metric cross-check of the Fisher information", config_file=False)
    mc.add_argument("--beta", type=float, dest="beta_mag")
    mc.add_argument("--noon-n", type=int, dest="noon_n")
    mc.add_argument("--step", type=float, dest="h", help="finite-difference step")
    return ap


def _assemble_config(command: str, given: dict) -> ScenarioConfig:
    """The command's default, then the config file, then the flags ``given`` (field name -> value, besides
    config, phi and eta); a field none of them sets keeps its ``ScenarioConfig`` default."""
    values = {"scenario": "noon"} if command == "sample" else {}
    if "config" in given:
        values.update(load_config_file(given.pop("config")))
    if "phi" in given:
        values.update(zip(("phi_start", "phi_stop", "phi_steps"), _parse_phi_range(given.pop("phi"))))
    if "eta" in given:
        values["eta_a"] = values["eta_b"] = given.pop("eta")
    return config_from_values(values | given)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        given = vars(parser.parse_args(argv))  # only the flags given: the parsers hold no defaults
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code) if exc.code else 0
    command, out = given.pop("command"), given.pop("out")
    try:
        if command == "sweep":
            table = run_sweep(_assemble_config(command, given))
            table.write_csv(out)
            if table.annotation:
                print(f"note: {table.annotation}")
            print(f"wrote {out} ({table.phi.size} rows)")
        elif command == "sample":
            report = run_noon_sampling(_assemble_config(command, given))
            write_histogram_csv(report.histogram, out)
            for line in report.lines():
                print(line)
            print(f"wrote {out}")
        elif command == "qfi-table":
            rows = run_qfi_table(**given)
            write_qfi_table_csv(rows, out)
            print(f"wrote {out} ({len(rows)} rows)")
        else:
            rows = run_metric_check(**given)
            write_metric_csv(rows, out)
            print(f"wrote {out} ({len(rows)} rows)")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except OSError as exc:  # only the CSV writes open files: a config file's OSError is a ConfigError
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
