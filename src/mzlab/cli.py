"""Command-line surface: sweep, sample, qfi-table, metric-check.

Every subcommand requires --out.  Each flag is declared once, in
``_COMMANDS``: ``_read_argv`` reads a well-formed command line from it,
and the argparse parser built from it reads any other, and alone prints
help, usage and errors.  Input is refused before the work it would waste:
the flags are checked as they are read, ``ScenarioConfig`` checks a config
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

import functools
import sys

from .errors import ConfigError, NumericsError
from .measurement import write_histogram_csv
from .scenarios import (
    EPS_TRUNC_DEFAULT,
    SCENARIO_NAMES,
    ScenarioConfig,
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


# Each subcommand's flags, in the order its help lists them: (flag, dest, converter, help).  A converter is the
# callable argparse applies to the value, a tuple of the values allowed, or None for a flag that takes no value
# and stores True.  Every subcommand requires --out; sweep and sample also read a --config file.
_COMMON = (("--out", "out", str, "output CSV path"),
           ("--epsilon-trunc", "epsilon_trunc", float, f"allowed truncation deficit (default {EPS_TRUNC_DEFAULT:g})"))
_WITH_CONFIG = (*_COMMON, ("--config", "config", str, "flat key = value config file; flags override it"))
_COMMANDS = {
    "sweep": ("phase sweep of one scenario, written as CSV", (
        *_WITH_CONFIG,
        ("--scenario", "scenario", SCENARIO_NAMES, None),
        ("--n", "n", int, "photon number for fock/twin_fock/noon"),
        ("--alpha", "alpha_mag", float, "|alpha| of the first arm"),
        ("--beta", "beta_mag", float, "|beta| of the second arm"),
        ("--theta1", "theta1", float, None), ("--theta2", "theta2", float, None),
        ("--r", "r", float, "squeezing magnitude"),
        ("--theta", "theta", float, "squeezing phase"),
        ("--f", "f", float, "coherent phase of the squeezed scenario (default (pi - theta)/2)"),
        ("--phi", "phi", str, "grid as start:stop:steps (default 0:pi:181); write a negative start as --phi=-1:1:5"),
        ("--n-cap", "n_cap", int, "override the automatic basis cutoff (coherent, squeezed)"))),
    "sample": ("Monte Carlo photon counting with loss (noon scenario)", (
        *_WITH_CONFIG,
        ("--scenario", "scenario", ("noon",), None),
        ("--n", "n", int, None),
        ("--seed", "seed", int, "sampling seed (unsigned 64-bit)"),
        ("--eta", "eta", float, "transmissivity of both arms"),
        ("--eta-a", "eta_a", float, None), ("--eta-b", "eta_b", float, None),
        ("--trials", "trials", int, None),
        ("--post-select", "post_select", None, "keep only events with l1 + l2 equal to the prepared photon number"),
        ("--phi-at", "sample_phi", float, "phase at which to sample (default pi/(3n))"))),
    "qfi-table": ("Fisher-information comparison table", (
        *_COMMON,
        ("--beta", "beta_mag", float, None), ("--fock-n", "fock_n", int, None), ("--noon-n", "noon_n", int, None))),
    "metric-check": ("projective-metric cross-check of the Fisher information", (
        *_COMMON,
        ("--beta", "beta_mag", float, None), ("--noon-n", "noon_n", int, None),
        ("--step", "h", float, "finite-difference step"))),
}
_FLAGS = {name: {flag: (dest, conv) for flag, dest, conv, _ in flags} for name, (_, flags) in _COMMANDS.items()}


def _read_argv(argv) -> dict | None:
    """``vars(_build_parser().parse_args(argv))`` for a command, then its exact flags, each but --post-select with
    a value that does not start with '-' and passes its converter, --out among them (the last repeat wins).  None
    for anything else (help, an abbreviation, '=', a negative value, '--', a missing or bad value)."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _FLAGS:
        return None
    flags, given, tokens = _FLAGS[argv[0]], {"command": argv[0]}, iter(argv[1:])
    for token in tokens:
        if token not in flags:
            return None
        dest, conv = flags[token]
        if conv is None:
            given[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-") or isinstance(conv, tuple) and value not in conv:
            return None
        try:
            given[dest] = value if isinstance(conv, tuple) else conv(value)
        except ValueError:
            return None
    return given if "out" in given else None


@functools.cache
def _build_parser():
    """The argparse parser over ``_COMMANDS``, built on the first call and reused: parsing leaves it unchanged.
    Only a command line ``_read_argv`` refuses, and the usage printed under a config error, need it."""
    import argparse

    ap = argparse.ArgumentParser(prog="mzlab", description="Two-mode interferometer phase-estimation laboratory")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (summary, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        for flag, dest, conv, text in flags:
            kind = ({"action": "store_const", "const": True} if conv is None
                    else {"choices": conv} if isinstance(conv, tuple) else {"type": conv})
            p.add_argument(flag, dest=dest, required=flag == "--out", help=text, **kind)
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
    return ScenarioConfig(**(values | given))


def main(argv=None) -> int:
    given = _read_argv(argv)  # only the flags given: the parsers hold no defaults
    if given is None:
        try:
            given = vars(_build_parser().parse_args(argv))
        except SystemExit as exc:  # argparse already printed help, or usage and the error
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
        _build_parser().print_usage(sys.stderr)
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
