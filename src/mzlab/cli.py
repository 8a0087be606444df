"""Command-line surface: sweep, sample, qfi-table, metric-check.

Every subcommand requires --out.  Input is refused before the work it
would waste: argparse checks the flags, ``ScenarioConfig`` checks a config
when it is built, and a sweep checks its grid against its readout's top
harmonic before it reads the probe out.

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
    _CONFIG_FIELDS,
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


def _add_common(p: argparse.ArgumentParser, config_file: bool) -> None:
    """Flags of every subcommand.  Those that read a config file (sweep, sample) also take
    --config, and leave --epsilon-trunc unset so the file's value stands."""
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--epsilon-trunc", type=float, dest="epsilon_trunc", default=None if config_file else EPS_TRUNC_DEFAULT,
                   help=f"allowed truncation deficit (default {EPS_TRUNC_DEFAULT:g})")
    if config_file:
        p.add_argument("--config", help="flat key = value config file; flags override it")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="mzlab", description="Two-mode interferometer phase-estimation laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="phase sweep of one scenario, written as CSV")
    _add_common(sw, config_file=True)
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

    sa = sub.add_parser("sample", help="Monte Carlo photon counting with loss (noon scenario)")
    _add_common(sa, config_file=True)
    sa.add_argument("--scenario", choices=("noon",), default="noon")
    sa.add_argument("--n", type=int)
    sa.add_argument("--seed", type=int, help="sampling seed (unsigned 64-bit)")
    sa.add_argument("--eta", type=float, help="transmissivity of both arms")
    sa.add_argument("--eta-a", type=float, dest="eta_a")
    sa.add_argument("--eta-b", type=float, dest="eta_b")
    sa.add_argument("--trials", type=int)
    sa.add_argument("--post-select", dest="post_select", action="store_const", const=True,
                    help="keep only events with l1 + l2 equal to the prepared photon number")
    sa.add_argument("--phi-at", type=float, dest="sample_phi", help="phase at which to sample (default pi/(3n))")

    qt = sub.add_parser("qfi-table", help="Fisher-information comparison table")
    _add_common(qt, config_file=False)
    qt.add_argument("--beta", type=float, dest="beta_mag", default=2.0)
    qt.add_argument("--fock-n", type=int, dest="fock_n", default=9)
    qt.add_argument("--noon-n", type=int, dest="noon_n", default=4)

    mc = sub.add_parser("metric-check", help="projective-metric cross-check of the Fisher information")
    _add_common(mc, config_file=False)
    mc.add_argument("--beta", type=float, dest="beta_mag", default=2.0)
    mc.add_argument("--noon-n", type=int, dest="noon_n", default=4)
    mc.add_argument("--step", type=float, default=1e-4, help="finite-difference step")
    return ap


def _assemble_config(args: argparse.Namespace) -> ScenarioConfig:
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    if getattr(args, "phi", None):
        start, stop, steps = _parse_phi_range(args.phi)
        values.update(phi_start=start, phi_stop=stop, phi_steps=steps)
    if getattr(args, "eta", None) is not None:
        values.update(eta_a=args.eta, eta_b=args.eta)
    for key in _CONFIG_FIELDS:
        val = getattr(args, key, None)
        if val is not None:
            values[key] = val
    return config_from_values(values)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "sweep":
            cfg = _assemble_config(args)
            table = run_sweep(cfg)
            table.write_csv(args.out)
            if table.annotation:
                print(f"note: {table.annotation}")
            print(f"wrote {args.out} ({table.phi.size} rows)")
        elif args.command == "sample":
            cfg = _assemble_config(args)
            report = run_noon_sampling(cfg)
            write_histogram_csv(report.histogram, args.out)
            for line in report.lines():
                print(line)
            print(f"wrote {args.out}")
        elif args.command == "qfi-table":
            rows = run_qfi_table(
                beta_mag=args.beta_mag,
                fock_n=args.fock_n,
                noon_n=args.noon_n,
                epsilon_trunc=args.epsilon_trunc,
            )
            write_qfi_table_csv(rows, args.out)
            print(f"wrote {args.out} ({len(rows)} rows)")
        else:
            rows = run_metric_check(
                beta_mag=args.beta_mag,
                noon_n=args.noon_n,
                h=args.step,
                epsilon_trunc=args.epsilon_trunc,
            )
            write_metric_csv(rows, args.out)
            print(f"wrote {args.out} ({len(rows)} rows)")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except OSError as exc:  # only the CSV writes open files: a config file's OSError is a ConfigError
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
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
