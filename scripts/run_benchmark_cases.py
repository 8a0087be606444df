#!/usr/bin/env python3
"""Run the five benchmark interferometer cases plus the comparison tables.

Writes one CSV per case into --outdir and prints a one-line summary each:

  coherent   |alpha| = |beta| = 2       number-difference readout, SQL floor
  fock       N = 16 into one port       same readout, still the SQL
  twin_fock  N = 3 in both ports        null first-order signal
  squeezed   alpha = 4, r = 1           sub-SQL at the fringe quadrature
  noon       N = 4, parity readout      Heisenberg scaling 1/N
"""

import argparse
import math
import pathlib

from mzlab.estimation import is_singular
from mzlab.scenarios import (
    ScenarioConfig,
    run_metric_check,
    run_qfi_table,
    run_sweep,
    write_metric_csv,
    write_qfi_table_csv,
)


def best_delta_phi(table):
    finite = [x for x in table.delta_phi.tolist() if not is_singular(x)]
    return min(finite) if finite else math.inf


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out", help="directory for the CSV files")
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    cases = [
        ("coherent", ScenarioConfig(scenario="coherent", alpha_mag=2.0, beta_mag=2.0, n_cap=40)),
        ("fock", ScenarioConfig(scenario="fock", n=16)),
        ("twin_fock", ScenarioConfig(scenario="twin_fock", n=3)),
        ("squeezed", ScenarioConfig(scenario="squeezed", alpha_mag=4.0, r=1.0)),
        ("noon", ScenarioConfig(scenario="noon", n=4)),
    ]
    for name, cfg in cases:
        table = run_sweep(cfg)
        path = outdir / f"{name}.csv"
        table.write_csv(path)
        note = f"  [{table.annotation}]" if table.annotation else ""
        print(f"{name:10s} best delta-phi {best_delta_phi(table):.6g}   bound {table.crb:.6g}   -> {path}{note}")

    rows = run_qfi_table(beta_mag=2.0, fock_n=9, noon_n=4)
    write_qfi_table_csv(rows, outdir / "qfi_table.csv")
    print(f"{'qfi-table':10s} F = {[round(r.f_q, 6) for r in rows]}   -> {outdir / 'qfi_table.csv'}")

    mrows = run_metric_check(beta_mag=2.0, noon_n=4)
    write_metric_csv(mrows, outdir / "metric_check.csv")
    worst = max(r.rel_error for r in mrows)
    print(f"{'metric':10s} worst rel deviation {worst:.2e}   -> {outdir / 'metric_check.csv'}")


if __name__ == "__main__":
    main()
