#!/usr/bin/env python3
"""Loss study for NOON-state parity: how post-selection trades events for bias.

For each transmissivity eta the script reports the exact lossy parity (the
biased value a naive analysis would use), the Monte Carlo estimate after
post-selecting on l1 + l2 = N (bias-free for a definite-N probe), the kept
fraction (which decays like eta^N), and the resulting standard errors.
Each eta is one ``sample`` run, ``run_noon_sampling`` on a config with
post-selection, seeded ``--seed`` + k for the k-th eta.
"""

import argparse
import math

from mzlab.measurement import write_text
from mzlab.scenarios import ScenarioConfig, run_noon_sampling


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--phi", type=float, default=math.pi / 12)
    ap.add_argument("--trials", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="noon_loss_study.csv")
    args = ap.parse_args()

    reports = [
        run_noon_sampling(ScenarioConfig(scenario="noon", n=args.n, eta_a=eta, eta_b=eta, trials=args.trials,
                                         seed=args.seed + k, post_select=True, sample_phi=args.phi))
        for k, eta in enumerate(0.5 + 0.05 * k for k in range(11))
    ]
    print(f"N = {args.n}, phi = {args.phi:.6f}, lossless parity = {reports[0].exact_parity_lossless:.6f}")

    lines = ["eta,exact_lossy_parity,unfiltered_mc,unfiltered_stderr,filtered_mc,filtered_stderr,kept_fraction\n"]
    for rep in reports:
        eta, plain, filt = rep.config.eta_a, rep.unfiltered, rep.filtered
        lines.append(
            f"{eta:.2f},{rep.exact_parity_lossy:.10f},"
            f"{plain.estimate:.10f},{plain.stderr:.10f},"
            f"{filt.estimate:.10f},{filt.stderr:.10f},{filt.kept_fraction:.10f}\n"
        )
        print(
            f"eta {eta:4.2f}: lossy {rep.exact_parity_lossy:+.4f}  "
            f"filtered {filt.estimate:+.4f} +/- {filt.stderr:.4f}  kept {filt.kept_fraction:.4f}"
        )
    write_text(args.out, "".join(lines))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
