#!/usr/bin/env python3
"""Loss study for NOON-state parity: how post-selection trades events for bias.

For each transmissivity eta the script reports the exact lossy parity (the
biased value a naive analysis would use), the Monte Carlo estimate after
post-selecting on l1 + l2 = N (bias-free for a definite-N probe), the kept
fraction (which decays like eta^N), and the resulting standard errors.
"""

import argparse
import math

from mzlab.measurement import lossy_distribution, parity_expectation, parity_from_histogram, sample_counts, write_text
from mzlab.scenarios import noon_output_distribution


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--phi", type=float, default=math.pi / 12)
    ap.add_argument("--trials", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="noon_loss_study.csv")
    args = ap.parse_args()

    ideal = noon_output_distribution(args.n, args.phi)
    truth = parity_expectation(ideal, "a")
    print(f"N = {args.n}, phi = {args.phi:.6f}, lossless parity = {truth:.6f}")

    lines = ["eta,exact_lossy_parity,unfiltered_mc,unfiltered_stderr,filtered_mc,filtered_stderr,kept_fraction\n"]
    for k in range(11):
        eta = 0.5 + 0.05 * k
        lossy = lossy_distribution(ideal, eta, eta)
        hist = sample_counts(lossy, args.trials, args.seed + k)
        plain = parity_from_histogram(hist)
        filt = parity_from_histogram(hist, post_select_total=args.n)
        lines.append(
            f"{eta:.2f},{parity_expectation(lossy, 'a'):.10f},"
            f"{plain.estimate:.10f},{plain.stderr:.10f},"
            f"{filt.estimate:.10f},{filt.stderr:.10f},{filt.kept_fraction:.10f}\n"
        )
        print(
            f"eta {eta:4.2f}: lossy {parity_expectation(lossy, 'a'):+.4f}  "
            f"filtered {filt.estimate:+.4f} +/- {filt.stderr:.4f}  kept {filt.kept_fraction:.4f}"
        )
    write_text(args.out, "".join(lines))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
