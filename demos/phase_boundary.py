"""Sweep the alpha|110> + beta|111> + |000> family and locate where the
pairwise detector hands over to the three-way one."""
import argparse

from qnnwitness import IntegratorConfig, bundled_schedule, sweep
from qnnwitness.witness import crossing_csv, crossing_path, sweep_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=21, help="grid points per axis")
    ap.add_argument("--dt", type=float, default=0.25)
    ap.add_argument("--out", default="phase_boundary.csv")
    args = ap.parse_args()

    s = bundled_schedule("trained_set2")
    grid = sweep("fig2", args.n, s, IntegratorConfig(args.dt))

    sweep_csv(grid, args.out)
    locus = crossing_path(args.out)
    crossing_csv(grid, locus)
    print(f"wrote {args.out} and {locus}")

    # for this family the handover should sit near alpha = beta
    print(f"\n{'beta':>6} {'alpha*':>8} {'|alpha*-beta|':>14}")
    worst = 0.0
    for beta, alpha_star in grid.crossing:
        dev = abs(alpha_star - beta)
        worst = max(worst, dev)
        print(f"{beta:6.2f} {alpha_star:8.3f} {dev:14.3f}")
    print(f"\nlargest deviation from the diagonal: {worst:.3f}")


if __name__ == "__main__":
    main()
