"""Response of the bundled pairwise-trained network across the state catalog.

Each row evolves one catalog state through the trained pulse schedule and
prints the four squared correlation outputs. Entangled pairs should light
up their own detector near 1 while the other detectors stay near 0; the
partially entangled P states land in between.
"""
import argparse

from qnnwitness import IntegratorConfig, evaluate
from qnnwitness.hamiltonian import resolve_schedule

ROWS = [
    "Bell_AB", "Bell_AC", "Bell_BC",
    "flat_AB", "flat_AC", "flat_BC",
    "Cr_AB", "Cr_AC", "Cr_BC",
    "P_AB", "P_AC", "P_BC",
    "F1", "F2", "F3", "M",
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--schedule", default="trained_set1",
                    help="bundled schedule name or a parameter file")
    ap.add_argument("--dt", type=float, default=0.05)
    args = ap.parse_args()

    s = resolve_schedule(args.schedule)
    cfg = IntegratorConfig(args.dt)

    print(f"{'state':<10} {'AB':>8} {'AC':>8} {'BC':>8} {'ABC':>8}")
    for name in ROWS:
        report = evaluate(name, s, cfg)
        vals = " ".join(f"{report.outputs[k]:8.4f}"
                        for k in ("AB", "AC", "BC", "ABC"))
        print(f"{name:<10} {vals}")


if __name__ == "__main__":
    main()
