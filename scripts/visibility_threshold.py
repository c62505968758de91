#!/usr/bin/env python3
"""Scan instrument visibility against the CHSH bound.

For each v on a grid, prints the exact S at the optimal settings, a sampled
S with its standard error, and whether the sampled run is a decisive
violation (S_hat - 2 > 3 stderr). The crossing sits at v = 1/sqrt2, the
minimum fringe contrast from which the paired outcomes certify nonlocality.
"""

import argparse
import math

from biphoton import CHSH_OPTIMAL, Visibility, bell_experiment, chsh


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--v-min", type=float, default=0.0)
    p.add_argument("--v-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--samples", type=int, default=20_000,
                   help="events per CHSH setting for the sampled column")
    p.add_argument("--seed", type=int, default=2026)
    return p.parse_args()


def main() -> None:
    cfg = parse_args()
    print("v,S_exact,S_hat,stderr,decisive_violation")
    for i in range(cfg.steps):
        v = cfg.v_min + (cfg.v_max - cfg.v_min) * i / (cfg.steps - 1)
        vis = Visibility(v)
        s_exact = chsh(CHSH_OPTIMAL, vis)
        run = bell_experiment(CHSH_OPTIMAL, vis, cfg.samples, cfg.seed + i)
        decisive = run.estimate - 2.0 > 3.0 * run.stderr
        print(f"{v:.4f},{s_exact:.6f},{run.estimate:.6f},{run.stderr:.6f},{decisive}")
    print(f"# threshold visibility 1/sqrt2 = {1 / math.sqrt(2):.6f}")


if __name__ == "__main__":
    main()
