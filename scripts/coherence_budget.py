#!/usr/bin/env python3
"""Where the coherence lives: subsystems vs composite, across phase settings.

For each pair of phase settings, prints the l1 off-diagonal coherence and
purity of each reduced single-photon state next to the same measures for
the composite pair state. The subsystem columns stay pinned at zero
coherence and purity 1/2 while the composite keeps full coherence, however
the phases move; only the composite columns' off-diagonal PHASE changes.
"""

import argparse
import cmath

import numpy as np

from biphoton import (
    PhaseSettings,
    density_of,
    l1_coherence,
    partial_trace,
    phased_biphoton_state,
    purity,
)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--points", type=int, default=8, help="settings pairs to tabulate")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()

    rng = np.random.default_rng(args.seed)
    print("phi_a,phi_b,l1_A,purity_A,l1_B,purity_B,l1_AB,purity_AB,offdiag_phase_AB")
    for _ in range(args.points):
        settings = PhaseSettings(*rng.uniform(0.0, 2 * np.pi, size=2))
        rho = density_of(phased_biphoton_state(settings))
        rho_a = partial_trace(rho, 0)
        rho_b = partial_trace(rho, 1)
        # The only off-diagonal pair of the composite state sits at (A1B1, A2B2).
        phase = cmath.phase(rho.entries[0][3])
        print(
            f"{settings.phi_a:.4f},{settings.phi_b:.4f},"
            f"{l1_coherence(rho_a):.3e},{purity(rho_a):.6f},"
            f"{l1_coherence(rho_b):.3e},{purity(rho_b):.6f},"
            f"{l1_coherence(rho):.6f},{purity(rho):.6f},{phase:.6f}"
        )


if __name__ == "__main__":
    main()
