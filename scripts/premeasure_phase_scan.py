#!/usr/bin/env python3
"""Scan the input phase of the detection model.

Couples the evenly split system (relative phase theta) to the three-state
detector for a grid of thetas and prints what moves and what does not: the
joint outcome probabilities and both subsystems' coherence are constant in
theta, while the cross-pair matrix element keeps modulus 1/2 and rotates
its phase as -theta. The phase knob is invisible to every local record and
lives only in the correlation.
"""

import argparse
import math

from biphoton import correlation_report, premeasure


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--steps", type=int, default=16)
    args = p.parse_args()

    print("theta,P_A1D1,P_A2D2,off_pair_weight,l1_system,l1_detector,cross_modulus,cross_phase")
    for k in range(args.steps):
        theta = 2 * math.pi * k / args.steps
        rep = correlation_report(premeasure(theta))
        print(
            f"{theta:.4f},{rep.joint_probs['A1']['D1']:.6f},"
            f"{rep.joint_probs['A2']['D2']:.6f},{rep.both_clicked_prob:.3e},"
            f"{rep.subsystem_coherence[0]:.3e},{rep.subsystem_coherence[1]:.3e},"
            f"{rep.correlation_coherence_modulus:.6f},{rep.correlation_coherence_phase:.6f}"
        )


if __name__ == "__main__":
    main()
