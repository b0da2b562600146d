#!/usr/bin/env python3
"""Sweep simulated rater flip rates and report Krippendorff's alpha.

Shows why the default flip rates sit at (0.03, 0.07): pooled six-vote
agreement at those rates lands near alpha 0.8 on balanced units, and the
naive-looking (0.05, 0.12) pair caps out near 0.69.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from foodwatch.citysim import SimConfig, simulate_raters
from foodwatch.raters import krippendorff_alpha, majority_labels
from foodwatch.seeding import make_rng


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--units", type=int, default=15_000)
    parser.add_argument("--seed", type=int, default=9)
    args = parser.parse_args()

    truth = (make_rng(args.seed, "truth").random(args.units) < 0.5).astype(int)
    print("md_flip  other_flip  alpha  majority_acc")
    for md_flip, other_flip in (
        (0.0, 0.0),
        (0.02, 0.05),
        (0.03, 0.07),
        (0.05, 0.10),
        (0.05, 0.12),
        (0.10, 0.20),
    ):
        cfg = replace(SimConfig(), rater_flip_md=md_flip, rater_flip_other=other_flip)
        judgments = simulate_raters(truth, cfg, seed=args.seed)
        alpha = krippendorff_alpha(judgments)
        accuracy = float(np.mean(majority_labels(judgments) == truth))
        print(f"{md_flip:7.2f}  {other_flip:10.2f}  {alpha:5.3f}  {accuracy:12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
