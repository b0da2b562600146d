#!/usr/bin/env python3
"""Recover a planted source-recency mix through the exposure-linking and
attribution machinery, and print planted vs recovered fractions per bin.

The scenario is ``planted_exposures`` of ``tests/oracles.py``. The planted
mix defaults to the production-observed shape (most users blame the last
restaurant visited; a third of true sources sit further back).
"""

import argparse
import sys
from pathlib import Path

from foodwatch.locmodel import (
    Period,
    aggregate_restaurants,
    attribute_sources,
    link_exposures,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))  # as pytest puts it
from oracles import planted_exposures  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument(
        "--mix",
        type=float,
        nargs=4,
        default=(0.62, 0.194, 0.115, 0.072),
        metavar=("R1", "R2", "R3", "R4PLUS"),
    )
    args = parser.parse_args()

    visits, scored, counts = planted_exposures(args.users, tuple(args.mix), seed=args.seed)
    links = link_exposures(visits, scored)
    aggregates = aggregate_restaurants(visits, links, Period(0, 2_000_000_000))
    _, histogram = attribute_sources(links, aggregates)

    total = sum(counts)
    print(f"affected users: {histogram.n_users}")
    print("rank  planted  recovered  |delta|")
    for label, planted, got in zip(histogram.BIN_LABELS, counts, histogram.fractions):
        frac = planted / total
        print(f"{label:>4}  {frac:7.3f}  {got:9.3f}  {abs(got - frac):7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
