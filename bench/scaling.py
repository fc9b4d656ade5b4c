"""Scaling report: median ``construct`` ms per triple by case and dimension.

    python3 bench/scaling.py --seed 1

Not gated.  For each n = 5..14 it builds one seeded triple of every
stratum (Case1 here means all targets in one half, recursing once into a
Case2 branch) and prints the median time per case, the median over all
of them, and that median's growth over the previous dimension.  The
report takes a few minutes, most of it at n = 13 and 14.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

try:
    import aq
    import inputs
except ImportError as exc:
    print(f"cannot load aqsteiner: {exc}", file=sys.stderr)
    sys.exit(2)


def construct_ms(n: int, labels) -> float:
    g = aq.topology.AugmentedCube(n)
    terms = [aq.topology.Vertex(a, n) for a in labels]
    start = time.perf_counter()
    family = aq.cli.build_family(g, terms)
    elapsed = time.perf_counter() - start
    if len(family.trees) != 2 * n - 3:
        raise RuntimeError(f"{len(family.trees)} trees for {labels} at n={n}")
    return 1000.0 * elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    strata = (inputs.CASE1,) + inputs.CASE2_STRATA
    print("n   " + " ".join(f"{s[4:]:>9}" for s in strata) + "       all  growth")
    previous = None
    for n in range(5, 15):
        row = [construct_ms(n, inputs.stratum_triples(args.seed, n, stratum, 1)[0]) for stratum in strata]
        overall = statistics.median(row)
        growth = f"{overall / previous:7.2f}x" if previous else "       -"
        print(f"{n:<3} " + " ".join(f"{ms:9.1f}" for ms in row) + f" {overall:9.1f} {growth}", flush=True)
        previous = overall
    return 0


if __name__ == "__main__":
    sys.exit(main())
