"""Check that the packing oracle alone reaches 2N - 3 on every triple of AQ_N.

    python3 tools/oracle_floor.py N

For every least translate (0, p, z) of ``construct.least_translates(N)``
the tool runs ``oracle.oracle_tau`` with ``stop_at = 2N - 3`` and the
default budget, and prints the class count, how many classes reach
2N - 3, the total time and the slowest class.  A translation is an
automorphism, so a class's witnessed packing moves to every member of
the class, and 2N - 3 is Hager's degree ceiling for three targets: when
every class reaches it, tau_3(AQ_N) = 2N - 3 by the oracle alone.  Each
class that falls short is printed with its bracket, and then the exit
status is 1.  The package is imported from this checkout.  N = 5 takes
well under a second and N = 6 about a minute on a 2-core VM; the search
is meant for hosts of at most 2^6 vertices.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aqsteiner.construct import least_translates  # noqa: E402
from aqsteiner.oracle import oracle_tau  # noqa: E402
from aqsteiner.topology import MAX_DIM, AugmentedCube, hager_upper_bound  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help=f"dimension, 2..{MAX_DIM}")
    n = parser.parse_args(argv).n
    if not 2 <= n <= MAX_DIM:
        parser.error(f"N must be in 2..{MAX_DIM}")
    g = AugmentedCube(n)
    target = 2 * n - 3
    classes = reached = 0
    short = []
    slowest = (0.0, ())
    start = time.perf_counter()
    for canon in least_translates(n):
        t0 = time.perf_counter()
        res = oracle_tau(g, canon, stop_at=target)
        slowest = max(slowest, (time.perf_counter() - t0, canon))
        classes += 1
        if res.lower >= target:
            reached += 1
        else:
            short.append((canon, res))
    for canon, res in short:
        print(f"SHORT {list(canon)}: lower {res.lower}, upper {res.upper}, nodes {res.nodes_used}")
    seconds, canon = slowest
    print(f"n = {n}: {reached} of {classes} classes reach {target} (degree ceiling {hager_upper_bound(g, 3)})")
    print(f"total {time.perf_counter() - start:.2f} s, slowest {list(canon)} in {seconds:.3f} s")
    return 1 if short else 0


if __name__ == "__main__":
    sys.exit(main())
