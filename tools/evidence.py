"""Build and verify triples of every kind at every dimension n = 5..62.

    python3 tools/evidence.py

For each n, the triples are one seed-1 triple of each of the 13 strata
of ``bench/inputs.py`` (the eleven Case2 branches, ``Case1`` and
``Case1-deep``) and the 20 of ``cli.sample_triples(n, 20, n)``.  Each
goes through ``construct``, which runs the independent verifier and
raises ``InternalError`` on a family that is rejected or has other than
2n - 3 trees.  Per n the tool prints the number of constructs and the
slowest triple with its stratum and time, then every ``InternalError``
with its triple, then the totals.  The exit status is 1 when any
construct failed.  The package and the strata are imported from this
checkout.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import aq  # noqa: E402
import inputs  # noqa: E402

SEED = 1
SAMPLES = 20
DIMS = range(5, aq.topology.MAX_DIM + 1)
STRATA = inputs.CASE2_STRATA + (inputs.CASE1, inputs.CASE1_DEEP)


def triples(n: int) -> list[tuple[str, tuple[int, ...]]]:
    strata = [(s, inputs.stratum_triples(SEED, n, s, 1)[0]) for s in STRATA]
    return strata + [("sample", t) for t in aq.cli.sample_triples(n, SAMPLES, n)]


def main() -> int:
    failures = []
    total = 0
    start = time.perf_counter()
    print(f"{'n':>3} {'constructs':>10} {'slowest ms':>10}  slowest triple")
    for n in DIMS:
        g = aq.topology.AugmentedCube(n)
        slowest = (0.0, "", ())
        count = 0
        for stratum, labels in triples(n):
            t0 = time.perf_counter()
            try:
                aq.construct.construct(g, [aq.topology.Vertex(a, n) for a in labels])
            except aq.construct.InternalError as exc:
                failures.append((n, stratum, labels, exc))
                continue
            count += 1
            slowest = max(slowest, (time.perf_counter() - t0, stratum, labels))
        total += count
        seconds, stratum, labels = slowest
        print(f"{n:>3} {count:>10} {seconds * 1e3:>10.2f}  {stratum} {list(labels)}")
    for n, stratum, labels, exc in failures:
        print(f"FAILED n={n} {stratum} {list(labels)}: InternalError: {exc}")
    print(
        f"{total} constructs verified, {len(failures)} failed, in {time.perf_counter() - start:.1f} s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
