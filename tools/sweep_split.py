"""Time the phases of an exhaustive n = 5 sweep in two checkouts.

    python3 tools/sweep_split.py PARENT CHANGE

Each checkout times ``cli.run_sweep(5, triples)`` over every n = 5
triple, shuffled by a fixed seed, in a child process that imports that
checkout's ``src/``, and then ``cli.sweep_summary`` over its records.
Both are public calls, so the tool reads no internals of the sweep:

- ``run_sweep``: the whole pass, one verified construct per least
  translate and one record per triple;
- ``summary``: ``cli.sweep_summary`` over those records.

A child first runs one untimed pass, which fills the process-level
caches (the base families, the small-cube path systems) as a running
sweep has them, then takes each phase ``BEST_OF`` times and keeps the
least time.  There are ``ROUNDS`` children per checkout, the two
checkouts taking turns in an order swapped every round, so neither
side gains from running first or in a quieter stretch.  Per checkout
the tool prints one table: each phase's least and median time over the
rounds, in milliseconds.  The two checkouts must build records that
read the same labels, case, size, ``fallback`` and ``verified``,
compared sorted by labels, so two checkouts that list the records in
different orders compare by content: the exit status is 1 when they do
not, and 2 for a bad argument.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

N = 5
SEED = 2024
ROUNDS = 10
BEST_OF = 7
PHASES = ("run_sweep", "summary")


def _best(fn, *args) -> tuple[float, object]:
    """The least of ``BEST_OF`` timed calls, and the last call's result."""
    best = float("inf")
    for _ in range(BEST_OF):
        gc.collect()
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_child(checkout: str) -> None:
    """Time each phase against ``checkout/src`` and print one JSON
    document: the module path imported, the least seconds per phase,
    and a digest of the records."""
    sys.path.insert(0, os.path.join(checkout, "src"))
    from aqsteiner import cli

    triples = cli.all_triples(N)
    random.Random(SEED).shuffle(triples)
    cli.run_sweep(N, triples)
    times = {}
    times["run_sweep"], records = _best(cli.run_sweep, N, triples)
    times["summary"], _ = _best(cli.sweep_summary, N, records)
    # the values a record reads, not its layout, so a change that only
    # stops storing a constant field keeps the digest; sorted by labels,
    # so a change that only reorders the records keeps it too
    values = sorted((r.labels, r.case, r.size, r.fallback, r.verified) for r in records)
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    json.dump({"module": cli.__file__, "times": times, "digest": digest}, sys.stdout)


def _collect(checkout: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", checkout],
        capture_output=True,
        text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    if proc.returncode != 0:
        sys.exit(f"{checkout}: child failed with exit {proc.returncode}\n{proc.stderr}")
    doc = json.loads(proc.stdout)
    if not os.path.realpath(doc["module"]).startswith(os.path.realpath(checkout) + os.sep):
        sys.exit(f"{checkout}: imported {doc['module']}, not the checkout's own src/")
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", nargs="?", help="checkout of the change")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _run_child(os.path.abspath(args.parent))
        return 0
    if args.change is None:
        parser.error("two checkouts are needed: PARENT CHANGE")
    checkouts = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    for checkout in checkouts:
        if not os.path.isfile(os.path.join(checkout, "src", "aqsteiner", "cli.py")):
            parser.error(f"{checkout} has no src/aqsteiner/cli.py")
    times: list[dict[str, list[float]]] = [{phase: [] for phase in PHASES} for _ in checkouts]
    digests: list[set[str]] = [set() for _ in checkouts]
    order = [0, 1]
    for _ in range(ROUNDS):
        for i in order:
            doc = _collect(checkouts[i])
            for phase in PHASES:
                times[i][phase].append(doc["times"][phase] * 1e3)
            digests[i].add(doc["digest"])
        order.reverse()
    print(f"n = {N}, seed {SEED}: least of {BEST_OF} per child, {ROUNDS} children per checkout, ms")
    for checkout, table in zip(checkouts, times):
        print(f"\n{checkout}")
        print(f"  {'phase':<12}{'least':>9}{'median':>9}")
        for phase in PHASES:
            print(f"  {phase:<12}{min(table[phase]):>9.2f}{statistics.median(table[phase]):>9.2f}")
    same = len(digests[0] | digests[1]) == 1
    print(f"\nrecords {'identical' if same else 'DIFFER'} between the checkouts")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
