"""Compare the CLI output of two checkouts of this repository.

    python3 tools/stdout_parity.py PARENT CHANGE

Each checkout runs one fixed list of ``aqsteiner`` commands in its own
child process, in-process through ``cli.main``, against that checkout's
``src/``.  The list:

- ``construct --format json`` on seeded triples at n = 5..16, and on
  eight each at n = 20, 33 and 62, whose fans take many levels of
  induction above AQ_4; at n = 6 also ``--format text``, ``--format
  dot`` and ``--fidelity``;
- ``construct -n 5`` on each of the 155 least translates (0, p, z),
  0 < p < z < p ^ z, of ``construct.least_translates(5)``: exactly the
  triples whose translation to their least translate is the identity,
  so the recipe meets the untranslated checked fan itself;
- ``paths`` at n = 1..10 with k in {1, n, 2n - 1, 2n}, at n = 1..4
  also with k = 2n + 5, and at n = 16, 33 and 62 with k in
  {2n - 1, 2n}, in all three formats (above n = 4 the paths are fan
  paths and the cut is explicit, so no dimension up to 62 is costly),
  and at n = 33 and 62 from 0 to each of the four d whose fan the top
  level reflects (gray(d) = top + {0, e2} + {0, e3}) with k = 2n - 1,
  in the default JSON, so the fan's words are walked through that
  reflection.
  The small-cube memo of ``paths.disjoint_paths`` keys every k >= 2n as
  2n, so k = 2n + 5 pins the capped key byte for byte against PARENT;
- ``info -n 1..10`` as text and as JSON;
- ``sweep -n 4 --exhaustive`` as text and as JSON,
  ``sweep -n 5 --samples 300``, serial and with ``--jobs 2`` (each pool
  batch enters its own fan memo; a 1-CPU host exits 2 on the ``--jobs
  2`` commands), ``sweep -n 5 --exhaustive`` and ``sweep -n 6
  --exhaustive --force``, each serial and with ``--jobs 2``, whose pool
  batches hold least translates alone, one per class, ``sweep -n 3
  --exhaustive --jobs 2``, whose 7 classes are fewer than the 8 batches
  asked for, and ``sweep -n 6 --samples 200 --seed 2`` and ``sweep -n 7
  --samples 100 --seed 2 --format json``, where Case1 recursion puts
  fans of two dimensions into one batch's memo, ``sweep -n 5 --samples
  4000 --seed 3``, a dense draw that lists every triple and then counts
  the draw's least translates, and ``sweep -n 7 --samples 3000 --seed 2``, whose
  draw falls into thousands of small classes;
- ``oracle`` on every triple at n = 3 and 4, on one n = 4 triple
  under six budgets from 1 to 31,000 (1, 100 and 300 run out, in the
  growth or in the packing), ``oracle -n 3 -S 000,001,010 --budget
  15``, whose spent budget leaves a point bracket, and ``oracle -n 5
  --force --budget 20000`` on (0, 1, 2), which meets its degree
  ceiling and is exact, and on (0, 5, 9), which ends in the bracket
  [8, 9];
- ``verify`` on every certificate the JSON constructs printed, and on
  six mutants of the first certificate at each n = 5..8: a dropped
  edge, a non-edge, a reused internal vertex, a terminal of degree 2, a
  duplicated tree and one tree too few;
- bad input that exits 2 with one ``error: ...`` line: ``verify`` on
  certificates whose ``n`` is true, 0 or 63, with a bad label, a
  missing or an extra key, ``trees`` not a list, a malformed edge, a
  tree with an extra key, an edge written as a string or a bad label
  at the first end of an edge;
  ``construct`` and ``paths`` with labels of the wrong length, and
  ``paths`` with u = v.

A command's result is its exit code and the sha256 of its stdout and of
its stderr, less the ``sweep completed in ...`` timing line, and a
command that raises counts as the exception's type.  Every command
whose result differs between the two checkouts is printed.

Each child runs the whole list twice in its one process, and every
command whose second result differs from its first is printed as a
"warm pass" difference of that checkout.  The second pass meets every
process-level cache full (the small-cube path systems of
``paths.disjoint_paths``, the base families of ``construct``), so it
checks that no cache changes what a command prints.  The exit status
is 1 if any command differs between the checkouts or between the two
passes of either, 0 if none does, and 2 for a bad argument.  The
triples come from ``random.Random`` streams on fixed seeds, built here
without importing the package, so both checkouts get the same list.

Results are compared on those three values alone.  To audit a declared
change, each differing ``construct`` command is tagged with its
triple's provenance chain (e.g. "Case1 > Case2_1_3"), taken from the
``construct`` result in the change's checkout.  A differing command
whose stdout parses as a JSON object on both sides is also tagged with
the top-level keys whose values differ (e.g. "keys nodes_used"), from
the first pass.  A tally counts the differing commands per chain, or
per command name for other commands, together with that key set.
Every run, also one where nothing differs, then prints per chain how
many ``construct`` commands were compared (those that exit 0 in the
change's first pass), so a clean run shows which branches it covered,
lone Case2_1_2 constructs among them.

Next to each checkout's "N commands in T s" line the tool prints its
cold import: the median, over five fresh ``python -c`` children, of the
time ``import aqsteiner.cli`` takes inside the child.  The children
import a copy of the package without its ``__pycache__`` and write no
bytecode (``PYTHONDONTWRITEBYTECODE=1``), so each compiles the package
afresh, as every process does where no bytecode is cached.  The imports
run after both checkouts' command children, one child per checkout per
round, with the order of the two swapped every round, so the two
medians differ by the code and not by which checkout ran first or
nearer to the heavy children.  A start-up regression shows on every
parity run.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

CONSTRUCT_DIMS = range(5, 17)
LARGE_CONSTRUCT_DIMS = (20, 33, 62)
PATHS_DIMS = range(1, 11)
LARGE_PATHS_DIMS = (16, 33, 62)
MUTATED_DIMS = range(5, 9)
MUTANTS = ("dropped-edge", "non-edge", "reused-vertex", "terminal-degree-2", "duplicated-tree", "short-tree-count")
# A valid n = 3 certificate, and the fields that break it for each bad
# certificate (None deletes the field)
SMALL_CERT = {
    "schema_version": "1", "n": 3, "s": ["000", "011", "101"], "case": "Base3", "fallback_used": False,
    "trees": [{"edges": [["000", "001"], ["001", "011"], ["001", "101"]]}],
    "tool": {"id": "aqsteiner", "version": "0.1.0"},
}
BAD_CERTIFICATES = {
    "n-true": {"n": True},
    "n-0": {"n": 0},
    "n-63": {"n": 63},
    "bad-label": {"s": ["000", "011", "1O1"]},
    "missing-key": {"case": None},
    "extra-key": {"extra": 1},
    "trees-not-list": {"trees": {"edges": []}},
    "malformed-edge": {"trees": [{"edges": [["000", "001", "011"]]}]},
    "tree-wrong-fields": {"trees": [{"edges": [["000", "001"]], "x": 1}]},
    "edge-as-string": {"trees": [{"edges": ["01"]}]},
    "bad-label-first-end": {"trees": [{"edges": [["000", "001"], ["0O1", "011"]]}]},
}
BAD_COMMANDS = [
    ["construct", "-n", "5", "-S", "0000,00011,11110"],
    ["construct", "-n", "5", "-S", "00000,00011,111101"],
    ["paths", "-n", "5", "-u", "0000", "-v", "00011", "-k", "3"],
    ["paths", "-n", "5", "-u", "00000", "-v", "000110", "-k", "3"],
    ["paths", "-n", "4", "-u", "0101", "-v", "0101", "-k", "2"],
]


def _label(v: int, n: int) -> str:
    return format(v, f"0{n}b")


def _deltas(n: int) -> list[int]:
    """The xor set of AQ_n: u and v are adjacent iff u ^ v is in it."""
    return [1 << i for i in range(n)] + [(1 << i) - 1 for i in range(2, n + 1)]


def _triples(n: int, count: int) -> list[tuple[int, int, int]]:
    """Seeded distinct target triples at dimension n.

    Uniform triples nearly all dispatch alike, so each draw builds the
    relations the case split reads: y is x's cross-twin (x ^ trail), a
    neighbour of x or any lower label; z is in the bottom AQ_4 with x
    and y, in the lower half-copy, next to a cross-partner of x, or
    anywhere in the upper one.  Half of the triples are complemented,
    which moves two targets into the upper half-copy.
    """
    rng = random.Random(1000 + n)
    half = 1 << (n - 1)
    trail = half - 1
    deltas = _deltas(n - 1)
    out: list[tuple[int, int, int]] = []
    while len(out) < count:
        kind = len(out) % 4
        x = rng.getrandbits(4 if kind == 0 else n - 1)
        y = rng.choice((x ^ trail, x ^ rng.choice(deltas), rng.getrandbits(n - 1)))
        if kind == 0:
            x, y, z = x % 16, y % 16, rng.getrandbits(4)
        elif kind == 1:
            z = rng.getrandbits(n - 1)
        elif kind == 2:
            z = (x ^ rng.choice((0, trail)) | half) ^ rng.choice([0, *deltas])
        else:
            z = half | rng.getrandbits(n - 1)
        mask = rng.choice((0, (1 << n) - 1))
        trio = tuple(sorted({x ^ mask, y ^ mask, z ^ mask}))
        if len(trio) == 3 and trio not in out:
            out.append(trio)
    return out


def _pairs(n: int) -> list[tuple[int, int]]:
    if n == 1:
        return [(0, 1), (1, 0)]
    rng = random.Random(2000 + n)
    full = (1 << n) - 1
    out = [(0, 1), (0, full), (full, 1 << (n - 1))]
    while len(out) < 5:
        u, v = rng.getrandbits(n), rng.getrandbits(n)
        if u != v and (u, v) not in out:
            out.append((u, v))
    return out


def _mutant(doc: dict, kind: str) -> dict:
    """The certificate with one defect of the given kind, placed at the
    first spot in label order; unchanged if it has no such spot."""
    n = doc["n"]
    deltas = set(_deltas(n))
    terms = {int(a, 2) for a in doc["s"]}
    trees = [sorted((int(u, 2), int(v, 2)) for u, v in tree["edges"]) for tree in doc["trees"]]
    used = {a for tree in trees for e in tree for a in e}
    inner0 = sorted({a for e in trees[0] for a in e} - terms)
    if kind == "dropped-edge":
        trees[0] = trees[0][1:]
    elif kind == "non-edge":
        gap = next(d for d in range(1, 1 << n) if d not in deltas)
        trees[0].append((inner0[0], inner0[0] ^ gap))
    elif kind == "reused-vertex":
        # an edge from the first later tree that can reach an inner vertex of tree 0
        for tree in trees[1:]:
            ends = {a for e in tree for a in e}
            extra = [(a, b) for a in sorted(ends - terms) for b in inner0 if a ^ b in deltas and b not in ends]
            if extra:
                tree.append(extra[0])
                break
    elif kind == "terminal-degree-2":
        # a second edge at the first target in the last tree, to an unused
        # label if there is one, else to one an earlier tree already holds
        t = min(terms)
        ends = {t ^ d for d in deltas} - terms - {a for e in trees[-1] if t in e for a in e}
        trees[-1].append((t, min(ends - used or ends)))
    elif kind == "duplicated-tree":
        trees.append(trees[0])
    else:
        trees.pop()
    edges = [[[_label(u, n), _label(v, n)] for u, v in tree] for tree in trees]
    return {**doc, "trees": [{"edges": e} for e in edges]}


def _write_certificate(path: str) -> None:
    """Write ``bad-KIND.json`` from ``SMALL_CERT`` or ``cert-I-KIND.json``
    from ``cert-I.json``."""
    name = path.removesuffix(".json")
    if name.startswith("bad-"):
        doc = {**SMALL_CERT, **BAD_CERTIFICATES[name[4:]]}
        doc = {key: value for key, value in doc.items() if value is not None}
    else:
        index, kind = name.split("-", 2)[1:]
        with open(f"cert-{index}.json", encoding="utf-8") as fh:
            doc = _mutant(json.load(fh), kind)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def command_list() -> list[list[str]]:
    """Every command, in run order.  A ``verify`` of ``cert-I.json`` reads
    the stdout of the I-th JSON construct, which the child writes there,
    one of ``cert-I-KIND.json`` reads a mutant of it, and one of
    ``bad-KIND.json`` a bad certificate."""
    cmds: list[list[str]] = []
    certs = 0
    verifies: list[list[str]] = []
    for n in (*CONSTRUCT_DIMS, *LARGE_CONSTRUCT_DIMS):
        count = 32 if n <= 10 else 16 if n <= 13 else 8
        for j, trio in enumerate(_triples(n, count)):
            targets = ",".join(_label(v, n) for v in trio)
            formats = [["--format", "json"]]
            if n == 6:
                formats += [["--format", "text"], ["--format", "dot"], ["--format", "json", "--fidelity"]]
            for extra in formats:
                cmds.append(["construct", "-n", str(n), "-S", targets, *extra])
                if extra[1] == "json":
                    verifies.append(["verify", f"cert-{certs}.json"])
                    if n in MUTATED_DIMS and j == 0 and not extra[2:]:
                        verifies += [["verify", f"cert-{certs}-{kind}.json"] for kind in MUTANTS]
                    certs += 1
    for p, z in itertools.combinations(range(1, 32), 2):
        if z < p ^ z:
            cmds.append(["construct", "-n", "5", "-S", ",".join(_label(v, 5) for v in (0, p, z))])
    for n in (*PATHS_DIMS, *LARGE_PATHS_DIMS):
        ks = {1, n, 2 * n - 1, 2 * n} if n in PATHS_DIMS else {2 * n - 1, 2 * n}
        if n <= 4:
            ks.add(2 * n + 5)
        for u, v in _pairs(n):
            for k in sorted(ks):
                for fmt in ("json", "dot", "text"):
                    cmds.append(["paths", "-n", str(n), "-u", _label(u, n), "-v", _label(v, n), "-k", str(k), "--format", fmt])
    for n in (33, 62):
        # the labels of the Gray vectors top, e2 and e3 (see paths._word)
        top, e2, e3 = (1 << n) - 1, (1 << n - 1) - 1, (1 << n - 2) - 1
        for d in sorted(top ^ a ^ b for a in (0, e2) for b in (0, e3)):
            cmds.append(["paths", "-n", str(n), "-u", _label(0, n), "-v", _label(d, n), "-k", str(2 * n - 1)])
    for n in range(1, 11):
        for fmt in ("text", "json"):
            cmds.append(["info", "-n", str(n), "--format", fmt])
    cmds.append(["sweep", "-n", "4", "--exhaustive"])
    cmds.append(["sweep", "-n", "4", "--exhaustive", "--format", "json"])
    cmds.append(["sweep", "-n", "5", "--samples", "300"])
    cmds.append(["sweep", "-n", "5", "--samples", "300", "--jobs", "2"])
    cmds.append(["sweep", "-n", "5", "--exhaustive"])
    cmds.append(["sweep", "-n", "5", "--exhaustive", "--jobs", "2"])
    cmds.append(["sweep", "-n", "3", "--exhaustive", "--jobs", "2"])
    cmds.append(["sweep", "-n", "6", "--exhaustive", "--force"])
    cmds.append(["sweep", "-n", "6", "--exhaustive", "--force", "--jobs", "2"])
    cmds.append(["sweep", "-n", "6", "--samples", "200", "--seed", "2"])
    cmds.append(["sweep", "-n", "7", "--samples", "100", "--seed", "2", "--format", "json"])
    cmds.append(["sweep", "-n", "5", "--samples", "4000", "--seed", "3"])
    cmds.append(["sweep", "-n", "7", "--samples", "3000", "--seed", "2"])
    for n in (3, 4):
        for trio in itertools.combinations(range(1 << n), 3):
            cmds.append(["oracle", "-n", str(n), "-S", ",".join(_label(v, n) for v in trio)])
    for budget in ("1", "100", "300", "1000", "28000", "31000"):
        cmds.append(["oracle", "-n", "4", "-S", "0000,0011,1110", "--budget", budget])
    cmds.append(["oracle", "-n", "3", "-S", "000,001,010", "--budget", "15"])
    cmds.append(["oracle", "-n", "5", "-S", "00000,00001,00010", "--force", "--budget", "20000"])
    cmds.append(["oracle", "-n", "5", "-S", "00000,00101,01001", "--force", "--budget", "20000"])
    cmds += BAD_COMMANDS
    cmds += [["verify", f"bad-{kind}.json"] for kind in BAD_CERTIFICATES]
    return cmds + verifies


def _chain(cmd: list[str]) -> str:
    """The provenance chain of a ``construct`` command's family, its case
    tags from the top level down, from the package ``_run_child`` put on
    the path."""
    from aqsteiner import construct, topology

    n = int(cmd[cmd.index("-n") + 1])
    labels = cmd[cmd.index("-S") + 1].split(",")
    family = construct.construct(topology.AugmentedCube(n), [topology.parse_vertex(a) for a in labels])
    return " > ".join(tag.case.value for tag in family.provenance)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _key_digests(text: str) -> dict[str, str] | None:
    """The sha256 of each top-level value when ``text`` is a JSON object."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    if not isinstance(doc, dict):
        return None
    return {key: _digest(json.dumps(value, sort_keys=True)) for key, value in doc.items()}


def _differing_keys(a: dict[str, str] | None, b: dict[str, str] | None) -> list[str] | None:
    if a is None or b is None:
        return None
    return sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))


def _run_pass(cli, cmds: list[list[str]]) -> tuple[list, list]:
    """Run every command once in the current directory: per command
    [exit code, stdout sha256, stderr sha256] and the digests of
    ``_key_digests`` of its stdout."""
    results = []
    keys = []
    certs = 0
    for cmd in cmds:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if cmd[0] == "verify" and not os.path.exists(cmd[1]):
                    _write_certificate(cmd[1])
                code = cli.main(cmd)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                # a traceback in one checkout is a difference to report,
                # not a reason to stop comparing
                code = f"raised {type(exc).__name__}"
        text = out.getvalue()
        if cmd[0] == "construct" and "json" in cmd:
            with open(f"cert-{certs}.json", "w", encoding="utf-8") as fh:
                fh.write(text)
            certs += 1
        # the sweep's wall-clock time is the one line that may differ
        errors = "".join(
            line for line in err.getvalue().splitlines(keepends=True) if not line.startswith("sweep completed in ")
        )
        results.append([code, _digest(text), _digest(errors)])
        keys.append(_key_digests(text))
    return results, keys


def _run_child(checkout: str) -> None:
    """Run every command twice in this process against
    ``checkout/src`` and print one JSON document: the module path
    imported, the results of each pass (see ``_run_pass``), and per
    command the provenance chain of a ``construct`` that exits 0 in the
    first pass, else None, and the key digests of the first pass."""
    sys.path.insert(0, os.path.join(checkout, "src"))
    from aqsteiner import cli

    cmds = command_list()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        results, keys = _run_pass(cli, cmds)
        warm, _ = _run_pass(cli, cmds)
    chains = [_chain(cmd) if cmd[0] == "construct" and res[0] == 0 else None for cmd, res in zip(cmds, results)]
    json.dump({"module": cli.__file__, "results": results, "warm": warm, "chains": chains, "keys": keys}, sys.stdout)


def _collect(checkout: str) -> tuple[list, list, list, list, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", checkout],
        capture_output=True,
        text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{checkout}: child failed with exit {proc.returncode}\n{proc.stderr}")
    doc = json.loads(proc.stdout)
    if not os.path.realpath(doc["module"]).startswith(os.path.realpath(checkout) + os.sep):
        sys.exit(f"{checkout}: imported {doc['module']}, not the checkout's own src/")
    return doc["results"], doc["warm"], doc["chains"], doc["keys"], elapsed


IMPORT_RUNS = 5


def _cold_imports_s(checkouts: list[str]) -> list[float]:
    """Per checkout, the median seconds of ``import aqsteiner.cli`` in
    fresh children that compile the checkout's package, the checkouts
    taking turns in an order swapped every round (see the module
    docstring)."""
    code = "import time; t = time.perf_counter(); import aqsteiner.cli; print(time.perf_counter() - t)"
    times: list[list[float]] = [[] for _ in checkouts]
    with tempfile.TemporaryDirectory() as root:
        envs = []
        for i, checkout in enumerate(checkouts):
            shutil.copytree(
                os.path.join(checkout, "src", "aqsteiner"),
                os.path.join(root, str(i), "aqsteiner"),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            envs.append({**os.environ, "PYTHONPATH": os.path.join(root, str(i)), "PYTHONDONTWRITEBYTECODE": "1"})
        order = list(range(len(checkouts)))
        for _ in range(IMPORT_RUNS):
            for i in order:
                proc = subprocess.run(
                    [sys.executable, "-c", code], capture_output=True, text=True, env=envs[i], check=True
                )
                times[i].append(float(proc.stdout))
            order.reverse()
    return [statistics.median(t) for t in times]


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
    checkouts = [args.parent, args.change]
    for checkout in checkouts:
        if not os.path.isfile(os.path.join(checkout, "src", "aqsteiner", "cli.py")):
            parser.error(f"{checkout} has no src/aqsteiner/cli.py")
    cmds = command_list()
    collected = [_collect(os.path.abspath(checkout)) for checkout in checkouts]
    colds = _cold_imports_s([os.path.abspath(checkout) for checkout in checkouts])
    runs = []
    key_runs = []
    warm_differ = 0
    for checkout, (results, warm, chains, keys, elapsed), cold in zip(checkouts, collected, colds):
        print(
            f"{checkout}: {len(results)} commands twice in {elapsed:.1f} s, cold import {cold * 1e3:.1f} ms",
            file=sys.stderr,
        )
        # a process-level cache must not change what a command prints
        for cmd, a, b in zip(cmds, results, warm):
            if a != b:
                warm_differ += 1
                print(
                    f"warm pass differs: {checkout}: aqsteiner {' '.join(cmd)} (exit {a[0]} -> {b[0]}, "
                    f"stdout {a[1][:12]} -> {b[1][:12]}, stderr {a[2][:12]} -> {b[2][:12]})"
                )
        runs.append(results)
        key_runs.append(keys)
    # the chains kept are the change's, the second checkout's
    tally: collections.Counter[str] = collections.Counter()
    for cmd, a, b, chain, *keys in zip(cmds, *runs, chains, *key_runs):
        if a != b:
            differing = _differing_keys(*keys)
            notes = [chain] if chain else []
            if differing is not None:
                notes.append(f"keys {' '.join(differing) or '(none)'}")
            tally[", ".join(notes) if chain else ", ".join([cmd[0], *notes])] += 1
            tag = "".join(f" [{note}]" for note in notes)
            print(
                f"differs: aqsteiner {' '.join(cmd)}{tag} (exit {a[0]} -> {b[0]}, "
                f"stdout {a[1][:12]} -> {b[1][:12]}, stderr {a[2][:12]} -> {b[2][:12]})"
            )
    for key, count in sorted(tally.items()):
        print(f"tally: {count} differ: {key}")
    for chain, count in sorted(collections.Counter(filter(None, chains)).items()):
        print(f"compared: {count} construct: {chain}")
    differ = sum(tally.values())
    codes = collections.Counter(code for code, *_ in runs[0])
    exits = ", ".join(f"{count} exit {code}" for code, count in sorted(codes.items(), key=str))
    print(f"{differ} of {len(cmds)} commands differ ({exits} at the parent)")
    print(f"{warm_differ} commands differ between the two passes of a checkout")
    return 1 if differ or warm_differ else 0


if __name__ == "__main__":
    sys.exit(main())
