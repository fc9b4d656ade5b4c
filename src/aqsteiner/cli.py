"""Command-line surface: build, check, sweep, probe.

Commands
  info       degree / connectivity / packing-bound facts for one dimension
  construct  build a verified pendant-tree family for three targets
  verify     re-check a certificate file independently of its producer
  sweep      construct for many target triples and tabulate the outcomes
  oracle     exact packing number by exhaustive search (small hosts)
  paths      internally disjoint path systems / separator witnesses

Exit codes: 0 success or accepted, 1 verification or feasibility failure,
2 usage or parse errors.  Commands raise ``ContractViolation`` for bad
input and let ``InternalError`` propagate; ``main`` is the one place that
turns them into a single ``error: ...`` (exit 2) or ``construction
failed: ...`` (exit 1) line on stderr.  All output is deterministic for
fixed flags; wall-clock timings go to stderr so stdout stays byte-stable.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import random
import sys
import time
from collections import Counter
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from . import paths as _paths
from . import verify as _verify
from .construct import (
    Case,
    InternalError,
    SteinerTree,
    TreeFamily,
    classify,
    construct as build_family,
    fan_memo,
    least_translate,
    least_translates,
    target_family_size,
)
from .topology import MAX_DIM, AugmentedCube, ContractViolation, Vertex, parse_vertex

TOOL_ID = "aqsteiner"
TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = "1"
# The oracle builds about 2^n masks of 2^n bits each before its node
# budget can stop it, so its memory grows as 4^n (n = 20 needs far more
# than 1 GiB).  At n = 12 a forced run still ends in a budget-bounded
# bracket.  Below the cap the budget bounds the memory: a forced run
# parks the sets of one size to grow into the next, up to one small
# index tuple per node spent.  Spending the default budget on (0, 5, 9),
# one peaked at 43, 70, 106 and 116 MB RSS at n = 6, 8, 10 and 12 in
# 2.1-4.6 s (2-core VM, Python 3.11).
ORACLE_MAX_DIM = 12
# --samples lists the triples it draws, all C(2^n, 3) for a dense draw,
# so the cap bounds that listing.  --exhaustive lists none and builds one
# family per translation class, so there it bounds the time: all
# C(2^8, 3) triples took 2.5-4.3 s serial and 1.9-2.5 s with --jobs 2 on
# a 2-core VM (300-468 s and 204-227 s when every member's family was
# moved and verified), at a peak RSS of 20 MB per process.
SWEEP_MAX_TRIPLES = math.comb(1 << 8, 3)
# --fidelity lays each Case1 quarter tree along all 2^(n-2) quarter
# labels at every level, so the certificate doubles per dimension: about
# 5 MB of JSON at n = 16.
FIDELITY_MAX_DIM = 16
# verify reads at most this many bytes of a certificate, so an endless
# input such as /dev/zero stops with a usage error.  The largest real
# certificate, an n = 16 --fidelity one, is about 5 MB; a 300,000-edge
# n = 20 path padded to the bound peaks at about 160 MB in verify.
VERIFY_MAX_BYTES = 16 * 1024 * 1024

_PALETTE = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02",
    "#a6761d", "#666666", "#1f78b4", "#b2df8a", "#fb9a99", "#cab2d6",
    "#6a3d9a", "#ffff33", "#a65628", "#f781bf", "#999999",
)


# ---------------------------------------------------------------------------
# certificate documents
# ---------------------------------------------------------------------------

def _label(v: int, n: int) -> str:
    return format(v, f"0{n}b")


# The renderers write a family's edge labels inline as bin(v | top)[3:]
# with top = 1 << n: for 0 <= v < 2^n that is "0b1" and then the n digits
# of _label(v, n), in one C call and with no format spec to parse.


def certificate_doc(family: TreeFamily, case: str) -> dict:
    """Canonical JSON form: sorted target labels, per-tree sorted edges."""
    top = 1 << family.dim
    trees = [
        {"edges": [[bin(u | top)[3:], bin(v | top)[3:]] for u, v in sorted(tree.edges)]} for tree in family.trees
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "n": family.dim,
        "s": sorted(t.label() for t in family.terminals),
        "case": case,
        "fallback_used": family.fallback_used,
        "trees": trees,
        "tool": {"id": TOOL_ID, "version": TOOL_VERSION},
    }


def _require_keys(obj: dict, keys: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ContractViolation(f"{where} must be an object")
    if obj.keys() != keys:
        got = set(obj)
        extra = sorted(got - keys)
        missing = sorted(keys - got)
        raise ContractViolation(f"{where} has wrong fields (unknown: {extra}, missing: {missing})")


class ParsedCertificate(NamedTuple):
    n: int
    terminals: frozenset[Vertex]
    case: str
    trees: tuple[SteinerTree, ...]


def parse_certificate(doc: dict) -> ParsedCertificate:
    """Strict reader: unknown fields are rejected, labels must fit n;
    ``fallback_used`` must be a boolean and is not kept."""
    _require_keys(doc, {"schema_version", "n", "s", "case", "fallback_used", "trees", "tool"}, "certificate")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ContractViolation(f"unsupported schema_version {doc['schema_version']!r}")
    n = doc["n"]
    if type(n) is not int or not 1 <= n <= MAX_DIM:  # bool is an int subclass
        raise ContractViolation(f"n must be an integer in 1..{MAX_DIM}")

    ints: dict[str, int] = {}

    def read_label(text) -> int:
        # each distinct label is checked and converted once; strip leaves
        # "" exactly when every character is 0 or 1, and the test comes
        # before int, which would also take "_" and non-ASCII digits
        if not isinstance(text, str) or len(text) != n or text.strip("01"):
            raise ContractViolation(f"bad vertex label {text!r} for n={n}")
        value = ints[text] = int(text, 2)
        return value

    s_field = doc["s"]
    if not isinstance(s_field, list) or len(s_field) != 3:
        raise ContractViolation("s must list exactly 3 vertex labels")
    terminals = frozenset(Vertex(read_label(t), n) for t in s_field)
    if len(terminals) != 3:
        raise ContractViolation("s must hold distinct labels")
    if not isinstance(doc["case"], str):
        raise ContractViolation("case must be a string")
    if not isinstance(doc["fallback_used"], bool):
        raise ContractViolation("fallback_used must be a boolean")
    _require_keys(doc["tool"], {"id", "version"}, "tool")
    if not all(isinstance(doc["tool"][k], str) for k in ("id", "version")):
        raise ContractViolation("tool id and version must be strings")
    if not isinstance(doc["trees"], list):
        raise ContractViolation("trees must be a list")
    # a tree that fails the inline test gets its message from
    # _require_keys, and an edge end that misses the labels already read
    # gets its check from read_label
    look = ints.get
    new = tuple.__new__
    trees = []
    for i, entry in enumerate(doc["trees"]):
        if not (type(entry) is dict and len(entry) == 1 and "edges" in entry):
            _require_keys(entry, {"edges"}, f"trees[{i}]")
        if not isinstance(entry["edges"], list):
            raise ContractViolation(f"trees[{i}].edges must be a list")
        edges = []
        for pair in entry["edges"]:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ContractViolation(f"trees[{i}] has a malformed edge {pair!r}")
            a, b = pair
            # a list or an object is unhashable, and only a str can hit
            u = look(a) if type(a) is str else None
            if u is None:
                u = read_label(a)
            v = look(b) if type(b) is str else None
            if v is None:
                v = read_label(b)
            edges.append((u, v) if u <= v else (v, u))
        trees.append(new(SteinerTree, (frozenset(edges),)))
    return ParsedCertificate(n, terminals, doc["case"], tuple(trees))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def family_to_dot(family: TreeFamily, case: str) -> str:
    """One graph block per tree; targets get doubled borders, each tree one
    colour, so the output diffs visually against hand drawings."""
    top = 1 << family.dim
    lines: list[str] = []
    terms = sorted(t.label() for t in family.terminals)
    for i, tree in enumerate(family.trees):
        color = _PALETTE[i % len(_PALETTE)]
        lines.append(f"graph tree{i} {{")
        lines.append(f'  label="tree {i} ({case})";')
        lines.append("  node [shape=circle];")
        for t in terms:
            lines.append(f'  "{t}" [shape=doublecircle];')
        for u, v in sorted(tree.edges):
            lines.append(f'  "{bin(u | top)[3:]}" -- "{bin(v | top)[3:]}" [color="{color}"];')
        lines.append("}")
    return "\n".join(lines) + "\n"


def family_to_text(family: TreeFamily, case: str) -> str:
    top = 1 << family.dim
    lines = [
        f"n={family.dim} targets={','.join(sorted(t.label() for t in family.terminals))} "
        f"case={case} trees={len(family.trees)} fallback={'yes' if family.fallback_used else 'no'}"
    ]
    for i, tree in enumerate(family.trees):
        edges = " ".join(f"{bin(u | top)[3:]}-{bin(v | top)[3:]}" for u, v in sorted(tree.edges))
        lines.append(f"  tree {i}: {edges}")
    return "\n".join(lines) + "\n"


def path_system_doc(res: _paths.PathSystem, n: int) -> dict:
    return {
        "source": _label(res.source, n),
        "sink": _label(res.sink, n),
        "count": len(res.paths),
        "paths": [[_label(v, n) for v in p] for p in res.paths],
    }


def min_cut_doc(res: _paths.MinCut, n: int) -> dict:
    return {
        "source": _label(res.source, n),
        "sink": _label(res.sink, n),
        "separator": [_label(v, n) for v in res.separator],
        "uses_direct_edge": res.uses_direct_edge,
        "size": res.size,
    }


def path_system_to_dot(res: _paths.PathSystem, n: int) -> str:
    lines = ["graph paths {"]
    for t in (res.source, res.sink):
        lines.append(f'  "{_label(t, n)}" [shape=doublecircle];')
    for i, p in enumerate(res.paths):
        color = _PALETTE[i % len(_PALETTE)]
        for u, v in _paths.path_edges(p):
            lines.append(f'  "{_label(u, n)}" -- "{_label(v, n)}" [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sweep harness
# ---------------------------------------------------------------------------

class SweepRecord(NamedTuple):
    labels: tuple[int, ...]
    case: str
    size: int
    fallback = False  # construct has no repair path
    verified = True  # construct raises on a family the verifier rejects


def _sweep_classes(args: tuple[int, Sequence[Sequence[int]]]) -> list[tuple[str, int]]:
    """The (case, family size) of each least translate of one batch,
    built and verified by ``construct`` inside one ``fan_memo()``; a
    rejected family raises ``InternalError``.  One family is alive at a
    time."""
    n, canons = args
    g = AugmentedCube(n)
    new = tuple.__new__
    results = []
    with fan_memo():
        for canon in canons:
            family = build_family(g, [new(Vertex, (v, n)) for v in canon])
            results.append((family.provenance[0].case.value, len(family.trees)))
    return results


def _sweep(n: int, canons: Sequence[Sequence[int]], jobs: int = 1) -> list[tuple[str, int]]:
    """One (case, size) per least translate of ``canons``, in order, from
    one construct on it.  With ``jobs`` above 1 the least translates are
    dealt round-robin into 4 * jobs pool batches, and batch i's results
    go back to places i, i + 4 * jobs, ... of the list."""
    slices = 4 * jobs if jobs > 1 else 1
    tasks = [(n, canons[i::slices]) for i in range(min(slices, len(canons)))]
    parts = map(_sweep_classes, tasks)
    if len(tasks) > 1:
        # imported here: the pool and the logging it pulls in cost every
        # other command start-up time for nothing
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_sweep_classes, tasks))
    results: list = [None] * len(canons)
    for i, part in enumerate(parts):
        results[i::slices] = part
    return results


def run_sweep(n: int, triples: Iterable[Sequence[int]], jobs: int = 1) -> list[SweepRecord]:
    """A record for every triple, in input order, with its labels sorted.
    Each translation class is built and verified once, on its least
    translate, and its case and size go to the record of every member.
    One pass maps each triple to the index of its class, so one least
    translate is kept per class.  Each record is made by
    ``tuple.__new__``, which skips the named tuple's Python-level
    ``__new__``."""
    labels: list[tuple[int, ...]] = []
    keys: list[int] = []
    classes: dict[tuple[int, ...], int] = {}
    for t in triples:
        labels.append(tuple(sorted(t)))
        keys.append(classes.setdefault(least_translate(t)[0], len(classes)))
    results = _sweep(n, list(classes), jobs)
    new = tuple.__new__
    return [new(SweepRecord, (t, *results[k])) for t, k in zip(labels, keys)]


def _summary(n: int, classes: Iterable[tuple[str, int, int]]) -> dict:
    """The summary of (case, family size, member count) entries, folded
    in one pass.  ``construct`` raises on a rejected family, so a summary
    exists only when every family built passed the verifier."""
    cases: dict[str, int] = {}
    sizes: set[int] = set()
    count = 0
    for case, size, members in classes:
        count += members
        cases[case] = cases.get(case, 0) + members
        sizes.add(size)
    return {
        "n": n,
        "triples": count,
        "expected_size": target_family_size(n),
        "min_size": min(sizes, default=0),
        "max_size": max(sizes, default=0),
        "all_verified": True,
        "fallback_count": 0,
        "fallback_fraction": 0.0,
        "cases": dict(sorted(cases.items())),
    }


def sweep_summary(n: int, records: Iterable[SweepRecord]) -> dict:
    """The summary of any iterable of records, one member each: the
    records are counted by (case, size) in one pass, and each distinct
    pair goes to the fold once, with its count."""
    counts = Counter(map(itemgetter(1, 2), records))
    return _summary(n, ((case, size, members) for (case, size), members in counts.items()))


def all_triples(n: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1 << n), 3))


def sample_triples(n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """``count`` distinct triples drawn with a seeded generator, sorted;
    the count must lie in 1..C(2^n, 3).  Above half of C(2^n, 3) a
    rejection loop would wait long for the last unseen triples, so the
    triples are listed and ``count`` of them sampled instead."""
    total = 1 << n
    limit = math.comb(total, 3)
    if not 1 <= count <= limit:
        raise ContractViolation(f"sample count must be in 1..{limit} at dimension {n}, got {count}")
    rng = random.Random(seed)
    if 2 * count > limit:
        return sorted(rng.sample(all_triples(n), count))
    seen: set[tuple[int, ...]] = set()
    while len(seen) < count:
        trio = tuple(sorted(rng.sample(range(total), 3)))
        seen.add(trio)
    return sorted(seen)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _emit(text: str, output: str | None) -> None:
    if output and output != "-":
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ContractViolation(f"cannot write -o {output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _parse_targets(raw: str, n: int, low: int = 3, high: int = 3) -> list[Vertex]:
    parts = raw.split(",")
    if not low <= len(parts) <= high:
        wanted = str(low) if low == high else f"{low}..{high}"
        raise ContractViolation(f"expected {wanted} comma-separated labels, got {len(parts)}")
    out = []
    for p in parts:
        v = parse_vertex(p)
        if v.dim != n:
            raise ContractViolation(f"label {p!r} does not have length {n}")
        out.append(v)
    if len(set(out)) != len(out):
        raise ContractViolation("duplicate vertex in target set")
    return out


def cmd_info(args: argparse.Namespace) -> int:
    n = args.n
    if not 1 <= n <= 10:
        raise ContractViolation("info supports dimensions 1..10")
    # imported here, as in cmd_oracle: no other command needs the oracle
    from .oracle import hager_upper_bound

    g = AugmentedCube(n)
    conn = _paths.connectivity(g)
    doc = {
        "n": n,
        "vertices": g.order,
        "degree": g.degree,
        "connectivity": {"value": conn, "exact": True},
        "hager_bound_k3": hager_upper_bound(g, 3) if n >= 2 else None,
    }
    if args.format == "json":
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        hager = doc["hager_bound_k3"]
        _emit(
            f"n={n} vertices={g.order} degree={g.degree} "
            f"connectivity={conn} "
            f"hager3={hager if hager is not None else 'n/a'}\n",
            args.output,
        )
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    targets = _parse_targets(args.targets, args.n)
    g = AugmentedCube(args.n)
    if args.fidelity and args.n > FIDELITY_MAX_DIM and classify(g, targets).case is Case.CASE1:
        raise ContractViolation(f"--fidelity on a Case1 triple needs dimension at most {FIDELITY_MAX_DIM}")
    family = build_family(g, targets, fidelity=args.fidelity)
    case = family.provenance[0].case.value
    if args.format == "json":
        _emit(json.dumps(certificate_doc(family, case), indent=2) + "\n", args.output)
    elif args.format == "dot":
        _emit(family_to_dot(family, case), args.output)
    else:
        _emit(family_to_text(family, case), args.output)
    return 0


def _read_certificate(path: str) -> str:
    """The file, or stdin for "-", decoded as a text-mode read would
    (UTF-8, universal newlines); reads at most ``VERIFY_MAX_BYTES`` + 1
    bytes, so an endless or huge input stops there."""
    if path == "-":
        raw = sys.stdin.buffer.read(VERIFY_MAX_BYTES + 1)
    else:
        with open(path, "rb") as fh:
            raw = fh.read(VERIFY_MAX_BYTES + 1)
    if len(raw) > VERIFY_MAX_BYTES:
        raise ContractViolation(f"certificate larger than {VERIFY_MAX_BYTES} bytes")
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        cert = parse_certificate(json.loads(_read_certificate(args.path)))
    except (OSError, ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, ContractViolation; deep nesting
        raise ContractViolation(f"malformed certificate: {exc}") from exc
    g = AugmentedCube(cert.n)
    report = _verify.verify_family(g, cert, size=target_family_size(cert.n))
    # json.dumps(..., indent=2) in batches: never one string, and few writes
    # to an unbuffered stdout (python -u), where json.dump's chunks are syscalls
    chunks = json.JSONEncoder(indent=2).iterencode(report.to_json())
    while batch := "".join(itertools.islice(chunks, 1 << 14)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")
    return 0 if report.accepted else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    n = args.n
    if not 3 <= n <= MAX_DIM:
        raise ContractViolation(f"sweep needs dimension in 3..{MAX_DIM}")
    if args.exhaustive:
        # an argparse group would print its usage text, not one error line
        if args.samples is not None:
            raise ContractViolation("give either --exhaustive or --samples N, not both")
        if n > 5 and not args.force:
            raise ContractViolation("exhaustive sweep above dimension 5 needs --force")
        if (members := math.comb(1 << n, 3)) > SWEEP_MAX_TRIPLES:
            raise ContractViolation(f"exhaustive sweep verifies at most {SWEEP_MAX_TRIPLES} triples, AQ_{n} has {members}")
        canons, weights = list(least_translates(n)), itertools.repeat(1 << n)
    elif args.samples is None:
        raise ContractViolation("either --exhaustive or --samples N is required")
    elif args.samples > SWEEP_MAX_TRIPLES:
        raise ContractViolation(f"sweep lists at most {SWEEP_MAX_TRIPLES} triples, this run would list {args.samples}")
    else:
        counts = Counter(least_translate(t)[0] for t in sample_triples(n, args.samples, args.seed))
        canons, weights = list(counts), counts.values()
    started = time.monotonic()
    summary = _summary(n, ((case, size, w) for (case, size), w in zip(_sweep(n, canons, args.jobs), weights)))
    elapsed = time.monotonic() - started
    if args.format == "json":
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    else:
        lines = [
            f"n={summary['n']} triples={summary['triples']} "
            f"expected_size={summary['expected_size']} min={summary['min_size']} max={summary['max_size']}",
            "all_verified=yes fallbacks=0 (0.0000)",
        ]
        for case, count in summary["cases"].items():
            lines.append(f"  {case}: {count}")
        sys.stdout.write("\n".join(lines) + "\n")
    print(f"sweep completed in {elapsed:.1f}s", file=sys.stderr)
    # construct raises InternalError on any family not of size 2n - 3, before
    # a summary exists, so here min_size = max_size = expected_size
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    n = args.n
    if not 1 <= n <= ORACLE_MAX_DIM:
        raise ContractViolation(f"oracle needs dimension in 1..{ORACLE_MAX_DIM}")
    if (1 << n) > 16 and not args.force:
        raise ContractViolation("oracle beyond 16 vertices needs --force (results may be a bracket)")
    targets = _parse_targets(args.targets, n, low=2, high=3)
    # imported here: the search is about 300 lines that every other
    # command would compile for nothing
    from .oracle import DEFAULT_ORACLE_BUDGET, oracle_tau

    budget = DEFAULT_ORACLE_BUDGET if args.budget is None else args.budget
    res = oracle_tau(AugmentedCube(n), [t.bits for t in targets], budget=budget)
    doc = {
        "n": n,
        "s": sorted(t.label() for t in targets),
        "lower": res.lower,
        "upper": res.upper,
        "exact": res.exact,
        "nodes_used": res.nodes_used,
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_paths(args: argparse.Namespace) -> int:
    n = args.n
    if not 1 <= n <= MAX_DIM:
        raise ContractViolation(f"paths needs dimension in 1..{MAX_DIM}")
    u = parse_vertex(args.u)
    v = parse_vertex(args.v)
    if u.dim != n or v.dim != n:
        raise ContractViolation("endpoint labels must have length n")
    res = _paths.cube_paths(AugmentedCube(n), u.bits, v.bits, args.k)
    if isinstance(res, _paths.MinCut):
        sys.stdout.write(json.dumps(min_cut_doc(res, n), indent=2) + "\n")
        return 1
    if args.format == "dot":
        sys.stdout.write(path_system_to_dot(res, n))
    elif args.format == "text":
        for i, p in enumerate(res.paths):
            sys.stdout.write(f"path {i}: {'-'.join(_label(w, n) for w in p)}\n")
    else:
        sys.stdout.write(json.dumps(path_system_doc(res, n), indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _job_count(text: str) -> int:
    """``sweep --jobs``: 1..os.cpu_count(), checked while parsing, since a
    process pool starts all of its workers at once."""
    cap = os.cpu_count() or 1
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= jobs <= cap:
        raise argparse.ArgumentTypeError(f"must be in 1..{cap} (the CPU count), got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqsteiner",
        description="Pendant Steiner-tree packing certificates for augmented cubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="facts for one dimension")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("construct", help="build a verified family for 3 targets")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-S", "--targets", required=True, help="three comma-separated binary labels")
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.add_argument(
        "--fidelity", action="store_true", help="Case1 quarter trees as spanning paths in counting order (n <= 16)"
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a certificate file")
    p.add_argument("path", help="certificate JSON path, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="construct for many triples and tabulate")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_job_count, default=1)
    p.add_argument("--force", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="exact packing number by exhaustive search")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-S", "--targets", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("paths", help="internally disjoint path systems")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-u", required=True)
    p.add_argument("-v", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.set_defaults(func=cmd_paths)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """The one error boundary (see the module docstring); any other
    exception is a bug and keeps its traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
