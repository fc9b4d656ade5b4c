"""aqsteiner benchmark: one workload per run, result as the last stdout line.

    python3 bench/run.py --workload fan-n11 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 25 --trace 1

Every workload is a closed loop with one caller: the next operation
starts when the previous one returns.  The seed picks the inputs; the
program only ever sees the generated triples and certificates.  With
``--trace 0`` the run makes a fixed number of whole passes over the
inputs, about ``--seconds`` worth on the reference VM, times each
operation from outside, scales the time to a reference host speed with
the probe in ``speed.py``, and prints the end-to-end metrics.  With
``--trace 1`` it makes a fixed number of passes over the inputs, first
untraced and then with spans recorded around every layer's public
functions, and prints the per-layer metrics, the tracing overhead and
the layer predictions.  Every output is checked; a wrong one, or an
operation that raises, counts as failed and the run goes on.  ``--all``
runs every workload, each in a fresh process, and prints a table.
"""

from __future__ import annotations

import time

import speed

# the host's speed as set-up starts; set-up time is scaled like every other time
SETUP_PROBE = speed.probe()
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

try:
    import aq
    import inputs
    import spans
except ImportError as exc:
    print(f"cannot load aqsteiner: {exc}", file=sys.stderr)
    sys.exit(2)

SETUP_REPEATS = 5  # this process plus four fresh ones; setup_s is their median
CHILD_TIMEOUT_S = 170

# the exhaustive n = 5 sweep as the written recipes produce it
N5_SUMMARY = {
    "n": 5,
    "triples": 4960,
    "expected_size": 7,
    "min_size": 7,
    "max_size": 7,
    "all_verified": True,
    "fallback_count": 0,
    "fallback_fraction": 0.0,
    "cases": {
        "Case1": 1120, "Case2_1_1": 32, "Case2_1_2": 512, "Case2_1_3": 384,
        "Case2_2_1a": 192, "Case2_2_1b": 32, "Case2_2_2a": 64, "Case2_2_2b": 640,
        "Case2_2_2c": 832, "Case2_2_3a": 64, "Case2_2_3b": 640, "Case2_2_3c": 448,
    },
}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One closed-loop workload.  ``pass_s`` is the run time one pass over the
    inputs is counted as; it only sets the pass count, which keeps every run,
    set-ups and probes included, under about 50 s on the reference VM."""

    name: str
    pass_s: float
    trace_passes: int
    expect_calls: tuple[str, ...]

    @staticmethod
    def size(item) -> int:
        """Triples that one operation on ``item`` covers."""
        return 1


class FanN11(Workload):
    """The construct CLI path on case-stratified triples at n = 11."""

    name = "fan-n11"
    n = 11
    per_stratum = 6
    pass_s = 14.0
    trace_passes = 2
    expect_calls = ("topology.side_view.calls", "paths.disjoint_paths.calls", "paths.reorder_paths.calls",
                    "paths.map_path_system.calls", "paths.connector_tree.calls", "construct.construct.calls",
                    "verify.verify_family.calls", "cli.serialise.s")

    def setup(self, seed: int) -> list:
        items = [self._item(self.n, s, t) for s, t in
                 inputs.stratified_triples(seed, self.n, inputs.CASE2_STRATA + (inputs.CASE1,), self.per_stratum)]
        # warm-up: one small instance through the same path
        warm = self._item(6, "Case2_2_2a", inputs.stratum_triples(seed, 6, "Case2_2_2a", 1)[0])
        if self.check(warm, self.op(warm, spans.Tracer())):
            raise RuntimeError("warm-up construct produced a wrong certificate")
        return items

    @staticmethod
    def _item(n: int, stratum: str, labels) -> tuple:
        return stratum, aq.topology.AugmentedCube(n), [aq.topology.Vertex(a, n) for a in labels]

    def op(self, item, tracer):
        _, g, terms = item
        tag = aq.construct.classify(g, terms)
        family = aq.cli.build_family(g, terms)
        with tracer.span("cli.serialise"):
            text = json.dumps(aq.cli.certificate_doc(family, tag.case.value), indent=2) + "\n"
        if tracer.active:
            tracer.counts["cli.cert_bytes"] += len(text)
            tracer.counts["cli.certs"] += 1
        return tag, family, text

    def check(self, item, out) -> int:
        stratum, g, terms = item
        tag, family, text = out
        cert = aq.cli.parse_certificate(json.loads(text))
        ok = (
            tag.case.value == stratum
            and family.provenance[0].case is tag.case
            and not family.fallback_used
            and len(cert.trees) == 2 * g.dim - 3
            and cert.terminals == frozenset(terms)
            and cert.case == stratum
            and aq.verify.verify_family(g, cert).accepted
        )
        return 0 if ok else 1

    def predictions(self, m: dict) -> list[tuple[str, bool]]:
        share = m["paths.disjoint_paths.construct_share"][0]
        return [(f"paths.disjoint_paths.s is >= 90% of construct time ({share:.1f}%)", share >= 90.0)]


class SweepN5(Workload):
    """``cli.run_sweep`` over all 4960 triples at n = 5, plus ``sweep_summary``."""

    name = "sweep-n5"
    n = 5
    pass_s = 8.0
    trace_passes = 2
    expect_calls = ("topology.side_view.calls", "paths.disjoint_paths.calls", "paths.reorder_paths.calls",
                    "paths.map_path_system.calls", "paths.connector_tree.calls", "construct.construct.calls",
                    "construct.base_case_search.calls", "verify.verify_family.calls", "cli.run_sweep.s")

    def setup(self, seed: int) -> list:
        triples = aq.cli.all_triples(self.n)
        # the set is the same for every seed; the seed only orders what is submitted
        random.Random(seed).shuffle(triples)
        # warm-up: fill the base-case cache that Case1 recursion reads, as the
        # first sweep of a process would, then sweep a few triples
        g4 = aq.topology.AugmentedCube(4)
        for labels in aq.cli.all_triples(4):
            aq.construct.base_case_search(g4, [aq.topology.Vertex(a, 4) for a in labels], 5)
        aq.cli.run_sweep(self.n, triples[:64], jobs=1)
        return [triples]

    @staticmethod
    def size(item) -> int:
        return len(item)

    def op(self, item, tracer):
        records = aq.cli.run_sweep(self.n, item, jobs=1)
        return records, aq.cli.sweep_summary(self.n, records)

    def check(self, item, out) -> int:
        records, summary = out
        if summary != N5_SUMMARY or len(records) != len(item):
            return len(item)
        return sum(1 for r in records if not r.verified or r.size != 7 or r.fallback)

    def predictions(self, m: dict) -> list[tuple[str, bool]]:
        per = m["verify.calls_per_triple"][0]
        return [(f"verify.calls_per_triple is about 3.2 ({per:.3f})", abs(per - 3.2) <= 0.2)]


class VerifyCerts(Workload):
    """Parse and check serialised certificates, valid ones and mutants."""

    name = "verify-certs"
    pass_s = 0.25
    trace_passes = 20
    expect_calls = ("verify.verify_family.calls", "cli.parse.s")
    # (n, stratum, certificates): every flow-built stratum at n = 10, where a
    # construct is cheap enough to build them in set-up, and Case1-deep
    # certificates, which need no flow, up to n = 14
    plan = (
        [(10, s, 1) for s in inputs.CASE2_STRATA + (inputs.CASE1,)]
        + [(n, inputs.CASE1_DEEP, 2) for n in range(10, 15)]
    )

    def setup(self, seed: int) -> list:
        items = inputs.certificate_items(seed, self.plan)
        for item in items[:2]:
            if self.check(item, self.op(item, spans.Tracer())):
                raise RuntimeError(f"warm-up verdict wrong for {item[0]}")
        return items

    def op(self, item, tracer):
        text = item[1]
        with tracer.span("cli.parse"):
            cert = aq.cli.parse_certificate(json.loads(text))
        if tracer.active:
            tracer.counts["cli.cert_bytes"] += len(text)
            tracer.counts["cli.certs"] += 1
        return cert, aq.verify.verify_family(aq.topology.AugmentedCube(cert.n), cert)

    def check(self, item, out) -> int:
        _, _, accepted, kind = item
        cert, report = out
        if accepted:
            ok = report.accepted and len(cert.trees) == 2 * cert.n - 3
        else:
            ok = not report.accepted and {v.kind for v in report.violations} == {kind}
        return 0 if ok else 1

    def predictions(self, m: dict) -> list[tuple[str, bool]]:
        calls = m["paths.disjoint_paths.calls"][0]
        return [(f"paths.disjoint_paths.calls is 0 ({calls:g})", calls == 0)]


WORKLOADS = {w.name: w for w in (FanN11(), SweepN5(), VerifyCerts())}
CASES = (inputs.CASE1,) + inputs.CASE2_STRATA


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum, as percentile 100, below eleven samples."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def failures(workload, item, out) -> int:
    """Failed triples of one operation; one that raised, or whose check
    raised, fails all its triples."""
    if not isinstance(out, Exception):
        try:
            return workload.check(item, out)
        except Exception as exc:  # noqa: BLE001 - a wrong output may break the check
            out = exc
    print(f"# {workload.name}: {out!r}", file=sys.stderr)
    return workload.size(item)


def timed_pass(workload, items: list, tracer, latencies: list[list[float]]) -> int:
    """One pass over the inputs in order, appending each operation's latency
    in s, scaled to the reference host speed, to its input's list; returns
    the failed triples.  An operation that raises fails, and the run goes on."""
    failed = 0
    probes: list[float] = []
    taken: list[tuple[list[float], float, int]] = []  # (input's list, s, probe before)
    last = float("-inf")
    for item, mine in zip(items, latencies):
        if time.perf_counter() - last >= speed.PROBE_EVERY_S:
            probes.append(speed.probe())
            last = time.perf_counter()
        t = time.perf_counter()
        try:
            out = workload.op(item, tracer)
        except Exception as exc:  # noqa: BLE001 - counted as failed below
            out = exc
        taken.append((mine, time.perf_counter() - t, len(probes) - 1))
        with tracer.paused():
            failed += failures(workload, item, out)
    probes.append(speed.probe())
    for mine, seconds, i in taken:
        mine.append(speed.scaled(seconds, probes[i], probes[i + 1]))
    return failed


def child_setup_s(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    items = workload.setup(args.seed)
    setup_s = speed.scaled(time.perf_counter() - T0, SETUP_PROBE, speed.probe())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    per_pass = sum(workload.size(item) for item in items)

    if not args.trace:
        # a fixed number of whole passes, so every input gets the same number
        # of repeats whatever the speed of the code
        passes = max(1, round(args.seconds / workload.pass_s))
        # the fresh-process set-ups are spread from before the first pass to
        # after the last
        slots = [round(i * passes / (SETUP_REPEATS - 2)) for i in range(SETUP_REPEATS - 1)]
        setups = [setup_s]
        latencies: list[list[float]] = [[] for _ in items]
        failed = 0
        tracer = spans.Tracer()
        for p in range(passes + 1):
            setups += [child_setup_s(args) for _ in range(slots.count(p))]
            if p < passes:
                failed += timed_pass(workload, items, tracer, latencies)
        # each input's latency is the median of its scaled repeats: the error
        # the scaling leaves goes both ways, and a minimum would pick it out
        ms = [1000.0 * statistics.median(v) for v in latencies]
        tail_ms, tail_pct = tail(ms)
        metrics = {
            "latency_ms_p50": (statistics.median(ms), "ms"),
            "latency_ms_tail": (tail_ms, "ms"),
            "triples_per_s": (1000.0 * per_pass / sum(ms), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"# {workload.name}: {passes} passes over {len(ms)} inputs, tail = p{tail_pct:.1f} of {len(ms)} "
              f"per-input medians, set-ups {[round(s, 3) for s in setups]}")
        attempted = passes * per_pass
    else:
        # untraced and traced passes alternate, so drift in machine speed
        # reaches both; the overhead compares per-input medians
        tracer = spans.Tracer()
        plain: list[list[float]] = [[] for _ in items]
        traced: list[list[float]] = [[] for _ in items]
        failed = 0
        for _ in range(workload.trace_passes):
            failed += timed_pass(workload, items, tracer, plain)
            tracer.install()
            try:
                failed += timed_pass(workload, items, tracer, traced)
            finally:
                tracer.uninstall()
        attempted = 2 * workload.trace_passes * per_pass
        plain_s = sum(statistics.median(v) for v in plain)
        traced_s = sum(statistics.median(v) for v in traced)
        metrics = spans.layer_metrics(tracer, workload.trace_passes * per_pass, CASES)
        metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
        print(f"# {workload.name}: {workload.trace_passes} traced and untraced passes over {len(items)} inputs; "
              f"sum of per-input medians untraced {plain_s:.4f} s, traced {traced_s:.4f} s")
        for text, held in workload.predictions(metrics):
            print(f"# prediction {'confirmed' if held else 'refuted'}: {text}")
        silent = [name for name in workload.expect_calls if not metrics[name][0]]
        if silent:
            print(f"self-check failed on {workload.name}: no calls recorded for {', '.join(silent)}",
                  file=sys.stderr)
            return 1
    print(f"# failed_fraction = {failed}/{attempted} = {failed / attempted:g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; a table of metrics and units."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"== {name}")
        for line in lines[:-1]:
            print(line)
        print(f"   {'failed_fraction':<42} {result['failed'] / result['attempted']:>14.6g} ratio")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:<42} {entry['value']:>14.6g} {entry['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.all:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
