"""Benchmark for borelfiber: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (one op each):

- ``sweep``: ``verify.sweep_unique_sinks(table, 3, jobs=1)`` for one ideal.
- ``groebner``: ``toric.buchberger_verify(quadric_generators(t))`` and
  ``rees.rees_buchberger_verify(rees_gb(t))``; both must PASS.
- ``oracle``: ``toric.brute_force_gb(t, 3)``; every oracle lead must be a
  quadric lead.
- ``scale``: one in-process ``cli.main([...])`` call with stdout captured:
  ``sink`` at t = 100, 200, 400, 800 and ``counterexample --r 3``, three times
  each, then ``counterexample --r 4`` once.

The ideals of one pass are ``suite_tables(cap=200)`` followed by the first 4
tables of ``random_tables(30, seed)`` with at most 21 generators.  The cap
keeps one draw from dominating a run (a 44-generator table alone takes longer
in ``groebner`` than the whole suite), and the small random share keeps the
spread between seeds of the percentiles within a few percent.  Every pass
starts from a fresh import of the package, so the module caches start cold, as
in a CLI call or a test run; each ``scale`` op gets its own fresh import,
because each is one CLI call.

With ``--trace 0`` a run makes a fixed number of passes (fewer if
``--seconds`` runs out, at least one) and prints the end-to-end metrics.  With
``--trace 1`` it makes one traced pass and one plain pass and prints the
per-layer metrics.  Timings are at a nominal machine speed (see
``SpeedProbe``).  Every op's answer is checked and its digest compared with
``bench/reference.json``.  The last stdout line is the result object; the full
record (environment, per-op digests and times, spans) goes to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "borelfiber"
REFERENCE_FILE = BENCH_DIR / "reference.json"
RESULTS_DIR = ROOT / ".bench_results"

DEFAULT_SEED = 20250809
DEFAULT_SECONDS = 20
PASSES = {"sweep": 1, "groebner": 1, "oracle": 2, "scale": 1}
SUITE_CAP = 200
RANDOM_COUNT = 4
RANDOM_DRAWS = 30
MAX_RANDOM_GENERATORS = 21
SWEEP_BOUND = 3
ORACLE_BOUND = 3
SETUP_REPEATS = 5
SPAN_CAP = 20000
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW_S = 0.5
NOMINAL_CALIBRATION_S = 0.001
CALIBRATION_GENERATORS = [(i % 4, i * 7 % 5, i * 3 % 6, i % 3) for i in range(10)]
QUICK_SUITE = 3
QUICK_RANDOM = 2

# Calls under two seconds vary by a quarter between runs on a shared machine,
# so each runs three times; the ~25 s counterexample at r = 4 runs once.
SCALE_ROUND = [
    ["sink", "--ideal", "{a^2c^3,b^4c}", "--mu", f"[{t},{3 * t},{t}]"]
    for t in (100, 200, 400, 800)
] + [["counterexample", "--r", "3"]]
SCALE_ARGVS = SCALE_ROUND * 3 + [["counterexample", "--r", "4"]]
QUICK_SCALE_ARGVS = [SCALE_ROUND[0], SCALE_ROUND[4]]

LAYER_MODULES = ("monomials", "borel", "instances", "fiber", "verify", "toric", "rees", "cli")

# Wrapped functions: (module, function, work counts from the return value,
# record the growth of ru_maxrss, the end-to-end metrics it should move).
LAYERS = [
    ("borel", "build_table", lambda r: {"borel.generators": len(r.generators)}, False,
     "setup_s on every workload"),
    ("instances", "sweep_multidegrees", lambda r: {"instances.multidegrees": len(r)}, False,
     "sweep ops_per_s"),
    ("fiber", "enumerate_fiber", None, False,
     "sweep ops_per_s, scale op_p50_ms and ops_per_s"),
    ("fiber", "build_fiber_graph",
     lambda r: {"fiber.points": len(r.vertices), "fiber.edges": len(r.edges)}, False,
     "sweep ops_per_s and op_p50_ms"),
    ("fiber", "find_sink_direct", None, True,
     "sweep ops_per_s, scale op_p50_ms and peak_rss_mb"),
    ("verify", "check_unique_sink", lambda r: {"verify.violations": len(r)}, False,
     "sweep ops_per_s"),
    ("verify", "sweep_unique_sinks", None, False,
     "sweep ops_per_s"),
    ("toric", "quadric_generators", lambda r: {"toric.quadrics": len(r.elements)}, False,
     "groebner ops_per_s"),
    ("toric", "normal_form", None, False,
     "scale ops_per_s, groebner and oracle ops_per_s"),
    ("toric", "buchberger_verify", lambda r: {"toric.spairs": r.pairs_checked}, True,
     "groebner ops_per_s, scale ops_per_s and peak_rss_mb"),
    ("toric", "brute_force_gb", lambda r: {"toric.oracle_elements": len(r.elements)}, False,
     "oracle ops_per_s"),
    ("toric", "closure_components", lambda r: {"toric.components": len(r)}, False,
     "scale ops_per_s"),
    ("rees", "rees_gb", lambda r: {"rees.elements": len(r.elements)}, False,
     "groebner ops_per_s"),
    ("rees", "rees_buchberger_verify", lambda r: {"rees.spairs": r.pairs_checked}, False,
     "groebner ops_per_s and op_p95_ms"),
    ("cli", "main", None, False,
     "scale op_p50_ms"),
]
WORK_COUNTS = [
    "borel.generators", "instances.multidegrees", "fiber.points", "fiber.edges",
    "verify.violations", "toric.quadrics", "toric.spairs", "toric.oracle_elements",
    "toric.components", "rees.elements", "rees.spairs",
]


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def fresh_import():
    """Import borelfiber from this checkout anew, with every module cache cold."""
    for name in [m for m in sys.modules if m == "borelfiber" or m.startswith("borelfiber.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path[:1]:
        sys.path.insert(0, str(SRC))
    importlib.import_module("borelfiber")
    mods = {name: importlib.import_module(f"borelfiber.{name}") for name in LAYER_MODULES}
    for mod in mods.values():
        if Path(mod.__file__).resolve().parent != PACKAGE_DIR:
            raise BenchError(f"borelfiber was imported from {mod.__file__}, not {PACKAGE_DIR}")
    return mods


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def table_key(table) -> str:
    return json.dumps([list(r) for r in table.roots], separators=(",", ""))


def random_part(bf, seed: int, count: int) -> list:
    """The first ``count`` seeded random tables with at most 21 generators."""
    kept = [
        t for t in bf["instances"].random_tables(RANDOM_DRAWS, seed)
        if len(t.generators) <= MAX_RANDOM_GENERATORS
    ]
    if len(kept) < count:
        raise BenchError(f"seed {seed} gives only {len(kept)} random tables within the cap")
    return kept[:count]


def table_inputs(bf, seed: int, quick: bool) -> list:
    suite = bf["instances"].suite_tables(cap=QUICK_SUITE if quick else SUITE_CAP)
    return suite + random_part(bf, seed, QUICK_RANDOM if quick else RANDOM_COUNT)


# Each workload: inputs(bf, seed, quick), op(bf, item) -> result,
# answer(bf, item, result) -> (key, jsonable answer, list of problems).


def sweep_op(bf, table):
    return bf["verify"].sweep_unique_sinks(table, SWEEP_BOUND, jobs=1)


def sweep_answer(bf, table, report):
    answer = report.to_json()
    problems = [] if report.ok else [f"sweep {report.status}: {v}" for v in report.violations]
    return table_key(table), answer, problems


def groebner_op(bf, table):
    toric, rees = bf["toric"], bf["rees"]
    basis = toric.quadric_generators(table)
    toric_report = toric.buchberger_verify(basis)
    rees_basis = rees.rees_gb(table)
    return basis, toric_report, rees_basis, rees.rees_buchberger_verify(rees_basis)


def groebner_answer(bf, table, result):
    basis, toric_report, rees_basis, rees_report = result
    problems = []
    if not toric_report.ok:
        problems.append("toric Buchberger check FAIL")
    if not rees_report.ok:
        problems.append("Rees Buchberger check FAIL")
    for el in rees_basis.elements:
        if any(sum(side.xpart) + len(side.ypart) > 2 for side in (el.lead, el.trail)):
            problems.append("Rees basis element of joint degree above two")
            break
    answer = {
        "toric": toric_report.status,
        "rees": rees_report.status,
        "toric_basis": sorted([list(el.lead), list(el.trail)] for el in basis.elements),
        "rees_basis": sorted(
            [[list(m.xpart), list(m.ypart)] for m in (el.lead, el.trail)]
            for el in rees_basis.elements
        ),
    }
    return table_key(table), answer, problems


def oracle_op(bf, table):
    return bf["toric"].brute_force_gb(table, ORACLE_BOUND)


def oracle_answer(bf, table, oracle):
    # The degree-2 leads of a truncated basis are the initial ideal in degree
    # two, which does not depend on the order the completion runs in.
    quadric_leads = {el.lead for el in bf["toric"].quadric_generators(table).elements}
    leads = {el.lead for el in oracle.elements}
    outside = sorted(leads - quadric_leads)
    problems = [f"oracle lead {lead} is not a quadric lead" for lead in outside]
    answer = {"leads": sorted(list(lead) for lead in leads), "outside_quadric_leads": len(outside)}
    return table_key(table), answer, problems


def scale_op(bf, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bf["cli"].main(list(argv))
    return code, out.getvalue(), err.getvalue()


def scale_answer(bf, argv, result):
    code, out, err = result
    key = " ".join(argv)
    problems = [] if code == 0 else [f"exit code {code}: {err.strip()}"]
    try:
        data = json.loads(out)
    except json.JSONDecodeError:
        return key, {"exit": code, "output": out}, problems + ["output is not JSON"]
    if argv[0] == "counterexample":
        data["quadric_buchberger"].pop("pairs_checked", None)
        if not data["separated"]:
            problems.append("f^(r-1)g and h^r are not separated")
    else:
        mono = bf["monomials"]
        ctx = mono.VariableContext.default(3)
        mu = mono.parse_monomial(argv[argv.index("--mu") + 1], ctx)
        if data["sink"] is None:
            problems.append("no sink for a nonempty fiber")
        else:
            product = mono.unit(ctx.n)
            for factor in data["sink"]:
                product = mono.multiply(product, mono.parse_monomial(factor, ctx))
            if product != mu:
                problems.append("the sink's factors do not multiply to mu")
        if data["agrees_with_graph"] is False:
            problems.append("direct sink disagrees with the graph sink")
    return key, {"exit": code, "output": data}, problems


WORKLOADS = {
    "sweep": (table_inputs, sweep_op, sweep_answer, False),
    "groebner": (table_inputs, groebner_op, groebner_answer, False),
    "oracle": (table_inputs, oracle_op, oracle_answer, False),
    "scale": (lambda bf, seed, quick: QUICK_SCALE_ARGVS if quick else SCALE_ARGVS,
              scale_op, scale_answer, True),
}


def calibration_unit() -> None:
    """A fixed slice of work in the program's style: tuples, dicts and sorts."""
    groups: dict = {}
    gens = CALIBRATION_GENERATORS
    for combo in itertools.combinations_with_replacement(range(len(gens)), 3):
        product = tuple(sum(column) for column in zip(*(gens[i] for i in combo)))
        groups.setdefault(product, []).append(combo)
    for key in sorted(groups):
        groups[key].sort(key=lambda p: (len(p), tuple(-x for x in reversed(p))))


class SpeedProbe:
    """Samples the machine's speed every 100 ms by timing ``calibration_unit``.

    On a shared 2-vCPU VM the speed of the same op drifts by up to a factor
    of two within seconds, and the calibration loop slows with it: dividing a
    time by the loop's cost at that moment gives a time at a fixed nominal
    speed (the loop taking 1 ms), which is what the end-to-end and per-layer
    timings report.  Samples run from SIGALRM between bytecodes, so they also
    cover the inside of long ops; the loop runs twice and only the second,
    warm run is timed, so the program's cache and heap state does not leak
    into the sample.  The sampling time is subtracted from every interval.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []
        self.spent = 0.0

    def _sample(self, *_) -> None:
        collecting = gc.isenabled()
        gc.disable()
        begin = time.perf_counter()
        calibration_unit()
        start = time.perf_counter()
        calibration_unit()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.costs.append(end - start)
        self.spent += end - begin

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def cost(self, start: float, end: float) -> float:
        """The mean calibration cost over [start, end], widened to reach at
        least half a second to each side of its midpoint."""
        mid = (start + end) / 2
        lo = bisect.bisect_left(self.starts, min(start, mid - PROBE_WINDOW_S))
        hi = bisect.bisect_right(self.starts, max(end, mid + PROBE_WINDOW_S))
        if hi == lo:
            lo, hi = max(0, lo - 1), max(1, lo)
        return statistics.fmean(self.costs[lo:hi])

    def normalized(self, begin: tuple[float, float], finish: tuple[float, float]) -> float:
        """Seconds between two marks at nominal speed, sampling time excluded."""
        (start, spent0), (end, spent1) = begin, finish
        busy = end - start - (spent1 - spent0)
        return busy * NOMINAL_CALIBRATION_S / self.cost(start, end)


class Tracer:
    """Spans around calls into the layer modules, installed by rebinding names.

    A span's self time is its duration minus the time its child spans cover,
    less the speed probe's sampling time.  Per-function totals are always
    kept; individual spans are kept up to a cap and written when the run ends.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.active = False
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.maxrss_kb: dict[str, int] = {}
        self.counts: dict[str, int] = dict.fromkeys(WORK_COUNTS, 0)

    def install(self, mods) -> None:
        """Rebind every listed function in every module namespace that binds it."""
        wrappers = {}
        for module, fn, counter, rss, _ in LAYERS:
            original = getattr(mods[module], fn)
            wrappers[id(original)] = self._wrap(f"{module}.{fn}", original, counter, rss)
        for name, mod in list(sys.modules.items()):
            if name != "borelfiber" and not name.startswith("borelfiber."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, counter, rss):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        if rss:
            self.maxrss_kb.setdefault(name, 0)
        clock = time.perf_counter
        stack = self.stack
        probe = self.probe

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if rss else 0
            parent = stack[-1][0] if stack else None
            frame = [self.next_id, 0.0]
            self.next_id += 1
            stack.append(frame)
            spent = probe.spent
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start - (probe.spent - spent)
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((frame[0], name, start, end, parent))
                else:
                    self.dropped += 1
                if rss:
                    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    self.maxrss_kb[name] += after - rss_before
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[key] += value
            return result

        return traced

    def metrics(self, speed: float) -> dict:
        """Per-layer metrics; ``speed`` converts self times to nominal speed."""
        out = {}
        for module, fn, _, rss, _ in LAYERS:
            name = f"{module}.{fn}"
            out[f"{name}.self_s"] = (self.self_s[name] * speed, "s")
            out[f"{name}.calls"] = (self.calls[name], "count")
            if rss:
                out[f"{name}.maxrss_delta_mb"] = (self.maxrss_kb[name] / 1024, "MB")
        for key in WORK_COUNTS:
            out[key] = (self.counts[key], "count")
        return out


def setup(workload: str, seed: int, quick: bool, probe: SpeedProbe, tracer: Tracer | None):
    """Fresh import plus input generation; returns (marks, modules, inputs)."""
    gc.collect()
    begin = probe.mark()
    bf = fresh_import()
    if tracer is not None:
        tracer.install(bf)
        tracer.active = True
    items = WORKLOADS[workload][0](bf, seed, quick)
    finish = probe.mark()
    if tracer is not None:
        tracer.active = False
    return (begin, finish), bf, items


def run_pass(workload, seed, quick, reference, probe, tracer=None):
    """One pass over the workload's inputs; returns (setup marks, op records).

    Each op record holds its start and end marks; timings are normalized once
    the run has ended, when the probe has sampled both sides of every op.
    """
    _, op, answer, import_per_op = WORKLOADS[workload]
    marks, bf, items = setup(workload, seed, quick, probe, tracer)
    setups = [marks]
    records = []
    for index, item in enumerate(items):
        if import_per_op and index > 0:
            marks, bf, _ = setup(workload, seed, quick, probe, tracer)
            setups.append(marks)
        if tracer is not None:
            tracer.active = True
        begin = probe.mark()
        try:
            result, error = op(bf, item), None
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            result, error = None, f"{type(exc).__name__}: {exc}"
        finish = probe.mark()
        if tracer is not None:
            tracer.active = False
        if error is None:
            key, ans, problems = answer(bf, item, result)
            found = digest(ans)
        else:
            key = table_key(item) if workload != "scale" else " ".join(item)
            found, problems = None, [error]
        expected = reference.get(workload, {}).get(key)
        if found is not None and found != expected:
            problems.append(f"answer digest {found} differs from the reference {expected}")
        records.append({"key": key, "marks": (begin, finish), "digest": found, "problems": problems})
        del result  # free the answer before the next op runs
    return setups, records


def finish_records(probe: SpeedProbe, records: list[dict]) -> None:
    """Add each record's wall time and its nominal-speed time."""
    for r in records:
        (start, spent0), (end, spent1) = r["marks"]
        r["wall_s"] = end - start - (spent1 - spent0)
        r["latency_s"] = probe.normalized((start, spent0), (end, spent1))


def rate(records: list[dict]) -> float:
    return len(records) / sum(r["latency_s"] for r in records)


def end_to_end(setup_s: list[float], records: list[dict]) -> dict:
    latencies = [r["latency_s"] for r in records]
    failed = sum(1 for r in records if r["problems"])
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (rate(records), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_p95_ms": (statistics.quantiles(latencies, n=100, method="inclusive")[94] * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((len(records) - failed) / len(records), "ratio"),
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:20]


def ops_per_run(quick: bool) -> dict:
    """Ops of an untraced run that is not cut short by ``--seconds``."""
    if quick:
        tables, scale = QUICK_SUITE + QUICK_RANDOM, len(QUICK_SCALE_ARGVS)
        return {"sweep": tables, "groebner": tables, "oracle": tables, "scale": scale}
    per_pass = {"sweep": SUITE_CAP + RANDOM_COUNT, "groebner": SUITE_CAP + RANDOM_COUNT,
                "oracle": SUITE_CAP + RANDOM_COUNT, "scale": len(SCALE_ARGVS)}
    return {w: n * PASSES[w] for w, n in per_pass.items()}


def header(args) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "jobs": 1,
        "ops_per_run": ops_per_run(args.quick),
    }


def load_reference() -> dict:
    if not REFERENCE_FILE.is_file():
        raise BenchError(f"missing reference answers {REFERENCE_FILE}")
    return json.loads(REFERENCE_FILE.read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one pass over a few ops (smoke test)")
    return parser.parse_args(argv)


def run(args) -> dict:
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise BenchError(f"no borelfiber sources under {SRC}")
    reference = load_reference()
    os.environ.pop("BORELFIBER_JOBS", None)
    head = header(args)
    print(json.dumps({"header": head}), flush=True)
    record = {"header": head}
    with SpeedProbe() as probe:
        if args.trace:
            # The traced pass goes first, while ru_maxrss still shows what each
            # function adds to the peak.
            tracer = Tracer(probe)
            traced_begin = probe.mark()
            _, traced = run_pass(args.workload, args.seed, args.quick, reference, probe, tracer)
            traced_end = probe.mark()
            _, plain = run_pass(args.workload, args.seed, args.quick, reference, probe)
            records = traced + plain
        else:
            setups = [setup(args.workload, args.seed, args.quick, probe, None)[0]
                      for _ in range(SETUP_REPEATS)]
            records = []
            start = time.perf_counter()
            for _ in range(1 if args.quick else PASSES[args.workload]):
                more_setups, pass_records = run_pass(
                    args.workload, args.seed, args.quick, reference, probe)
                setups += more_setups
                records += pass_records
                if time.perf_counter() - start > args.seconds:
                    break
    finish_records(probe, records)
    if args.trace:
        speed = NOMINAL_CALIBRATION_S / probe.cost(traced_begin[0], traced_end[0])
        metrics = tracer.metrics(speed)
        metrics["trace.overhead_ratio"] = (rate(traced) / rate(plain), "ratio")
        record["layers"] = {f"{m}.{fn}": moves for m, fn, _, _, moves in LAYERS}
        record["spans"] = {"kept": tracer.spans, "dropped": tracer.dropped}
    else:
        metrics = end_to_end([probe.normalized(*marks) for marks in setups], records)
    failed = sum(1 for r in records if r["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record.update(probe={"starts": probe.starts, "costs": probe.costs},
                  ops=records, result=result)
    RESULTS_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
    (RESULTS_DIR / name).write_text(json.dumps(record) + "\n")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
