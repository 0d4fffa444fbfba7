"""Benchmark for clawvol: one workload per run, one line of JSON at the end.

Run from the root of a clawvol checkout:

    python3 perfbench/run.py --workload verify-frontier --seed 1 --seconds 25 --trace 0

The run builds the workload's inputs from ``--seed``, then repeats whole
rounds of the same items for about ``--seconds`` seconds in this one
process, checks every output against ``oracles.py`` and prints
``{"correct", "attempted", "failed", "metrics"}`` as its last line.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` rounds alternate untraced and traced, and the metrics are
the per-layer ones.  See README.md for the workloads and what each metric
is expected to track.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import reference  # noqa: E402
from spans import HOOK_COUNTERS, TARGETS, Tracer, self_time_by, self_times  # noqa: E402

WORKERS = 5             # fresh interpreters per untraced run that measure rounds
PROBES = 2              # interpreters before each worker that only set up
REF_EVERY_S = 0.025     # item time between two reference-loop samples
MIN_ITEMS = 40          # the tail needs ten items beyond it
OUT_DIR = HERE / "out"


# ---------------------------------------------------------------------------
# Locating the program
# ---------------------------------------------------------------------------

def load_clawvol():
    """Import clawvol from ``src/`` of the current directory, and only from there."""
    src = Path.cwd() / "src"
    if not (src / "clawvol" / "__init__.py").is_file():
        sys.exit("perfbench: no src/clawvol/ in the current directory; "
                 "run from the root of a clawvol checkout")
    sys.path.insert(0, str(src))
    import clawvol
    if Path(clawvol.__file__).resolve().parent != (src / "clawvol").resolve():
        sys.exit(f"perfbench: clawvol was imported from {clawvol.__file__}, "
                 f"not from {src}")
    return clawvol


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Item:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is right


@dataclass
class Inputs:
    items: list[Item]
    problems: list[str] = field(default_factory=list)  # found while building


GROUP_FRONTIER = (("z2", 7), ("z3", 4), ("z2xz2", 3))


def build_verify_frontier(cv, rng: random.Random) -> Inputs:
    order = list(GROUP_FRONTIER)
    rng.shuffle(order)
    items = []
    for name, n in order:
        group = cv.GROUPS[name]
        expected = oracles.degree(name, n)

        def check(result, name=name, n=n, expected=expected):
            methods = {m for m, _ in result.values}
            if methods != {"formula", "inclusion-exclusion", "triangulation"}:
                return f"{name} n={n}: methods {sorted(methods)}"
            wrong = {m: str(v) for m, v in result.values if v != expected}
            if wrong or not result.consistent:
                return f"{name} n={n}: expected {expected}, got {wrong}"
            return None

        items.append(Item(f"verify {name} n={n}",
                          lambda g=group, n=n: cv.verify_degree(g, n), check))
    return Inputs(items)


LEMMA_N = 3
# Instances per round.  The z3 families run whole.  The z2z2 families are
# sampled by the seed, in proportion to each expected value, and kept small:
# their pieces cost most and vary most (113 to 277 simplices per cross pair),
# so small samples keep a round's work nearly the same for every seed.  The
# twelve single cuts, the largest pieces, set the tail.
VOLUME_SAMPLE = {
    "z2z2-single-cut-volume": 12,
    "z2z2-cross-channel-pair-volume": 4,
    "z2z2-triple-channel-volume": 48,
    "z3-single-cut-volume": 54,
    "z3-cross-channel-pair-volume": 81,
}
FLAT_FAMILIES = {
    "z2-same-parity-pair-flat": 4,
    "z2z2-same-channel-pair-flat": 3,
    "z2z2-cut-lattice-points": 3,
    "z3-far-same-channel-flat": 3,
    "z3-near-same-channel-contained": 3,
    "z3-cross-channel-flat": 3,
    "z3-double-pair-flat": 3,
}
AMBIENT_WIDTH = {"z2": 1, "z2xz2": 3, "z3": 2}


def _stratified_sample(claims, size: int, rng: random.Random) -> list:
    strata: dict[Any, list] = {}
    for claim in claims:
        strata.setdefault(claim.expected, []).append(claim)
    picked = []
    for key in sorted(strata, key=str):
        members = strata[key]
        picked += rng.sample(members, round(size * len(members) / len(claims)))
    return picked


def _count_problems(families: dict[str, int], claims_by_family) -> list[str]:
    problems = []
    for lemma, n in families.items():
        want = oracles.instance_count(lemma, n)
        got = len(claims_by_family[lemma])
        if got != want:
            problems.append(f"{lemma} n={n}: {got} instances, counting gives {want}")
    return problems


def _lemma_item(cv, claim) -> Item:
    spec = claim.spec
    n, group = spec.n, spec.group.name

    def check(verdict):
        if not verdict.confirmed:
            return f"{claim.lemma} {claim.hypothesis()}: refuted ({verdict.computed})"
        if claim.kind == "volume":
            want = oracles.lemma_volume(claim.lemma, n,
                                        [c.subset for c in spec.cuts])
            if claim.expected != want or verdict.computed != str(want):
                return (f"{claim.lemma} {claim.hypothesis()}: volume "
                        f"{verdict.computed}, expected {claim.expected}, closed form {want}")
        if claim.kind == "flat" and verdict.computed != "empty":
            dim = int(verdict.computed.removeprefix("dim="))
            if dim >= AMBIENT_WIDTH[group] * n:
                return f"{claim.lemma} {claim.hypothesis()}: full dimension {dim}"
        return None

    return Item(claim.lemma, lambda: cv.check_lemma(claim), check)


def build_lemma_volume(cv, rng: random.Random) -> Inputs:
    families = {lemma: LEMMA_N for lemma in VOLUME_SAMPLE}
    claims = {lemma: cv.lemma_claims(lemma, n) for lemma, n in families.items()}
    picked = []
    for lemma, size in VOLUME_SAMPLE.items():
        picked += _stratified_sample(claims[lemma], size, rng)
    rng.shuffle(picked)
    return Inputs([_lemma_item(cv, c) for c in picked],
                  _count_problems(families, claims))


def build_lemma_flat(cv, rng: random.Random) -> Inputs:
    claims = {lemma: cv.lemma_claims(lemma, n) for lemma, n in FLAT_FAMILIES.items()}
    every = [c for lemma in FLAT_FAMILIES for c in claims[lemma]]
    rng.shuffle(every)
    return Inputs([_lemma_item(cv, c) for c in every],
                  _count_problems(FLAT_FAMILIES, claims))


# Per group: (first n, step, largest seeded shift) for evenly spaced points.
SWEEP = {"z2": (4000, 1500, 10), "z3": (1500, 400, 10), "z2xz2": (100, 20, 2)}
SWEEP_POINTS = 8


def build_formula_sweep(cv, rng: random.Random) -> Inputs:
    from clawvol import cuts, formulas

    items = []
    for name, (start, step, jitter) in SWEEP.items():
        group = cv.GROUPS[name]
        for k in range(SWEEP_POINTS):
            n = start + k * step + rng.randint(-jitter, jitter)
            expected: list[int] = []

            def call(g=group, n=n):
                return (formulas.degree_rational(g, n), formulas.degree(g, n),
                        cuts.assemble(g, n))

            def check(result, name=name, n=n, expected=expected):
                if not expected:  # the same n comes back every round
                    expected.append(oracles.degree(name, n))
                rational, integer, assembled = result
                if not (rational.denominator == assembled.denominator == 1
                        and rational == integer == assembled == expected[0]):
                    return f"{name} n={n}: formula, degree and assembly disagree with the closed form"
                return None

            items.append(Item(f"{name} n={n}", call, check))
    rng.shuffle(items)
    return Inputs(items)


# name -> (function making the inputs, reference kernel closest to its arithmetic)
WORKLOADS: dict[str, tuple[Callable[[Any, random.Random], Inputs], str]] = {
    "verify-frontier": (build_verify_frontier, "integer"),
    "lemma-volume": (build_lemma_volume, "integer"),
    "lemma-flat": (build_lemma_flat, "fraction"),
    "formula-sweep": (build_formula_sweep, "integer"),
}


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

@dataclass
class Round:
    durations: list[float]   # seconds, one per item that returned
    in_ref: list[float]      # the same items in reference-loop units
    refs: list[float]        # reference-loop samples taken between items
    elapsed: float           # the whole round, checks and reference loop included
    traced: bool

    @property
    def wall(self) -> float:
        return sum(self.durations)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)    # operations that raised
    problems: list[str] = field(default_factory=list)  # wrong outputs


def run_round(items: list[Item], kernel: str, tally: Tally, traced: bool) -> Round:
    """One pass over the items, with reference samples at most REF_EVERY_S of
    item time apart.  Each item is also expressed in units of the mean of
    the two samples around it, which follows the machine's drift in speed."""
    gc.collect()
    start = time.perf_counter()
    refs = [reference.sample(kernel)]
    durations: list[float] = []
    in_ref: list[float] = []
    pending: list[float] = []

    def sample_ref():
        refs.append(reference.sample(kernel))
        unit = (refs[-2] + refs[-1]) / 2
        in_ref.extend(d / unit for d in pending)
        pending.clear()

    for item in items:
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            result = item.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.failed += 1
            tally.errors.append(f"{item.label}: {type(exc).__name__}: {exc}")
            continue
        dt = time.perf_counter() - t0
        durations.append(dt)
        pending.append(dt)
        problem = item.check(result)
        if problem:
            tally.problems.append(problem)
        if sum(pending) >= REF_EVERY_S:
            sample_ref()
    sample_ref()
    return Round(durations, in_ref, refs, time.perf_counter() - start, traced)


def measure(items: list[Item], kernel: str, seconds: float, tally: Tally,
            tracer: Tracer | None = None, min_rounds: int = 1) -> list[Round]:
    """Whole rounds until the next one would end after ``seconds``, and at
    least ``min_rounds``.  With a tracer, rounds alternate untraced and traced.
    """
    rounds: list[Round] = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or (
            time.perf_counter() - start + statistics.median(r.elapsed for r in rounds)
            <= seconds):
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.phase = f"round{len(rounds)}"
            tracer.install()
        try:
            rounds.append(run_round(items, kernel, tally, traced))
        finally:
            if traced:
                tracer.uninstall()
    return rounds


def run_worker(workload: str, seed: int,
               seconds: float | None) -> tuple[float, list[Round], Tally, float]:
    """Rounds in a fresh interpreter: (set-up time, rounds, tally, peak RSS in MB).

    The set-up time runs from launching the interpreter until it has built
    its inputs.  With ``seconds`` None the interpreter stops there and runs
    no rounds.  Each interpreter has its own hash seed and memory layout,
    which alone moved ``verify-frontier``'s median item by up to 12% from
    one process to the next, so a run spreads its rounds over several.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds or 0.0), "--worker"]
    if seconds is None:
        command.append("--probe")
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        setup = time.perf_counter() - start
        rest = child.stdout.read()
    if ready.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"worker for {workload} failed (exit {child.returncode})")
    data = json.loads(rest)
    rounds = [Round(**r) for r in data["rounds"]]
    return setup, rounds, Tally(**data["tally"]), data["rss_mb"]


def tail(values: list[float]) -> float:
    """The highest order statistic with at least ten values above it."""
    return sorted(values)[len(values) - 11]


def block_tail(rounds: list[Round]) -> float:
    """Median of the tails of blocks of consecutive rounds.  Each block is the
    fewest rounds holding MIN_ITEMS items; leftover rounds join the last one.

    One tail over all items of a run would sit ever further out as the run
    holds more items (the 11th largest of 20000 is a one-off stall), so it
    is taken per block and the blocks' median is reported.
    """
    blocks: list[list[float]] = [[]]
    for r in rounds:
        if len(blocks[-1]) >= MIN_ITEMS:
            blocks.append([])
        blocks[-1] += r.in_ref
    if len(blocks) > 1 and len(blocks[-1]) < MIN_ITEMS:
        leftover = blocks.pop()
        blocks[-1] += leftover
    return statistics.median(tail(block) for block in blocks)


def end_to_end_metrics(rounds: list[Round], setup: list[float],
                       rss_mb: list[float]) -> dict[str, float]:
    in_ref = [x for r in rounds for x in r.in_ref]
    return {
        "setup_s": statistics.median(setup),
        "wall_ref": statistics.median(sum(r.in_ref) for r in rounds),
        "item_p50_ref": statistics.median(in_ref),
        "item_tail_ref": block_tail(rounds),
        "peak_rss_mb": max(rss_mb),
    }


def raw_times(rounds: list[Round]) -> str:
    """Seconds as measured, for the log: they drift with the machine's speed."""
    durations = [d for r in rounds for d in r.durations]
    return (f"wall {statistics.median(r.wall for r in rounds):.4g} s, "
            f"item p50 {1e3 * statistics.median(durations):.4g} ms, "
            f"item tail {1e3 * tail(durations):.4g} ms, "
            f"reference loop {1e3 * statistics.median(x for r in rounds for x in r.refs):.4g} ms")


# Per-layer names that read 0 when the workload never calls the layer.
ZERO_WHEN_UNCALLED = (
    [f"{module}.{attr}.{key}" for module, attr, _ in TARGETS for key in ("self_s", "calls")]
    + [f"{layer}.{key}" for layer, keys in HOOK_COUNTERS.items() for key in keys])


def per_layer_metrics(rounds: list[Round], tracer: Tracer, setup_wall: float,
                      tally: Tally) -> dict[str, float]:
    """Set-up once plus the mean traced round, for every layer."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]

    def combine(by_phase) -> dict[str, float]:
        setup, per_round = Counter(), Counter()
        for (phase, key), value in by_phase:
            (setup if phase == "setup" else per_round)[key] += value
        return {key: setup[key] + per_round[key] / len(traced)
                for key in setup.keys() | per_round.keys()}

    selfs = combine(self_time_by(tracer.spans).items())
    counts = combine(((phase, (name, key)), value)
                     for (phase, name), counter in tracer.counters.items()
                     for key, value in counter.items())

    # Self time can never exceed the wall time that contains it.
    per_span = self_times(tracer.spans)
    for phase, wall in [("setup", setup_wall)] + [
            (f"round{i}", r.wall) for i, r in enumerate(rounds) if r.traced]:
        covered = sum(t for s, t in zip(tracer.spans, per_span) if s.phase == phase)
        if covered > wall:
            tally.problems.append(f"{phase}: self times {covered} s exceed wall {wall} s")

    metrics = dict.fromkeys(ZERO_WHEN_UNCALLED, 0)
    metrics.update({f"{name}.self_s": value for name, value in selfs.items()})
    metrics.update({f"{name}.{key}": value for (name, key), value in counts.items()})
    calls = counts.get(("geometry.vertex_enumeration", "calls"), 0)
    nonempty = counts.get(("geometry.vertex_enumeration", "nonempty"), 0)
    metrics["geometry.vertex_enumeration.nonempty_share"] = nonempty / calls if calls else 0.0
    metrics["bench.ref_ms"] = 1e3 * statistics.median(x for r in rounds for x in r.refs)
    metrics["bench.round_s"] = statistics.median(r.wall for r in plain)
    metrics["bench.traced_round_s"] = statistics.median(r.wall for r in traced)
    # In reference units, like the end-to-end timings: the ratio of plain
    # seconds follows the machine's drift between rounds, not the tracing.
    metrics["bench.trace_overhead"] = (statistics.median(sum(r.in_ref) for r in traced)
                                       / statistics.median(sum(r.in_ref) for r in plain))
    return metrics


def report(spec: list[dict], values: dict[str, float]) -> dict[str, dict]:
    """The metrics BENCHMARK.json lists, each with its unit.  A listed name
    the run did not produce ends the run without a result."""
    out = {}
    for entry in spec:
        if entry["name"] not in values:
            sys.exit(f"perfbench: the run produced no value for {entry['name']}")
        value = values[entry["name"]]
        if isinstance(value, float) and value.is_integer() and entry["unit"] == "count":
            value = int(value)
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)  # one of the run's fresh interpreters
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)  # a worker that only sets up
    args = parser.parse_args(argv)

    cv = load_clawvol()
    build, kernel = WORKLOADS[args.workload]
    tally = Tally()

    if args.worker:
        inputs = build(cv, random.Random(args.seed))
        print("ready", flush=True)
        tally.problems += inputs.problems
        rounds = [] if args.probe else measure(inputs.items, kernel, args.seconds, tally)
        print(json.dumps({"rounds": [asdict(r) for r in rounds],
                          "tally": asdict(tally), "rss_mb": peak_rss_mb()}))
        return 0

    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    if args.trace:
        tracer = Tracer()
        tracer.install()
        setup_start = time.perf_counter()
        inputs = build(cv, random.Random(args.seed))
        setup_wall = time.perf_counter() - setup_start
        tracer.uninstall()
        tally.problems += inputs.problems
        rounds = measure(inputs.items, kernel, args.seconds, tally, tracer, min_rounds=4)
        values = per_layer_metrics(rounds, tracer, setup_wall, tally)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
        metrics = report(spec["per_layer"], values)
    else:
        # WORKERS interpreters share the time; more join until the tail has
        # its MIN_ITEMS items.  Before each, PROBES more only set up, so that
        # setup_s is the median of many launches spread over the run.  The
        # probes' time does not count against --seconds.
        start = time.perf_counter()
        probing = 0.0
        rounds, setups, rss = [], [], []
        workers = 0
        while workers < WORKERS or sum(len(r.durations) for r in rounds) < MIN_ITEMS:
            probe_start = time.perf_counter()
            for _ in range(PROBES):
                setups.append(run_worker(args.workload, args.seed, None)[0])
            probing += time.perf_counter() - probe_start
            left = max(args.seconds - (time.perf_counter() - start - probing), 0.0)
            setup, more, worker_tally, worker_rss = run_worker(
                args.workload, args.seed, left / max(WORKERS - workers, 1))
            workers += 1
            setups.append(setup)
            rounds += more
            rss.append(worker_rss)
            tally.attempted += worker_tally.attempted
            tally.failed += worker_tally.failed
            tally.errors += worker_tally.errors
            tally.problems += worker_tally.problems
        metrics = report(spec["end_to_end"], end_to_end_metrics(rounds, setups, rss))

    for problem in (tally.errors + tally.problems)[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed}: {len(rounds)} rounds; "
          f"{raw_times(rounds)}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
