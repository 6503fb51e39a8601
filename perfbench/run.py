"""Benchmark of the twotier engine: three workloads, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload scenarios --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload wide_ledger --seed 0 --seconds 35 --trace 1
    python3 perfbench/run.py --workload yield_claims --seed 0 --profile

A pass is config parse -> `run` -> export for every scenario run of the
workload, the path `twotier run` takes. `--trace 0` times passes and prints
the end-to-end metrics; `--trace 1` alternates untraced and traced passes
and prints the per-layer metrics; `--profile` prints a cProfile top-20 by
self time from one pass that is not timed. The last stdout line of a timed
run is {"correct", "attempted", "failed", "metrics"}. A run record with the
machine, per-pass numbers and output digests goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import json
import os
import platform
import pstats
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from scenario_gen import Shape, dump, generate
from tracer import NAMES as LAYER_SPANS, ratio

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SCENARIOS = ("solar", "mine", "datacenter")
DERIVED_SEEDS = 5      # seed s runs each shipped scenario at seeds 5s .. 5s+4
# 50 epochs keep a pass near 2.5 s, so a run averages over ~10
# passes; the account and holder counts set the per-operation costs.
SHAPES = {
    # Funded accounts that never trade still cost every swap: transaction()
    # snapshots every balance and each transfer re-sums every holder.
    "wide_ledger": Shape(epochs=50, funded_accounts=10_000, noise_traders=200,
                         liquidity_providers=4, arbitrage=False),
    # Genesis holders claiming every epoch: ~50k plain transfers, almost no
    # transactions, and the largest event log.
    "yield_claims": Shape(epochs=50, genesis_holders=1_000, auto_claim=1_000,
                          yield_every=1, noise_traders=4),
}
WORKLOADS = ("scenarios", *SHAPES)

MIN_PASSES = 3         # untraced passes in a --trace 0 run
MIN_TRACED = 2         # untraced and traced passes each in a --trace 1 run
MIN_SETUPS = 5
SETUP_SHARE = 0.1      # set-up repetitions before each pass, as a share of the last pass
DEADLINE_S = 140       # no pass starts that could end the run past this

END_TO_END = {"run_s": "s", "setup_s": "s", "export_s": "s",
              "us_per_event": "us", "peak_rss_mb": "MB"}
PER_LAYER = {f"{span}.{stat}": unit for span in LAYER_SPANS
             for stat, unit in (("calls", "count"), ("self_s", "s"), ("us_p50", "us"))}
PER_LAYER.update({
    "ledger.rollbacks": "count", "ledger.events": "count", "ledger.accounts": "count",
    "oracle.failed_epochs": "count", "arbitrage.quotes_per_detect": "quotes",
    "arbitrage.plan_ratio": "ratio", "arbitrage.stale_plans": "count",
    "arbitrage.capped_passes": "count", "yields.paid_ratio": "ratio",
    "export.bytes": "bytes", "trace.overhead_pct": "%",
})


@dataclass
class Job:
    """One scenario run: a config file and an optional seed override."""
    label: str
    config: str
    seed: int | None = None


@dataclass
class Outcome:
    label: str
    error: str | None = None
    run_s: float = 0.0
    export_s: float = 0.0
    loop_s: float = 0.0          # from build_market's return to run's return
    loop_events: int = 0         # ledger events appended in that interval
    events: int = 0
    accounts: int = 0
    paths: tuple[str, str] = ("", "")
    fingerprint: tuple[str, ...] = ()    # sha256 of both outputs, state hash
    result: object = None                # dropped once audited


@dataclass
class Pass:
    outcomes: list[Outcome]
    layers: dict[str, float] = field(default_factory=dict)
    exports: list[float] = field(default_factory=list)   # export_s samples
    setups: list[float] = field(default_factory=list)    # setup_s samples

    def total(self, attr: str) -> float:
        return sum(getattr(o, attr) for o in self.outcomes)

    @property
    def us_per_event(self) -> float:
        return ratio(self.total("loop_s"), self.total("loop_events")) * 1e6


def make_jobs(workload: str, seed: int, work: str) -> list[Job]:
    if workload == "scenarios":
        seeds = [None] + [DERIVED_SEEDS * seed + i for i in range(DERIVED_SEEDS)]
        return [Job(f"{name}@{'own' if s is None else s}",
                    os.path.join(SRC, "twotier", "scenarios", f"{name}.json"), s)
                for name in SCENARIOS for s in seeds]
    path = os.path.join(work, f"{workload}.json")
    with open(path, "w") as fh:
        fh.write(dump(generate(SHAPES[workload], seed)))
    return [Job(workload, path)]


class _BuildMark:
    """Stands in for `sim.build_market` to note where the epoch loop starts."""

    def __init__(self, build):
        self.build = build
        self.at = 0.0
        self.events = 0

    def __call__(self, cfg):
        market = self.build(cfg)
        self.events = len(market.registry.events)
        self.at = time.perf_counter()
        return market


def run_pass(sim, jobs: list[Job], work: str) -> list[Outcome]:
    """config parse -> run -> export for every job, each timed on its own."""
    mark = _BuildMark(sim.build_market)
    sim.build_market = mark
    outcomes = []
    try:
        for job in jobs:
            paths = (os.path.join(work, f"{job.label}.metrics.csv"),
                     os.path.join(work, f"{job.label}.events.jsonl"))
            t0 = time.perf_counter()
            try:
                cfg = sim.load_config(job.config)
                if job.seed is not None:
                    cfg.seed = job.seed
                result = sim.run(cfg)
                t1 = time.perf_counter()
                sim.export_csv(result, paths[0])
                sim.export_events(result, paths[1])
                t2 = time.perf_counter()
            except Exception:  # a failed run is counted and the pass goes on
                outcomes.append(Outcome(job.label, error=traceback.format_exc()))
                continue
            reg = result.market.registry
            outcomes.append(Outcome(
                job.label, run_s=t2 - t0, export_s=t2 - t1, loop_s=t1 - mark.at,
                loop_events=len(reg.events) - mark.events, events=len(reg.events),
                accounts=len(reg.accounts), paths=paths, result=result))
    finally:
        sim.build_market = mark.build
    return outcomes


def export_again(sim, outcomes: list[Outcome]) -> float:
    """A second sample of a pass's export time, rewriting the same files.

    One export is far shorter than a pass, so it gets two samples per pass.
    """
    total = 0.0
    for out in outcomes:
        if out.error is None:
            t0 = time.perf_counter()
            sim.export_csv(out.result, out.paths[0])
            sim.export_events(out.result, out.paths[1])
            total += time.perf_counter() - t0
    return total


def audit_pass(outcomes: list[Outcome], reference: dict[str, tuple] | None):
    """Audit every run of a pass and drop its live state.

    The first pass (no reference) also replays each exported event log.
    Later passes must reproduce the first pass's output digests and state
    hash exactly, which stands in for replaying them again.
    """
    import audit  # imports twotier, which main() has put on sys.path

    for out in outcomes:
        if out.error is not None:
            continue
        problems = audit.check(out.result, out.paths[1] if reference is None else None)
        out.fingerprint = (audit.sha256_file(out.paths[0]), audit.sha256_file(out.paths[1]),
                           out.result.market.registry.state_hash())
        if reference is not None and reference.get(out.label) != out.fingerprint:
            problems.append("outputs differ from the first pass")
        if problems:
            out.error = "audit: " + "; ".join(problems)
        out.result = None


def measure_setup(sim, jobs: list[Job], seconds: float, reps: int = 1) -> list[float]:
    """Config parse + build_market for every job; one sum per repetition.

    Repeats at least `reps` times and for at least `seconds`.
    """
    sums = []
    started = time.perf_counter()
    while len(sums) < reps or time.perf_counter() - started < seconds:
        total = 0.0
        for job in jobs:
            t0 = time.perf_counter()
            sim.build_market(sim.load_config(job.config))
            total += time.perf_counter() - t0
        sums.append(total)
    return sums


def _probe_loop():
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return total


def pin_to_fastest_cpu(cpus: set[int]):
    """Move this process to whichever allowed CPU runs a fixed loop fastest now.

    On a shared host each CPU slows down on its own as neighbours come and
    go; a pass placed on the faster one varies less from run to run.
    """
    if len(cpus) < 2:
        return
    best = None
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        fastest = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _probe_loop()
            fastest = min(fastest, time.perf_counter() - t0)
        if best is None or fastest < best[0]:
            best = (fastest, cpu)
    os.sched_setaffinity(0, {best[1]})


def measure(sim, jobs, work, window_end, started, tracer=None):
    """Timed passes until the next one would end after `window_end`.

    Runs at least the minimum number of passes, and starts none that could
    end past DEADLINE_S after `started`. Without a tracer, set-up is timed
    before every pass, so its samples span the same window as the passes.
    With a tracer, untraced and traced passes alternate, starting untraced.
    Returns (untraced passes, traced passes, peak RSS in MB after the first
    pass, before any audit could add to it).
    """
    untraced: list[Pass] = []
    traced: list[Pass] = []
    reference = None
    peak_rss = 0.0
    last = 0.0
    cpus = os.sched_getaffinity(0)
    while True:
        pin_to_fastest_cpu(cpus)
        setups = measure_setup(sim, jobs, SETUP_SHARE * last) if tracer is None else []
        gc.collect()  # each pass starts from the same heap, not the last pass's garbage
        begun = time.perf_counter()
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            tracer.reset()
            tracer.install()
            try:
                outcomes = run_pass(sim, jobs, work)
            finally:
                tracer.uninstall()
        else:
            outcomes = run_pass(sim, jobs, work)
        if reference is None:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        this = Pass(outcomes, setups=setups)
        if tracer is None:
            this.exports = [this.total("export_s"), export_again(sim, outcomes)]
        audit_pass(outcomes, reference)
        if reference is None:
            reference = {o.label: o.fingerprint for o in outcomes if o.error is None}
        if trace_this:
            this.layers = tracer.layer_metrics(sim.Arbitrageur.MAX_PASSES)
            this.layers["inclusive_s"] = tracer.inclusive_s()
            traced.append(this)
        else:
            untraced.append(this)

        now = time.perf_counter()
        last = now - begun
        want = MIN_PASSES if tracer is None else MIN_TRACED
        enough = len(untraced) >= want and (tracer is None or len(traced) >= want)
        if (enough and now + (1 + SETUP_SHARE) * last > window_end
                or now - started + 1.5 * last > DEADLINE_S):
            if tracer is None:
                short = MIN_SETUPS - sum(len(p.setups) for p in untraced)
                untraced[-1].setups += measure_setup(sim, jobs, 0.0, short)
            os.sched_setaffinity(0, cpus)
            return untraced, traced, peak_rss


def end_to_end(untraced: list[Pass], peak_rss: float) -> dict:
    """Means over the run's samples; the run record keeps every sample.

    The host's speed switches between a fast and a slow state that last
    tens of seconds, so a run's samples are bimodal and their median jumps
    between the two states from run to run. The mean moves with the share
    of time spent in each state instead, and spread less across runs
    (README.md, "Why means").
    """
    return {
        "run_s": statistics.fmean(p.total("run_s") for p in untraced),
        "setup_s": statistics.fmean(s for p in untraced for s in p.setups),
        "export_s": statistics.fmean(s for p in untraced for s in p.exports),
        "us_per_event": statistics.fmean(p.us_per_event for p in untraced),
        "peak_rss_mb": peak_rss,
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict:
    values = {name: statistics.median(p.layers[name] for p in traced)
              for name in PER_LAYER if name in traced[0].layers}
    last = traced[-1].outcomes
    values["ledger.events"] = sum(o.events for o in last)
    values["ledger.accounts"] = max((o.accounts for o in last), default=0)
    values["export.bytes"] = sum(os.path.getsize(p) for o in last if o.error is None
                                 for p in o.paths)
    plain = statistics.median(p.total("run_s") for p in untraced)
    values["trace.overhead_pct"] = (
        statistics.median(p.total("run_s") for p in traced) / plain - 1) * 100
    return values


def dominant(traced: list[Pass], top: int = 8) -> list[tuple[str, float]]:
    """Layers by share of traced pass time spent inside them."""
    pass_s = statistics.median(p.total("run_s") for p in traced)
    inclusive = traced[-1].layers["inclusive_s"]
    ranked = sorted(inclusive.items(), key=lambda kv: -kv[1])[:top]
    return [(name, secs / pass_s) for name, secs in ranked]


def profile_pass(sim, jobs, work) -> str:
    """cProfile top-20 by self time over one untimed pass."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run_pass(sim, jobs, work)
    finally:
        prof.disable()
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).sort_stats("tottime").print_stats(20)
    return buf.getvalue()


# --- run record ---

def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record(args) -> dict:
    import numpy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": git_sha()}


def _spread(values) -> dict | None:
    values = list(values)
    return {"median": statistics.median(values), "values": values} if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="print a cProfile top-20 of one untimed pass instead")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twotier", "__init__.py")):
        print(f"perfbench: no twotier sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import twotier.sim as sim

    started = time.perf_counter()
    work = os.path.join(OUT, "work", args.workload)
    os.makedirs(work, exist_ok=True)
    jobs = make_jobs(args.workload, args.seed, work)
    record = machine_record(args)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")

    if args.profile:
        record["profile_top20_tottime"] = report = profile_pass(sim, jobs, work)
        print(report)
        _write_json(f"{stem}-profile.json", record)
        return 0

    window_end = time.perf_counter() + args.seconds
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    untraced, traced, peak_rss = measure(sim, jobs, work, window_end, started, tracer)

    runs = [o for p in untraced + traced for o in p.outcomes]
    failed = [o for o in runs if o.error is not None]
    if args.trace:
        metrics = per_layer(untraced, traced)
        units = PER_LAYER
        tracer.write(f"{stem}-spans.tsv")
        record["dominant"] = dominant(traced)
    else:
        metrics = end_to_end(untraced, peak_rss)
        units = END_TO_END
    record.update({
        "metrics": metrics,
        "passes": {"untraced_run_s": _spread(p.total("run_s") for p in untraced),
                   "traced_run_s": _spread(p.total("run_s") for p in traced),
                   "setup_s": _spread(s for p in untraced for s in p.setups),
                   "export_s": _spread(s for p in untraced for s in p.exports)},
        "runs_per_pass": len(jobs),
        "digests": {o.label: o.fingerprint for o in untraced[0].outcomes},
        "failures": {o.label: o.error for o in failed},
        "attempted": len(runs), "failed": len(failed),
    })
    _write_json(f"{stem}-trace{args.trace}.json", record)

    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6f} {units[name]}")
    for name, share in record.get("dominant", ()):
        print(f"share of pass time in {name:<32} {100 * share:6.1f} %")
    print(f"failed_ratio {ratio(len(failed), len(runs))} "
          f"({len(failed)} of {len(runs)} runs; {len(untraced)} untraced, "
          f"{len(traced)} traced passes of {len(jobs)} runs)")
    for label, error in record["failures"].items():
        print(f"failed {label}: {error.strip().splitlines()[-1]}")
    print(json.dumps({
        "correct": not failed, "attempted": len(runs), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _write_json(path: str, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
