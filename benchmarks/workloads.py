"""One benchmark workload in a fresh interpreter; ``run.py`` starts this file.

``run.py`` sets ``PYTHONPATH`` to the checkout's ``src`` and caps BLAS at one
thread before this process starts, so nothing here imports numpy or beamest
until the set-up clock is running.  Modes:

* ``run``: import beamest and build every stage codebook reachable for the
  workload's geometry and variants (timed as set-up), then measure for
  ``--seconds`` with tracing off.
* ``trace``: set up under tracing, then run the same fixed rounds of work
  alternately untraced and traced, and report per-layer counts and self time.
* ``record``: write ``reference.json`` from the default seeds.
* ``selftest``: show that perturbed outputs are charged as failed runs.

Each mode prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import checks
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK = HERE / "_work"

# The sweeps spend this share of a run in CLI sweep calls and the rest in the
# single-call loop, which gives them the latency metrics too.
SWEEP_SHARE = 0.5
MIN_SWEEP_CALLS = 2
PROBE_EVERY_S = 0.3
# Rounds of the traced run: each round runs once untraced and once traced.
TRACE_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    """``overrides`` change the shipped fig3 preset; the seed offset is added
    to the preset seed, so seed 0 reproduces the reference outputs."""

    name: str
    overrides: dict = field(default_factory=dict)
    sweep_trials: int = 0      # trials per CLI sweep call; 0 means no sweep phase
    call_trials: int = 100     # trials per single-call job, for each variant
    min_calls: int = 1000      # keep calling past the deadline until this many,
                               # counted over all measuring processes
    round_sweeps: int = 0      # traced run: sweep calls per round
    round_jobs: int = 2        # traced run: single-call jobs per round


WORKLOADS = {w.name: w for w in (
    # The paper's headline experiment; the per-trial loop (montecarlo ->
    # estimator -> arrays) does almost all the work, codebook set-up ~15 ms.
    Workload("fig3_sweep", sweep_trials=50, call_trials=100,
             round_sweeps=4, round_jobs=4),
    # Codebook synthesis (570 lstsq solves) dominates set-up, and sounding
    # cost grows with n; a codebook change shows here and not on fig3_sweep.
    Workload("k7_n343_sweep",
             overrides={"n": 343, "k": 7, "et_db": [15.0, 20.0, 25.0, 30.0],
                        "bound": False},
             sweep_trials=50, call_trials=25, round_sweeps=4, round_jobs=4),
    # One closed-loop caller, one trial per call: a batched engine could raise
    # sweep throughput while slowing this path.
    Workload("trace_single", overrides={"et_db": [14.0]},
             call_trials=200, min_calls=10_000, round_jobs=16),
)}


def emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def import_beamest() -> SimpleNamespace:
    modules = {name: importlib.import_module(f"beamest.{name}") for name in
               ("cli", "arrays", "codebook", "estimator", "montecarlo", "analysis")}
    src = ROOT / "src"
    if not Path(modules["cli"].__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"beamest was not imported from {src}")
    return SimpleNamespace(np=importlib.import_module("numpy"), **modules)


class Context:
    """Resolved workload: geometry, seeds, CLI arguments and reference."""

    def __init__(self, m: SimpleNamespace, wl: Workload, seed: int):
        self.m, self.wl = m, wl
        cfg = self.cfg = workload_config(m, wl)
        self.n, self.k = cfg["n"], cfg["k"]
        self.variants = tuple(cfg["variants"])
        self.grid = energy_grid(cfg)
        self.bound_csv = bool(cfg.get("bound", False))
        self.master_seed = int(cfg["seed"]) + seed
        self.call_db = self.grid[len(self.grid) // 2]
        self.out = WORK / wl.name
        self.sweep_files = [f"{v}_pcef.csv" for v in self.variants] + (
            ["bound.csv"] if self.bound_csv else [])
        self.runs_per_sweep = wl.sweep_trials * len(self.grid) * len(self.variants)
        self.calls_per_job = wl.call_trials * len(self.variants)
        self.experiment = m.montecarlo.ExperimentConfig(
            n=self.n, k=self.k, et_db=(self.call_db,), trials=wl.call_trials,
            master_seed=self.master_seed, n0=float(cfg.get("n0", 1.0)),
            var_alpha=None, variants=self.variants)
        reference = checks.load_reference(REFERENCE) if REFERENCE.exists() else {}
        self.reference = reference.get(wl.name) if seed == 0 else None
        self._bounds = None

    def prepare(self) -> None:
        """Write the sweep config and clear old outputs; outside every timer."""
        shutil.rmtree(self.out, ignore_errors=True)
        (self.out / "calls").mkdir(parents=True)
        config = self.out / "sweep.cfg"
        lines = []
        for key, value in self.cfg.items():
            values = value if isinstance(value, list) else [value]
            text = ", ".join(str(v).lower() if isinstance(v, bool) else str(v)
                             for v in values)
            lines.append(f"{key} = {text}")
        config.write_text("\n".join(lines) + "\n", encoding="ascii")
        self.argv = ["sweep", "--config", str(config), "--out", str(self.out),
                     "--seed", str(self.master_seed), "--workers", "1", "--quiet"]

    def bounds(self) -> dict:
        """Analytical bound at every energy used; computed after measuring."""
        if self._bounds is None:
            grid = tuple(self.grid) + (self.call_db,)
            points = self.m.montecarlo.bound_table(self.n, self.k, grid,
                                                   n0=self.experiment.n0)
            self._bounds = {p.et_db: p.bound for p in points}
        return self._bounds


def workload_config(m: SimpleNamespace, wl: Workload) -> dict:
    """The shipped fig3 preset with the workload's overrides applied."""
    _, cfg = m.cli.load_config("fig3")
    cfg.update(wl.overrides)
    if "et_db" in wl.overrides:
        for key in ("et_db_min", "et_db_max", "et_db_step"):
            cfg.pop(key, None)
    cfg["trials"] = wl.sweep_trials or 1
    return cfg


def energy_grid(cfg: dict) -> tuple[float, ...]:
    if "et_db" in cfg:
        return tuple(float(x) for x in cfg["et_db"])
    lo, hi, step = (float(cfg[key]) for key in ("et_db_min", "et_db_max", "et_db_step"))
    return tuple(lo + i * step for i in range(int((hi - lo) / step + 1e-9) + 1))


def build_codebooks(m: SimpleNamespace, n: int, k: int, variants) -> None:
    """Every stage codebook a search over this geometry can reach."""
    stages = m.estimator.stage_count(n, k)
    for variant in variants:
        bank = m.estimator.codebook_bank(n, k, variant)
        whole = m.codebook.IndexRange(0, n)
        parents = [(whole, whole)]
        for stage in range(1, stages + 1):
            children = []
            for transmit, receive in parents:
                partition, _ = bank.refine(transmit, receive, k, stage)
                if stage < stages:
                    children.extend(itertools.product(partition.transmit,
                                                      partition.receive))
            parents = children


def setup(wl: Workload, tracer_factory=None):
    """Import beamest and build the codebooks; returns timings and modules."""
    t0 = time.perf_counter()
    m = import_beamest()
    import_s = time.perf_counter() - t0
    tracer = tracer_factory(m) if tracer_factory else None
    if tracer:
        tracer.install()
    cfg = workload_config(m, wl)
    build_codebooks(m, cfg["n"], cfg["k"], cfg["variants"])
    if tracer:
        tracer.uninstall()
    return m, tracer, import_s, time.perf_counter() - t0


# ---------------------------------------------------------------- the work

def sweep_call(ctx: Context):
    """One CLI sweep; returns ``(seconds, output texts or None)``."""
    for name in ctx.sweep_files:
        (ctx.out / name).unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        rc = ctx.m.cli.main(ctx.argv)
    except Exception:
        traceback.print_exc()
        rc = None
    dt = time.perf_counter() - t0
    if rc != 0:
        return dt, None
    try:
        return dt, {name: (ctx.out / name).read_text(encoding="ascii")
                    for name in ctx.sweep_files}
    except OSError:
        return dt, None


def call_job(ctx: Context, latencies: list):
    """Every trial once per variant, one call each, as ``beamest trace`` runs them.

    Each call is ``sample_channel`` -> ``run_estimation`` -> ``trace_record``,
    looked up on the module at call time; the records of each variant are
    written as JSON lines when its trials are done.
    """
    m, exp = ctx.m, ctx.experiment
    clock = time.perf_counter_ns
    t_job = time.perf_counter()
    records = {}
    energy = exp.n0 * 10.0 ** (ctx.call_db / 10.0)
    for variant in exp.variants:
        ecfg = m.estimator.EstimatorConfig(
            n=exp.n, k=exp.k, p_t=m.montecarlo.power_for_energy(energy, exp.n, exp.k, variant),
            n0=exp.n0, var_alpha=exp.alpha_variance, variant=variant)
        out = []
        for trial in range(exp.trials):
            t0 = clock()
            try:
                channel = m.montecarlo.sample_channel(exp, trial)
                rng = m.np.random.default_rng(m.montecarlo.noise_stream(exp, trial, variant))
                trace = m.estimator.run_estimation(channel, ecfg, rng)
                out.append(m.estimator.trace_record(trace, channel, trial=trial,
                                                    seed=exp.master_seed))
            except Exception:
                traceback.print_exc()
                out.append(None)
            latencies.append(clock() - t0)
        m.estimator.write_trace_records(ctx.out / "calls" / f"traces_{variant}.jsonl", out)
        records[variant] = out
    return time.perf_counter() - t_job, records


class Ledger:
    """Attempted and failed runs; identical outputs reuse the first verdict."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first = {}

    def _charge(self, kind: str, output, total: int, check) -> None:
        self.attempted += total
        first = self._first.get(kind)
        if first is not None and output is not None and output == first[0]:
            problems = first[1]
        else:
            problems = check(output)
            if first is None:
                self._first[kind] = (output, problems)
            else:
                problems = problems + [(("determinism", kind), total,
                                        f"{kind} output differs from the first call")]
        self.failed += checks.charged_runs(problems, total)
        for _, _, message in problems:
            if len(self.problems) < 20:
                self.problems.append(message)

    def sweep(self, texts) -> None:
        self._charge("sweep", texts, self.ctx.runs_per_sweep, self._check_sweep)

    def job(self, records) -> None:
        self._charge("calls", records, self.ctx.calls_per_job, self._check_job)

    def _check_sweep(self, texts):
        ctx = self.ctx
        if texts is None:
            return [(("sweep", "call"), ctx.runs_per_sweep, "sweep call failed")]
        ref = ctx.reference or {}
        problems = []
        if ctx.bound_csv:
            bound_problems, bound = checks.check_bound_table(
                texts["bound.csv"], ctx.grid, ctx.wl.sweep_trials, ref.get("bound"))
            problems += bound_problems
        else:
            bound = [ctx.bounds()[db] for db in ctx.grid]
        for variant in ctx.variants:
            problems += checks.check_pcef_table(
                texts[f"{variant}_pcef.csv"], variant, ctx.n, ctx.k, ctx.grid,
                ctx.wl.sweep_trials, bound, ref.get("rows", {}).get(variant))
        return problems

    def _check_job(self, records):
        ctx = self.ctx
        ref = (ctx.reference or {}).get("records", {})
        problems = []
        for variant in ctx.variants:
            problems += checks.check_records(
                records[variant], variant, ctx.n, ctx.k, ctx.master_seed,
                ctx.bounds()[ctx.call_db], ref.get(variant))
        return problems

    def settle(self, outputs) -> None:
        """Check the stored outputs once the timers have stopped."""
        for kind, output in outputs:
            (self.sweep if kind == "sweep" else self.job)(output)


# ----------------------------------------------------------------- modes

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(m: SimpleNamespace) -> dict:
    blas = m.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": m.np.__version__,
        "scipy": importlib.import_module("scipy").__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {key: os.environ.get(key) for key in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def make_probe(np):
    """A timer for a fixed piece of work that uses no beamest code.

    The work mixes what the workloads do: complex matrix products at n=27
    and n=343, reductions and plain Python arithmetic.  Its time tracks how
    fast the shared machine runs this kind of code at the moment.
    """
    rng = np.random.default_rng(1)
    small = rng.normal(size=(27, 27, 2)) @ [1, 1j]
    large = rng.normal(size=(343, 343, 2)) @ [1, 1j]

    def probe() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(1500):
            acc += float(np.abs(small @ small[:, :3]).max())
        for _ in range(40):
            acc += float(np.abs(large @ large[:, :7]).max())
        for i in range(60_000):
            acc += (i * 7) % 13
        return time.perf_counter() - t0

    return probe


def measure(ctx: Context, seconds: float, min_calls: int) -> dict:
    """Untraced run for ``seconds``: sweep calls interleaved with single-call jobs.

    The sweeps keep their single-call jobs at ``1 - SWEEP_SHARE`` of the busy
    time, spread over the whole run, so both metrics see the same stretch of
    machine time.  A probe (:func:`make_probe`) runs between them every
    ``PROBE_EVERY_S``, outside their timers.  Returns the raw samples; ``run.py`` pools them
    across processes.
    """
    wl = ctx.wl
    np = ctx.m.np
    ledger = Ledger(ctx)
    sweep_rates, job_rates, latencies, probes = [], [], [], []
    probe = make_probe(np)
    sweep_s = job_s = 0.0
    start = next_probe = time.perf_counter()
    end = start + seconds
    while (time.perf_counter() < end or len(latencies) < min_calls
           or len(sweep_rates) < (MIN_SWEEP_CALLS if wl.sweep_trials else 0)):
        if time.perf_counter() >= next_probe:
            probes.append(probe())
            next_probe = time.perf_counter() + PROBE_EVERY_S
        if wl.sweep_trials and job_s * SWEEP_SHARE >= sweep_s * (1 - SWEEP_SHARE):
            dt, texts = sweep_call(ctx)
            sweep_s += dt
            sweep_rates.append(ctx.runs_per_sweep / dt)
            ledger.sweep(texts)
        else:
            dt, records = call_job(ctx, latencies)
            job_s += dt
            job_rates.append(ctx.calls_per_job / dt)
            ledger.job(records)
    return {
        "ledger": ledger,
        "samples": {"rates": sweep_rates if wl.sweep_trials else job_rates,
                    "call_us": [ns / 1e3 for ns in latencies], "probe_s": probes},
        "counts": {"sweep_calls": len(sweep_rates), "single_calls": len(latencies),
                   "runs_per_sweep_call": ctx.runs_per_sweep,
                   "measured_s": time.perf_counter() - start},
    }


def register_spans(m: SimpleNamespace) -> Tracer:
    """Wrap each listed public function wherever its callers look it up."""
    tracer = Tracer()
    E, MC, CLI = m.estimator, m.montecarlo, m.cli

    def matmul_bytes(args):
        h, f = args[0], args[1]
        n, beams = h.shape[0], f.shape[1]
        # operands read and results written by w^H (h f): h, f, w, the
        # intermediate n x m product written and read, the m x m result
        return h.itemsize * (n * n + 4 * n * beams + beams * beams)

    def add_bytes(tr, args, state):
        tr.count("measure_block.bytes", state)

    def table_size(args):
        return len(args[0]._stages)

    def add_miss(tr, args, before):
        tr.count("refine.misses", int(len(args[0]._stages) > before))

    spans = [
        ("arrays.measure_block", [E], "measure_block", matmul_bytes, add_bytes),
        ("arrays.MeasurementNoise.draw", [m.arrays.MeasurementNoise], "draw", None, None),
        ("arrays.substream", [MC], "substream", None, None),
        ("arrays.build_channel", [E], "build_channel", None, None),
        ("codebook.synthesize_vector", [m.codebook], "synthesize_vector", None, None),
        ("codebook.StageCodebookCache.refine", [m.codebook.StageCodebookCache], "refine",
         table_size, add_miss),
        ("estimator.run_estimation", [E, MC, CLI], "run_estimation", None, None),
        ("estimator.fuse_measurements", [E], "fuse_measurements", None, None),
        ("estimator.select_path", [E], "select_path", None, None),
        ("estimator.estimate_alpha_mmse", [E], "estimate_alpha_mmse", None, None),
        ("estimator.stage_count", [E, MC, CLI], "stage_count", None, None),
        ("estimator.trace_record", [E, CLI], "trace_record", None, None),
        ("estimator.write_trace_records", [E, CLI], "write_trace_records", None, None),
        ("montecarlo.sample_channel", [MC, CLI], "sample_channel", None, None),
        ("montecarlo.power_for_energy", [MC, CLI], "power_for_energy", None, None),
        ("montecarlo.run_sweep", [CLI], "run_sweep", None, None),
        ("montecarlo.bound_table", [CLI], "bound_table", None, None),
        ("analysis.pcef_upper_bound", [MC], "pcef_upper_bound", None, None),
        ("cli.main", [CLI], "main", None, None),
    ]
    for name, owners, attr, before, after in spans:
        for owner in owners:
            tracer.add(owner, attr, name, before, after)
    return tracer


CALL_METRICS = (
    "arrays.measure_block", "arrays.MeasurementNoise.draw", "arrays.substream",
    "arrays.build_channel", "codebook.synthesize_vector",
    "codebook.StageCodebookCache.refine", "estimator.run_estimation",
    "estimator.fuse_measurements", "estimator.select_path",
    "estimator.estimate_alpha_mmse", "estimator.stage_count",
    "montecarlo.sample_channel", "montecarlo.power_for_energy",
    "analysis.pcef_upper_bound",
)
SELF_METRICS = tuple(name for name in CALL_METRICS if name != "estimator.stage_count") + (
    "estimator.trace_record", "estimator.write_trace_records", "montecarlo.run_sweep",
    "montecarlo.bound_table", "cli.main",
)


def traced_run(ctx: Context, tracer: Tracer, import_s: float, seconds: float) -> dict:
    """Fixed rounds of work, so every count repeats exactly.

    Each sweep call and job runs twice in a row, once untraced and once
    traced, alternating which goes first; the pairs cancel the machine's
    drift out of the tracing overhead.  Round ``r`` records its spans as
    phase ``r``; set-up is phase 0.
    """
    wl = ctx.wl
    scale = max(1, round(seconds / 10))
    work = ([("sweep", lambda: sweep_call(ctx)[1])] * (wl.round_sweeps * scale)
            + [("calls", lambda: call_job(ctx, [])[1])] * (wl.round_jobs * scale))
    outputs = []
    untraced_s = traced_s = 0.0
    for phase in range(1, TRACE_ROUNDS + 1):
        tracer.phase = phase
        for i, (kind, unit) in enumerate(work):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                t0 = time.perf_counter()
                outputs.append((kind, unit()))
                dt = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
                    traced_s += dt
                else:
                    untraced_s += dt
    ledger = Ledger(ctx)
    ledger.settle(outputs)

    summary = tracer.summary()
    calls, self_s = summary["calls"], summary["self_s"]
    per_round = {name: counts[1:] for name, counts in calls.items()}
    per_round["measure_block.bytes"] = [tracer.counters[(p, "measure_block.bytes")]
                                        for p in range(1, TRACE_ROUNDS + 1)]
    for name, counts in per_round.items():
        if len(set(counts)) > 1:
            ledger.failed = ledger.attempted
            ledger.problems.append(f"{name} counts differ between traced rounds: {counts}")

    metrics = {f"{name}.calls": sum(calls.get(name, [0])) for name in CALL_METRICS}
    metrics.update({f"{name}.self_s": sum(self_s.get(name, [0.0])) for name in SELF_METRICS})
    metrics["arrays.measure_block.bytes_computed"] = sum(
        v for (p, key), v in tracer.counters.items() if key == "measure_block.bytes")
    refine_calls = metrics["codebook.StageCodebookCache.refine.calls"]
    misses = sum(v for (p, key), v in tracer.counters.items() if key == "refine.misses")
    metrics["codebook.StageCodebookCache.refine.hit_ratio"] = (
        1.0 - misses / refine_calls if refine_calls else 0.0)
    metrics["cli.import_s"] = import_s
    runs = TRACE_ROUNDS * sum(ctx.runs_per_sweep if kind == "sweep" else ctx.calls_per_job
                              for kind, _ in work)
    traced_self = sum(sum(v[1:]) for v in self_s.values())
    metrics.update({
        "trace.untraced_trials_per_s": runs / untraced_s,
        "trace.traced_trials_per_s": runs / traced_s,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
        "trace.untraced_wall_s": untraced_s,
        "trace.traced_wall_s": traced_s,
        "trace.span_self_s": traced_self,
        "trace.unspanned_s": traced_s - sum(summary["covered_s"][1:]),
    })
    tracer.save(ctx.out / "spans.npz")
    return {"ledger": ledger, "metrics": metrics,
            "counts": {"rounds": TRACE_ROUNDS, "units_per_round": [kind for kind, _ in work],
                       "runs": 2 * runs}}


def to_json(value, indent: str = "") -> str:
    """JSON with one sweep row or trace record per line."""
    inner = indent + " "
    if isinstance(value, dict):
        body = ",\n".join(f"{inner}{json.dumps(k)}: {to_json(v, inner)}"
                          for k, v in value.items())
        return "{\n" + body + "\n" + indent + "}"
    if isinstance(value, list) and value and all(isinstance(v, list) for v in value):
        return "[\n" + ",\n".join(inner + json.dumps(v) for v in value) + "\n" + indent + "]"
    return json.dumps(value)


def record_reference() -> None:
    """Reference outputs at the default seeds, one sweep call or job each."""
    m = import_beamest()
    reference = {"rtol": checks.RTOL}
    for wl in WORKLOADS.values():
        ctx = Context(m, wl, 0)
        ctx.prepare()
        entry = {"master_seed": ctx.master_seed, "n": ctx.n, "k": ctx.k}
        if wl.sweep_trials:
            _, texts = sweep_call(ctx)
            entry.update(trials=wl.sweep_trials, et_db=list(ctx.grid), rows={
                v: checks.reference_rows(texts[f"{v}_pcef.csv"]) for v in ctx.variants})
            if ctx.bound_csv:
                entry["bound"] = checks.reference_bound(texts["bound.csv"])
        else:
            _, records = call_job(ctx, [])
            entry.update(trials=wl.call_trials, et_db=ctx.call_db, records={
                v: checks.reference_records(records[v]) for v in ctx.variants})
        reference[wl.name] = entry
    REFERENCE.write_text(to_json(reference) + "\n", encoding="utf-8")
    emit({"recorded": str(REFERENCE.relative_to(ROOT))})


def selftest() -> None:
    """Perturbed outputs must raise the failed-run count from zero."""
    m = import_beamest()
    cases = []

    def failed(ctx, outputs):
        ledger = Ledger(ctx)
        ledger.settle(outputs)
        return ledger.failed

    for seed in (0, 1):
        sweep = Context(m, WORKLOADS["fig3_sweep"], seed)
        sweep.prepare()
        texts = sweep_call(sweep)[1]
        calls = Context(m, WORKLOADS["trace_single"], seed)
        calls.prepare()
        records = call_job(calls, [])[1]
        cases.append((f"seed {seed}: clean sweep", failed(sweep, [("sweep", texts)]) == 0))
        cases.append((f"seed {seed}: clean trace", failed(calls, [("calls", records)]) == 0))

        def edit(name, old, new):
            changed = dict(texts)
            changed[name] = texts[name].replace(old, new, 1)
            cases.append((f"seed {seed}: perturbation applied to {name}",
                          changed[name] != texts[name]))
            return changed

        row = texts["overlapped_pcef.csv"].splitlines()[10].split(",")
        bumped = row[:10] + [str(int(row[10]) + 1)] + row[11:]
        one_more = edit("overlapped_pcef.csv", ",".join(row), ",".join(bumped))
        cases.append((f"seed {seed}: one failure count changed",
                      failed(sweep, [("sweep", one_more)]) == sweep.wl.sweep_trials))
        cases.append((f"seed {seed}: second call differs",
                      failed(sweep, [("sweep", texts), ("sweep", one_more)]) > 0))
        flipped = {v: [dict(r) for r in records[v]] for v in records}
        first = flipped["overlapped"][0]
        first["selections"] = [[(r + 1) % calls.k, t] for r, t in first["selections"]]
        cases.append((f"seed {seed}: one selection changed",
                      failed(calls, [("calls", flipped)]) == 1))
        if seed == 0:
            err = row[5]
            nudged = edit("overlapped_pcef.csv", err, repr(float(err) * (1 + 1e-6)))
            cases.append(("seed 0: error mean off by 1e-6",
                          failed(sweep, [("sweep", nudged)]) > 0))
            brow = texts["bound.csv"].splitlines()[-1].split(",")
            skewed = edit("bound.csv", ",".join(brow),
                          ",".join([brow[0], repr(float(brow[1]) * 1.01)] + brow[2:]))
            cases.append(("seed 0: bound value off by 1%",
                          failed(sweep, [("sweep", skewed)]) > 0))
    for label, ok in cases:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    emit({"selftest": all(ok for _, ok in cases), "cases": len(cases)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "trace", "record", "selftest"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--parts", type=int, default=1,
                        help="measuring processes that share the workload's minimum call count")
    args = parser.parse_args(argv)
    if args.mode == "record":
        record_reference()
        return 0
    if args.mode == "selftest":
        selftest()
        return 0
    wl = WORKLOADS[args.workload]
    factory = register_spans if args.mode == "trace" else None
    m, tracer, import_s, setup_s = setup(wl, factory)
    ctx = Context(m, wl, args.seed)
    ctx.prepare()
    if args.mode == "run":
        result = measure(ctx, args.seconds, -(-wl.min_calls // args.parts))
        result["metrics"] = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    else:
        result = traced_run(ctx, tracer, import_s, args.seconds)
    ledger = result["ledger"]
    emit({
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "metrics": result["metrics"],
        "samples": result.get("samples"),
        "counts": result["counts"],
        "inputs": {"n": ctx.n, "k": ctx.k, "variants": list(ctx.variants),
                   "et_db": list(ctx.grid), "call_et_db": ctx.call_db,
                   "sweep_trials": wl.sweep_trials, "call_trials": wl.call_trials,
                   "master_seed": ctx.master_seed, "workers": 1},
        "environment": environment(m),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
