"""The benchmark's workloads: their inputs, how they drive the package,
the output checks and the metrics they report.

Every workload goes through the entry points a user calls:
``pipeline.load_corpus``, ``pipeline.pretrain``,
``pipeline.load_training_checkpoint`` and ``pipeline.embed_corpus``.
Inputs are files written by ``generate.py`` before the measured process
starts, so the program receives only files.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hooks import DeadlineReached, HostGauge, Patches, StepClock, Tracer
from linecontrast import pipeline
from linecontrast.autodiff import AdamState
from linecontrast.encoder import DualHelixParams, EncoderConfig
from linecontrast.synth import random_molecular_graph

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_trajectories.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 20          # set-ups per run; setup_s is their median
TRAJECTORY_RTOL = 1e-9
SAMPLE_GRAPHS = 50          # embed-corpus: graphs re-embedded alone per run
SAMPLE_ATOL = 1e-12
TAIL_MIN_STEPS = 100        # p90 needs ten samples beyond it

E2E_UNITS = {"graphs_per_s": "1/s", "step_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "graphs.to_line_graph_s": "s",
    "graphs.line_edges": "count",
    "pipeline.load_corpus_s": "s",
    "pipeline.transform_corpus_calls": "count",
    "pipeline.batch_build_s": "s",
    "pipeline.batch_build_calls": "count",
    "encoder.encode_batch_s": "s",
    "encoder.gin_layer_s": "s",
    "encoder.gin_layer_calls": "count",
    "encoder.readout_s": "s",
    "encoder.edge_pair_s": "s",
    "autodiff.gather_rows_s": "s",
    "autodiff.scatter_add_rows_s": "s",
    "autodiff.scatter_add_rows_calls": "count",
    "autodiff.primitive_calls": "count",
    "autodiff.backward_s": "s",
    "autodiff.adam_step_s": "s",
    "losses.nt_xent_s": "s",
    "losses.inter_local_s": "s",
    "losses.intra_local_s": "s",
    "losses.sim_entries": "count",
    "losses.intra_sim_entries": "count",
    "losses.intra_useful_frac": "fraction",
    "losses.peak_alloc_mb": "MB",
    "checkpoint.load_s": "s",
    "trace.steps": "count",
    "trace.untraced_graphs_per_s": "1/s",
    "trace.traced_graphs_per_s": "1/s",
    "trace.overhead_frac": "fraction",
}

# per-step layer times: traced-run wrapper name -> metric
_STEP_SECONDS = {
    "encoder.encode_batch": "encoder.encode_batch_s",
    "encoder.gin_layer": "encoder.gin_layer_s",
    "encoder.readout": "encoder.readout_s",
    "encoder.edge_pair": "encoder.edge_pair_s",
    "autodiff.gather_rows": "autodiff.gather_rows_s",
    "autodiff.scatter_add_rows": "autodiff.scatter_add_rows_s",
    "autodiff.backward": "autodiff.backward_s",
    "autodiff.adam_step": "autodiff.adam_step_s",
    "losses.nt_xent": "losses.nt_xent_s",
    "losses.inter_local": "losses.inter_local_s",
    "losses.intra_local": "losses.intra_local_s",
}
_STEP_CALLS = {
    "encoder.gin_layer": "encoder.gin_layer_calls",
    "autodiff.scatter_add_rows": "autodiff.scatter_add_rows_calls",
    "autodiff.primitive_calls": "autodiff.primitive_calls",
    "losses.sim_entries": "losses.sim_entries",
}


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    graphs: int
    batch_size: int
    hidden_dim: int
    horizon: int    # steps of the stored l_total trajectory compared on the default seed
    host_scaled: bool = True    # step times scaled by the host gauge


@dataclass(frozen=True)
class EmbedWorkload:
    name: str
    graphs: int
    batch_size: int
    host_scaled: bool = True


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# The host gauge tracks CPU-bound steps. wide-batch-train's steps are bound by
# memory (dense E x E matrices; a third of the CPU time goes to page faults)
# and follow the gauge only in part: scaling them widened their spread
# between runs from 11% to 15% (README.md).
WORKLOADS = {w.name: w for w in (
    TrainWorkload("desk-train", graphs=2000, batch_size=16, hidden_dim=32, horizon=100),
    TrainWorkload("wide-batch-train", graphs=2000, batch_size=128, hidden_dim=32, horizon=10,
                  host_scaled=False),
    EmbedWorkload("embed-corpus", graphs=5000, batch_size=64),
)}


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)     # printed, not part of the result
    problems: list[str] = field(default_factory=list)  # failed checks
    trajectory: list[float] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)


# --- inputs --------------------------------------------------------------------

def corpus_graphs(seed: int, n: int):
    graph_seeds = np.random.default_rng(seed).integers(0, 2**62, size=n)
    return [random_molecular_graph(int(s)) for s in graph_seeds]


def write_inputs(workload, seed: int, workdir: Path) -> None:
    """Write the corpus and, for embedding, a desk-shape checkpoint."""
    pipeline.save_corpus(corpus_graphs(seed, workload.graphs), workdir / "corpus.jsonl")
    if isinstance(workload, EmbedWorkload):
        params = DualHelixParams.initialize(EncoderConfig(), seed)
        opt = AdamState.for_params(params.arrays)
        pipeline.save_training_checkpoint(
            workdir / "checkpoint.bin",
            pipeline.PretrainResult(params=params, optimizer=opt, reports=[]))


# --- helpers ---------------------------------------------------------------------

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def _graphs_per_s(graphs: int, seconds: float) -> float:
    return graphs / seconds if seconds > 0 else 0.0


def _reference(name: str) -> list[float] | None:
    if not REFERENCE_PATH.exists():
        return None
    entry = json.loads(REFERENCE_PATH.read_text()).get(name)
    return None if entry is None else entry["l_total"]


def _check_transform_calls(result: Result, before: int, what: str) -> None:
    calls = pipeline.transform_call_count() - before
    if calls != 1:
        result.fail(1, f"{what} transformed the corpus {calls} times, expected 1")


def _step_mode(index: int) -> str:
    """Step-level tracing of a traced run's step: half the steps untraced,
    a quarter timed, a quarter measuring the losses' allocations."""
    return ("off", "timed", "off", "alloc")[index % 4]


def _layer_metrics(tracer: Tracer, clock: StepClock, step_times: list[float],
                   graphs_per_step: list[int], user_calls: int,
                   training: bool) -> dict[str, float]:
    """Per-layer metrics of a traced run: step-level ones per timed step,
    corpus-level ones per call, and the tracing overhead as the graph rate
    of untraced against timed steps."""
    modes = [_step_mode(i) for i in range(len(step_times))]
    timed = [i for i, mode in enumerate(modes) if mode == "timed"]
    n = max(len(timed), 1)
    m = {metric: tracer.seconds[name] / n for name, metric in _STEP_SECONDS.items()}
    m.update({metric: tracer.counts[name] / n for name, metric in _STEP_CALLS.items()})
    m["losses.peak_alloc_mb"] = tracer.loss_peak_bytes / 2**20
    m["trace.steps"] = len(timed)
    m["pipeline.batch_build_s"] = sum(clock.build_seconds[i] for i in timed) / n
    m["pipeline.batch_build_calls"] = len(clock.build_seconds) / max(len(step_times), 1)

    def median(name: str) -> float:
        values = tracer.per_call[name]
        return statistics.median(values) if values else 0.0

    m.update({
        "graphs.to_line_graph_s": median("graphs.to_line_graph"),
        "graphs.line_edges": median("graphs.line_edges"),
        "pipeline.load_corpus_s": median("pipeline.load_corpus"),
        "checkpoint.load_s": median("checkpoint.load"),
        "pipeline.transform_corpus_calls": tracer.counts["pipeline.transform_corpus"] / user_calls,
    })

    counts = [clock.edge_counts[i] for i in timed] if training else []
    edges_sq = sum(float(c.sum()) ** 2 for c in counts)
    m["losses.intra_sim_entries"] = edges_sq / n
    m["losses.intra_useful_frac"] = (
        sum(float((c.astype(float) ** 2).sum()) for c in counts) / edges_sq if edges_sq else 0.0)

    def rate(mode: str) -> float:
        idx = [i for i in range(len(step_times)) if modes[i] == mode]
        return _graphs_per_s(sum(graphs_per_step[i] for i in idx),
                             sum(step_times[i] for i in idx))

    untraced, traced = rate("off"), rate("timed")
    m["trace.untraced_graphs_per_s"] = untraced
    m["trace.traced_graphs_per_s"] = traced
    m["trace.overhead_frac"] = untraced / traced - 1.0 if traced > 0 else 0.0
    return m


def _step_summary(result: Result, step_times: list[float], what: str) -> None:
    n = len(step_times)
    result.notes.append(f"{what}: {n} samples")
    if n >= TAIL_MIN_STEPS:
        result.notes.append(f"step_s_p90 = {float(np.percentile(step_times, 90))!r} s")
    else:
        result.notes.append(f"step_s_p90 not reported: {n} steps < {TAIL_MIN_STEPS}")


def _host_scales(w, clock: StepClock, steps: int) -> list[float]:
    """Per step, the factor that brings its wall time to the reference host
    speed: the gauge's reference time over the mean of its readings at the
    step's start and at the next boundary; 1 where the workload is not scaled."""
    if not w.host_scaled:
        return [1.0] * steps
    g = clock.gauge
    return [HostGauge.REFERENCE_S / ((g[i] + g[i + 1]) / 2 if i + 1 < len(g) else g[i])
            for i in range(steps)]


def _setup_seconds(clock: StepClock, start: float, end: float,
                   gauge_before: float) -> tuple[float, float]:
    """A set-up's wall time and that time scaled by the mean gauge reading
    before and after it: set-up is CPU-bound on every workload."""
    wall = end - start
    gauge_after = clock.gauge[0] if clock.gauge else clock.host.sample()
    return wall, wall * HostGauge.REFERENCE_S / ((gauge_before + gauge_after) / 2)


def _end_to_end(result: Result, graphs: int, busy: list[tuple[float, int]],
                step_times: list[float], scales: list[float],
                setups: list[tuple[float, float]]) -> dict[str, float]:
    """`busy` holds the wall seconds the program worked, as (seconds, step)
    pieces, each scaled by its step's factor; `step_times` are scaled ones;
    `setups` are (wall, scaled) pairs."""
    raw_busy = sum(seconds for seconds, _ in busy)
    raw_steps = [t / s for t, s in zip(step_times, scales)]
    result.notes.append(
        f"wall clock, not scaled: graphs_per_s = {_graphs_per_s(graphs, raw_busy)!r} 1/s, "
        f"step_s_p50 = {statistics.median(raw_steps)!r} s, "
        f"setup_s = {statistics.median(wall for wall, _ in setups)!r} s")
    return {
        "graphs_per_s": _graphs_per_s(graphs, sum(t * scales[i] for t, i in busy)),
        "step_s_p50": statistics.median(step_times),
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _gauge_note(result: Result, clock: StepClock, span: float) -> None:
    g = clock.gauge
    result.notes.append(
        f"host gauge: median {statistics.median(g) * 1e3:.3f} ms over {len(g)} readings "
        f"(reference {HostGauge.REFERENCE_S * 1e3:.3f} ms), sampling took "
        f"{clock.sampling_seconds / span:.1%} of the measured span")


# --- training --------------------------------------------------------------------

def _check_reports(result: Result, rows: list[dict], edge_counts: list[np.ndarray],
                   reference: list[float] | None) -> None:
    """Finite losses, anchor counts derived from the batch offsets, and the
    stored trajectory over its horizon."""
    for i, row in enumerate(rows):
        counts = edge_counts[i]
        expected = {
            "graph_anchors": 2 * len(counts),
            "inter_anchors": 2 * int(counts.sum()),
            "intra_anchors": int(counts[counts >= 2].sum()),
        }
        bad = [k for k in ("l_graph", "l_intra", "l_inter", "l_total")
               if not math.isfinite(row[k])]
        bad += [f"{k}={row[k]} (expected {v})" for k, v in expected.items() if row[k] != v]
        if reference is not None and i < len(reference) and not math.isclose(
                row["l_total"], reference[i], rel_tol=TRAJECTORY_RTOL, abs_tol=1e-12):
            bad.append(f"l_total={row['l_total']!r} (reference {reference[i]!r})")
        if bad:
            result.fail(1, f"step {row['step']}: " + ", ".join(bad))


def run_train(w: TrainWorkload, seed: int, seconds: float, trace: bool,
              workdir: Path) -> Result:
    result = Result()
    cfg = pipeline.desk_train_config(
        epochs=10**9, batch_size=w.batch_size, seed=seed,
        encoder=EncoderConfig(hidden_dim=w.hidden_dim))
    tracer = Tracer() if trace else None
    main_run = False

    def on_step_start(index: int) -> None:
        tracer.set_step_mode(_step_mode(index) if main_run else "off")

    clock = StepClock(on_step_start if trace else None)
    patches = Patches()
    clock.install(patches)
    if tracer:
        tracer.install_corpus_level()
    setups: list[tuple[float, float]] = []
    error = None
    try:
        for rep in range(SETUP_REPEATS):
            main_run = rep == SETUP_REPEATS - 1
            clock.reset()
            clock.arm(seconds if main_run else 0.0)
            metrics_path = workdir / f"metrics{rep}.jsonl"
            before_setup = clock.host.sample()
            start = time.perf_counter()
            corpus = pipeline.load_corpus(workdir / "corpus.jsonl")
            before = pipeline.transform_call_count()
            try:
                # the set-up-only calls stop at the first step, the last call after `seconds`
                pipeline.pretrain(corpus, cfg, metrics_path=metrics_path)
                error = "pretrain ended before the deadline"
            except DeadlineReached:
                pass
            except Exception as err:  # a failed step is counted, not fatal
                error = f"{type(err).__name__}: {err}"
            setups.append(_setup_seconds(
                clock, start, clock.arrivals[0] if clock.arrivals else clock.stopped_at,
                before_setup))
            _check_transform_calls(result, before, "pretrain")
            if error:
                break
    finally:
        if tracer:
            tracer.remove()
        patches.undo()

    steps = len(clock.ends)
    result.attempted = max(len(clock.starts), 1)
    if error:
        result.fail(1, error)
    rows = ([json.loads(line) for line in metrics_path.read_text().splitlines()]
            if metrics_path.exists() else [])
    if len(rows) != steps:
        result.fail(abs(len(rows) - steps), f"{len(rows)} metrics rows for {steps} steps")
    reference = _reference(w.name) if seed == DEFAULT_SEED else None
    if reference is None and seed == DEFAULT_SEED:
        result.notes.append("no stored trajectory: l_total not compared")
    _check_reports(result, rows[:steps], clock.edge_counts, reference)
    result.trajectory = [row["l_total"] for row in rows[:w.horizon]]
    if steps == 0:
        return result

    scales = _host_scales(w, clock, steps)
    step_times = [(clock.ends[i] - clock.starts[i]) * scales[i] for i in range(steps)]
    _step_summary(result, step_times, "training steps")
    _gauge_note(result, clock, clock.ends[-1] - clock.starts[0])
    if not trace:
        # from each step's start to the next boundary, so work pretrain does
        # between steps counts too, and the gauge's sampling does not
        busy = [((clock.arrivals[i + 1] if i + 1 < steps else clock.ends[i]) - clock.starts[i], i)
                for i in range(steps)]
        result.metrics = _end_to_end(result, steps * w.batch_size, busy, step_times, scales,
                                     setups)
        return result

    result.metrics = _layer_metrics(tracer, clock, step_times, [w.batch_size] * steps,
                                    len(setups), training=True)
    return result


# --- embedding -------------------------------------------------------------------

def run_embed(w: EmbedWorkload, seed: int, seconds: float, trace: bool,
              workdir: Path) -> Result:
    result = Result()
    tracer = Tracer() if trace else None

    def on_step_start(index: int) -> None:
        tracer.set_step_mode(_step_mode(index))

    clock = StepClock(on_step_start if trace else None)
    patches = Patches()
    clock.install(patches)
    if tracer:
        tracer.install_corpus_level()
    setups: list[tuple[float, float]] = []
    step_times: list[float] = []
    batch_graphs: list[int] = []
    call_seconds: list[float] = []
    busy: list[tuple[float, int]] = []     # (wall seconds, step whose gauge scales them)
    first_rows = None
    try:
        for _ in range(SETUP_REPEATS):
            before_setup = clock.host.sample()
            start = time.perf_counter()
            params = pipeline.load_training_checkpoint(workdir / "checkpoint.bin").params
            corpus = pipeline.load_corpus(workdir / "corpus.jsonl")
            setups.append(_setup_seconds(clock, start, time.perf_counter(), before_setup))

        begin = time.perf_counter()
        while True:
            first = len(clock.starts)
            before = pipeline.transform_call_count()
            start = time.perf_counter()
            try:
                rows = pipeline.embed_corpus(corpus, params, batch_size=w.batch_size)
            except Exception as err:  # a failed call fails its graphs, then the run ends
                result.attempted += len(corpus)
                result.fail(len(corpus), f"embed_corpus: {type(err).__name__}: {err}")
                break
            end = time.perf_counter()
            result.attempted += len(corpus)
            call_seconds.append(end - start)
            _check_transform_calls(result, before, "embed_corpus")
            # the call's own work before its first batch (the transform), then each batch
            # up to the next boundary; the gauge samples in between are left out
            batches = [b - a for a, b in zip(clock.starts[first:],
                                             clock.arrivals[first + 1:] + [end])]
            busy.append((clock.arrivals[first] - start, first))
            busy += [(t, first + k) for k, t in enumerate(batches)]
            step_times += batches
            batch_graphs += [len(c) for c in clock.edge_counts[first:]]
            first_rows = _check_rows(result, rows, first_rows, len(corpus),
                                     params.config.hidden_dim)
            elapsed = end - begin
            if elapsed + elapsed / len(call_seconds) > seconds:
                break
    finally:
        if tracer:
            tracer.remove()
        patches.undo()

    if first_rows is not None:
        _check_single_graphs(result, corpus, params, first_rows, seed)
    if not step_times:
        return result
    scales = _host_scales(w, clock, len(step_times))
    step_times = [t * s for t, s in zip(step_times, scales)]
    _step_summary(result, step_times, "embedding batches")
    result.notes.append(f"embed_corpus calls: {len(call_seconds)} of {len(corpus)} graphs")
    _gauge_note(result, clock, sum(call_seconds))
    if not trace:
        result.metrics = _end_to_end(result, len(call_seconds) * len(corpus), busy, step_times,
                                     scales, setups)
        return result

    result.metrics = _layer_metrics(tracer, clock, step_times, batch_graphs,
                                    len(call_seconds), training=False)
    return result


def _check_rows(result: Result, rows: np.ndarray, first_rows, n: int, dim: int):
    """Shape, finiteness, and equality with the first call's rows."""
    if rows.shape != (n, dim):
        result.fail(n, f"embed_corpus returned shape {rows.shape}, expected {(n, dim)}")
        return first_rows
    bad = ~np.isfinite(rows).all(axis=1)
    if first_rows is not None:
        bad |= (rows != first_rows).any(axis=1)
    if bad.any():
        result.fail(int(bad.sum()), f"{int(bad.sum())} rows non-finite or differing between calls")
    return rows if first_rows is None else first_rows


def _check_single_graphs(result: Result, corpus, params, rows: np.ndarray, seed: int) -> None:
    """A seeded sample of graphs embedded alone must match their corpus rows."""
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    for i in rng.choice(len(corpus), size=min(SAMPLE_GRAPHS, len(corpus)), replace=False):
        before = pipeline.transform_call_count()
        alone = pipeline.embed_corpus([corpus[i]], params)
        _check_transform_calls(result, before, "embed_corpus")
        diff = float(np.abs(alone[0] - rows[i]).max())
        worst = max(worst, diff)
        if not diff <= SAMPLE_ATOL:
            result.fail(1, f"graph {i} embedded alone differs from its corpus row by {diff}")
    result.notes.append(f"single-graph sample: max abs difference {worst!r}")


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    w = WORKLOADS[name]
    runner = run_train if isinstance(w, TrainWorkload) else run_embed
    return runner(w, seed, seconds, trace, workdir)
