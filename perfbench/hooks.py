"""Timing hooks installed on the package from outside it.

``pretrain``, ``embed_corpus``, ``encode_batch`` and ``compute_step_losses``
look up the functions they call (``Batch.build``, ``adam_step``,
``gin_layer``, ``nt_xent``, ...) through their module globals at call
time, so replacing a module or class attribute reroutes the call without
editing the package. Every replacement is undone on removal.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict

import numpy as np

from linecontrast import autodiff, encoder, losses, pipeline


class DeadlineReached(Exception):
    """Raised at a step boundary to end a time-bounded run."""


class Patches:
    """Attribute replacements, undone last in first out."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        # vars() keeps descriptors such as classmethods intact for the undo
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)


class HostGauge:
    """The host's speed at a moment: the time of a fixed reference kernel.

    On a shared host the same code runs up to twice as fast in one second
    as in the next, as other tenants come and go. The kernel does the
    kinds of work the encoder does, a pure-Python loop and small numpy
    gathers, matmuls and ``np.add.at`` scatters, on a working set of about
    100 KB, so it slows down with the host and not with the program. It
    runs twice per sample and only the second run is timed, so what the
    program left in the caches does not reach the timing.
    ``REFERENCE_S`` is the nominal time of one timed run; a time measured
    while the gauge read ``g`` seconds is scaled by ``REFERENCE_S / g``.
    """

    REFERENCE_S = 0.001

    def __init__(self):
        rng = np.random.default_rng(0)
        self._rows = rng.random((64, 32))
        self._index = rng.integers(0, 64, size=256)
        self._weights = rng.random((32, 32))

    def _kernel(self) -> None:
        acc = 0
        for _ in range(6):
            for i in range(200):
                acc += i * i
            out = np.zeros_like(self._rows)
            np.add.at(out, self._index, self._rows[self._index] @ self._weights)
            np.maximum(out, 0.0, out=out)

    def sample(self) -> float:
        """Seconds of one timed run of the kernel, after an untimed one."""
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start


class StepClock:
    """Step boundaries taken where the package builds a batch and, when
    training, where it calls ``adam_step``.

    A step starts when ``Batch.build`` is entered and, in training, ends
    when ``adam_step`` returns. Once a deadline is armed, the next step
    start after it raises ``DeadlineReached``, so every recorded step ran to
    completion. At each boundary the host gauge is sampled and then
    ``on_step_start`` is called with the step index, both before the start
    is timed; ``arrivals`` holds the time each boundary was reached, before
    either, so it ends the previous step when no ``adam_step`` does, and
    ``gauge[i]`` is the gauge reading at the start of step i.
    """

    def __init__(self, on_step_start=None):
        self.host = HostGauge()
        self.gauge: list[float] = []
        self.sampling_seconds = 0.0               # spent on the gauge at step boundaries
        self.arrivals: list[float] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.build_seconds: list[float] = []
        self.edge_counts: list[np.ndarray] = []   # edges per graph of each batch
        self.budget: float | None = None          # seconds after the first start
        self.deadline: float | None = None
        self.stopped_at: float | None = None
        self.on_step_start = on_step_start

    def arm(self, seconds: float) -> None:
        """Stop at the first step that would start `seconds` or more after
        the first step; with `seconds` <= 0, stop before the first step."""
        self.budget = seconds if seconds > 0 else None
        self.deadline = None if seconds > 0 else 0.0
        self.stopped_at = None

    def reset(self) -> None:
        self.gauge.clear()
        self.sampling_seconds = 0.0
        self.arrivals.clear()
        self.starts.clear()
        self.ends.clear()
        self.build_seconds.clear()
        self.edge_counts.clear()

    def install(self, patches: Patches) -> None:
        build = pipeline.Batch.build
        adam = pipeline.adam_step

        def timed_build(pairs):
            now = time.perf_counter()
            if self.deadline is not None and now >= self.deadline:
                self.stopped_at = now
                raise DeadlineReached
            self.arrivals.append(now)
            self.gauge.append(self.host.sample())
            self.sampling_seconds += time.perf_counter() - now
            if self.on_step_start is not None:
                self.on_step_start(len(self.starts))
            start = time.perf_counter()
            if self.budget is not None and self.deadline is None:
                self.deadline = start + self.budget
            self.starts.append(start)
            batch = build(pairs)
            self.build_seconds.append(time.perf_counter() - start)
            self.edge_counts.append(np.diff(batch.edge_offsets))
            return batch

        def timed_adam(*args, **kwargs):
            adam(*args, **kwargs)
            self.ends.append(time.perf_counter())

        patches.set(pipeline.Batch, "build", staticmethod(timed_build))
        patches.set(pipeline, "adam_step", timed_adam)


class Tracer:
    """Per-layer time and counts, from wrappers on each module's functions.

    Two groups of wrappers: the corpus-level ones (corpus load, transform,
    checkpoint load) run once per user call and stay installed for the
    whole traced run; the step-level ones are switched per step, so traced
    and untraced steps interleave and their difference is the tracing
    overhead. Times are inclusive: a call's time contains
    the time of the wrapped calls it makes.
    """

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.per_call: dict[str, list[float]] = defaultdict(list)
        self.loss_peak_bytes = 0
        self._corpus_patches = Patches()
        self._step_patches = Patches()
        self.step_mode = "off"

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - start
                self.counts[name] += 1
        return wrapper

    def _timed_per_call(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.per_call[name].append(time.perf_counter() - start)
            return out
        return wrapper

    # --- corpus level ---------------------------------------------------

    def install_corpus_level(self) -> None:
        p = self._corpus_patches
        to_line_graph = pipeline.to_line_graph
        transform = pipeline.transform_corpus

        def traced_to_line_graph(g):
            start = time.perf_counter()
            view = to_line_graph(g)
            self.seconds["graphs.to_line_graph"] += time.perf_counter() - start
            self.counts["graphs.line_edges"] += view.graph.num_edges
            return view

        def traced_transform(corpus, *args, **kwargs):
            seconds = self.seconds["graphs.to_line_graph"]
            line_edges = self.counts["graphs.line_edges"]
            out = transform(corpus, *args, **kwargs)
            self.counts["pipeline.transform_corpus"] += 1
            self.per_call["graphs.to_line_graph"].append(
                self.seconds["graphs.to_line_graph"] - seconds)
            self.per_call["graphs.line_edges"].append(
                self.counts["graphs.line_edges"] - line_edges)
            return out

        p.set(pipeline, "to_line_graph", traced_to_line_graph)
        p.set(pipeline, "transform_corpus", traced_transform)
        p.set(pipeline, "load_corpus", self._timed_per_call("pipeline.load_corpus",
                                                            pipeline.load_corpus))
        p.set(pipeline, "load_checkpoint", self._timed_per_call("checkpoint.load",
                                                                pipeline.load_checkpoint))

    # --- step level -----------------------------------------------------

    def set_step_mode(self, mode: str) -> None:
        """Switch the step-level wrappers: "off"; "timed", the layer timers
        and counters; or "alloc", tracemalloc around the losses alone, kept
        apart because it slows every allocation the timed steps would see."""
        if mode == self.step_mode:
            return
        self._step_patches.undo()
        self.step_mode = mode
        if mode == "timed":
            self._install_timers()
        elif mode == "alloc":
            self._install_alloc()

    def _install_timers(self) -> None:
        p = self._step_patches
        for owner, attr, name in (
            (pipeline, "encode_batch", "encoder.encode_batch"),
            (encoder, "gin_layer", "encoder.gin_layer"),
            (encoder, "readout", "encoder.readout"),
            (encoder, "edge_pair_representation", "encoder.edge_pair"),
            (encoder, "gather_rows", "autodiff.gather_rows"),
            (losses, "gather_rows", "autodiff.gather_rows"),
            (encoder, "scatter_add_rows", "autodiff.scatter_add_rows"),
            (autodiff.Tape, "backward", "autodiff.backward"),
            (pipeline, "adam_step", "autodiff.adam_step"),
            (pipeline, "nt_xent", "losses.nt_xent"),
            (pipeline, "inter_local", "losses.inter_local"),
            (pipeline, "intra_local", "losses.intra_local"),
        ):
            p.set(owner, attr, self._timed(name, vars(owner)[attr]))

        apply = autodiff._apply
        cosine_sim = losses.cosine_sim

        def counted_apply(*args):
            self.counts["autodiff.primitive_calls"] += 1
            return apply(*args)

        def counted_cosine_sim(a, b):
            out = cosine_sim(a, b)
            self.counts["losses.sim_entries"] += out.shape[0] * out.shape[1]
            return out

        p.set(autodiff, "_apply", counted_apply)
        p.set(losses, "cosine_sim", counted_cosine_sim)

    def _install_alloc(self) -> None:
        step_losses = pipeline.compute_step_losses

        def measured_step_losses(*args, **kwargs):
            tracemalloc.start()
            try:
                return step_losses(*args, **kwargs)
            finally:
                self.loss_peak_bytes = max(self.loss_peak_bytes,
                                           tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        self._step_patches.set(pipeline, "compute_step_losses", measured_step_losses)

    def remove(self) -> None:
        self.set_step_mode("off")
        self._corpus_patches.undo()
