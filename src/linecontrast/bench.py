"""Timing harnesses for the transformation path and a training step.

Timers wrap only the measured call; corpus generation and I/O stay
outside. Transform mode fits a log-log growth exponent of time against
total edge count, which should sit near 1 for bounded-degree graphs.
Train-step mode splits one step into batch build, forward, backward and
optimizer phases, records that the corpus transformation ran exactly
once, and reports the process's peak resident set size.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import AdamState
from .encoder import DualHelixParams, EncoderConfig
from .pipeline import Batch, TrainConfig, train_step, transform_call_count, transform_corpus
from .synth import random_molecular_graph


@dataclass
class TransformPoint:
    graphs: int
    total_edges: int
    total_line_edges: int
    seconds: float


@dataclass
class TransformBenchReport:
    points: list[TransformPoint]
    exponent: float

    def lines(self) -> list[str]:
        out = ["mode=transform"]
        for p in self.points:
            out.append(f"graphs={p.graphs} edges={p.total_edges} "
                       f"line_edges={p.total_line_edges} seconds={p.seconds:.4f}")
        out.append(f"fitted_exponent={self.exponent:.3f}")
        return out


def bench_transform(graph_counts=(10_000, 20_000, 40_000), degree_cap: int = 4,
                    node_range: tuple[int, int] = (10, 20), seed: int = 0,
                    repeats: int = 2) -> TransformBenchReport:
    points = []
    for idx, count in enumerate(graph_counts):
        corpus = [random_molecular_graph(seed + idx * 1_000_000 + i, node_range, degree_cap)
                  for i in range(count)]
        best = float("inf")
        pairs = None
        for _ in range(repeats):
            start = time.perf_counter()
            pairs = transform_corpus(corpus)
            best = min(best, time.perf_counter() - start)
        total_edges = sum(g.num_edges for g in corpus)
        total_line = sum(view.graph.num_edges for _, view in pairs)
        points.append(TransformPoint(count, total_edges, total_line, best))
    xs = np.log([p.total_edges for p in points])
    ys = np.log([p.seconds for p in points])
    exponent = float(np.polyfit(xs, ys, 1)[0])
    return TransformBenchReport(points=points, exponent=exponent)


@dataclass
class TrainStepBenchReport:
    steps: int
    transform_calls: int
    transform_seconds: float
    build_seconds: list[float] = field(default_factory=list)
    forward_seconds: list[float] = field(default_factory=list)
    backward_seconds: list[float] = field(default_factory=list)
    optimizer_seconds: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def lines(self) -> list[str]:
        return [
            "mode=train-step",
            f"steps={self.steps}",
            f"transform_calls={self.transform_calls} (one-time cost)",
            f"transform_seconds={self.transform_seconds:.4f}",
            f"build_seconds_mean={np.mean(self.build_seconds):.4f}",
            f"forward_seconds_mean={np.mean(self.forward_seconds):.4f}",
            f"backward_seconds_mean={np.mean(self.backward_seconds):.4f}",
            f"optimizer_seconds_mean={np.mean(self.optimizer_seconds):.4f}",
            f"peak_rss_mb={self.peak_rss_mb:.1f}",
        ]


def bench_train_step(n_graphs: int = 48, batch_size: int = 16, steps: int = 4,
                     seed: int = 0, encoder: EncoderConfig | None = None) -> TrainStepBenchReport:
    cfg = TrainConfig(epochs=1, batch_size=batch_size, seed=seed,
                      encoder=encoder or EncoderConfig())
    corpus = [random_molecular_graph(seed + i, (8, 16), 4, vocab=cfg.encoder.vocab)
              for i in range(n_graphs)]
    calls_before = transform_call_count()
    start = time.perf_counter()
    pairs = transform_corpus(corpus)
    transform_seconds = time.perf_counter() - start
    transform_calls = transform_call_count() - calls_before

    params = DualHelixParams.initialize(cfg.encoder, seed)
    opt = AdamState.for_params(params.arrays, learning_rate=cfg.learning_rate)
    rng = np.random.default_rng(seed)
    report = TrainStepBenchReport(steps=steps, transform_calls=transform_calls,
                                  transform_seconds=transform_seconds)
    for _ in range(steps):
        pick = rng.choice(len(pairs), size=batch_size, replace=False)
        start = time.perf_counter()
        batch = Batch.build([pairs[i] for i in pick])
        report.build_seconds.append(time.perf_counter() - start)
        _, (forward_s, backward_s, adam_s) = train_step(params, opt, batch)
        report.forward_seconds.append(forward_s)
        report.backward_seconds.append(backward_s)
        report.optimizer_seconds.append(adam_s)
    # ru_maxrss is in KiB on Linux: the whole process's peak, corpus included
    report.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report
