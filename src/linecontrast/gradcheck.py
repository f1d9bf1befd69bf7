"""Finite-difference validation of every gradient rule.

Each component builds seeded inputs and a scalar objective. The analytic
gradients come from one backward over a fresh tape; the central
differences at h = 1e-5 evaluate the objective on constants, the untaped
forward that embedding runs, so the gate also checks that this forward
is the function whose taped gradient training follows. Differences below
1e-7 count as zero error (the absolute fallback near zero); otherwise the
error is relative to the larger magnitude; each component also reports
its largest absolute difference, the margin that floor hides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .encoder import DualHelixParams, EncoderConfig, encode_batch
from .graphs import to_line_graph
from .losses import inter_local, intra_local, nt_xent
from .pipeline import Batch, compute_step_losses
from .synth import random_molecular_graph

DEFAULT_TOLERANCE = 1e-4
_FD_STEP = 1e-5
_ABS_FLOOR = 1e-7


@dataclass
class ComponentResult:
    name: str
    max_rel_err: float
    max_abs_err: float
    passed: bool


def _scalarize(out: Tensor, weights: np.ndarray) -> Tensor:
    """Reduce a matrix output to a scalar with a fixed random weighting so
    every output element influences the objective."""
    weighted = ad.scale(out, weights)
    rows, cols = out.shape
    return ad.matmul(ad.matmul(ad.constant(np.ones((1, rows))), weighted),
                     ad.constant(np.ones((cols, 1))))


def _analytic_grads(build, arrays) -> dict[str, np.ndarray]:
    tape = Tape()
    tensors = {k: tape.watch(v) for k, v in arrays.items()}
    tape.backward(build(tensors))
    return {k: tape.grad(t) for k, t in tensors.items()}


def _value(build, arrays) -> float:
    return build({k: ad.constant(v) for k, v in arrays.items()}).item()


def _fd_grads(build, arrays) -> dict[str, np.ndarray]:
    grads = {}
    for key, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + _FD_STEP
            up = _value(build, arrays)
            flat[i] = keep - _FD_STEP
            down = _value(build, arrays)
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * _FD_STEP)
        grads[key] = g
    return grads


def max_errors(analytic: dict[str, np.ndarray],
               numeric: dict[str, np.ndarray]) -> tuple[float, float]:
    """The largest relative error (zero below the absolute floor) and the
    largest absolute difference over every array."""
    worst_rel = worst_abs = 0.0
    for key in analytic:
        a = analytic[key]
        n = numeric[key]
        diff = np.abs(a - n)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-12)
        rel = np.where(diff < _ABS_FLOOR, 0.0, diff / denom)
        worst_rel = max(worst_rel, float(rel.max(initial=0.0)))
        worst_abs = max(worst_abs, float(diff.max(initial=0.0)))
    return worst_rel, worst_abs


def _away_from_zero(x: np.ndarray, margin: float = 5e-2) -> np.ndarray:
    """Nudge values off the relu kink so finite differences stay two-sided."""
    return x + np.sign(x) * margin + (x == 0) * margin


Case = tuple[Callable[[dict[str, Tensor]], Tensor], dict[str, np.ndarray]]


def _primitive_cases(rng: np.random.Generator) -> dict[str, list[Case]]:
    def mat(*shape):
        return rng.standard_normal(shape)

    # weight matrices are fixed up front; evaluation must be pure for the
    # finite differences to probe the same objective
    w34 = rng.standard_normal((3, 4))
    w45 = rng.standard_normal((4, 5))
    w37 = rng.standard_normal((3, 7))
    w310 = rng.standard_normal((3, 10))
    col3 = rng.standard_normal((3, 1))
    full34 = rng.standard_normal((3, 4))
    cases: dict[str, list[Case]] = {}

    cases["add"] = [
        (lambda t: _scalarize(ad.add(t["a"], t["b"]), w34), {"a": mat(3, 4), "b": mat(3, 4)}),
        (lambda t: _scalarize(ad.add(t["a"], t["b"]), w34), {"a": mat(3, 4), "b": mat(1, 4)}),
    ]
    cases["scale"] = [
        (lambda t, c=c: _scalarize(ad.scale(t["a"], c), w34), {"a": mat(3, 4)})
        for c in (-1.7, col3, full34)
    ]
    cases["matmul"] = [
        (lambda t: _scalarize(ad.matmul(t["a"], t["b"]), w37),
         {"a": mat(3, 4), "b": mat(4, 7)}),
    ]
    gather_idx = np.array([2, 0, 2, 1])  # repeated row on purpose
    pair_idx = np.array([[2, 0], [1, 2], [2, 2]])  # row 2 repeated within and across pairs
    cases["gather_rows"] = [
        (lambda t: _scalarize(ad.gather_rows(t["x"], gather_idx), w45),
         {"x": mat(3, 5)}),
        (lambda t: _scalarize(ad.gather_rows(t["x"], pair_idx), w310),
         {"x": mat(3, 5)}),
    ]
    scatter_idx = np.array([1, 0, 1, 3])  # collision on row 1, row 2 unreached
    cases["scatter_add_rows"] = [
        (lambda t: _scalarize(ad.scatter_add_rows(t["x"], scatter_idx, 4), w45),
         {"x": mat(4, 5)}),
    ]
    cases["relu"] = [
        (lambda t: _scalarize(ad.relu(t["x"]), w34), {"x": _away_from_zero(mat(3, 4))}),
    ]
    cases["l2_normalize_rows"] = [
        (lambda t: _scalarize(ad.l2_normalize_rows(t["x"]), w34),
         {"x": mat(3, 4) + 0.1}),
    ]
    # groups of unequal size, the first of them wider than one row; at tau
    # 0.5 the logits' span bound stays below SHARED_SHIFT_SPAN, at 0.005 the
    # same rows bound it near 2900 and take the exact per-row and per-column
    # shifts
    group_ids = np.array([0, 0, 0, 1, 2, 2])
    xent_rows = {"a": mat(6, 3), "b": mat(6, 3)}
    cases["group_xent"] = [
        (lambda t, tau=tau: ad.group_xent(t["a"], t["b"], group_ids, tau)[0],
         {k: v.copy() for k, v in xent_rows.items()})
        for tau in (0.5, 0.005)
    ]
    # a one-row block (drops out) beside blocks of unequal size (padding)
    block_offsets = np.array([0, 3, 4, 6])
    cases["block_xent"] = [
        (lambda t: ad.block_xent(t["a"], t["b"], block_offsets, 0.5)[0],
         {"a": mat(6, 3), "b": mat(6, 3)}),
    ]
    cases["helix_layer"] = [_helix_layer_case(rng, line) for line in (False, True)]
    return cases


_KINK_MARGIN = 1e-2
# node 0 meets three edges, node 4 none
_INCIDENCE = ad.Incidence(np.array([[0, 1], [0, 2], [2, 3], [0, 3]]), 5, 3)


def _helix_layer_case(rng: np.random.Generator, line: bool) -> Case:
    """One GIN update over _INCIDENCE by the graph or the line rule (width
    3, hidden 6, out 4) with units dead and alive in both ReLU halves.
    Inputs are redrawn until every pre-activation lies at least
    _KINK_MARGIN from the kink, far beyond what a finite-difference step
    moves it."""
    inc = _INCIDENCE
    rows, cols = (inc.num_edges, inc.num_nodes) if line else (inc.num_nodes, inc.num_edges)
    shapes = {"h": (rows, 3), "attr": (cols, 3), "self_loop": (1, 3),
              "w1": (3, 6), "b1": (1, 6), "w2": (6, 4), "b2": (1, 4)}
    weights = rng.standard_normal((rows, 4))
    while True:
        arrays = {k: rng.standard_normal(s) for k, s in shapes.items()}
        h, attr = arrays["h"], arrays["attr"]
        nbr = (inc.endpoints(inc.into_nodes(h) + attr * (inc.degree[:, None] - 1.0)) - 2.0 * h
               if line else inc.adjacent(h, attr))
        pre1 = (h + nbr + arrays["self_loop"]) @ arrays["w1"] + arrays["b1"]
        pre2 = np.maximum(pre1, 0.0) @ arrays["w2"] + arrays["b2"]
        if all(np.abs(p).min() >= _KINK_MARGIN and (p < 0).any() and (p > 0).any()
               for p in (pre1, pre2)):
            break

    def build(t: dict[str, Tensor]) -> Tensor:
        return _scalarize(ad.helix_layer(t["h"], t["attr"], inc, line, t["self_loop"],
                                         t["w1"], t["b1"], t["w2"], t["b2"]), weights)

    return build, arrays


def _loss_cases(rng: np.random.Generator) -> dict[str, list[Case]]:
    offsets = np.array([0, 3, 5])
    ragged = np.array([0, 3, 4, 6])  # a single-edge graph beside unequal ones
    return {
        "nt_xent": [
            (lambda t: nt_xent(t["z1"], t["z2"], 0.1)[0],
             {"z1": rng.standard_normal((3, 5)), "z2": rng.standard_normal((3, 5))}),
        ],
        "intra_local": [
            (lambda t, off=off: intra_local(t["e"], t["l"], off, 0.1)[0],
             {"e": rng.standard_normal((off[-1], 4)), "l": rng.standard_normal((off[-1], 4))})
            for off in (offsets, ragged)
        ],
        "inter_local": [
            (lambda t: inter_local(t["e"], t["l"], offsets, 0.1)[0],
             {"e": rng.standard_normal((5, 4)), "l": rng.standard_normal((5, 4))}),
        ],
    }


def _objective_case(seed: int, edge_fusion: bool = True) -> Case:
    """The training objective through the dual encoder on a 2-graph batch."""
    cfg = EncoderConfig(depth=3, hidden_dim=8, atomic_vocab=6, chirality_vocab=3,
                        bond_type_vocab=4, bond_direction_vocab=3, edge_fusion=edge_fusion)
    graphs = [random_molecular_graph(seed * 1000 + i, (5, 7), 3, vocab=cfg.vocab)
              for i in range(2)]
    batch = Batch.build([(g, to_line_graph(g)) for g in graphs])
    params = DualHelixParams.initialize(cfg, seed)

    def build(tensors: dict[str, Tensor]) -> Tensor:
        return compute_step_losses(batch, encode_batch(batch, tensors, cfg), cfg)[0]

    return build, params.arrays


def run_gradcheck(seed: int = 0, tolerance: float = DEFAULT_TOLERANCE,
                  components: list[str] | None = None) -> list[ComponentResult]:
    rng = np.random.default_rng(seed)
    suites: dict[str, list[Case]] = {}
    suites.update(_primitive_cases(rng))
    suites.update(_loss_cases(rng))
    # fusion off runs on the next seed's batch: at seed 0 its final ReLU
    # zeroes a whole line-node row, where the cosine losses are undefined
    suites["objective"] = [_objective_case(seed), _objective_case(seed + 1, edge_fusion=False)]
    if components is not None:
        unknown = set(components) - set(suites)
        if unknown:
            raise ValueError(f"unknown component(s): {sorted(unknown)}")
        suites = {k: suites[k] for k in components}

    results = []
    for name, cases in suites.items():
        worst = worst_abs = 0.0
        for build, arrays in cases:
            analytic = _analytic_grads(build, arrays)
            numeric = _fd_grads(build, arrays)
            rel, abs_err = max_errors(analytic, numeric)
            worst, worst_abs = max(worst, rel), max(worst_abs, abs_err)
        results.append(ComponentResult(name=name, max_rel_err=worst, max_abs_err=worst_abs,
                                       passed=worst < tolerance))
    return results
