"""Golden behaviour: seed-0 loss trajectories at the desk shape and at a
wide batch, and the full-objective gradient, all committed under
tests/data/ and checked within 1e-9 relative. A numerical rewrite of
any kernel on the training path must reproduce them.

Regenerate the data (only when the model's behaviour is meant to change):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np

from linecontrast.gradcheck import _analytic_grads, _objective_case
from linecontrast.pipeline import desk_train_config, pretrain
from linecontrast.synth import random_molecular_graph

DATA = Path(__file__).parent / "data"
TRAJECTORY = DATA / "golden_desk_trajectory.json"
WIDE_TRAJECTORY = DATA / "golden_wide_trajectory.json"
GRADIENT = DATA / "golden_objective_gradient.npz"
RTOL = 1e-9


def desk_trajectory() -> list[float]:
    """l_total of every step of a seed-0 desk run: 96 graphs, 4 epochs of
    6 batches of 16."""
    corpus = [random_molecular_graph(i, (6, 24), 4) for i in range(96)]
    result = pretrain(corpus, desk_train_config(epochs=4, seed=0))
    return [r.l_total for r in result.reports]


def wide_trajectory() -> list[float]:
    """l_total of every step of a seed-0 run at batch 128 and hidden 32:
    256 graphs, 5 epochs of 2 batches. A batch holds about 2200 edges, so
    group_xent walks its similarities in about 20 row tiles, where the
    desk batch fits one."""
    corpus = [random_molecular_graph(i, (6, 24), 4) for i in range(256)]
    result = pretrain(corpus, desk_train_config(epochs=5, batch_size=128, seed=0))
    return [r.l_total for r in result.reports]


def objective_gradient() -> dict[str, np.ndarray]:
    return _analytic_grads(*_objective_case(0))


def test_desk_trajectory_matches_golden():
    want = json.loads(TRAJECTORY.read_text())["l_total"]
    assert len(want) >= 20
    np.testing.assert_allclose(desk_trajectory(), want, rtol=RTOL, atol=0)


def test_wide_trajectory_matches_golden():
    want = json.loads(WIDE_TRAJECTORY.read_text())["l_total"]
    assert len(want) == 10
    np.testing.assert_allclose(wide_trajectory(), want, rtol=RTOL, atol=0)


def test_objective_gradient_matches_golden():
    want = np.load(GRADIENT)
    got = objective_gradient()
    assert sorted(got) == sorted(want.files)
    for name in want.files:
        np.testing.assert_allclose(got[name], want[name], rtol=RTOL, atol=0,
                                   err_msg=name)


if __name__ == "__main__":
    TRAJECTORY.write_text(json.dumps({"l_total": desk_trajectory()}, indent=1) + "\n")
    WIDE_TRAJECTORY.write_text(json.dumps({"l_total": wide_trajectory()}, indent=1) + "\n")
    np.savez(GRADIENT, **objective_gradient())
