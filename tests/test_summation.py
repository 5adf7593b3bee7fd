"""Float sums are taken left to right, so report bytes do not depend on the
Python version: from 3.12, builtin ``sum()`` of floats is compensated
(Neumaier) and rounds differently."""

import ast
import math
from pathlib import Path

import numpy as np

from esrsim import cli
from esrsim.linalg import DensityOperator, SpectralObservable, left_to_right_sum
from esrsim.measurement import (
    DEFAULT_STATE_LABEL,
    DetectionModel,
    GeneralizedObservable,
    outcome_distribution,
    probability_triple,
)
from esrsim.mixtures import proper_conditional_probability, proper_overall_probability

ROOT = Path(__file__).resolve().parents[1]


def reference_sum(values) -> float:
    total = 0.0
    for v in values:
        total = total + v
    return total


def compensated_sum(values) -> float:
    """Builtin ``sum()`` of floats from Python 3.12 (Neumaier's algorithm)."""
    total = compensation = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_helper_adds_left_to_right():
    values = [1e16, 1.0, -1e16]
    assert compensated_sum(values) == 1.0
    assert left_to_right_sum(values) == 0.0
    assert left_to_right_sum([]) == 0.0
    assert math.copysign(1.0, left_to_right_sum([-0.0])) == 1.0  # as 0 + (-0.0)


def test_proper_overall_of_a_generated_mixture(monkeypatch):
    # Seed 301's mixture-divergence-8 config: its terms sum to another float
    # under a compensated sum.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from gen import cli_configs

    config = dict(cli_configs(301))["mixture-divergence-8"]
    _, prepared = cli._prepare(config)
    mixture, prop, dm = prepared["components"], prepared["sigma"], prepared["detection_model"]
    terms = [
        c.weight * probability_triple(c.state, prop, dm, c.state_label).overall
        for c in mixture.components
    ]
    got = proper_overall_probability(mixture, prop, dm)
    assert got.hex() == reference_sum(terms).hex()
    assert proper_conditional_probability(mixture, prop, dm) is not None


def test_outcome_distribution_a0_of_a_drawn_distribution(rng):
    # Diagonal state and observable: each detected weight is exactly d_i p_i.
    # Draw until the two summation rules give another a0 probability.
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        p = rng.random(n)
        p /= p.sum()
        d = rng.random(n)
        weights = [float(a) * float(b) for a, b in zip(d, p)]
        if 1.0 - compensated_sum(weights) != 1.0 - reference_sum(weights):
            break
    else:
        raise AssertionError("no draw where the two rules differ")
    eigenvalues = tuple(float(k) for k in range(n))
    projectors = [np.diag(np.eye(n)[k]).astype(complex) for k in range(n)]
    obs = GeneralizedObservable(SpectralObservable(eigenvalues, projectors))
    dm = DetectionModel({(DEFAULT_STATE_LABEL, ev): float(v) for ev, v in zip(eigenvalues, d)})
    rho = DensityOperator(np.diag(p).astype(complex))
    _, probs = outcome_distribution(rho, obs, dm)
    assert [x.hex() for x in probs[:-1]] == [w.hex() for w in weights]
    assert float(probs[-1]).hex() == (1.0 - reference_sum(weights)).hex()


def test_package_calls_no_builtin_sum():
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "esrsim").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]
    assert calls == []
