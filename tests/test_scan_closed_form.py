"""CHSH and Bell efficiency scans follow from unit-efficiency correlations.

Under uniform wing detection d every overall correlation is d^2 times its
Born value, so a scan evaluates each setting pair once and derives its rows.
The per-point evaluation below, a ``TwoPartyScenario`` at
``DetectionModel.uniform(d)`` for every grid point, is the reference.
"""

import math

import numpy as np
import pytest

from esrsim import correlations
from esrsim.cli import run_scenario
from esrsim.correlations import (
    TwoPartyScenario,
    efficiency_scan,
    modified_bell_report,
    modified_chsh_report,
    singlet_state,
    trichotomic_expectation,
)
from esrsim.linalg import ARITHMETIC_TOL
from esrsim.measurement import DetectionModel
from esrsim.selftest import random_density

TSIRELSON = {"a": 0.0, "d": math.pi / 2, "b": math.pi / 4, "c": 3 * math.pi / 4}


def _per_point(state, angles, d, pairs):
    dm = DetectionModel.uniform(d)
    sc = TwoPartyScenario(state, angles, dm, dm)
    return [trichotomic_expectation(sc, x, y).value for x, y in pairs]


def _per_point_chsh(state, angles, d):
    return modified_chsh_report(*_per_point(state, angles, d, ("ab", "ac", "db", "dc")))


def _per_point_bell(state, angles, d):
    return modified_bell_report(*_per_point(state, angles, d, ("ab", "ac", "bc")))


def _config_matrix(matrix):
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _instances(n=120, seed=20240610):
    """Random 4x4 states with random angles; every fourth uses the singlet and
    Tsirelson-like angles so that violating instances occur too."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        if k % 4 == 0:
            state = singlet_state()
            jitter = rng.normal(scale=0.05, size=4)
            angles = {key: TSIRELSON[key] + j for key, j in zip("adbc", jitter)}
        else:
            state = random_density(rng, 4)
            angles = dict(zip("adbc", rng.uniform(0.0, 2.0 * math.pi, size=4)))
        grid = [0.0, *sorted(float(d) for d in rng.uniform(0.0, 1.0, size=6)), 1.0]
        yield state, angles, grid


def test_chsh_scan_agrees_with_per_point_evaluation():
    violating = 0
    for state, angles, grid in _instances():
        scan = efficiency_scan(state, angles, grid)
        for d, row in zip(grid, scan.rows):
            reference = _per_point_chsh(state, angles, d)
            assert row.efficiency == d
            assert abs(row.lhs - reference.lhs) <= ARITHMETIC_TOL
            assert row.satisfied == reference.satisfied
        top = _per_point_chsh(state, angles, 1.0)
        expected = None if top.satisfied else math.sqrt(top.rhs / top.lhs)
        assert scan.threshold == expected  # bit-identical
        violating += expected is not None
    assert 0 < violating < 120


def test_bell_scan_agrees_with_per_point_evaluation():
    violating = 0
    for state, angles, grid in _instances(seed=20240611):
        a, b, c = (angles[key] for key in "abc")
        config = {
            "scenario_type": "bell-scan",
            "angles_deg": [math.degrees(x) for x in (a, b, c)],
            "state": _config_matrix(state.matrix),
            "d_grid": grid,
        }
        records = run_scenario(config).records
        assert len(records) == len(grid)
        # The runner reads the angles back from degrees; the state is exact.
        parsed = {k: math.radians(v) for k, v in zip("abc", config["angles_deg"])}
        for d, record in zip(grid, records):
            reference = _per_point_bell(state, parsed, d)
            assert abs(record.value - reference.lhs) <= ARITHMETIC_TOL
            assert abs(record.residual - reference.margin) <= ARITHMETIC_TOL
        violating += any(r.residual < -ARITHMETIC_TOL for r in records)
    assert 0 < violating < 120


@pytest.mark.parametrize("points", [1, 50])
def test_scan_work_does_not_grow_with_the_grid(monkeypatch, points):
    calls = []
    real = correlations.trichotomic_expectation

    def counting(sc, a, b):
        calls.append((a, b))
        return real(sc, a, b)

    monkeypatch.setattr(correlations, "trichotomic_expectation", counting)
    grid = [float(d) for d in np.linspace(1.0, 0.0, points)]

    efficiency_scan(singlet_state(), TSIRELSON, grid)
    assert len(calls) == 4

    calls.clear()
    config = {"scenario_type": "bell-scan", "angles_deg": [0.0, 60.0, 120.0], "d_grid": grid}
    assert len(run_scenario(config).records) == points
    assert len(calls) == 3
