"""The GHZ search's verdict against a closed form in the Mermin sum.

Let t be the four ``ghz_quantum_correlations`` targets (XXX, XYY, YXY,
YYX), M the largest sum s.t over the 8 sign patterns s with
s1 s2 s3 s4 = -1 (for the signs (+, -, -, -) this is Mermin's sum, whose
local bound is 2: Mermin, PRL 65, 1838, 1990) and M' = M - 4 tolerance.
As measured, not proved: the search is feasible exactly when M' <= 2, or
when both min_efficiency < 2(M' + 1)/(3M') and min_joint_detection < 2/M'.
The expected verdict is computed from the targets alone, without
``simplex``.  A point within ``BAND`` of either threshold is skipped: there
the rounding of the targets decides (at p = 0.5 the noisy targets are
+-0.5000000000000001, and the threshold at min_efficiency 1 is hit).  The
four noisy-GHZ configs of ``scripts/report_digests.py`` also go through
``cli.main`` in-process, and each report's ``feasible`` record is compared
with the form.
"""

import contextlib
import importlib.util
import io
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from esrsim import cli, correlations
from esrsim.correlations import GHZScenario, ghz_local_model_search, ghz_quantum_correlations
from esrsim.linalg import DEFAULT_MIN_JOINT_DETECTION, DensityOperator

_SPEC = importlib.util.spec_from_file_location(
    "report_digests", Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"
)
report_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_digests)

BAND = 1e-6
SIGNS = [s for s in itertools.product((1, -1), repeat=4) if s[0] * s[1] * s[2] * s[3] == -1]
ETAS = [float(eta) for eta in np.linspace(0.0, 1.0, 21)]


def _closed_form(targets, min_efficiency, min_joint_detection, tolerance):
    """The expected verdict, or None within ``BAND`` of a threshold."""
    mermin = max(sum(s * t for s, t in zip(signs, targets)) for signs in SIGNS) - 4 * tolerance
    if mermin > 0:
        efficiency, joint = 2 * (mermin + 1) / (3 * mermin), 2 / mermin
        if min(abs(min_efficiency - efficiency), abs(min_joint_detection - joint)) <= BAND:
            return None
    return mermin <= 2 or (min_efficiency < efficiency and min_joint_detection < joint)


def _compare(searches):
    """(searches checked, the points where the verdicts differ, the verdicts)."""
    checked, differ, verdicts = 0, [], set()
    for scenario, min_efficiency, min_joint_detection, tolerance in searches:
        targets = ghz_quantum_correlations(scenario)
        want = _closed_form(targets, min_efficiency, min_joint_detection, tolerance)
        if want is None:
            continue
        got = ghz_local_model_search(scenario, min_efficiency, min_joint_detection, tolerance)
        checked += 1
        verdicts.add(got.feasible)
        if got.feasible != want:
            differ.append((targets, min_efficiency, min_joint_detection, tolerance, got.feasible))
    return checked, differ, verdicts


def _mixed(p, sigma):
    return GHZScenario(DensityOperator(p * correlations.ghz_state().matrix + (1 - p) * sigma))


def test_standard_state_grid():
    standard = GHZScenario.standard()
    checked, differ, verdicts = _compare(
        (standard, float(eta), joint, tolerance)
        for tolerance in (0.0, 1e-6, 1e-3)
        for joint in (0.0, 1e-6, 0.3)
        for eta in np.linspace(0.0, 1.0, 41)
    )
    assert differ == []
    assert checked == 369 and verdicts == {True, False}


def test_white_noise():
    # p|GHZ><GHZ| + (1 - p)I/8 has M = 4p: at tolerance 0 the efficiency
    # threshold is (4p + 1)/(6p).
    searches = [
        (scenario, eta, joint, tolerance)
        for scenario in [_mixed(p, np.eye(8) / 8) for p in np.linspace(0.3, 1.0, 15)]
        for tolerance in (0.0, 1e-4, 0.05)
        for joint in (0.0, 1e-6, 0.3)
        for eta in ETAS
    ]
    checked, differ, verdicts = _compare(searches)
    assert differ == []
    # Skipped: min_efficiency 1 where M' = 2, at p = 0.5 with tolerance 0
    # and at p = 0.55 with tolerance 0.05, for each joint floor.
    assert len(searches) - checked == 6
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(6))
def test_seeded_mixtures(seed):
    # p|GHZ><GHZ| + (1 - p)sigma with a random density matrix sigma, where
    # the joint floors 0.49 and 0.6 lie on either side of 2/M' near p = 1.
    rng = np.random.default_rng([3036, seed])
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    sigma = g @ g.conj().T
    scenario = _mixed(float(rng.uniform(0.75, 1.0)), sigma / np.trace(sigma).real)
    checked, differ, verdicts = _compare(
        (scenario, eta, joint, 0.0) for joint in (0.0, 0.49, 0.6) for eta in ETAS
    )
    assert differ == []
    assert checked == 3 * 21 and verdicts == {True, False}


@pytest.mark.parametrize("name", list(report_digests.noisy_ghz_configs()))
def test_noisy_configs_through_the_cli(name, tmp_path):
    config = report_digests.noisy_ghz_configs()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["run", "--scenario", str(path), "--format", "json"]) == 0
    records = {record["name"]: record["value"] for record in json.loads(out.getvalue())["results"]}
    state = DensityOperator([[complex(re, im) for re, im in row] for row in config["state"]])
    want = _closed_form(
        ghz_quantum_correlations(GHZScenario(state)),
        config["min_efficiency"],
        config.get("min_joint_detection", DEFAULT_MIN_JOINT_DETECTION),
        0.0,
    )
    assert want is not None
    assert records["feasible"] == float(want)
