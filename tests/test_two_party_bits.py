"""The two-party correlation path against its reference formulas, to the bit.

``TwoPartyScenario`` stores each setting's (sin, cos) axis when it is built,
and ``_wing`` reads ``default_value`` directly for a model without a
detection table.  The reference below is the per-call form: it looks the
angle up by label, takes ``sin`` and ``cos`` of ``float(angle)`` on every
wing, and reads both detection values through the table lookup.  Both forms
apply the same operations to the same operands, so every result, row and
error message must agree exactly; floats are compared with ``float.hex``.
"""

import math
import re

import numpy as np
import pytest

from esrsim import correlations
from esrsim.correlations import (
    TwoPartyScenario,
    conditional_expectation,
    efficiency_scan,
    modified_bell_report,
    modified_chsh_report,
    singlet_state,
    trichotomic_expectation,
)
from esrsim.linalg import ARITHMETIC_TOL, DensityOperator, clamp
from esrsim.measurement import DEFAULT_STATE_LABEL, DetectionModel


def _ref_angle(sc, label):
    if label not in sc.settings:
        raise ValueError(f"unknown setting {label!r}; have {sorted(sc.settings)}")
    return float(sc.settings[label])


def _ref_detection(dm, eigenvalue):
    return dm.assignment.get((DEFAULT_STATE_LABEL, float(eigenvalue)), dm.default_value)


def _ref_wing(sc, label, dm, sign):
    angle = _ref_angle(sc, label)
    d_plus, d_minus = _ref_detection(dm, 1.0), _ref_detection(dm, -1.0)
    spin = 0.5 * (d_plus - sign * d_minus)
    return 0.5 * (d_plus + sign * d_minus), spin * math.sin(angle), spin * math.cos(angle)


def _ref_bilinear(r, a, b):
    (a_i, a_x, a_z), (b_i, b_x, b_z) = a, b
    r_i, r_x, _, r_z = r
    return (a_i * (b_i * r_i[0] + b_x * r_i[1] + b_z * r_i[3])
            + a_x * (b_i * r_x[0] + b_x * r_x[1] + b_z * r_x[3])
            + a_z * (b_i * r_z[0] + b_x * r_z[1] + b_z * r_z[3]))


def _ref_pair(sc, a, b, sign):
    return _ref_bilinear(
        correlations._pauli_tensor(sc.joint_state),
        _ref_wing(sc, a, sc.detection_a, sign),
        _ref_wing(sc, b, sc.detection_b, sign),
    )


def _ref_overall(sc, a, b):
    return clamp(_ref_pair(sc, a, b, -1.0), -1.0, 1.0, "correlation")


def _ref_conditional(sc, a, b):
    numerator, mass = _ref_pair(sc, a, b, -1.0), _ref_pair(sc, a, b, 1.0)
    if mass <= ARITHMETIC_TOL:
        raise ValueError(f"zero joint-detection mass ({mass:.3e})")
    return clamp(numerator / mass, -1.0, 1.0, "correlation")


def _ref_check(**values):
    for name, v in values.items():
        clamp(v, -1.0, 1.0, name)


def _ref_bell(e_ab, e_ac, e_bc):
    _ref_check(e_ab=e_ab, e_ac=e_ac, e_bc=e_bc)
    return abs(e_ab - e_ac), 1.0 + e_bc


def _ref_chsh(e_ab, e_ac, e_db, e_dc):
    _ref_check(e_ab=e_ab, e_ac=e_ac, e_db=e_db, e_dc=e_dc)
    return abs(e_ab - e_ac) + abs(e_db + e_dc), 2.0


def _ref_scan(state, angles, grid):
    unit = DetectionModel.uniform(1.0)
    sc = TwoPartyScenario(state, angles, unit, unit)
    lhs1, rhs = _ref_chsh(*(_ref_overall(sc, x, y) for x, y in ("ab", "ac", "db", "dc")))
    rows = []
    for d in grid:
        lhs = d * d * lhs1
        rows.append((float(d).hex(), lhs.hex(), rhs - lhs >= -ARITHMETIC_TOL))
    threshold = None if rhs - lhs1 >= -ARITHMETIC_TOL else math.sqrt(rhs / lhs1).hex()
    return rows, threshold


def _outcome(call):
    """``call()``'s float as hex, or its error's type and message."""
    try:
        return float(call()).hex()
    except ValueError as err:
        return type(err).__name__, str(err)


def _random_state(rng) -> DensityOperator:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def _random_angle(rng) -> float:
    kind = rng.integers(5)
    if kind == 0:
        return -0.0
    if kind == 1:
        return float(rng.uniform(-1e6, 1e6))
    if kind == 2:
        return float(rng.choice([-1.0, 1.0]) * rng.integers(0, 8) * math.pi / 4)
    return float(rng.uniform(-2 * math.pi, 2 * math.pi))


def _random_detection(rng) -> DetectionModel:
    kind = rng.integers(5)
    if kind == 0:
        return DetectionModel.uniform(float(rng.choice([0.0, 1.0])))
    if kind == 1:
        return DetectionModel.uniform(float(rng.uniform()))
    if kind == 2:  # a table that covers both spin outcomes
        values = rng.uniform(size=2)
        return DetectionModel({(DEFAULT_STATE_LABEL, 1.0): values[0],
                               (DEFAULT_STATE_LABEL, -1.0): values[1]})
    if kind == 3:  # one outcome listed, the other falls back to the default
        return DetectionModel({(DEFAULT_STATE_LABEL, -1.0): float(rng.uniform())},
                              float(rng.uniform()))
    # A table for another state label only: every lookup falls back.
    return DetectionModel({("other", 1.0): 0.25}, float(rng.uniform()))


class TestTwoPartyBits:
    def test_expectations_match_reference(self, rng):
        for _ in range(300):
            labels = ("a", "b", "c")
            settings = {label: _random_angle(rng) for label in labels}
            sc = TwoPartyScenario(
                _random_state(rng), settings, _random_detection(rng), _random_detection(rng)
            )
            for x in labels:
                for y in labels:
                    assert _outcome(lambda: trichotomic_expectation(sc, x, y).value) == \
                        _outcome(lambda: _ref_overall(sc, x, y))
                    assert _outcome(lambda: conditional_expectation(sc, x, y).value) == \
                        _outcome(lambda: _ref_conditional(sc, x, y))

    @pytest.mark.parametrize("d", [0.0, 1.0, 0.3])
    def test_bell_grid_point_matches_reference(self, rng, d):
        for _ in range(100):
            settings = {label: _random_angle(rng) for label in "abc"}
            dm = DetectionModel.uniform(d)
            sc = TwoPartyScenario(_random_state(rng), settings, dm, dm)
            values = [trichotomic_expectation(sc, x, y).value for x, y in ("ab", "ac", "bc")]
            want = [_ref_overall(sc, x, y) for x, y in ("ab", "ac", "bc")]
            assert [v.hex() for v in values] == [w.hex() for w in want]
            report = modified_bell_report(*values)
            assert (report.lhs.hex(), report.rhs.hex()) == tuple(x.hex() for x in _ref_bell(*want))

    def test_reports_match_reference(self, rng):
        # Inputs at, inside and just outside the [-1, 1] clamp window.
        edges = [-1.0 - ARITHMETIC_TOL, -1.0, -0.0, 0.0, 1.0, 1.0 + ARITHMETIC_TOL,
                 1.0 + 2 * ARITHMETIC_TOL, -1.5, 2.0]
        for _ in range(500):
            e = [float(rng.choice(edges)) if rng.random() < 0.3 else float(rng.uniform(-1, 1))
                 for _ in range(4)]
            for mine, ref in ((modified_bell_report, _ref_bell), (modified_chsh_report, _ref_chsh)):
                args = e[:3] if mine is modified_bell_report else e
                try:
                    want = tuple(x.hex() for x in ref(*args))
                except ValueError as err:
                    with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                        mine(*args)
                    continue
                report = mine(*args)
                assert (report.lhs.hex(), report.rhs.hex()) == want

    def test_efficiency_scan_matches_reference(self, rng):
        for _ in range(100):
            angles = {label: _random_angle(rng) for label in "adbc"}
            state = singlet_state() if rng.random() < 0.5 else _random_state(rng)
            grid = [0.0, 1.0] + [float(d) for d in rng.uniform(size=6)]
            scan = efficiency_scan(state, angles, grid)
            rows = [(row.efficiency.hex(), row.lhs.hex(), row.satisfied) for row in scan.rows]
            threshold = None if scan.threshold is None else scan.threshold.hex()
            assert (rows, threshold) == _ref_scan(state, angles, grid)


class TestTwoPartyErrorMessages:
    """The messages the axis and detection fast paths must keep, pinned as text."""

    def test_unknown_setting(self):
        unit = DetectionModel.uniform(0.5)
        sc = TwoPartyScenario(singlet_state(), {"b": 0.0, "a": 1.0}, unit, unit)
        message = "unknown setting 'z'; have ['a', 'b']"
        for call in (trichotomic_expectation, conditional_expectation):
            for x, y in (("z", "a"), ("a", "z")):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    call(sc, x, y)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "nan"])
    def test_non_finite_angle(self, bad):
        unit = DetectionModel.uniform(1.0)
        with pytest.raises(ValueError, match=r"^angle for setting 'c' is not finite$"):
            TwoPartyScenario(singlet_state(), {"a": 0.0, "c": bad}, unit, unit)

    def test_e_ab_out_of_range(self):
        with pytest.raises(ValueError, match=r"^e_ab = 1\.5 is outside \[-1, 1\]$"):
            modified_bell_report(1.5, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"^e_ab = nan is outside \[-1, 1\]$"):
            modified_chsh_report(math.nan, 0.0, 0.0, 0.0)
        # The inputs are checked in order, so the first bad one is named.
        with pytest.raises(ValueError, match=r"^e_ac = -2\.0 is outside \[-1, 1\]$"):
            modified_chsh_report(0.0, -2.0, 3.0, 0.0)
        with pytest.raises(ValueError, match=r"^e_dc = 1\.1 is outside \[-1, 1\]$"):
            modified_chsh_report(0.0, 0.0, 0.0, 1.1)
