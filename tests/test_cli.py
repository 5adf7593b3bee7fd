"""CLI surface: config validation, reports, determinism, exit codes."""

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clear_operator_caches, plus_density, z_generalized
from esrsim.cli import (
    _MC_CHUNK,
    _prepare,
    ConfigError,
    Record,
    RunReport,
    emit_report,
    main,
    render_report,
    run_scenario,
    validate_config,
)
from esrsim import cli, correlations, linalg, measurement, mixtures
from esrsim.measurement import DetectionModel, sample_outcomes
from esrsim.selftest import fundamental_equation_suite

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))}

Z_OBSERVABLE = {
    "eigenvalues": [1.0, -1.0],
    "projectors": [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    ],
}

# Repeated eigenvalue: not a spectral decomposition.
DEGENERATE_OBSERVABLE = {**Z_OBSERVABLE, "eigenvalues": [1.0, 1.0]}

PLUS_STATE = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
PAIR = "expected a finite [re, im] pair, got "


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()

SKEWED_DETECTION = {
    "default": 1.0,
    "entries": [
        {"state": "S", "eigenvalue": 1.0, "value": 0.9},
        {"state": "S", "eigenvalue": -1.0, "value": 0.5},
    ],
}


def triple_config() -> dict:
    return {
        "scenario_type": "probability-triple",
        "dimension": 2,
        "state": PLUS_STATE,
        "observable": Z_OBSERVABLE,
        "sigma": [1.0],
        "detection_model": SKEWED_DETECTION,
    }


def evolve_config(eigenvalues=(1.0, -1.0), time=math.pi / 2) -> dict:
    return {
        "scenario_type": "evolve",
        "dimension": 2,
        "state": PLUS_STATE,
        "hamiltonian": {**Z_OBSERVABLE, "eigenvalues": list(eigenvalues)},
        "time": time,
    }


def nan_weight_mixture_config() -> dict:
    config = json.loads((CONFIG_DIR / "mixture_divergence.json").read_text())
    config["components"][1]["weight"] = float("nan")
    return config


def node_at(config, path: tuple):
    for key in path:
        config = config[key]
    return config


def mutated(name: str, path: tuple, value) -> dict:
    """A shipped config with the node at ``path`` set to ``value``."""
    config = copy.deepcopy(SHIPPED[name])
    node_at(config, path[:-1])[path[-1]] = value
    return config


def appended(name: str, path: tuple, entry) -> dict:
    """A shipped config with ``entry`` appended to the list at ``path``."""
    config = copy.deepcopy(SHIPPED[name])
    node_at(config, path).append(entry)
    return config


REPEATED_MICRO_DETECTION = (
    "hv_verify", ("micro_detection", "entries"), {"microstate": 0, "property": "f", "value": 0.9}
)
# The integer 1 repeats the shipped eigenvalue 1.0.
REPEATED_DETECTION = (
    "probability_triple", ("detection_model", "entries"), {"state": "S", "eigenvalue": 1, "value": 0.1}
)


# Trace 2: each is rejected by ``DensityOperator``, not by the config reader.
TRACE_TWO_STATE = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
TRACE_TWO_STATE_4 = [
    [[1.0 if i == j < 2 else 0.0, 0.0] for j in range(4)] for i in range(4)
]
MIXED_STATE = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]


def dimension_65_config() -> dict:
    # Consistent 65x65 inputs, so only the dimension bound can reject them.
    def diagonal(values):
        n = len(values)
        return [[[values[i] if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]

    rest = [0.0] + [1.0] * 64
    return {
        **triple_config(),
        "dimension": 65,
        "state": diagonal([1.0 / 65] * 65),
        "observable": {
            "eigenvalues": [1.0, -1.0],
            "projectors": [diagonal([1.0 - r for r in rest]), diagonal(rest)],
        },
    }


def monte_carlo_config(seed=42, samples=20000) -> dict:
    config = triple_config()
    config["scenario_type"] = "monte-carlo"
    config["seed"] = seed
    config["samples"] = samples
    return config


class TestRunScenario:
    def test_probability_triple_records(self):
        report = run_scenario(triple_config())
        values = {r.name: r.value for r in report.records}
        assert values["overall"] == pytest.approx(0.45, abs=1e-12)
        assert values["detection"] == pytest.approx(0.9, abs=1e-12)
        assert values["conditional"] == pytest.approx(0.5, abs=1e-12)

    def test_missing_state_is_config_error(self):
        config = triple_config()
        del config["state"]
        with pytest.raises(ConfigError, match="state"):
            run_scenario(config)

    def test_unknown_scenario_type(self):
        with pytest.raises(ConfigError, match="scenario_type"):
            validate_config({"scenario_type": "nope"})

    def test_bad_matrix_entry_reports_path(self):
        config = triple_config()
        config["state"] = [[[0.5, 0.0], "bad"], [[0.5, 0.0], [0.5, 0.0]]]
        with pytest.raises(ConfigError, match=r"state.*\[0\]\[1\]"):
            run_scenario(config)

    # Matrix JSON text of the dimension-2 ``state``, and the error it must raise.
    @pytest.mark.parametrize("state, message", [
        ('[[[0.5, 0.0], "bad"], [[0.5, 0.0], [0.5, 0.0]]]', "[0][1]: " + PAIR + "'bad'"),
        ('[[[0.5, 0.0], true], [[0.5, 0.0], [0.5, 0.0]]]', "[0][1]: " + PAIR + "True"),
        ('[[[0.5, 0.0], [0.5, 0.0]], [[true, 0.0], [0.5, 0.0]]]', "[1][0]: " + PAIR + "[True, 0.0]"),
        ('[[[0.5, 0.0], [0.5, null]], [[0.5, 0.0], [0.5, 0.0]]]', "[0][1]: " + PAIR + "[0.5, None]"),
        ('[[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5]]]', "[1][1]: " + PAIR + "[0.5]"),
        ('[[[0.5, 0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]', "[0][0]: " + PAIR + "[0.5, 0.0, 0.0]"),
        ('[[[0.5, 0.0], [0.5, 0.0]], [[0.5, NaN], [0.5, 0.0]]]', "[1][0]: " + PAIR + "[0.5, nan]"),
        ('[[[0.5, 0.0], [Infinity, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]', "[0][1]: " + PAIR + "[inf, 0.0]"),
        ('[[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [-1e400, 0.0]]]', "[1][1]: " + PAIR + "[-inf, 0.0]"),
        (f'[[[0.5, 0.0], [0.5, 0.0]], [[0.5, {10**400}], [0.5, 0.0]]]', f"[1][0]: {PAIR}[0.5, {10**400}]"),
        # float() rounds this int down to float max, but it is past it.
        (f'[[[{int(sys.float_info.max) + 1}, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]',
         f"[0][0]: {PAIR}[{int(sys.float_info.max) + 1}, 0.0]"),
        ('[[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0]]]', "[1]: expected a row of 2 entries"),
        ('[[[0.5, 0.0], [0.5, 0.0]], {"re": 0.5}]', "[1]: expected a row of 2 entries"),
        ('[[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]',
         ": expected 2 rows of 2 [re, im] pairs"),
    ])
    def test_malformed_matrix_errors_keep_their_path_and_message(self, state, message):
        config = triple_config()
        config["state"] = json.loads(state)
        with pytest.raises(ConfigError) as raised:
            run_scenario(config)
        assert str(raised.value) == "field 'state'" + message

    @pytest.mark.parametrize("rows", [
        [[[1, 0], [0, -0.0]], [[-0.0, 3], [-0.0, -0.0]]],
        [[[2**53 + 1, -(2**63) - 5], [0.1, 10**308]], [[sys.float_info.max, -0], [5e-324, 1]]],
        [[[np.float64(0.1), 0.0], [0.0, np.float64(-0.0)]], [[0.0, 0.0], [0.0, 0.0]]],
    ])
    def test_matrix_entries_keep_the_bits_of_complex(self, rows):
        want = np.array([[complex(re, im) for re, im in row] for row in rows])
        assert cli._complex_matrix(rows, "m", 2).tobytes() == want.tobytes()

    def test_chsh_scan_contains_threshold(self):
        config = {
            "scenario_type": "chsh-scan",
            "angles_deg": [0.0, 90.0, 45.0, 135.0],
            "d_grid": [0.5, 1.0],
        }
        report = run_scenario(config)
        threshold = {r.name: r.value for r in report.records}["threshold"]
        assert threshold == pytest.approx(2.0 ** (-0.25), abs=1e-12)

    def test_luders_scenario_emits_post_state(self):
        config = triple_config()
        config["scenario_type"] = "luders"
        config["sigma"] = [1.0, -1.0]
        report = run_scenario(config)
        values = {r.name: r.value for r in report.records}
        assert values["post_state_0_0_re"] == pytest.approx(0.81 / 1.06, abs=1e-12)
        assert values["post_state_0_1_re"] == pytest.approx(0.45 / 1.06, abs=1e-12)

    def test_evolve_scenario(self):
        config = {
            "scenario_type": "evolve",
            "dimension": 2,
            "state": PLUS_STATE,
            "hamiltonian": Z_OBSERVABLE,
            "time": math.pi / 2,
        }
        report = run_scenario(config)
        values = {r.name: r.value for r in report.records}
        assert values["evolved_0_1_re"] == pytest.approx(-0.5, abs=1e-12)
        assert values["trace_deviation"] <= 1e-12
        assert values["eigenvalue_drift"] <= 1e-10

    def test_one_spectral_validation_per_observable(self, monkeypatch):
        calls = []
        validate = linalg.validate_spectral_observable

        def counting_validate(o):
            calls.append(o)
            return validate(o)

        monkeypatch.setattr(linalg, "validate_spectral_observable", counting_validate)
        for config in (evolve_config(), triple_config()):
            calls.clear()
            run_scenario(config)
            assert len(calls) == 1, config["scenario_type"]
        # evolve reads its hamiltonian as the SpectralObservable that was validated.
        calls.clear()
        hamiltonian = _prepare(evolve_config())[1]["hamiltonian"]
        assert type(hamiltonian) is linalg.SpectralObservable
        assert calls == [hamiltonian]
        calls.clear()
        assert fundamental_equation_suite(n=50).passed
        assert len(calls) == 50

    def test_luders_records_match_the_public_functions(self):
        config = {**SHIPPED["probability_triple"], "scenario_type": "luders"}
        state, prop, dm, label = cli._measurement(_prepare(config)[1])
        want_yes = measurement.probability_triple(state, prop, dm, label).overall
        want_post = measurement.luders_update(state, prop, dm, label).matrix
        values = {r.name: r.value for r in run_scenario(config).records}
        assert _bits(values["yes_probability"]) == _bits(want_yes)
        for (i, j), z in np.ndenumerate(want_post):
            assert _bits(values[f"post_state_{i}_{j}_re"]) == _bits(z.real)
            assert _bits(values[f"post_state_{i}_{j}_im"]) == _bits(z.imag)

    @pytest.mark.parametrize("dim", [1, 2, 3, 11])
    def test_entry_records_match_one_record_per_entry(self, rng, dim):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = g @ g.conj().T
        state = linalg.DensityOperator(m / np.trace(m).real)
        want = [
            Record(f"rho_{i}_{j}_{part}", float(value))
            for (i, j), z in np.ndenumerate(state.matrix)
            for part, value in (("re", z.real), ("im", z.imag))
        ]
        got = cli._entry_records("rho", state)
        assert [type(r) for r in got] == [Record] * len(want)
        assert [(r.name, _bits(r.value), type(r.value), r.residual) for r in got] == [
            (r.name, _bits(r.value), float, None) for r in want
        ]
        with pytest.raises(AttributeError):
            got[-1].value = 0.0

    def test_mixture_divergence_records_match_the_public_functions(self):
        config = SHIPPED["mixture_divergence"]
        p = _prepare(config)[1]
        mixture, prop, dm = p["components"], p["sigma"], p["detection_model"]
        want_overall = mixtures.proper_overall_probability(mixture, prop, dm)
        want_conditional = mixtures.proper_conditional_probability(mixture, prop, dm)
        values = {r.name: r.value for r in run_scenario(config).records}
        assert _bits(values["proper_overall"]) == _bits(want_overall)
        assert _bits(values["proper_conditional"]) == _bits(want_conditional)

    def test_mixture_divergence_scenario(self):
        config = {
            "scenario_type": "mixture-divergence",
            "dimension": 2,
            "components": [
                {"weight": 0.5, "state": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "label": "w0"},
                {"weight": 0.5, "state": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]], "label": "w1"},
            ],
            "observable": Z_OBSERVABLE,
            "sigma": [1.0],
            "detection_model": {
                "entries": [
                    {"state": "w0", "eigenvalue": 1.0, "value": 0.9},
                    {"state": "w0", "eigenvalue": -1.0, "value": 0.9},
                    {"state": "w1", "eigenvalue": 1.0, "value": 0.5},
                    {"state": "w1", "eigenvalue": -1.0, "value": 0.5},
                ]
            },
        }
        report = run_scenario(config)
        values = {r.name: r.value for r in report.records}
        assert values["proper_conditional"] == pytest.approx(0.45 / 0.7, abs=1e-12)
        assert values["qm_conditional"] == pytest.approx(0.5, abs=1e-12)
        assert values["divergence"] == pytest.approx(0.45 / 0.7 - 0.5, abs=1e-12)

    def test_hv_verify_scenario(self):
        config = {
            "scenario_type": "hv-verify",
            "properties": ["f"],
            "microstates": [["f"], []],
            "weights": [0.6, 0.4],
            "micro_detection": {
                "default": 1.0,
                "entries": [{"microstate": 0, "property": "f", "value": 0.5}],
            },
            "property": "f",
        }
        report = run_scenario(config)
        values = {r.name: r.value for r in report.records}
        assert values["p_t"] == pytest.approx(0.3, abs=1e-15)
        assert values["p_d"] == pytest.approx(0.7, abs=1e-15)
        assert values["p"] == pytest.approx(3.0 / 7.0, abs=1e-15)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("weights",), [0.6, 0.5], "field 'weights': weights sum to 1.1, not 1"),
            (("microstates", 1), ["g"], "field 'microstates'[1][0]: 'g' not among ['f']"),
            (
                ("micro_detection", "entries", 0, "microstate"),
                5,
                "field 'micro_detection'.entries[0].microstate: "
                "expected an integer in [0, 1], got 5",
            ),
            (
                ("micro_detection", "entries", 0, "property"),
                "g",
                "field 'micro_detection'.entries[0].property: 'g' not among ['f']",
            ),
            (
                ("properties",),
                ["f", "f"],
                "field 'properties': property labels must be distinct, got ['f', 'f']",
            ),
            (
                ("weights",),
                [1.0],
                "field 'weights': expected 2 weights, one per microstate, got 1",
            ),
            (
                ("weights",),
                [1.25, -0.25],
                "field 'weights'[1]: expected a finite number >= 0, got -0.25",
            ),
            (("property",), "g", "field 'property': 'g' not among ['f']"),
        ],
        ids=[
            "weights-sum",
            "microstate-unknown-property",
            "micro-detection-microstate-out-of-range",
            "micro-detection-unknown-property",
            "duplicate-properties",
            "weight-count",
            "negative-weight",
            "unknown-property",
        ],
    )
    def test_hv_verify_errors_name_their_field(self, path, value, message):
        config = mutated("hv_verify", path, value)
        for check in (validate_config, run_scenario):
            with pytest.raises(ConfigError) as excinfo:
                check(config)
            assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "repeat, message",
        [
            (
                REPEATED_MICRO_DETECTION,
                "field 'micro_detection'.entries[1]: repeats the (microstate, property) "
                "pair (0, 'f') of an earlier entry",
            ),
            (
                REPEATED_DETECTION,
                "field 'detection_model'.entries[2]: repeats the (state, eigenvalue) "
                "pair ('S', 1.0) of an earlier entry",
            ),
        ],
        ids=["micro-detection", "detection-model"],
    )
    def test_repeated_detection_entry_names_the_later_entry(self, repeat, message):
        config = appended(*repeat)
        for check in (validate_config, run_scenario):
            with pytest.raises(ConfigError) as excinfo:
                check(config)
            assert str(excinfo.value) == message

    def test_ghz_quantum_scenario_defaults(self):
        report = run_scenario({"scenario_type": "ghz-quantum"})
        values = [r.value for r in report.records]
        assert values == pytest.approx([1.0, -1.0, -1.0, -1.0], abs=1e-12)

    def test_ghz_local_model_scenario(self):
        report = run_scenario({"scenario_type": "ghz-local-model"})
        values = {r.name: r.value for r in report.records}
        assert values["feasible"] == 1.0
        assert values["max_residual"] <= 1e-9
        forced = run_scenario(
            {"scenario_type": "ghz-local-model", "min_efficiency": 1.0}
        )
        assert {r.name: r.value for r in forced.records}["feasible"] == 0.0


class TestEmitReport:
    def test_single_record_csv(self, tmp_path):
        report = RunReport("demo", {}, [Record("x", 0.5, None)])
        path = tmp_path / "out.csv"
        emit_report(report, "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines == ["scenario,record_name,value,residual", "demo,x,0.5,"]

    def test_json_roundtrip_exact(self):
        values = [0.1, 1.0 / 3.0, 2.0 ** -0.25, 1e-17, 123456.789]
        report = RunReport(
            "demo", {"seed": 7}, [Record(f"v{i}", v, v) for i, v in enumerate(values)]
        )
        parsed = json.loads(render_report(report, "json"))
        for i, v in enumerate(values):
            assert parsed["results"][i]["value"] == v
            assert parsed["results"][i]["residual"] == v

    def test_bell_scan_grid_rows_in_order(self):
        grid = [i / 10 for i in range(11)]
        config = {
            "scenario_type": "bell-scan",
            "angles_deg": [0.0, 60.0, 120.0],
            "d_grid": grid,
        }
        report = run_scenario(config)
        csv = render_report(report, "csv").splitlines()
        assert len(csv) == 1 + 11  # header + one row per grid point
        for d, line in zip(grid, csv[1:]):
            assert line.startswith(f"bell-scan,lhs[d={d:.17g}]")

    def test_undefined_values_serialize_as_empty_or_null(self):
        report = RunReport("demo", {}, [Record("undefined", None, None)])
        assert "demo,undefined,," in render_report(report, "csv")
        parsed = json.loads(render_report(report, "json"))
        assert parsed["results"][0]["value"] is None


def _reference_json(obj) -> str:
    """The recursive JSON writer reports used before lists and records were
    formatted in bulk; kept only as a character-for-character reference."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return f"{float(obj):.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_reference_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_reference_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _reference_render(report: RunReport, fmt: str) -> str:
    """``render_report`` as it was written with ``_reference_json``."""
    def number(x):
        return f"{float(x):.17g}"

    if fmt == "csv":
        lines = ["scenario,record_name,value,residual"]
        for r in report.records:
            value = number(r.value) if r.value is not None else ""
            residual = number(r.residual) if r.residual is not None else ""
            lines.append(f"{report.scenario},{r.name},{value},{residual}")
        return "\n".join(lines) + "\n"
    doc = {
        "scenario": report.scenario,
        "config": report.config,
        "results": [
            {"name": r.name, "value": r.value, "residual": r.residual}
            for r in report.records
        ],
        "diagnostics": report.diagnostics,
    }
    return _reference_json(doc) + "\n"


ODD_LABEL = 'ψ "quoted" \\ back\\slash ü'


def relabelled(config, old: str, new: str):
    """``config`` with every string ``old`` in it replaced by ``new``."""
    if isinstance(config, dict):
        return {k: relabelled(v, old, new) for k, v in config.items()}
    if isinstance(config, list):
        return [relabelled(v, old, new) for v in config]
    return new if config == old else config


class TestRenderMatchesReference:
    def assert_same(self, report: RunReport):
        for fmt in ("csv", "json"):
            assert render_report(report, fmt) == _reference_render(report, fmt)

    def test_shipped_and_generated_configs(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(CONFIG_DIR.parent / "bench"))
        from gen import write_cli_inputs

        entries = write_cli_inputs(301, CONFIG_DIR, tmp_path)["entries"]
        assert len(entries) == 22
        for entry in entries:
            config = json.loads(Path(entry["path"]).read_text())
            if entry["samples"] is not None:
                config["samples"] = entry["samples"]
            self.assert_same(run_scenario(config))

    def test_int_and_negative_zero_matrix_entries(self):
        config = triple_config()
        config["state"] = [[[1, 0], [0, -0.0]], [[-0.0, 0], [0, -0.0]]]
        config["observable"] = relabelled(Z_OBSERVABLE, 1.0, 1)
        self.assert_same(run_scenario(config))
        luders = {**config, "scenario_type": "luders"}
        self.assert_same(run_scenario(luders))

    @pytest.mark.parametrize("name, label", [("mixture_divergence", "w0"), ("hv_verify", "f")])
    def test_labels_with_escapes(self, name, label):
        self.assert_same(run_scenario(relabelled(SHIPPED[name], label, ODD_LABEL)))

    def test_self_test_diagnostics(self, monkeypatch):
        from esrsim import selftest

        failed = selftest.SuiteResult("chsh-bound", False, 1, 0.5, f'lhs "{ODD_LABEL}"')
        passed = selftest.SuiteResult("lp-certificate", True, 2, float("inf"))
        report = selftest.SelfTestReport((failed, passed))
        monkeypatch.setattr(selftest, "run_self_test", lambda: report)
        self.assert_same(run_scenario({"scenario_type": "self-test"}))

    def test_odd_values(self):
        config = {
            "empty": [], "ints": [1, -2, 10**20], "mixed": [[1, 0.5], [-0.0, 2]],
            "none": None, "flags": [True, False], "pair_of_flags": [[True, 1.0]],
            "tuple": (0.25, 1e-300), "numpy": [np.float64(0.1), [np.float64(2.0), 1.0]],
            "nested": {'k"ey': [[1e22, -0.0], []], 3: ODD_LABEL}, ODD_LABEL: [[None, 1.0]],
        }
        records = [
            Record("third", np.float64(1 / 3), None),
            Record(ODD_LABEL, None, np.float64(0.5)),
            Record("ints", 7, 2**70),
            Record("flags", True, False),
            Record("undefined", None, None),
            Record("tiny", -0.0, 5e-324),
        ]
        self.assert_same(RunReport("demo", config, records, {"status": "fail", "x": ODD_LABEL}))
        self.assert_same(RunReport("demo", {}, [], {}))


class TestDeterminism:
    def test_identical_seeds_identical_bytes(self):
        a = render_report(run_scenario(monte_carlo_config()), "csv")
        b = render_report(run_scenario(monte_carlo_config()), "csv")
        assert a == b
        ja = render_report(run_scenario(monte_carlo_config()), "json")
        jb = render_report(run_scenario(monte_carlo_config()), "json")
        assert ja == jb

    def test_monte_carlo_counts_match_sample_outcomes(self):
        # The runner's counts, drawn in chunks, and one sample_outcomes call
        # consume the same draws; the second count ends in a partial chunk.
        dm = DetectionModel(assignment={("S", 1.0): 0.9, ("S", -1.0): 0.5})
        for samples in (5000, 2 * _MC_CHUNK + 3):
            report = run_scenario(monte_carlo_config(seed=7, samples=samples))
            freqs = {r.name: r.value for r in report.records}
            draws = sample_outcomes(
                plus_density(), z_generalized(), dm, np.random.default_rng(7), samples
            )
            for outcome, name in ((1.0, "freq[1]"), (-1.0, "freq[-1]"), ("a0", "freq[a0]")):
                assert freqs[name] == draws.count(outcome) / samples

    def test_different_seeds_differ(self):
        a = render_report(run_scenario(monte_carlo_config(seed=1)), "csv")
        b = render_report(run_scenario(monte_carlo_config(seed=2)), "csv")
        assert a != b

    def test_config_roundtrip_through_json_report(self):
        report = run_scenario(monte_carlo_config())
        echoed = json.loads(render_report(report, "json"))["config"]
        rerun = run_scenario(echoed)
        assert render_report(rerun, "csv") == render_report(report, "csv")

    def test_scan_reports_do_not_depend_on_earlier_runs(self):
        # Operator caches live for the whole process; a report must come out
        # with the same bytes whatever ran before it.  The signed-zero scans
        # share every key with the shipped ones but for the sign of zero.
        def reports():
            return [
                render_report(run_scenario(SHIPPED[name]), fmt)
                for name in ("chsh_scan", "bell_scan")
                for fmt in ("csv", "json")
            ]

        clear_operator_caches()
        first = reports()
        others = [
            {"scenario_type": "bell-scan", "angles_deg": [-0.0, 60.0, 120.0],
             "d_grid": [-0.0, 0.5, 1.0]},
            {"scenario_type": "chsh-scan", "angles_deg": [-0.0, 90.0, 45.0, 135.0],
             "d_grid": [0.3, 0.9]},
            {"scenario_type": "bell-scan", "angles_deg": [10.0, 75.0, 170.0],
             "d_grid": [0.2, 0.6, 1.0]},
            SHIPPED["ghz_local_model"],
        ]
        for config in others:
            render_report(run_scenario(config), "json")
        assert reports() == first


class TestShippedConfigs:
    def test_all_sample_configs_validate(self):
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert paths, "sample configs missing"
        for path in paths:
            validate_config(json.loads(path.read_text()))


class TestCommandLine:
    """``esr-sim`` commands, run in this process through ``cli.main`` unless a
    check needs a process of its own (``_run``)."""

    def _run(self, *args, **kwargs):
        return subprocess.run(
            [sys.executable, "-m", "esrsim", *args],
            capture_output=True,
            text=True,
            **kwargs,
        )

    @pytest.fixture
    def esr_sim(self, capsys):
        """``esr-sim ARGS`` in this process: its exit code, stdout and stderr."""
        def run(*args):
            code = main(list(args))
            out, err = capsys.readouterr()
            return subprocess.CompletedProcess(args, code, out, err)

        return run

    def test_self_test_subcommand_passes(self, esr_sim):
        result = esr_sim("self-test")
        assert result.returncode == 0
        assert "self-test: PASS" in result.stdout
        assert result.stdout.count("PASS") >= 6  # five suites plus summary

    def test_run_and_validate_and_exit_codes(self, tmp_path, esr_sim):
        path = tmp_path / "scan.json"
        path.write_text(
            json.dumps(
                {
                    "scenario_type": "chsh-scan",
                    "angles_deg": [0.0, 90.0, 45.0, 135.0],
                    "d_grid": [0.5, 1.0],
                }
            )
        )
        run = esr_sim("run", "--scenario", str(path))
        assert run.returncode == 0
        assert "threshold,0.84089" in run.stdout

        validate = esr_sim("validate", "--scenario", str(path))
        assert validate.returncode == 0
        assert "OK" in validate.stdout

    def test_missing_field_exits_2(self, tmp_path, esr_sim):
        path = tmp_path / "bad.json"
        config = triple_config()
        del config["state"]
        path.write_text(json.dumps(config))
        result = esr_sim("run", "--scenario", str(path))
        assert result.returncode == 2
        assert "config error" in result.stderr
        assert "state" in result.stderr

    @pytest.mark.parametrize(
        "config, field",
        [
            ({**monte_carlo_config(), "samples": 0}, "samples"),
            ({"scenario_type": "ghz-local-model", "min_efficiency": 2.0}, "min_efficiency"),
            (
                {"scenario_type": "ghz-local-model", "min_joint_detection": -0.5},
                "min_joint_detection",
            ),
            ({**triple_config(), "observable": DEGENERATE_OBSERVABLE}, "observable"),
            (
                {
                    "scenario_type": "evolve",
                    "dimension": 2,
                    "state": PLUS_STATE,
                    "hamiltonian": DEGENERATE_OBSERVABLE,
                    "time": 1.0,
                },
                "hamiltonian",
            ),
            (
                {
                    "scenario_type": "hv-verify",
                    "properties": ["f", "g"],
                    "microstates": ["fg", []],
                    "weights": [0.5, 0.5],
                    "property": "f",
                },
                "field 'microstates'[0]",
            ),
            (
                {
                    "scenario_type": "hv-verify",
                    "properties": ["f"],
                    "microstates": [["f"], []],
                    "weights": [float("nan"), 0.4],
                    "property": "f",
                },
                "field 'weights'[0]",
            ),
            (nan_weight_mixture_config(), "field 'components'[1].weight"),
            (
                mutated("probability_triple", ("detection_model", "entries", 0, "state"), ["S"]),
                "field 'detection_model'.entries[0].state",
            ),
            (
                mutated("probability_triple", ("detection_model", "entries"), 5),
                "field 'detection_model'.entries",
            ),
            (
                mutated("hv_verify", ("micro_detection", "entries"), 3),
                "field 'micro_detection'.entries",
            ),
            (mutated("probability_triple", ("state_label",), [1]), "field 'state_label'"),
            (
                mutated("mixture_divergence", ("components", 0, "label"), ["w0"]),
                "field 'components'[0].label",
            ),
            (
                {**triple_config(), "detection_modle": SKEWED_DETECTION},
                "field 'detection_modle'",
            ),
            (dimension_65_config(), "field 'dimension'"),
            (mutated("bell_scan", ("seed",), 3), "field 'seed'"),
            (
                mutated("hv_verify", ("micro_detection", "entries", 0, "microstate"), True),
                "field 'micro_detection'.entries[0].microstate",
            ),
            (mutated("mixture_divergence", ("sigma",), []), "field 'sigma'"),
            ({"scenario_type": []}, "field 'scenario_type'"),
            (evolve_config(eigenvalues=(2.0, -2.0), time=1e308), "field 'time'"),
            (evolve_config(eigenvalues=(1e306, -1e306), time=100.0), "field 'time'"),
            (appended(*REPEATED_MICRO_DETECTION), "field 'micro_detection'.entries[1]"),
            (appended(*REPEATED_DETECTION), "field 'detection_model'.entries[2]"),
            # A joint-detection mass is a probability.
            (
                {"scenario_type": "ghz-local-model", "min_joint_detection": 2.0},
                "field 'min_joint_detection'",
            ),
            (
                {"scenario_type": "ghz-local-model", "min_joint_detection": 1e308},
                "field 'min_joint_detection'",
            ),
        ],
    )
    def test_validate_and_run_agree_on_invalid_fields(self, tmp_path, esr_sim, config, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        for command in ("validate", "run"):
            result = esr_sim(command, "--scenario", str(path))
            assert result.returncode == 2, (command, result.stderr)
            assert field in result.stderr

    @pytest.mark.parametrize(
        "config, line",
        [
            (
                mutated("probability_triple", ("state",), TRACE_TWO_STATE),
                "field 'state': trace deviates from 1 by 1.000e+00",
            ),
            (
                {**SHIPPED["bell_scan"], "state": TRACE_TWO_STATE_4},
                "field 'state': trace deviates from 1 by 1.000e+00",
            ),
            (
                mutated("mixture_divergence", ("components", 0, "state"), TRACE_TWO_STATE),
                "field 'components'[0].state: trace deviates from 1 by 1.000e+00",
            ),
            (
                mutated(
                    "mixture_divergence", ("components",), [{"weight": 1.0, "state": MIXED_STATE}]
                ),
                "field 'components': component 'component0' is not pure: Tr[rho^2] = 0.5",
            ),
            (
                mutated("probability_triple", ("sigma",), [2.0]),
                "field 'sigma': eigenvalue 2.0 not in spectrum (1.0, -1.0)",
            ),
            (
                mutated("probability_triple", ("sigma",), [1.0, 1.0]),
                "field 'sigma': sigma contains duplicates",
            ),
        ],
        ids=[
            "triple-state-trace",
            "bell-state-trace",
            "component-state-trace",
            "impure-component",
            "sigma-outside-spectrum",
            "sigma-duplicates",
        ],
    )
    def test_library_rejections_exit_2_at_their_field(self, tmp_path, esr_sim, config, line):
        # The library's own message, prefixed with the path of the field it came from.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        for command in ("validate", "run"):
            result = esr_sim(command, "--scenario", str(path))
            assert (result.returncode, result.stderr) == (2, f"config error: {line}\n"), command

    def test_seed_and_samples_flags_only_for_monte_carlo(self, esr_sim):
        path = CONFIG_DIR / "bell_scan.json"
        for flag in ("seed", "samples"):
            result = esr_sim("run", "--scenario", str(path), f"--{flag}", "3")
            assert result.returncode == 2, result.stderr
            assert f"field '{flag}'" in result.stderr

    def test_samples_above_the_cap_exit_2(self, tmp_path, esr_sim):
        # An accepted config must finish: 10^12 draws would take hours.
        assert validate_config({**monte_carlo_config(), "samples": cli.MAX_SAMPLES})
        for samples in (cli.MAX_SAMPLES + 1, 2**53):
            with pytest.raises(ConfigError, match="field 'samples'"):
                validate_config({**monte_carlo_config(), "samples": samples})
        large = tmp_path / "large.json"
        large.write_text(json.dumps({**monte_carlo_config(), "samples": 10**12}))
        runs = [("--scenario", str(large)), ("--scenario", str(CONFIG_DIR / "monte_carlo.json"),
                                             "--samples", "9007199254740992")]
        for args in runs:
            result = esr_sim("run", *args)
            assert result.returncode == 2, result.stderr
            assert "field 'samples'" in result.stderr

    def test_malformed_json_exits_2_with_line(self, tmp_path, esr_sim):
        path = tmp_path / "broken.json"
        path.write_text('{"scenario_type": "ghz-quantum",\n  "oops"\n}')
        result = esr_sim("run", "--scenario", str(path))
        assert result.returncode == 2
        assert "line" in result.stderr

    def test_duplicate_key_exits_2_naming_it(self, tmp_path, esr_sim):
        # Raw text: json.dumps cannot write a repeated key.
        path = tmp_path / "duplicate.json"
        path.write_text(
            '{"scenario_type": "ghz-local-model",'
            ' "min_efficiency": 0.5, "min_efficiency": 1.0}'
        )
        nested = tmp_path / "nested.json"
        nested.write_text(
            '{"scenario_type": "probability-triple", "dimension": 2,'
            ' "detection_model": {"default": 0.5, "default": 0.9}}'
        )
        for config, key in ((path, "min_efficiency"), (nested, "default")):
            for command in ("validate", "run"):
                result = esr_sim(command, "--scenario", str(config))
                assert result.returncode == 2, (command, result.stdout)
                assert f"duplicate key '{key}'" in result.stderr

    def test_computation_error_exits_3(self, tmp_path):
        # Lueders update on an impossible outcome fails at run time, not parse time.
        config = triple_config()
        config["scenario_type"] = "luders"
        config["state"] = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        config["detection_model"] = 1.0
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps(config))
        result = self._run("run", "--scenario", str(path))
        assert result.returncode == 3
        assert "computation error" in result.stderr

    def test_seed_override_changes_output(self, tmp_path):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(monte_carlo_config(samples=5000)))
        a = self._run("run", "--scenario", str(path), "--seed", "1")
        b = self._run("run", "--scenario", str(path), "--seed", "1")
        c = self._run("run", "--scenario", str(path), "--seed", "2")
        assert a.returncode == b.returncode == c.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout != c.stdout

    def test_ghz_context_never_jointly_detected_is_undefined(self, tmp_path, esr_sim):
        # With no joint-detection floor the model found leaves XXX and YYX
        # undetected; their conditional correlations are 0/0, reported empty.
        path = tmp_path / "ghz.json"
        path.write_text(
            json.dumps({"scenario_type": "ghz-local-model", "min_joint_detection": 0})
        )
        result = esr_sim("run", "--scenario", str(path))
        assert result.returncode == 0, result.stderr
        rows = dict(line.split(",", 2)[1:] for line in result.stdout.splitlines()[1:])
        assert rows["feasible"] == "1,"
        assert rows["correlation_XXX"] == rows["correlation_YYX"] == ","
        assert rows["correlation_XYY"] == "-1,0"

    @pytest.mark.parametrize(
        "p, min_efficiency, min_joint_detection", [(0.94, 0.05, 0.0), (0.96, 0.1, 0.3)]
    )
    def test_noisy_ghz_searches_decide(
        self, tmp_path, esr_sim, monkeypatch, p, min_efficiency, min_joint_detection
    ):
        # p|GHZ><GHZ| + (1 - p)I/8: configs that pass validate.  Bland's rule
        # alone ended these runs with exit 3, at a point failing its
        # certificate and at "phase-one unbounded".
        monkeypatch.syspath_prepend(str(CONFIG_DIR.parent / "bench"))
        import oracle

        rho = p * correlations.ghz_state().matrix + (1 - p) * np.eye(8) / 8
        # The oracle checks against the standard state's targets; give it
        # this state's, Tr[rho A (x) B (x) C], from np.kron.
        pauli = {"X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]])}
        targets = tuple(
            float(np.trace(rho @ np.kron(np.kron(pauli[a], pauli[b]), pauli[c])).real)
            for a, b, c in ("XXX", "XYY", "YXY", "YYX")
        )
        monkeypatch.setattr(oracle, "GHZ_TARGETS", targets)
        config = {
            "scenario_type": "ghz-local-model",
            "state": [[[z.real, z.imag] for z in row] for row in rho.tolist()],
            "min_efficiency": min_efficiency,
            "min_joint_detection": min_joint_detection,
        }
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(config))
        assert esr_sim("validate", "--scenario", str(path)).returncode == 0
        for fmt in ("csv", "json"):
            report = tmp_path / f"report.{fmt}"
            result = esr_sim("run", "--scenario", str(path), "--format", fmt, "--output", str(report))
            assert result.returncode == 0, result.stderr
            ck = oracle.Checker()
            records = oracle.parse_report(report.read_bytes(), fmt)
            assert records["feasible"][0] == 1.0
            oracle.check_cli(config, None, records, oracle.GHZOracle(), ck)
            assert ck.problems == []

    @pytest.mark.parametrize(
        "config, needed, unused",
        [
            (
                "probability_triple",
                ("esrsim.linalg", "esrsim.measurement"),
                ("esrsim.mixtures", "esrsim.correlations", "esrsim.hidden_variables",
                 "esrsim.simplex", "esrsim.selftest", "dataclasses"),
            ),
            (
                "bell_scan",
                ("esrsim.correlations",),
                ("esrsim.hidden_variables", "esrsim.simplex", "esrsim.selftest"),
            ),
            (
                "chsh_scan",
                ("esrsim.correlations",),
                ("esrsim.hidden_variables", "esrsim.simplex", "esrsim.selftest"),
            ),
            # The exact LP fallback imports fractions only when it runs.
            ("ghz_local_model", ("esrsim.hidden_variables", "esrsim.simplex"), ("fractions",)),
        ],
        ids=["triple", "bell", "chsh", "ghz-lp"],
    )
    def test_run_imports_only_the_modules_its_scenario_needs(
        self, tmp_path, config, needed, unused
    ):
        script = (
            "import json, sys\n"
            "import esrsim\n"
            "bare = sorted(m for m in sys.modules if m.startswith('esrsim.'))\n"
            "from esrsim.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps([code, bare, sorted(sys.modules)]))\n"
        )
        scenario = str(CONFIG_DIR / f"{config}.json")
        result = subprocess.run(
            [sys.executable, "-c", script, "run", "--scenario", scenario,
             "--output", str(tmp_path / "report.csv")],
            capture_output=True,
            text=True,
        )
        exit_code, bare, loaded = json.loads(result.stdout)
        assert exit_code == 0, result.stderr
        assert bare == []
        assert [name for name in needed if name not in loaded] == []
        assert [name for name in unused if name in loaded] == []

    @pytest.mark.parametrize(
        "path, field, message",
        [
            (("observable", "projectors", 0, 0, 0, 0), "observable",
             "projector for 1.0 fails P^2 = P = P^dagger by inf; "
             "projectors sum deviates from identity by 1.000e+308"),
            (("state", 0, 0, 0), "state", "trace deviates from 1 by 1.000e+308"),
        ],
        ids=["projector", "state"],
    )
    def test_overflowing_entry_exits_2_without_a_numpy_warning(
        self, tmp_path, path, field, message
    ):
        # An entry of 1e308 overflows inside the validators; the report names
        # the field and numpy prints nothing before it, so a warning turned
        # into an error cannot make the run exit 3.
        config = json.loads((CONFIG_DIR / "probability_triple.json").read_text())
        node_at(config, path[:-1])[path[-1]] = 1e308
        scenario = tmp_path / "overflow.json"
        scenario.write_text(json.dumps(config))
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "esrsim",
             "run", "--scenario", str(scenario)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"config error: field '{field}': {message}\n"

    @pytest.mark.parametrize(
        "args",
        [("run", "--scenario", str(CONFIG_DIR / "ghz_local_model.json")), ("self-test",)],
        ids=["run-ghz-local-model", "self-test"],
    )
    def test_lp_commands_load_no_scipy(self, args, tmp_path):
        # The LP verdicts come from esrsim's own simplex: numpy is the only
        # numerical dependency of the commands that solve LPs.
        listing = tmp_path / "modules.json"
        script = (
            "import json, sys\n"
            "from esrsim.cli import main\n"
            "code = main(sys.argv[2:])\n"
            "with open(sys.argv[1], 'w') as out:\n"
            "    json.dump([code, sorted(sys.modules)], out)\n"
        )
        if args[0] == "run":
            args = (*args, "--output", str(tmp_path / "report.csv"))
        result = subprocess.run(
            [sys.executable, "-c", script, str(listing), *args],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        exit_code, loaded = json.loads(listing.read_text())
        assert exit_code == 0, result.stderr
        assert "esrsim.simplex" in loaded
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []

    def test_output_file_and_json_format(self, tmp_path, esr_sim):
        scenario = tmp_path / "ghz.json"
        scenario.write_text(json.dumps({"scenario_type": "ghz-quantum"}))
        out = tmp_path / "report.json"
        result = esr_sim(
            "run", "--scenario", str(scenario), "--format", "json",
            "--output", str(out),
        )
        assert result.returncode == 0
        parsed = json.loads(out.read_text())
        assert parsed["scenario"] == "ghz-quantum"
        assert parsed["results"][0]["value"] == 1.0


SWAP_VALUES = [None, True, "x", [], {}, float("nan"), float("inf"), -1, 0, 65, 1e308]


def node_paths(node, prefix=()):
    """The path of ``node`` and of every value nested in it."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from node_paths(child, prefix + (key,))


class TestConfigFuzz:
    """Mutated shipped configs: rejected with ConfigError, or run to completion."""

    @settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_mutated_shipped_configs(self, data):
        name = data.draw(st.sampled_from(sorted(SHIPPED)))
        config = copy.deepcopy(SHIPPED[name])
        paths = list(node_paths(config))
        kind = data.draw(st.sampled_from(["drop", "add", "swap"]))
        if kind == "add":
            objects = [p for p in paths if isinstance(node_at(config, p), dict)]
            node_at(config, data.draw(st.sampled_from(objects)))["unknown_key"] = 1
            with pytest.raises(ConfigError, match="unknown_key"):
                validate_config(config)
            return
        if kind == "drop":
            keyed = [p for p in paths if p and isinstance(p[-1], str)]
            path = data.draw(st.sampled_from(keyed))
            del node_at(config, path[:-1])[path[-1]]
        else:
            path = data.draw(st.sampled_from(paths[1:]))
            node_at(config, path[:-1])[path[-1]] = data.draw(st.sampled_from(SWAP_VALUES))
        try:
            validate_config(config)
        except ConfigError:
            return
        run_scenario(config)
