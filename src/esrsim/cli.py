"""Batch scenario runner: JSON configs in, CSV/JSON numeric reports out.

Every run is deterministic for a fixed (config, seed) pair.  The random
generator is numpy's default PCG64 seeded from the config, so streams are
reproducible across platforms.  Reports carry flat named numeric records; the
CSV layout is exactly ``scenario,record_name,value,residual`` with floats at
17 significant digits, and the JSON document mirrors the report structure and
round-trips numerically.  Wall time is measured but deliberately kept out of
the emitted bytes so identical runs emit identical reports.

Exit codes: 0 success, 2 config error, 3 computation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import correlations, hidden_variables, mixtures, selftest
from .linalg import DensityOperator, SpectralObservable
from .measurement import (
    DetectionModel,
    GeneralizedObservable,
    Property,
    luders_update,
    outcome_distribution,
    probability_triple,
    sample_indices,
    unitary_evolve,
)

__all__ = ["ConfigError", "Record", "RunReport", "run_scenario", "emit_report", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3

DEFAULT_SEED = 0
DEFAULT_SAMPLES = 10000


class ConfigError(Exception):
    """Scenario configuration is malformed; reported with a field path."""


@dataclass(frozen=True)
class Record:
    name: str
    value: float | None
    residual: float | None = None


@dataclass
class RunReport:
    scenario: str
    config: dict
    records: list[Record]
    diagnostics: dict = field(default_factory=dict)
    wall_time_s: float = 0.0  # measured, never serialized


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    return _is_number(x) and math.isfinite(float(x))


def _get(config: dict, key: str, required: bool = True, default=None):
    if key not in config:
        if required:
            raise ConfigError(f"missing required field '{key}'")
        return default
    return config[key]


def _get_number(config: dict, key: str, required: bool = True, default=None) -> float:
    value = _get(config, key, required, default)
    if value is default and not required:
        return default
    if not _is_finite_number(value):
        raise ConfigError(f"field '{key}': expected a finite number, got {value!r}")
    return float(value)


def _get_int(config: dict, key: str, required: bool = True, default=None) -> int:
    value = _get(config, key, required, default)
    if value is default and not required:
        return default
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"field '{key}': expected a nonnegative integer, got {value!r}")
    return int(value)


def _parse_complex_entry(node, path: str) -> complex:
    if (
        not isinstance(node, list)
        or len(node) != 2
        or not all(_is_finite_number(v) for v in node)
    ):
        raise ConfigError(f"{path}: expected a finite [re, im] pair, got {node!r}")
    return complex(float(node[0]), float(node[1]))


def _parse_complex_matrix(node, path: str, dim: int | None = None) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{path}: expected a nested array of [re, im] pairs")
    rows = len(node)
    matrix = np.zeros((rows, rows), dtype=complex)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != rows:
            raise ConfigError(f"{path}[{i}]: expected a row of {rows} entries")
        for j, entry in enumerate(row):
            matrix[i, j] = _parse_complex_entry(entry, f"{path}[{i}][{j}]")
    if dim is not None and rows != dim:
        raise ConfigError(f"{path}: matrix is {rows}x{rows}, expected {dim}x{dim}")
    return matrix


def _parse_density(config: dict, key: str, dim: int | None) -> DensityOperator:
    matrix = _parse_complex_matrix(_get(config, key), f"field '{key}'", dim)
    try:
        return DensityOperator(matrix)
    except ValueError as exc:
        raise ConfigError(f"field '{key}': {exc}") from exc


def _parse_observable(node, path: str, dim: int | None) -> GeneralizedObservable:
    """Parse a spectral decomposition; ``GeneralizedObservable`` validates it."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object with eigenvalues and projectors")
    eigenvalues = node.get("eigenvalues")
    projectors = node.get("projectors")
    if not isinstance(eigenvalues, list) or not all(_is_number(v) for v in eigenvalues):
        raise ConfigError(f"{path}.eigenvalues: expected a list of numbers")
    if not isinstance(projectors, list) or len(projectors) != len(eigenvalues):
        raise ConfigError(
            f"{path}.projectors: expected {len(eigenvalues or [])} projector matrices"
        )
    mats = [
        _parse_complex_matrix(p, f"{path}.projectors[{k}]", dim)
        for k, p in enumerate(projectors)
    ]
    try:
        return GeneralizedObservable(
            SpectralObservable(eigenvalues=eigenvalues, projectors=mats)
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_detection(node, path: str) -> DetectionModel:
    if node is None:
        return DetectionModel.uniform(1.0)
    if _is_number(node):
        value = float(node)
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{path}: detection probability {value} outside [0, 1]")
        return DetectionModel.uniform(value)
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a number or an object")
    default = node.get("default", 1.0)
    if not _is_number(default) or not 0.0 <= float(default) <= 1.0:
        raise ConfigError(f"{path}.default: expected a probability, got {default!r}")
    table = {}
    for k, entry in enumerate(node.get("entries", [])):
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}.entries[{k}]: expected an object")
        state = entry.get("state")
        ev = entry.get("eigenvalue")
        value = entry.get("value")
        if state is None or not _is_number(ev) or not _is_number(value):
            raise ConfigError(
                f"{path}.entries[{k}]: need 'state', numeric 'eigenvalue' and 'value'"
            )
        if not 0.0 <= float(value) <= 1.0:
            raise ConfigError(f"{path}.entries[{k}].value: {value} outside [0, 1]")
        table[(state, float(ev))] = float(value)
    return DetectionModel(assignment=table, default_value=float(default))


def _parse_angles(config: dict, count: int) -> list[float]:
    node = _get(config, "angles_deg")
    if (
        not isinstance(node, list)
        or len(node) != count
        or not all(_is_finite_number(v) for v in node)
    ):
        raise ConfigError(f"field 'angles_deg': expected {count} finite numbers")
    return [math.radians(float(v)) for v in node]


def _parse_grid(config: dict) -> list[float]:
    node = _get(config, "d_grid")
    if not isinstance(node, list) or not node:
        raise ConfigError("field 'd_grid': expected a non-empty list of efficiencies")
    grid = []
    for k, v in enumerate(node):
        if not _is_number(v) or not 0.0 <= float(v) <= 1.0:
            raise ConfigError(f"field 'd_grid'[{k}]: expected a value in [0, 1]")
        grid.append(float(v))
    return grid


def _state_label(config: dict):
    return _get(config, "state_label", required=False, default="S")


# ----------------------------------------------------------------------
# scenario preparation and execution
# ----------------------------------------------------------------------

def _prep_triple_inputs(config: dict) -> dict:
    dim = _get_int(config, "dimension")
    rho = _parse_density(config, "state", dim)
    gen = _parse_observable(_get(config, "observable"), "field 'observable'", dim)
    sigma = _get(config, "sigma")
    if not isinstance(sigma, list) or not sigma or not all(_is_number(v) for v in sigma):
        raise ConfigError("field 'sigma': expected a non-empty list of eigenvalues")
    try:
        prop = Property(gen, tuple(float(v) for v in sigma))
    except ValueError as exc:
        raise ConfigError(f"field 'sigma': {exc}") from exc
    dm = _parse_detection(config.get("detection_model"), "field 'detection_model'")
    return {"rho": rho, "prop": prop, "dm": dm, "label": _state_label(config)}


def _prep_monte_carlo(config: dict) -> dict:
    prepared = _prep_triple_inputs(config)
    samples = _get_int(config, "samples", required=False, default=DEFAULT_SAMPLES)
    if samples < 1:
        raise ConfigError(f"field 'samples': expected a positive integer, got {samples}")
    prepared["samples"] = samples
    prepared["seed"] = _get_int(config, "seed", required=False, default=DEFAULT_SEED)
    return prepared


def _run_probability_triple(prepared: dict):
    triple = probability_triple(
        prepared["rho"], prepared["prop"], prepared["dm"], prepared["label"]
    )
    records = [
        Record("overall", triple.overall),
        Record("detection", triple.detection),
        Record("conditional", triple.conditional),
        Record("product_law_residual", triple.product_law_residual()),
    ]
    return records, {}


def _run_luders(prepared: dict):
    triple = probability_triple(
        prepared["rho"], prepared["prop"], prepared["dm"], prepared["label"]
    )
    updated = luders_update(
        prepared["rho"], prepared["prop"], prepared["dm"], prepared["label"]
    )
    records = [Record("yes_probability", triple.overall)]
    matrix = updated.matrix
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            records.append(Record(f"post_state_{i}_{j}_re", float(matrix[i, j].real)))
            records.append(Record(f"post_state_{i}_{j}_im", float(matrix[i, j].imag)))
    return records, {}


def _prep_evolve(config: dict) -> dict:
    dim = _get_int(config, "dimension")
    rho = _parse_density(config, "state", dim)
    ham = _parse_observable(_get(config, "hamiltonian"), "field 'hamiltonian'", dim).base
    t = _get_number(config, "time")
    return {"rho": rho, "ham": ham, "t": t}


def _run_evolve(prepared: dict):
    rho = prepared["rho"]
    evolved = unitary_evolve(rho, prepared["ham"], prepared["t"])
    before = np.sort(np.linalg.eigvalsh(rho.matrix))
    after = np.sort(np.linalg.eigvalsh(evolved.matrix))
    records = [
        Record(
            "trace_deviation", abs(float(np.trace(evolved.matrix).real) - 1.0)
        ),
        Record("eigenvalue_drift", float(np.max(np.abs(before - after)))),
    ]
    matrix = evolved.matrix
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            records.append(Record(f"evolved_{i}_{j}_re", float(matrix[i, j].real)))
            records.append(Record(f"evolved_{i}_{j}_im", float(matrix[i, j].imag)))
    return records, {}


def _run_monte_carlo(prepared: dict):
    samples = prepared["samples"]
    outcome_set, exact = outcome_distribution(
        prepared["rho"], prepared["prop"].observable, prepared["dm"], prepared["label"]
    )
    rng = np.random.default_rng(prepared["seed"])
    counts = np.bincount(sample_indices(exact, rng, samples), minlength=len(exact))
    records = []
    worst = 0.0
    for outcome, p_exact, count in zip(outcome_set, exact, counts):
        freq = int(count) / samples
        deviation = abs(freq - p_exact)
        worst = max(worst, deviation)
        name = outcome if isinstance(outcome, str) else _fmt(outcome)
        records.append(Record(f"freq[{name}]", freq, deviation))
    records.append(Record("max_deviation", worst))
    return records, {}


def _prep_mixture(config: dict) -> dict:
    dim = _get_int(config, "dimension")
    node = _get(config, "components")
    if not isinstance(node, list) or not node:
        raise ConfigError("field 'components': expected a non-empty list")
    comps = []
    for k, entry in enumerate(node):
        if not isinstance(entry, dict):
            raise ConfigError(f"field 'components'[{k}]: expected an object")
        weight = entry.get("weight")
        if not _is_finite_number(weight):
            raise ConfigError(
                f"field 'components'[{k}].weight: expected a finite number, got {weight!r}"
            )
        state = _parse_complex_matrix(
            entry.get("state"), f"field 'components'[{k}].state", dim
        )
        label = entry.get("label", f"component{k}")
        try:
            comps.append(
                mixtures.ProperComponent(float(weight), DensityOperator(state), label)
            )
        except ValueError as exc:
            raise ConfigError(f"field 'components'[{k}]: {exc}") from exc
    try:
        mixture = mixtures.ProperMixture(comps)
    except ValueError as exc:
        raise ConfigError(f"field 'components': {exc}") from exc
    gen = _parse_observable(_get(config, "observable"), "field 'observable'", dim)
    try:
        sigma = _get(config, "sigma")
        if not isinstance(sigma, list) or not all(_is_number(v) for v in sigma):
            raise ConfigError("field 'sigma': expected a list of eigenvalues")
        prop = Property(gen, tuple(float(v) for v in sigma))
    except ValueError as exc:
        raise ConfigError(f"field 'sigma': {exc}") from exc
    dm = _parse_detection(config.get("detection_model"), "field 'detection_model'")
    return {"mixture": mixture, "prop": prop, "dm": dm}


def _run_mixture_divergence(prepared: dict):
    mixture, prop, dm = prepared["mixture"], prepared["prop"], prepared["dm"]
    overall = mixtures.proper_overall_probability(mixture, prop, dm)
    conditional = mixtures.proper_conditional_probability(mixture, prop, dm)
    p_sigma = prop.observable.base.restriction(prop.sigma)
    born = float(np.trace(mixture.averaged_density().matrix @ p_sigma).real)
    divergence = mixtures.esr_qm_divergence(mixture, prop, dm)
    records = [
        Record("proper_overall", overall),
        Record("proper_conditional", conditional),
        Record("qm_conditional", born),
        Record("divergence", divergence),
    ]
    return records, {}


def _prep_two_party(config: dict, n_angles: int) -> dict:
    angles = _parse_angles(config, n_angles)
    if "state" in config:
        state = _parse_density(config, "state", 4)
    else:
        state = correlations.singlet_state()
    grid = _parse_grid(config)
    return {"angles": angles, "state": state, "grid": grid}


def _run_bell_scan(prepared: dict):
    a, b, c = prepared["angles"]
    records = []
    for d in prepared["grid"]:
        dm = DetectionModel.uniform(d)
        sc = correlations.TwoPartyScenario(
            joint_state=prepared["state"],
            settings={"a": a, "b": b, "c": c},
            detection_a=dm,
            detection_b=dm,
        )
        e_ab = correlations.trichotomic_expectation(sc, "a", "b").value
        e_ac = correlations.trichotomic_expectation(sc, "a", "c").value
        e_bc = correlations.trichotomic_expectation(sc, "b", "c").value
        report = correlations.modified_bell_report(e_ab, e_ac, e_bc)
        records.append(Record(f"lhs[d={_fmt(d)}]", report.lhs, report.margin))
    return records, {}


def _run_chsh_scan(prepared: dict):
    a, d_angle, b, c = prepared["angles"]
    scan = correlations.efficiency_scan(
        prepared["state"],
        {"a": a, "d": d_angle, "b": b, "c": c},
        prepared["grid"],
    )
    records = [
        Record(f"lhs[d={_fmt(row.efficiency)}]", row.lhs, 2.0 - row.lhs)
        for row in scan.rows
    ]
    records.append(Record("threshold", scan.threshold, scan.threshold_tolerance))
    diagnostics = {"threshold_found": "yes" if scan.threshold is not None else "no"}
    return records, diagnostics


def _prep_ghz(config: dict) -> dict:
    if "state" in config:
        state = _parse_density(config, "state", 8)
    else:
        state = correlations.ghz_state(+1)
    return {"scenario": correlations.GHZScenario(joint_state=state)}


def _run_ghz_quantum(prepared: dict):
    values = correlations.ghz_quantum_correlations(prepared["scenario"])
    records = [
        Record(f"E_{name}", value)
        for name, value in zip(correlations.GHZ_CONTEXT_NAMES, values)
    ]
    return records, {}


_PARTY_NAMES = ("A", "B", "C")
_SETTING_NAMES = ("X", "Y")


def _prep_ghz_local_model(config: dict) -> dict:
    prepared = _prep_ghz(config)
    min_eff = _get_number(config, "min_efficiency", required=False, default=0.0)
    if not 0.0 <= min_eff <= 1.0:
        raise ConfigError(f"field 'min_efficiency': {min_eff} outside [0, 1]")
    min_joint = _get_number(
        config,
        "min_joint_detection",
        required=False,
        default=hidden_variables.DEFAULT_MIN_JOINT_DETECTION,
    )
    if min_joint < 0.0:
        raise ConfigError(f"field 'min_joint_detection': {min_joint} is negative")
    prepared["search"] = {"min_efficiency": min_eff, "min_joint_detection": min_joint}
    return prepared


def _run_ghz_local_model(prepared: dict):
    scenario = prepared["scenario"]
    found = correlations.ghz_local_model_search(scenario, **prepared["search"])
    records = [Record("feasible", 1.0 if found.feasible else 0.0)]
    if found.feasible:
        targets = correlations.ghz_quantum_correlations(scenario)
        for name, got, want in zip(
            correlations.GHZ_CONTEXT_NAMES, found.correlations, targets
        ):
            records.append(Record(f"correlation_{name}", got, abs(got - want)))
        for (party, setting), value in sorted(found.efficiencies.items()):
            records.append(
                Record(
                    f"efficiency_{_PARTY_NAMES[party]}_{_SETTING_NAMES[setting]}", value
                )
            )
        for ctx, name in zip(correlations.GHZ_CONTEXTS, correlations.GHZ_CONTEXT_NAMES):
            records.append(Record(f"joint_detection_{name}", found.joint_detection[ctx]))
        records.append(Record("max_residual", found.max_residual))
        records.append(Record("support_size", float(found.support_size)))
    else:
        records.append(Record("phase1_objective", found.phase1_objective))
    records.append(Record("pivots", float(found.pivots)))
    verdict = "feasible" if found.feasible else "infeasible"
    return records, {"verdict": verdict}


def _prep_hv_verify(config: dict) -> dict:
    labels = _get(config, "properties")
    if not isinstance(labels, list) or not labels:
        raise ConfigError("field 'properties': expected a non-empty list of labels")
    states_node = _get(config, "microstates")
    if not isinstance(states_node, list):
        raise ConfigError("field 'microstates': expected a list of label lists")
    for k, state in enumerate(states_node):
        if not isinstance(state, list):
            raise ConfigError(
                f"field 'microstates'[{k}]: expected a list of labels, got {state!r}"
            )
    weights = _get(config, "weights")
    if not isinstance(weights, list):
        raise ConfigError("field 'weights': expected a list of numbers")
    for k, w in enumerate(weights):
        if not _is_finite_number(w):
            raise ConfigError(f"field 'weights'[{k}]: expected a finite number, got {w!r}")
    detection_node = config.get("micro_detection", {})
    if not isinstance(detection_node, dict):
        raise ConfigError("field 'micro_detection': expected an object")
    default = detection_node.get("default", 1.0)
    table = {}
    for k, entry in enumerate(detection_node.get("entries", [])):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("microstate"), int)
            or "property" not in entry
            or not _is_number(entry.get("value"))
        ):
            raise ConfigError(
                f"field 'micro_detection'.entries[{k}]: need integer 'microstate', "
                "'property' and numeric 'value'"
            )
        table[(entry["microstate"], entry["property"])] = float(entry["value"])
    try:
        model = hidden_variables.MicrostateModel(
            property_set=hidden_variables.MicroPropertySet(tuple(labels)),
            microstates=tuple(frozenset(s) for s in states_node),
            weights=tuple(float(w) for w in weights),
            micro_detection=table,
            default_detection=float(default),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"microstate model: {exc}") from exc
    target = _get(config, "property")
    if target not in labels:
        raise ConfigError(f"field 'property': {target!r} not among {labels}")
    return {"model": model, "target": target}


def _run_hv_verify(prepared: dict):
    triple = hidden_variables.macro_from_micro(prepared["model"], prepared["target"])
    records = [
        Record("p_t", triple.overall),
        Record("p_d", triple.detection),
        Record("p", triple.conditional),
        Record("product_law_residual", triple.product_law_residual()),
    ]
    return records, {}


def _run_self_test(prepared: dict):
    report = selftest.run_self_test()
    records = []
    for suite in report.suites:
        deviation = suite.max_deviation if math.isfinite(suite.max_deviation) else None
        records.append(
            Record(f"suite[{suite.name}]", 1.0 if suite.passed else 0.0, deviation)
        )
    diagnostics = {"status": "pass" if report.passed else "fail"}
    for suite in report.suites:
        if not suite.passed and suite.detail:
            diagnostics[suite.name] = suite.detail
    return records, diagnostics


_SCENARIOS = {
    "probability-triple": (_prep_triple_inputs, _run_probability_triple),
    "luders": (_prep_triple_inputs, _run_luders),
    "evolve": (_prep_evolve, _run_evolve),
    "monte-carlo": (_prep_monte_carlo, _run_monte_carlo),
    "mixture-divergence": (_prep_mixture, _run_mixture_divergence),
    "bell-scan": (lambda c: _prep_two_party(c, 3), _run_bell_scan),
    "chsh-scan": (lambda c: _prep_two_party(c, 4), _run_chsh_scan),
    "ghz-quantum": (_prep_ghz, _run_ghz_quantum),
    "ghz-local-model": (_prep_ghz_local_model, _run_ghz_local_model),
    "hv-verify": (_prep_hv_verify, _run_hv_verify),
    "self-test": (lambda c: {}, _run_self_test),
}


def _prepare(config) -> tuple[str, dict]:
    """Parse and validate ``config``; return its scenario type and runner inputs."""
    if not isinstance(config, dict):
        raise ConfigError("top level: expected a JSON object")
    scenario_type = config.get("scenario_type")
    if scenario_type not in _SCENARIOS:
        known = ", ".join(sorted(_SCENARIOS))
        raise ConfigError(
            f"field 'scenario_type': got {scenario_type!r}, expected one of: {known}"
        )
    prep, _ = _SCENARIOS[scenario_type]
    return scenario_type, prep(config)


def validate_config(config) -> str:
    """Run the parse/validation phase only; returns the scenario type."""
    return _prepare(config)[0]


def run_scenario(config: dict) -> RunReport:
    """Validate, dispatch and time one scenario."""
    scenario_type, prepared = _prepare(config)
    runner = _SCENARIOS[scenario_type][1]
    start = time.perf_counter()
    records, diagnostics = runner(prepared)
    elapsed = time.perf_counter() - start
    for record in records:
        for v in (record.value, record.residual):
            if v is not None and not math.isfinite(float(v)):
                raise ValueError(f"record {record.name}: non-finite value {v}")
    return RunReport(
        scenario=scenario_type,
        config=config,
        records=records,
        diagnostics=diagnostics,
        wall_time_s=elapsed,
    )


# ----------------------------------------------------------------------
# report emission
# ----------------------------------------------------------------------

def _json_value(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_report(report: RunReport, fmt: str) -> str:
    if fmt == "csv":
        lines = ["scenario,record_name,value,residual"]
        for r in report.records:
            value = _fmt(r.value) if r.value is not None else ""
            residual = _fmt(r.residual) if r.residual is not None else ""
            lines.append(f"{report.scenario},{r.name},{value},{residual}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "scenario": report.scenario,
            "config": report.config,
            "results": [
                {"name": r.name, "value": r.value, "residual": r.residual}
                for r in report.records
            ],
            "diagnostics": report.diagnostics,
        }
        return _json_value(doc) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def emit_report(report: RunReport, fmt: str, destination: str | None = None) -> None:
    """Write the report as CSV or JSON to a path, or stdout when no path given."""
    text = render_report(report, fmt)
    if destination is None:
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path!r} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esr-sim",
        description="Scenario runner for the detection-conditioned measurement simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario config and emit a report")
    run.add_argument("--scenario", required=True, help="path to a JSON scenario config")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument(
        "--samples", type=int, default=None, help="override the config sample count"
    )
    run.add_argument("--output", default=None, help="report path (default: stdout)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")

    sub.add_parser("self-test", help="run the cross-module invariant suites")

    validate = sub.add_parser("validate", help="validate a scenario config")
    validate.add_argument("--scenario", required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "self-test":
        report = selftest.run_self_test()
        for suite in report.suites:
            status = "PASS" if suite.passed else "FAIL"
            line = f"{status} {suite.name}: {suite.checks} checks, max deviation {suite.max_deviation:.3e}"
            if suite.detail:
                line += f" ({suite.detail})"
            print(line)
        print("self-test:", "PASS" if report.passed else "FAIL")
        return EXIT_OK if report.passed else EXIT_COMPUTE

    if args.command == "validate":
        try:
            scenario_type = validate_config(_load_config(args.scenario))
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"OK: valid {scenario_type} scenario")
        return EXIT_OK

    # run
    try:
        config = _load_config(args.scenario)
        if not isinstance(config, dict):
            raise ConfigError("top level: expected a JSON object")
        if args.seed is not None:
            config["seed"] = args.seed
        if args.samples is not None:
            config["samples"] = args.samples
        report = run_scenario(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # operation-level failure, never a traceback
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE

    try:
        emit_report(report, args.format, args.output)
    except OSError as exc:
        print(f"computation error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_COMPUTE

    print(f"# {report.scenario}: wall time {report.wall_time_s:.3f}s", file=sys.stderr)
    if report.scenario == "self-test" and report.diagnostics.get("status") == "fail":
        return EXIT_COMPUTE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
