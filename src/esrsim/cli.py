"""Batch scenario runner: JSON configs in, CSV/JSON numeric reports out.

Every run is deterministic for a fixed (config, seed) pair.  The random
generator is numpy's default PCG64 seeded from the config, so streams are
reproducible across platforms.  Reports carry flat named numeric records; the
CSV layout is exactly ``scenario,record_name,value,residual`` with floats at
17 significant digits, and the JSON document mirrors the report structure and
round-trips numerically.  Wall time is measured but deliberately kept out of
the emitted bytes so identical runs emit identical reports.

Each scenario type accepts the keys of its field table below (``_SCENARIOS``
maps a type to its table and runner); the README describes them.  Any other
key, at any depth, is a config error, so the ``run --seed`` and ``--samples``
overrides are valid for monte-carlo only.  A key repeated within one JSON
object is a config error too.

Only the modules a scenario runs are imported: ``mixtures``,
``correlations``, ``hidden_variables`` and ``selftest`` are imported inside
the parsers and runners that use them (``correlations`` loads the LP modules
only for the GHZ local-model search), so a probability-triple run loads
``linalg`` and ``measurement`` alone.

Exit codes: 0 success, 2 config error (with a field path), 3 computation error.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import math
import sys
import time

import numpy as np

from .linalg import (
    ARITHMETIC_TOL,
    DEFAULT_MIN_JOINT_DETECTION,
    MIN_COMPONENT_WEIGHT,
    DensityOperator,
    Frozen,
    SpectralObservable,
    left_to_right_sum,
)
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

__all__ = [
    "ConfigError",
    "Record",
    "RunReport",
    "validate_config",
    "run_scenario",
    "render_report",
    "emit_report",
    "main",
    "DEFAULT_SEED",
    "DEFAULT_SAMPLES",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3

DEFAULT_SEED = 0
DEFAULT_SAMPLES = 10000
MAX_DIMENSION = 64
MAX_SAMPLES = 10**9  # about 20 s of Monte Carlo draws at ~21 ms per 10^6
_MC_CHUNK = 1 << 16  # Monte Carlo draws per sample_indices call


class ConfigError(Exception):
    """Scenario configuration is malformed; reported with a field path."""


class Record(Frozen):
    __slots__ = ("name", "value", "residual")

    def __init__(self, name: str, value: float | None, residual: float | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "residual", residual)


class RunReport:
    __slots__ = ("scenario", "config", "records", "diagnostics", "wall_time_s")

    def __init__(self, scenario: str, config: dict, records: list[Record],
                 diagnostics: dict | None = None, wall_time_s: float = 0.0):
        self.scenario = scenario
        self.config = config
        self.records = records
        self.diagnostics = {} if diagnostics is None else diagnostics
        self.wall_time_s = wall_time_s  # measured, never serialized


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ----------------------------------------------------------------------
# config reading
# ----------------------------------------------------------------------
#
# Every object in a config is read by ``_read`` against a field table that
# maps each accepted key to ``(parser, default)``.  A ``_REQUIRED`` default
# makes the key mandatory and a callable default is called for a fresh value;
# a key the table does not list is rejected.  Parsers are called as
# ``parser(value, path, top)``, where ``top`` holds the top-level fields read
# so far; a ``ValueError`` from a parser (a library constructor rejecting the
# value) becomes a ``ConfigError`` at the field's path.  Tables are read in
# order, so a parser can use an earlier field: ``state`` reads ``dimension``,
# ``sigma`` reads ``observable``, and hv-verify's fields are checked against
# ``properties`` and ``microstates``, so that ``MicrostateModel`` accepts
# every config its parsers accept.

_REQUIRED = object()


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else f"field '{key}'"


def _read(node, fields: dict, path: str, top: dict | None = None) -> dict:
    """Parse the object ``node`` against ``fields``; every error names its path."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {node!r}")
    unknown = next((key for key in node if key not in fields), None)
    if unknown is not None:
        raise ConfigError(
            f"{_at(path, unknown)}: unknown field; expected one of: {', '.join(fields)}"
        )
    parsed = {}
    top = parsed if top is None else top
    for key, (parse, default) in fields.items():
        at = _at(path, key)
        if key in node:
            try:
                parsed[key] = parse(node[key], at, top)
            except ValueError as exc:
                raise ConfigError(f"{at}: {exc}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"missing required {at}")
        else:
            parsed[key] = default() if callable(default) else default
    return parsed


def _is_finite_number(x) -> bool:
    # abs(x) <= max is False for NaN, infinities and integers too large for a float.
    number = isinstance(x, (int, float)) and not isinstance(x, bool)
    return number and abs(x) <= sys.float_info.max


def _number(lo: float = -math.inf, hi: float = math.inf, integer: bool = False):
    """Parser of a finite number, or of an integer, in [lo, hi]."""
    want = "an integer" if integer else "a finite number"
    if hi < math.inf:
        want += f" in [{lo:g}, {hi:g}]"
    elif lo > -math.inf:
        want += f" >= {lo:g}"

    def parse(value, path, top):
        number = _is_finite_number(value) and (isinstance(value, int) or not integer)
        if not number or not lo <= value <= hi:
            raise ConfigError(f"{path}: expected {want}, got {value!r}")
        return value if integer else float(value)

    return parse


_PROBABILITY = _number(0.0, 1.0)


def _label(value, path, top) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string label, got {value!r}")
    return value


def _list(item, nonempty: bool = True):
    """Parser of a list whose entries ``item`` parses."""
    def parse(value, path, top):
        if not isinstance(value, list) or (nonempty and not value):
            raise ConfigError(f"{path}: expected a {'non-empty ' * nonempty}list")
        return [item(v, f"{path}[{k}]", top) for k, v in enumerate(value)]

    return parse


def _object(fields: dict):
    return lambda value, path, top: _read(value, fields, path, top)


_NUMBERS = _list(_number())


def _complex_matrix(node, path: str, dim: int) -> np.ndarray:
    """A dim x dim row-major nested array of finite [re, im] pairs."""
    if not isinstance(node, list) or len(node) != dim:
        raise ConfigError(f"{path}: expected {dim} rows of {dim} [re, im] pairs")
    # A well-formed matrix of plain ints and floats is read in one numpy pass, with
    # the bits of complex(re, im); anything else, or a value that reaches float max
    # (an int past it may round to it), takes the loop, which words each error.
    flat = [x for row in node if type(row) is list and len(row) == dim
            for pair in row if type(pair) is list and len(pair) == 2 for x in pair]
    if len(flat) == 2 * dim * dim and set(map(type, flat)) <= {int, float}:
        try:
            values = np.array(flat, dtype=float)
        except OverflowError:
            values = None
        if values is not None and (np.abs(values) < sys.float_info.max).all():
            return values.view(complex).reshape(dim, dim)
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != dim:
            raise ConfigError(f"{path}[{i}]: expected a row of {dim} entries")
        entries = []
        for j, entry in enumerate(row):
            pair = isinstance(entry, list) and len(entry) == 2
            if not (pair and all(map(_is_finite_number, entry))):
                raise ConfigError(
                    f"{path}[{i}][{j}]: expected a finite [re, im] pair, got {entry!r}"
                )
            entries.append(complex(entry[0], entry[1]))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def _projector(value, path, top) -> np.ndarray:
    return _complex_matrix(value, path, top["dimension"])


def _density(dim: int | None = None):
    """Parser of a density matrix of size ``dim``, or of the ``dimension`` field."""
    def parse(value, path, top):
        matrix = _complex_matrix(value, path, top["dimension"] if dim is None else dim)
        return DensityOperator(matrix)

    return parse


_SPECTRUM = {
    "eigenvalues": (_NUMBERS, _REQUIRED),
    "projectors": (_list(_projector), _REQUIRED),
}


def _spectrum(value, path, top) -> SpectralObservable:
    """A spectral decomposition; ``SpectralObservable`` validates it."""
    node = _read(value, _SPECTRUM, path, top)
    return SpectralObservable(node["eigenvalues"], node["projectors"])


def _observable(value, path, top) -> GeneralizedObservable:
    """A spectral decomposition plus the no-registration outcome."""
    return GeneralizedObservable(_spectrum(value, path, top))


def _sigma(value, path, top) -> Property:
    """The outcome subset of the ``observable`` field, as a ``Property``."""
    return Property(top["observable"], _NUMBERS(value, path, top))


def _table(entry: dict, key: tuple[str, ...]):
    """Parser of ``entry`` objects into ``{key fields: value}``; a repeated key
    is an error at its later entry (numbers parse to floats, so 1 repeats 1.0)."""
    def parse(value, path, top):
        table = {}
        for k, e in enumerate(_list(_object(entry), nonempty=False)(value, path, top)):
            index = tuple(e[name] for name in key)
            if index in table:
                pair = f"({', '.join(key)}) pair {index!r}"
                raise ConfigError(f"{path}[{k}]: repeats the {pair} of an earlier entry")
            table[index] = e["value"]
        return table

    return parse


_DETECTION_ENTRY = {
    "state": (_label, _REQUIRED),
    "eigenvalue": (_number(), _REQUIRED),
    "value": (_PROBABILITY, _REQUIRED),
}
_DETECTION = {
    "default": (_PROBABILITY, 1.0),
    "entries": (_table(_DETECTION_ENTRY, ("state", "eigenvalue")), dict),
}


def _detection(value, path, top) -> DetectionModel:
    """A uniform detection probability, or a per-(state, eigenvalue) table."""
    if not isinstance(value, dict):
        return DetectionModel.uniform(_PROBABILITY(value, path, top))
    node = _read(value, _DETECTION, path, top)
    return DetectionModel(assignment=node["entries"], default_value=node["default"])


def _angles(count: int):
    """Parser of exactly ``count`` angles in degrees."""
    def parse(value, path, top):
        angles = _NUMBERS(value, path, top)
        if len(angles) != count:
            raise ConfigError(f"{path}: expected {count} angles, got {len(angles)}")
        return angles

    return parse


_COMPONENT = {
    "weight": (_number(MIN_COMPONENT_WEIGHT, 1.0), _REQUIRED),
    "state": (_density(), _REQUIRED),
    "label": (_label, None),
}


def _components(value, path, top):
    """The components as a ``mixtures.ProperMixture``."""
    from . import mixtures

    comps = []
    for k, entry in enumerate(_list(_object(_COMPONENT))(value, path, top)):
        label = f"component{k}" if entry["label"] is None else entry["label"]
        comps.append(mixtures.ProperComponent(entry["weight"], entry["state"], label))
    return mixtures.ProperMixture(comps)


# ----------------------------------------------------------------------
# scenario field tables and runners
# ----------------------------------------------------------------------

_DIMENSION = (_number(1, MAX_DIMENSION, integer=True), _REQUIRED)
_DETECTION_MODEL = (_detection, lambda: DetectionModel.uniform(1.0))

_TRIPLE = {
    "dimension": _DIMENSION,
    "state": (_density(), _REQUIRED),
    "observable": (_observable, _REQUIRED),
    "sigma": (_sigma, _REQUIRED),
    "detection_model": _DETECTION_MODEL,
    "state_label": (_label, "S"),
}

_MONTE_CARLO = {
    **_TRIPLE,
    "samples": (_number(1, MAX_SAMPLES, integer=True), DEFAULT_SAMPLES),
    "seed": (_number(0, integer=True), DEFAULT_SEED),
}


def _time(value, path, top) -> float:
    """A time at which every phase E*t of ``hamiltonian``, and their spread, is finite."""
    t = _number()(value, path, top)
    evs = top["hamiltonian"].eigenvalues
    if not math.isfinite(max(evs) * t - min(evs) * t):
        raise ConfigError(f"{path}: the hamiltonian's phases E*t overflow at time {value!r}")
    return t


_EVOLVE = {
    "dimension": _DIMENSION,
    "state": (_density(), _REQUIRED),
    "hamiltonian": (_spectrum, _REQUIRED),
    "time": (_time, _REQUIRED),
}

_MIXTURE = {
    "dimension": _DIMENSION,
    "components": (_components, _REQUIRED),
    "observable": (_observable, _REQUIRED),
    "sigma": (_sigma, _REQUIRED),
    "detection_model": _DETECTION_MODEL,
}


_BELL = {
    "angles_deg": (_angles(3), _REQUIRED),
    "state": (_density(4), None),  # None: the singlet
    "d_grid": (_list(_PROBABILITY), _REQUIRED),
}
_CHSH = {**_BELL, "angles_deg": (_angles(4), _REQUIRED)}

_GHZ = {"state": (_density(8), None)}  # None: the GHZ state
_GHZ_LOCAL_MODEL = {
    **_GHZ,
    "min_efficiency": (_PROBABILITY, 0.0),
    "min_joint_detection": (_PROBABILITY, DEFAULT_MIN_JOINT_DETECTION),
}


def _properties(value, path, top) -> list[str]:
    labels = _list(_label)(value, path, top)
    if len(set(labels)) != len(labels):
        raise ConfigError(f"{path}: property labels must be distinct, got {labels}")
    return labels


def _property_label(value, path, top) -> str:
    """A label among the ``properties`` field."""
    label = _label(value, path, top)
    if label not in top["properties"]:
        raise ConfigError(f"{path}: {label!r} not among {top['properties']}")
    return label


def _weights(value, path, top) -> list[float]:
    """One nonnegative weight per entry of ``microstates``, summing to 1."""
    weights = _list(_number(0.0))(value, path, top)
    count = len(top["microstates"])
    if len(weights) != count:
        raise ConfigError(
            f"{path}: expected {count} weights, one per microstate, got {len(weights)}"
        )
    if abs(left_to_right_sum(weights) - 1.0) > ARITHMETIC_TOL:
        raise ConfigError(f"{path}: weights sum to {left_to_right_sum(weights)}, not 1")
    return weights


def _microstate_index(value, path, top) -> int:
    return _number(0, len(top["microstates"]) - 1, integer=True)(value, path, top)


_MICRO_DETECTION_ENTRY = {
    "microstate": (_microstate_index, _REQUIRED),
    "property": (_property_label, _REQUIRED),
    "value": (_PROBABILITY, _REQUIRED),
}
_MICRO_DETECTION = {
    "default": (_PROBABILITY, 1.0),
    "entries": (_table(_MICRO_DETECTION_ENTRY, ("microstate", "property")), dict),
}
_HV_VERIFY = {
    "properties": (_properties, _REQUIRED),
    "microstates": (_list(_list(_property_label, nonempty=False)), _REQUIRED),
    "weights": (_weights, _REQUIRED),
    "micro_detection": (_object(_MICRO_DETECTION), lambda: {"default": 1.0, "entries": {}}),
    "property": (_property_label, _REQUIRED),
}


def _measurement(p: dict) -> tuple:
    """(state, property, detection model, state label) of a measurement scenario."""
    return p["state"], p["sigma"], p["detection_model"], p["state_label"]


def _run_probability_triple(prepared: dict):
    triple = probability_triple(*_measurement(prepared))
    records = [
        Record("overall", triple.overall),
        Record("detection", triple.detection),
        Record("conditional", triple.conditional),
        Record("product_law_residual", triple.product_law_residual()),
    ]
    return records, {}


def _entry_records(prefix: str, state: DensityOperator) -> list[Record]:
    """``prefix_i_j_re`` and ``prefix_i_j_im`` records of every entry, row-major.

    There are 2 d^2 of them (8,192 at d = 64), so the records are made blank
    and each field is filled for all of them through its slot descriptor,
    rather than by one ``Record(...)`` call, three slot writes, per entry.
    """
    n = range(state.dimension)
    columns = [f"_{j}_{part}" for j in n for part in ("re", "im")]
    names = [row + column for row in [f"{prefix}_{i}" for i in n] for column in columns]
    records = list(map(object.__new__, itertools.repeat(Record, len(names))))
    values = state.matrix.ravel().view(float).tolist()
    for field, column in ((Record.name, names), (Record.value, values),
                          (Record.residual, itertools.repeat(None))):
        collections.deque(map(field.__set__, records, column), maxlen=0)
    return records


def _run_luders(prepared: dict):
    triple = probability_triple(*_measurement(prepared))
    updated = luders_update(*_measurement(prepared))
    records = [Record("yes_probability", triple.overall)]
    return records + _entry_records("post_state", updated), {}


def _run_evolve(prepared: dict):
    rho = prepared["state"]
    evolved = unitary_evolve(rho, prepared["hamiltonian"], prepared["time"])
    # eigvalsh returns ascending eigenvalues, so the two spectra pair up in order.
    drift = np.abs(np.linalg.eigvalsh(rho.matrix) - np.linalg.eigvalsh(evolved.matrix))
    records = [
        Record("trace_deviation", abs(float(np.trace(evolved.matrix).real) - 1.0)),
        Record("eigenvalue_drift", float(np.max(drift))),
    ]
    return records + _entry_records("evolved", evolved), {}


def _run_monte_carlo(prepared: dict):
    samples = prepared["samples"]
    rho, prop, dm, label = _measurement(prepared)
    outcome_set, exact = outcome_distribution(rho, prop.observable, dm, label)
    rng = np.random.default_rng(prepared["seed"])
    # Fixed-size chunks draw the same stream as one call, in bounded memory.
    counts = np.zeros(len(exact), dtype=np.int64)
    for start in range(0, samples, _MC_CHUNK):
        drawn = sample_indices(exact, rng, min(_MC_CHUNK, samples - start))
        counts += np.bincount(drawn, minlength=len(exact))
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


def _run_mixture_divergence(prepared: dict):
    from . import mixtures

    mixture = prepared["components"]
    prop, dm = prepared["sigma"], prepared["detection_model"]
    overall = mixtures.proper_overall_probability(mixture, prop, dm)
    conditional = mixtures.proper_conditional_probability(mixture, prop, dm)
    born = float(np.trace(mixture.averaged_density().matrix @ prop.projector).real)
    divergence = None if conditional is None else abs(conditional - born)
    records = [
        Record("proper_overall", overall),
        Record("proper_conditional", conditional),
        Record("qm_conditional", born),
        Record("divergence", divergence),
    ]
    return records, {}


def _run_bell_scan(prepared: dict):
    from . import correlations

    a, b, c = (math.radians(v) for v in prepared["angles_deg"])
    unit = DetectionModel.uniform(1.0)
    sc = correlations.TwoPartyScenario(
        joint_state=prepared["state"] or correlations.singlet_state(),
        settings={"a": a, "b": b, "c": c},
        detection_a=unit,
        detection_b=unit,
    )
    # Uniform detection d scales every overall correlation by d^2.
    born = [
        correlations.trichotomic_expectation(sc, x, y).value
        for x, y in ("ab", "ac", "bc")
    ]
    records = []
    for d in prepared["d_grid"]:
        report = correlations.modified_bell_report(*(d * d * e for e in born))
        records.append(Record(f"lhs[d={_fmt(d)}]", report.lhs, report.margin))
    return records, {}


def _run_chsh_scan(prepared: dict):
    from . import correlations

    a, d_angle, b, c = (math.radians(v) for v in prepared["angles_deg"])
    scan = correlations.efficiency_scan(
        prepared["state"] or correlations.singlet_state(),
        {"a": a, "d": d_angle, "b": b, "c": c},
        prepared["d_grid"],
    )
    records = [
        Record(f"lhs[d={_fmt(row.efficiency)}]", row.lhs, 2.0 - row.lhs)
        for row in scan.rows
    ]
    records.append(Record("threshold", scan.threshold, scan.threshold_tolerance))
    diagnostics = {"threshold_found": "yes" if scan.threshold is not None else "no"}
    return records, diagnostics


def _run_ghz_quantum(prepared: dict):
    from . import correlations

    scenario = correlations.GHZScenario(joint_state=prepared["state"] or correlations.ghz_state())
    values = correlations.ghz_quantum_correlations(scenario)
    records = [
        Record(f"E_{name}", value)
        for name, value in zip(correlations.GHZ_CONTEXT_NAMES, values)
    ]
    return records, {}


_PARTY_NAMES = ("A", "B", "C")
_SETTING_NAMES = ("X", "Y")


def _run_ghz_local_model(prepared: dict):
    from . import correlations

    scenario = correlations.GHZScenario(joint_state=prepared["state"] or correlations.ghz_state())
    found = correlations.ghz_local_model_search(
        scenario, prepared["min_efficiency"], prepared["min_joint_detection"]
    )
    records = [Record("feasible", 1.0 if found.feasible else 0.0)]
    if found.feasible:
        for name, got, want in zip(
            correlations.GHZ_CONTEXT_NAMES, found.correlations, found.targets
        ):
            if math.isnan(got):  # never jointly detected: no conditional correlation
                records.append(Record(f"correlation_{name}", None))
            else:
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


def _run_hv_verify(prepared: dict):
    from . import hidden_variables

    detection = prepared["micro_detection"]
    model = hidden_variables.MicrostateModel(
        labels=prepared["properties"],
        microstates=prepared["microstates"],
        weights=prepared["weights"],
        micro_detection=detection["entries"],
        default_detection=detection["default"],
    )
    triple = hidden_variables.macro_from_micro(model, prepared["property"])
    records = [
        Record("p_t", triple.overall),
        Record("p_d", triple.detection),
        Record("p", triple.conditional),
        Record("product_law_residual", triple.product_law_residual()),
    ]
    return records, {}


def _run_self_test(prepared: dict):
    from . import selftest

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
    "probability-triple": (_TRIPLE, _run_probability_triple),
    "luders": (_TRIPLE, _run_luders),
    "evolve": (_EVOLVE, _run_evolve),
    "monte-carlo": (_MONTE_CARLO, _run_monte_carlo),
    "mixture-divergence": (_MIXTURE, _run_mixture_divergence),
    "bell-scan": (_BELL, _run_bell_scan),
    "chsh-scan": (_CHSH, _run_chsh_scan),
    "ghz-quantum": (_GHZ, _run_ghz_quantum),
    "ghz-local-model": (_GHZ_LOCAL_MODEL, _run_ghz_local_model),
    "hv-verify": (_HV_VERIFY, _run_hv_verify),
    "self-test": ({}, _run_self_test),
}


def _prepare(config) -> tuple[str, dict]:
    """Parse and validate ``config``; return its scenario type and runner inputs."""
    if not isinstance(config, dict):
        raise ConfigError("top level: expected a JSON object")
    scenario_type = config.get("scenario_type")
    if not isinstance(scenario_type, str) or scenario_type not in _SCENARIOS:
        known = ", ".join(sorted(_SCENARIOS))
        raise ConfigError(
            f"field 'scenario_type': got {scenario_type!r}, expected one of: {known}"
        )
    fields, _ = _SCENARIOS[scenario_type]
    return scenario_type, _read(config, {"scenario_type": (_label, _REQUIRED), **fields}, "")


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

_encode_str = json.encoder.encode_basestring_ascii  # json.dumps(s) for a str


def _json(obj) -> str:
    """``obj`` as JSON text with floats at 17 significant digits; a list of floats,
    or a matrix row of [re, im] float pairs, takes one ``%`` call."""
    if isinstance(obj, float):  # "%.17g" % x is _fmt(x) for a float or np.float64
        return "%.17g" % obj
    if isinstance(obj, (list, tuple)):
        pairs = set(map(type, obj)) == {list} and set(map(len, obj)) == {2}
        flat = [x for v in obj for x in v] if pairs else obj
        if obj and set(map(type, flat)) == {float}:
            item = "[%.17g, %.17g]" if pairs else "%.17g"
            return ("[" + ", ".join([item] * len(obj)) + "]") % tuple(flat)
        return "[" + ", ".join(map(_json, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_encode_str(str(k))}: {_json(v)}" for k, v in obj.items()) + "}"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return _encode_str(obj)
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
        results = ", ".join(['{"name": %s, "value": %s, "residual": %s}' % (
            _encode_str(r.name), _json(r.value), _json(r.residual)) for r in report.records])
        return '{"scenario": %s, "config": %s, "results": [%s], "diagnostics": %s}\n' % (
            _json(report.scenario), _json(report.config), results, _json(report.diagnostics)
        )
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
    def unique_keys(pairs: list) -> dict:
        # A repeated key would otherwise be overwritten by its last value.
        node = {}
        for key, value in pairs:
            if key in node:
                raise ConfigError(f"invalid JSON in {path!r}: duplicate key {key!r}")
            node[key] = value
        return node

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
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
        from . import selftest

        report = selftest.run_self_test()
        for suite in report.suites:
            status = "PASS" if suite.passed else "FAIL"
            line = f"{status} {suite.name}: {suite.checks} checks, max deviation {suite.max_deviation:.3e}"
            if suite.detail:
                line += f" ({suite.detail})"
            print(line)
        print("self-test:", "PASS" if report.passed else "FAIL")
        return EXIT_OK if report.passed else EXIT_COMPUTE

    try:
        config = _load_config(args.scenario)
        if args.command == "validate":
            print(f"OK: valid {validate_config(config)} scenario")
            return EXIT_OK
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
