"""The three workloads: how one item runs, untraced or traced, and how it is checked.

Each workload exposes ``round(index)`` (the items of one round),
``run(item, tracer)`` and ``check(item, outcome)``.  ``run`` returns an
:class:`Outcome` whose latency covers only the program's own work; ``check``
compares the output with the independent reference in :mod:`oracle` after
the clock has stopped.  With a tracer, ``run`` records spans around each call
into the program and calls the inner public functions again on the same
inputs, as children of the outer span, so that each layer's self time can be
taken.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import oracle

from esrsim import cli, correlations, hidden_variables, mixtures, selftest, simplex
from esrsim.linalg import (
    DensityOperator,
    SpectralObservable,
    validate_density_operator,
    validate_spectral_observable,
)
from esrsim.measurement import (
    DetectionModel,
    GeneralizedObservable,
    Property,
    luders_update,
    probability_triple,
    sample_outcomes,
    unitary_evolve,
)

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
GHZ_PLUS = np.array([1.0, 0, 0, 0, 0, 0, 0, 1.0]) / math.sqrt(2.0)


def child_env(root: Path) -> dict:
    """The environment of a child process that imports esrsim from ``root/src``."""
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


@dataclass
class Outcome:
    latency_s: float
    result: object = None
    problems: list = field(default_factory=list)
    gauges: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    rss_kb: int = 0


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _pure(vec) -> np.ndarray:
    return np.outer(vec, np.conj(vec)).astype(complex)


def _detection_model(node) -> DetectionModel:
    if node is None:
        return DetectionModel.uniform(1.0)
    if isinstance(node, (int, float)):
        return DetectionModel.uniform(float(node))
    table = {(e["state"], float(e["eigenvalue"])): float(e["value"]) for e in node.get("entries", [])}
    return DetectionModel(assignment=table, default_value=float(node.get("default", 1.0)))


def _density(tracer, m, parent=None) -> DensityOperator:
    with tracer.span("linalg.DensityOperator", parent):
        return DensityOperator(m)


def _generalized(tracer, obs, parent=None) -> GeneralizedObservable:
    with tracer.span("measurement.GeneralizedObservable", parent) as outer:
        gen_obs = GeneralizedObservable(obs)
    with tracer.span("linalg.validate_spectral_observable", outer):
        validate_spectral_observable(obs)
    return gen_obs


def ghz_search_traced(tracer, scenario, min_efficiency, min_joint, tolerance, counts, parent=None):
    """ghz_local_model_search with its enumerate/build/solve layers replayed as children."""
    with tracer.span("correlations.ghz_local_model_search", parent) as outer:
        found = correlations.ghz_local_model_search(
            scenario, min_efficiency=min_efficiency, min_joint_detection=min_joint,
            tolerance=tolerance,
        )
    with tracer.span("hidden_variables.enumerate_local_strategies", outer):
        strategies = hidden_variables.enumerate_local_strategies(parties=3, settings=2)
    targets = [
        hidden_variables.CorrelationTarget(settings=ctx, value=val, tolerance=tolerance)
        for ctx, val in zip(correlations.GHZ_CONTEXTS, correlations.ghz_quantum_correlations(scenario))
    ]
    with tracer.span("hidden_variables.build_feasibility_lp", outer):
        problem = hidden_variables.build_feasibility_lp(
            strategies, targets, min_joint_detection=min_joint,
            min_efficiency=min_efficiency if min_efficiency > 0.0 else None,
        )
    with tracer.span("simplex.solve_lp_simplex", outer):
        solved = simplex.solve_lp_simplex(problem)
    counts["simplex.pivots"] += solved.pivots
    counts["simplex.solves"] += 1
    counts["hidden_variables.lp_rows"] += problem.n_constraints
    counts["hidden_variables.strategies"] += len(strategies)
    if solved.pivots != found.pivots:
        counts["trace.replay_mismatch"] += 1
    return found


def _check_ghz(ck, ghz_oracle, found, min_efficiency, tolerance, min_joint):
    feasible = found.feasible
    oracle.check_ghz(
        ck, ghz_oracle, feasible, min_efficiency, tolerance, min_joint,
        found.max_residual, found.correlations,
        [found.joint_detection[c] for c in correlations.GHZ_CONTEXTS] if feasible else None,
        list(found.efficiencies.values()) if feasible else None,
    )


class CliBatch:
    """Each item is one ``python -m esrsim run`` process on a config file."""

    name = "cli-batch"

    def __init__(self, root: Path, seed: int, work_dir: Path, manifest: dict):
        self.root, self.seed = root, seed
        self.entries = manifest["entries"]
        self.env = child_env(root)
        self.out_path = work_dir / "report.out"
        self.err_path = work_dir / "report.err"
        self.configs: dict[str, tuple[bytes, dict]] = {}
        self.digests: dict[tuple, str] = {}
        self.verified: dict[tuple, tuple] = {}
        self.ghz_oracle = None
        self.stages: dict[str, list[float]] = {"compute": [], "prepare": [], "process_overhead": []}
        self.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def round(self, index):
        return gen.cli_round(self.seed, index, self.entries)

    def _config(self, item):
        if item["name"] not in self.configs:
            data = Path(item["path"]).read_bytes()
            self.configs[item["name"]] = (data, json.loads(data))
        return self.configs[item["name"]]

    def _process(self, item):
        cmd = [sys.executable, "-m", "esrsim", "run", "--scenario", item["path"], "--format", item["fmt"]]
        if item["samples"] is not None:
            cmd += ["--samples", str(item["samples"])]
        request = {"cmd": cmd, "env": self.env, "cwd": str(self.root),
                   "stdout": str(self.out_path), "stderr": str(self.err_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the item launcher exited")
        reply = json.loads(reply)
        return reply["code"], reply["wall_s"], reply["maxrss_kb"]

    def close(self):
        self.spawner.stdin.close()
        self.spawner.wait(timeout=120)

    def run(self, item, tracer=None) -> Outcome:
        config_bytes, config = self._config(item)
        with _span(tracer, "cli.process"):
            code, latency, rss_kb = self._process(item)
        data = self.out_path.read_bytes()
        out = Outcome(latency, result=(code, data), rss_kb=rss_kb)
        out.counts["cli.config_bytes"] += len(config_bytes)
        out.counts["cli.report_bytes"] += len(data)
        if config["scenario_type"] == "monte-carlo":
            out.counts["measurement.mc_draws"] += item["samples"] or config.get("samples", cli.DEFAULT_SAMPLES)
        if tracer is not None and code == 0:
            self._replay(tracer, item, config, data, latency, out)
        return out

    def check(self, item, out: Outcome):
        code, data = out.result
        if code != 0:
            err = self.err_path.read_bytes().decode(errors="replace").strip()
            out.problems.append(f"{item['name']}: exit {code}: {err[-300:]}")
            return
        key = (item["name"], item["fmt"])
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            out.problems.append(f"{item['name']} ({item['fmt']}): report bytes differ from an earlier run")
        if (key, digest) not in self.verified:
            ck = oracle.Checker()
            try:
                records = oracle.parse_report(data, item["fmt"])
            except (ValueError, KeyError, json.JSONDecodeError) as exc:
                ck.problems.append(f"unreadable report: {exc}")
            else:
                if self.ghz_oracle is None and self._config(item)[1]["scenario_type"] == "ghz-local-model":
                    self.ghz_oracle = oracle.GHZOracle()
                oracle.check_cli(self._config(item)[1], item["samples"], records, self.ghz_oracle, ck)
            self.verified[(key, digest)] = ([f"{item['name']}: {p}" for p in ck.problems], ck.gauges)
        problems, gauges = self.verified[(key, digest)]
        out.problems += problems
        out.gauges.update(gauges)

    def _replay(self, tracer, item, config, data, process_s, out):
        """Re-run the item in-process: the cli stages, then the layers it drives."""
        config = json.loads(json.dumps(config))
        if item["samples"] is not None:
            config["samples"] = item["samples"]
        with tracer.span("cli.validate_config") as s_validate:
            cli.validate_config(config)
        with tracer.span("cli.run_scenario") as s_run:
            report = cli.run_scenario(config)
        with tracer.span(f"cli.render_{item['fmt']}") as s_render:
            text = cli.render_report(report, item["fmt"])
        in_process = sum(tracer.duration(s) for s in (s_validate, s_run, s_render))
        self.stages["compute"].append(report.wall_time_s)
        self.stages["prepare"].append(tracer.duration(s_run) - report.wall_time_s)
        self.stages["process_overhead"].append(process_s - in_process)
        if text.encode() != data:
            out.problems.append(f"{item['name']}: in-process report differs from the process output")

        kind = config["scenario_type"]
        label = config.get("state_label", "S")
        if kind in ("probability-triple", "luders", "monte-carlo"):
            rho = _density(tracer, oracle.matrix(config["state"]))
            gen_obs = _generalized(tracer, SpectralObservable(*oracle.spectrum(config["observable"])))
            prop = Property(gen_obs, tuple(float(v) for v in config["sigma"]))
            dm = _detection_model(config.get("detection_model"))
            if kind == "monte-carlo":
                samples = config.get("samples", cli.DEFAULT_SAMPLES)
                rng = np.random.default_rng(config.get("seed", cli.DEFAULT_SEED))
                with tracer.span("measurement.sample_outcomes"):
                    sample_outcomes(rho, gen_obs, dm, rng, samples, label)
                out.counts["trace.sample_draws"] += samples
                return
            with tracer.span("measurement.probability_triple"):
                probability_triple(rho, prop, dm, label)
            if kind == "luders":
                with tracer.span("measurement.luders_update"):
                    luders_update(rho, prop, dm, label)
        elif kind == "evolve":
            rho = _density(tracer, oracle.matrix(config["state"]))
            ham = SpectralObservable(*oracle.spectrum(config["hamiltonian"]))
            with tracer.span("measurement.unitary_evolve") as outer:
                unitary_evolve(rho, ham, float(config["time"]))
            with tracer.span("linalg.validate_spectral_observable", outer):
                validate_spectral_observable(ham)
        elif kind == "mixture-divergence":
            mixture = mixtures.ProperMixture([
                mixtures.ProperComponent(float(c["weight"]), _density(tracer, oracle.matrix(c["state"])),
                                         c.get("label", f"component{k}"))
                for k, c in enumerate(config["components"])
            ])
            gen_obs = _generalized(tracer, SpectralObservable(*oracle.spectrum(config["observable"])))
            prop = Property(gen_obs, tuple(float(v) for v in config["sigma"]))
            dm = _detection_model(config.get("detection_model"))
            with tracer.span("mixtures.proper_conditional_probability"):
                mixtures.proper_conditional_probability(mixture, prop, dm)
            with tracer.span("mixtures.esr_qm_divergence"):
                mixtures.esr_qm_divergence(mixture, prop, dm)
        elif kind in ("chsh-scan", "bell-scan"):
            state = _density(tracer, oracle.matrix(config["state"]) if "state" in config else _pure(SINGLET))
            angles = [math.radians(float(a)) for a in config["angles_deg"]]
            grid = [float(d) for d in config["d_grid"]]
            if kind == "chsh-scan":
                with tracer.span("correlations.efficiency_scan"):
                    correlations.efficiency_scan(state, dict(zip("adbc", angles)), grid)
            _replay_expectations(tracer, state, angles, grid)
        elif kind == "ghz-local-model":
            state = _density(tracer, oracle.matrix(config["state"]) if "state" in config else _pure(GHZ_PLUS))
            ghz_search_traced(
                tracer, correlations.GHZScenario(joint_state=state),
                float(config.get("min_efficiency", 0.0)),
                float(config.get("min_joint_detection", hidden_variables.DEFAULT_MIN_JOINT_DETECTION)),
                0.0, out.counts,
            )


def _replay_expectations(tracer, state, angles, grid):
    """The trichotomic expectations of a CHSH (four angles) or Bell (three) scan grid."""
    if len(angles) == 4:
        settings, pairs = dict(zip("adbc", angles)), ("ab", "ac", "db", "dc")
    else:
        settings, pairs = dict(zip("abc", angles)), ("ab", "ac", "bc")
    for d in grid:
        dm = DetectionModel.uniform(d)
        sc = correlations.TwoPartyScenario(state, settings, dm, dm)
        for x, y in pairs:
            with tracer.span("correlations.trichotomic_expectation"):
                correlations.trichotomic_expectation(sc, x, y)


class Invariants:
    """Each item is one call of a public ``selftest`` suite with a drawn seed."""

    name = "invariants"

    def __init__(self, root: Path, seed: int, work_dir: Path, manifest=None):
        self.seed = seed

    def round(self, index):
        return gen.invariants_round(self.seed, index)

    def close(self):
        pass

    @staticmethod
    def _call(item):
        suite = item["suite"]
        if suite == "fundamental_equation":
            return selftest.fundamental_equation_suite(n=item["n"], seed=item["seed"])
        if suite == "qm_reduction":
            return selftest.qm_reduction_suite(n=item["n"], seed=item["seed"])
        if suite == "chsh_bound":
            return selftest.chsh_bound_suite(n_mixtures=item["n"], seed=item["seed"])
        return selftest.lp_certificate_suite()  # takes no seed: a fixed GHZ instance

    def run(self, item, tracer=None) -> Outcome:
        with _span(tracer, f"selftest.{item['suite']}_suite") as outer:
            start = time.perf_counter()
            result = self._call(item)
            latency = time.perf_counter() - start
        out = Outcome(latency, result=result)
        if tracer is not None:
            getattr(self, f"_replay_{item['suite']}")(tracer, outer, item, result, out.counts)
        return out

    def check(self, item, out: Outcome):
        result = out.result
        if not result.passed:
            out.problems.append(f"{item['suite']} seed {item['seed']}: failed: {result.detail}")
        else:
            out.gauges[f"suite.{item['suite']}"] = result.max_deviation / oracle.SUITE_LIMITS[item["suite"]]

    @staticmethod
    def _instance(tracer, parent, rng, unit_detection):
        """Draw one instance exactly as the suites do, timing the layer calls."""
        dim = int(rng.integers(2, 9))
        weights = rng.random(dim) + 1e-3
        weights /= weights.sum()
        u = selftest.random_unitary(rng, dim)
        rho = _density(tracer, u @ np.diag(weights) @ u.conj().T, parent)
        obs = selftest.random_observable(rng, dim)
        gen_obs = _generalized(tracer, obs, parent)
        if unit_detection:
            dm = DetectionModel.uniform(1.0)
        else:
            dm = selftest.random_detection_model(rng, "S", obs.eigenvalues)
        prop = Property(gen_obs, selftest.random_sigma(rng, obs.eigenvalues))
        with tracer.span("measurement.probability_triple", parent):
            triple = probability_triple(rho, prop, dm)
        return rho, prop, dm, triple

    def _replay_fundamental_equation(self, tracer, parent, item, result, counts):
        rng = np.random.default_rng(item["seed"])
        checks, worst = 0, 0.0
        for _ in range(item["n"]):
            rho, prop, dm, triple = self._instance(tracer, parent, rng, False)
            if triple.conditional is not None and triple.conditional > 1e-12:
                worst = max(worst, triple.product_law_residual())
                checks += 1
            if triple.overall > 1e-6:
                with tracer.span("measurement.luders_update", parent):
                    updated = luders_update(rho, prop, dm)
                with tracer.span("linalg.validate_density_operator", parent):
                    validate_density_operator(updated.matrix)
                checks += 1
        if (checks, worst) != (result.checks, result.max_deviation):
            counts["trace.replay_mismatch"] += 1

    def _replay_qm_reduction(self, tracer, parent, item, result, counts):
        rng = np.random.default_rng(item["seed"])
        checks = 0
        for _ in range(item["n"]):
            rho, prop, dm, triple = self._instance(tracer, parent, rng, True)
            checks += 1
            if triple.conditional > 1e-6:
                with tracer.span("measurement.luders_update", parent):
                    luders_update(rho, prop, dm)
                checks += 1
        if checks != result.checks:
            counts["trace.replay_mismatch"] += 1

    def _replay_chsh_bound(self, tracer, parent, item, result, counts):
        with tracer.span("correlations.brute_force_trichotomic_bound", parent):
            correlations.brute_force_trichotomic_bound("chsh")
        with tracer.span("hidden_variables.enumerate_local_strategies", parent):
            strategies = hidden_variables.enumerate_local_strategies(parties=2, settings=2)
        counts["hidden_variables.strategies"] += len(strategies)

    def _replay_lp_certificate(self, tracer, parent, item, result, counts):
        scenario = correlations.GHZScenario(joint_state=_density(tracer, _pure(GHZ_PLUS), parent))
        for min_efficiency in (0.0, 1.0):
            ghz_search_traced(tracer, scenario, min_efficiency,
                              hidden_variables.DEFAULT_MIN_JOINT_DETECTION, 0.0, counts, parent)


class Sweeps:
    """Each item is one CHSH efficiency scan, Bell scan or GHZ local-model search."""

    name = "sweeps"

    def __init__(self, root: Path, seed: int, work_dir: Path, manifest=None):
        self.seed = seed
        self.ghz_oracle = None

    def round(self, index):
        return gen.sweeps_round(self.seed, index)

    def close(self):
        pass

    def run(self, item, tracer=None) -> Outcome:
        kind = item["kind"]
        if kind == "ghz":
            start = time.perf_counter()
            if tracer is None:
                found = correlations.ghz_local_model_search(
                    correlations.GHZScenario.standard(),
                    min_efficiency=item["min_efficiency"], tolerance=item["tolerance"])
                return Outcome(time.perf_counter() - start, result=found)
            counts = Counter()
            scenario = correlations.GHZScenario(joint_state=_density(tracer, _pure(GHZ_PLUS)))
            found = ghz_search_traced(tracer, scenario, item["min_efficiency"],
                                      hidden_variables.DEFAULT_MIN_JOINT_DETECTION,
                                      item["tolerance"], counts)
            return Outcome(time.perf_counter() - start, result=found, counts=counts)

        angles = [math.radians(a) for a in item["angles_deg"]]
        grid = item["d_grid"]
        start = time.perf_counter()
        state = correlations.singlet_state()
        if kind == "chsh":
            with _span(tracer, "correlations.efficiency_scan"):
                scan = correlations.efficiency_scan(state, dict(zip("adbc", angles)), grid)
            result = ([row.lhs for row in scan.rows], scan.threshold, scan.threshold_tolerance)
        else:
            settings = dict(zip("abc", angles))
            lhs = []
            for d in grid:
                dm = DetectionModel.uniform(d)
                sc = correlations.TwoPartyScenario(state, settings, dm, dm)
                values = []
                for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
                    with _span(tracer, "correlations.trichotomic_expectation"):
                        values.append(correlations.trichotomic_expectation(sc, x, y).value)
                lhs.append(correlations.modified_bell_report(*values).lhs)
            result = (lhs,)
        out = Outcome(time.perf_counter() - start, result=result)
        if tracer is not None:
            _density(tracer, _pure(SINGLET))
            if kind == "chsh":
                _replay_expectations(tracer, state, angles, grid)
        return out

    def check(self, item, out: Outcome):
        ck = oracle.Checker()
        if item["kind"] == "ghz":
            if self.ghz_oracle is None:
                self.ghz_oracle = oracle.GHZOracle()
            _check_ghz(ck, self.ghz_oracle, out.result, item["min_efficiency"], item["tolerance"], 1e-6)
        else:
            angles = [math.radians(a) for a in item["angles_deg"]]
            if item["kind"] == "chsh":
                oracle.check_chsh_scan(ck, angles, item["d_grid"], *out.result)
            else:
                oracle.check_bell_scan(ck, angles, item["d_grid"], *out.result)
        out.problems += ck.problems
        out.gauges.update(ck.gauges)


WORKLOADS = {w.name: w for w in (CliBatch, Invariants, Sweeps)}
