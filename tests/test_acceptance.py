"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
inline) and asserts its runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import ket_density, plus_density, z_property
from esrsim.correlations import (
    GHZScenario,
    TwoPartyScenario,
    brute_force_trichotomic_bound,
    conditional_expectation,
    efficiency_scan,
    ghz_local_model_search,
    modified_chsh_report,
    singlet_state,
    trichotomic_expectation,
)
from esrsim.linalg import validate_density_operator
from esrsim.measurement import (
    DetectionModel,
    GeneralizedObservable,
    Property,
    luders_update,
    probability_triple,
    sample_outcomes,
    unitary_evolve,
)
from esrsim.mixtures import (
    ProperComponent,
    ProperMixture,
    esr_qm_divergence,
    proper_conditional_probability,
)
from esrsim.selftest import (
    random_density,
    random_detection_model,
    random_observable,
    random_sigma,
)

TSIRELSON = {"a": 0.0, "d": math.pi / 2, "b": math.pi / 4, "c": 3 * math.pi / 4}


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds budget {budget_s}s"


def test_criterion_1_fundamental_equation():
    with criterion("1 fundamental equation", 5.0):
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(1000):
            dim = int(rng.integers(2, 9))
            rho = random_density(rng, dim)
            gen = GeneralizedObservable(random_observable(rng, dim))
            dm = random_detection_model(rng, "S", gen.base.eigenvalues)
            prop = Property(gen, random_sigma(rng, gen.base.eigenvalues))
            triple = probability_triple(rho, prop, dm)
            if triple.conditional > 1e-12:
                assert triple.detection is not None
                assert abs(triple.overall - triple.detection * triple.conditional) <= 1e-12
                checked += 1
        assert checked > 500  # the generator must actually exercise the law


def test_criterion_2_qm_reduction():
    with criterion("2 qm reduction", 5.0):
        rng = np.random.default_rng(102)
        unit = DetectionModel.uniform(1.0)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            rho = random_density(rng, dim)
            gen = GeneralizedObservable(random_observable(rng, dim))
            prop = Property(gen, random_sigma(rng, gen.base.eigenvalues))
            # The reference P(sigma) is summed here, not read from prop.projector.
            p_sigma = sum(gen.base.projector_for(ev) for ev in prop.sigma)
            born = float(np.trace(rho.matrix @ p_sigma).real)
            triple = probability_triple(rho, prop, unit)
            assert abs(triple.conditional - born) <= 1e-10
            assert abs(triple.overall - born) <= 1e-10
            if born > 1e-6:
                updated = luders_update(rho, prop, unit)
                projected = p_sigma @ rho.matrix @ p_sigma
                standard = projected / float(np.trace(projected).real)
                assert np.max(np.abs(updated.matrix - standard)) <= 1e-10


def test_criterion_3_modified_chsh_bound():
    with criterion("3 modified chsh bound", 1.0):
        bound = brute_force_trichotomic_bound("chsh")
        assert bound.value == 2.0
        rng = np.random.default_rng(103)
        values = [(-1, 0, 1)] * 4
        table = []
        for a_a in values[0]:
            for a_d in values[1]:
                for b_b in values[2]:
                    for b_c in values[3]:
                        table.append((a_a * b_b, a_a * b_c, a_d * b_b, a_d * b_c))
        table = np.asarray(table, dtype=float)
        for _ in range(1000):
            w = rng.random(81)
            w /= w.sum()
            e = w @ table
            lhs = abs(e[0] - e[1]) + abs(e[2] + e[3])
            assert lhs <= 2.0 + 1e-12


def test_criterion_4_modified_bell_bound():
    with criterion("4 modified bell bound", 1.0):
        bound = brute_force_trichotomic_bound("bell")
        assert bound.value <= 0.0  # never violated over the 27 assignments
        assert bound.value == 0.0  # and tight
        assert len(bound.tight) > 0  # tight cases identified
        assert (1, 1, -1) in bound.tight


def test_criterion_5_detection_efficiency_threshold():
    with criterion("5 efficiency threshold", 2.0):
        state = singlet_state()
        for d in (0.25, 0.5, 0.75, 1.0):
            dm = DetectionModel.uniform(d)
            sc = TwoPartyScenario(
                joint_state=state, settings=TSIRELSON, detection_a=dm, detection_b=dm
            )
            report = modified_chsh_report(
                trichotomic_expectation(sc, "a", "b").value,
                trichotomic_expectation(sc, "a", "c").value,
                trichotomic_expectation(sc, "d", "b").value,
                trichotomic_expectation(sc, "d", "c").value,
            )
            assert abs(report.lhs - d * d * 2.0 * math.sqrt(2.0)) <= 1e-9
        scan = efficiency_scan(state, TSIRELSON, [0.5, 1.0])
        assert scan.threshold is not None
        assert abs(scan.threshold - 2.0 ** (-0.25)) <= 1e-6


def test_criterion_6_conditional_identity():
    with criterion("6 conditional identity", 2.0):
        rng = np.random.default_rng(106)
        state = singlet_state()
        for _ in range(20):
            theta_a, theta_b = rng.uniform(0.0, 2.0 * math.pi, size=2)
            for d in (0.3, 0.6, 0.9):
                dm = DetectionModel.uniform(d)
                sc = TwoPartyScenario(
                    joint_state=state,
                    settings={"a": theta_a, "b": theta_b},
                    detection_a=dm,
                    detection_b=dm,
                )
                value = conditional_expectation(sc, "a", "b").value
                assert abs(value - (-math.cos(theta_a - theta_b))) <= 1e-10


def test_criterion_7_ghz_local_model():
    with criterion("7 ghz local model", 60.0):
        scenario = GHZScenario.standard()
        found = ghz_local_model_search(scenario)
        assert found.feasible
        assert found.max_residual <= 1e-9
        for got, want in zip(found.correlations, (1.0, -1.0, -1.0, -1.0)):
            assert abs(got - want) <= 1e-9
        forced = ghz_local_model_search(scenario, min_efficiency=1.0)
        assert not forced.feasible


def test_criterion_8_proper_improper_divergence():
    with criterion("8 proper/improper divergence", 1.0):
        mixture = ProperMixture(
            (
                ProperComponent(0.5, ket_density(0, 2), "w0"),
                ProperComponent(0.5, ket_density(1, 2), "w1"),
            )
        )
        prop = z_property(1.0)
        dm = DetectionModel(
            assignment={("w0", 1.0): 0.9, ("w0", -1.0): 0.9, ("w1", 1.0): 0.5, ("w1", -1.0): 0.5}
        )
        conditional = proper_conditional_probability(mixture, prop, dm)
        assert abs(conditional - 0.45 / 0.7) <= 1e-9  # 0.642857...
        divergence = esr_qm_divergence(mixture, prop, dm)
        assert abs(divergence - (0.45 / 0.7 - 0.5)) <= 1e-9
        assert esr_qm_divergence(mixture, prop, DetectionModel.uniform(0.8)) <= 1e-12


def test_criterion_9_monte_carlo_convergence():
    with criterion("9 monte carlo convergence", 5.0):
        prop = z_property(1.0)
        gen = prop.observable
        dm = DetectionModel(assignment={("S", 1.0): 0.9, ("S", -1.0): 0.5})
        rho = plus_density()
        draws = sample_outcomes(rho, gen, dm, np.random.default_rng(109), 100_000)
        counts = {1.0: 0, -1.0: 0, "a0": 0}
        for d in draws:
            counts[d] += 1
        assert abs(counts[1.0] / 1e5 - 0.45) <= 0.01
        assert abs(counts[-1.0] / 1e5 - 0.25) <= 0.01
        assert abs(counts["a0"] / 1e5 - 0.30) <= 0.01
        replay = sample_outcomes(rho, gen, dm, np.random.default_rng(109), 100_000)
        assert draws == replay


def test_criterion_10_dynamics():
    with criterion("10 dynamics", 5.0):
        rng = np.random.default_rng(110)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            rho = random_density(rng, dim)
            gen = GeneralizedObservable(random_observable(rng, dim))
            dm = random_detection_model(rng, "S", gen.base.eigenvalues)
            prop = Property(gen, random_sigma(rng, gen.base.eigenvalues))
            if probability_triple(rho, prop, dm).overall > 1e-6:
                updated = luders_update(rho, prop, dm)
                assert validate_density_operator(updated.matrix).valid

            ham = random_observable(rng, dim)
            t1, t2 = rng.uniform(-4.0, 4.0, size=2)
            evolved = unitary_evolve(rho, ham, t1 + t2)
            assert abs(float(np.trace(evolved.matrix).real) - 1.0) <= 1e-10
            before = np.sort(np.linalg.eigvalsh(rho.matrix))
            after = np.sort(np.linalg.eigvalsh(evolved.matrix))
            assert np.max(np.abs(before - after)) <= 1e-10
            stepwise = unitary_evolve(unitary_evolve(rho, ham, t1), ham, t2)
            assert np.max(np.abs(stepwise.matrix - evolved.matrix)) <= 1e-10
