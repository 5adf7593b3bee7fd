"""Core measurement calculus: effect assembly, probability triples, updates, sampling."""

import math

import numpy as np
import pytest

from conftest import ket_density, plus_density, z_generalized, z_observable, z_property
from esrsim.linalg import DensityOperator, SpectralObservable, validate_density_operator
from esrsim.measurement import (
    DetectionModel,
    GeneralizedObservable,
    ProbabilityTriple,
    Property,
    build_effect,
    luders_update,
    outcome_distribution,
    probability_triple,
    sample_indices,
    sample_outcomes,
    unitary_evolve,
)
from esrsim.selftest import (
    random_density,
    random_detection_model,
    random_observable,
    random_sigma,
)

UNIT = DetectionModel.uniform(1.0)
SKEWED = DetectionModel(assignment={("S", 1.0): 0.9, ("S", -1.0): 0.5})


class TestTypes:
    def test_invalid_base_rejected(self):
        half = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(ValueError, match=r"fails P\^2 = P"):
            SpectralObservable(
                eigenvalues=(1.0, -1.0),
                projectors=(half, np.diag([0.5, 0.5]).astype(complex)),
            )

    def test_sigma_must_come_from_spectrum(self):
        with pytest.raises(ValueError, match="not in spectrum"):
            z_property(2.0)

    def test_detection_values_bounded(self):
        with pytest.raises(ValueError, match="outside"):
            DetectionModel(assignment={("S", 1.0): 1.3})
        with pytest.raises(ValueError, match="outside"):
            DetectionModel.uniform(-0.1)

    @pytest.mark.parametrize("eigenvalue", [math.nan, math.inf, -math.inf])
    def test_non_finite_detection_eigenvalue_rejected(self, eigenvalue):
        # No finite spectrum could ever look such a key up.
        with pytest.raises(ValueError, match=f"detection eigenvalue {eigenvalue} for 'S'"):
            DetectionModel(assignment={("S", eigenvalue): 0.5})

    def test_detection_lookup_and_default(self):
        dm = DetectionModel(assignment={("S", 1.0): 0.4}, default_value=0.8)
        assert dm.value("S", 1.0) == 0.4
        assert dm.value("S", -1.0) == 0.8
        assert dm.value("other", 1.0) == 0.8

    def test_triple_product_law_enforced(self):
        with pytest.raises(ValueError, match="product law"):
            ProbabilityTriple(overall=0.9, detection=0.5, conditional=0.5)

    def test_property_projector_is_read_only_in_order_sum(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            base = random_observable(rng, dim)
            sigma = random_sigma(rng, base.eigenvalues)
            sigma = tuple(rng.permutation(sigma).tolist())  # any order, not just spectrum order
            prop = Property(GeneralizedObservable(base), sigma)
            reference = np.zeros((dim, dim), dtype=complex)
            for ev in sigma:
                reference = reference + base.projector_for(ev)
            assert prop.projector.tobytes() == reference.tobytes()
            assert not prop.projector.flags.writeable
            with pytest.raises(ValueError):
                prop.projector[0, 0] = 0.0


class TestBuildEffect:
    def test_single_projector_scaling(self):
        effect = build_effect("S", z_property(1.0), DetectionModel(assignment={("S", 1.0): 0.8}))
        np.testing.assert_allclose(effect, np.diag([0.8, 0.0]), atol=1e-15)

    def test_unit_detection_reduces_to_projector(self):
        prop = z_property(1.0, -1.0)
        effect = build_effect("S", prop, UNIT)
        np.testing.assert_allclose(effect, np.eye(2), atol=1e-15)

    def test_diagonal_assembly(self):
        effect = build_effect("S", z_property(1.0, -1.0), SKEWED)
        np.testing.assert_allclose(effect, np.diag([0.9, 0.5]), atol=1e-15)


class TestProbabilityTriple:
    def test_qm_reduction(self):
        triple = probability_triple(plus_density(), z_property(1.0), UNIT)
        assert triple.overall == pytest.approx(0.5, abs=1e-12)
        assert triple.detection == pytest.approx(1.0, abs=1e-12)
        assert triple.conditional == pytest.approx(0.5, abs=1e-12)

    def test_skewed_detection(self):
        # Hand arithmetic: p_t = 0.9 * 0.5.
        triple = probability_triple(plus_density(), z_property(1.0), SKEWED)
        assert triple.overall == pytest.approx(0.45, abs=1e-12)
        assert triple.detection == pytest.approx(0.9, abs=1e-12)
        assert triple.conditional == pytest.approx(0.5, abs=1e-12)

    def test_full_sigma(self):
        triple = probability_triple(plus_density(), z_property(1.0, -1.0), SKEWED)
        assert triple.overall == pytest.approx(0.7, abs=1e-12)
        assert triple.detection == pytest.approx(0.7, abs=1e-12)
        assert triple.conditional == pytest.approx(1.0, abs=1e-12)

    def test_detection_undefined_when_conditional_vanishes(self):
        triple = probability_triple(ket_density(1, 2), z_property(1.0), SKEWED)
        assert triple.conditional == 0.0
        assert triple.detection is None

    def test_dimension_mismatch(self):
        rho4 = DensityOperator(np.eye(4) / 4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            probability_triple(rho4, z_property(1.0), UNIT)

    def test_fundamental_equation_randomized(self, rng):
        for _ in range(300):
            dim = int(rng.integers(2, 9))
            rho = random_density(rng, dim)
            gen = GeneralizedObservable(random_observable(rng, dim))
            dm = random_detection_model(rng, "S", gen.base.eigenvalues)
            prop = Property(gen, random_sigma(rng, gen.base.eigenvalues))
            triple = probability_triple(rho, prop, dm)
            if triple.conditional > 1e-12:
                assert triple.product_law_residual() <= 1e-12

    def test_monotone_in_sigma(self, rng):
        for _ in range(100):
            dim = int(rng.integers(3, 9))
            rho = random_density(rng, dim)
            gen = GeneralizedObservable(random_observable(rng, dim))
            dm = random_detection_model(rng, "S", gen.base.eigenvalues)
            small = random_sigma(rng, gen.base.eigenvalues)
            extras = [ev for ev in gen.base.eigenvalues if ev not in small]
            big = tuple(sorted(small + tuple(extras[: max(1, len(extras) // 2)])))
            p_small = probability_triple(rho, Property(gen, small), dm).overall
            p_big = probability_triple(rho, Property(gen, big), dm).overall
            assert p_small <= p_big + 1e-12


def _a0_probability(dm) -> float:
    outcomes, probs = outcome_distribution(plus_density(), z_generalized(), dm)
    assert outcomes[-1] == "a0"
    return float(probs[-1])


class TestNoDetection:
    def test_unit_detection(self):
        assert _a0_probability(UNIT) == pytest.approx(0.0, abs=1e-12)

    def test_zero_detection(self):
        assert _a0_probability(DetectionModel.uniform(0.0)) == pytest.approx(1.0)

    def test_hand_value(self):
        assert _a0_probability(SKEWED) == pytest.approx(0.3, abs=1e-12)

    def test_distribution_normalization_randomized(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            rho = random_density(rng, dim)
            gen = GeneralizedObservable(random_observable(rng, dim))
            dm = random_detection_model(rng, "S", gen.base.eigenvalues)
            _, probs = outcome_distribution(rho, gen, dm)
            assert abs(probs.sum() - 1.0) <= 1e-12


class TestLudersUpdate:
    def test_standard_luders(self):
        updated = luders_update(plus_density(), z_property(1.0), UNIT)
        np.testing.assert_allclose(updated.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_scalar_detection_cancels(self):
        dm = DetectionModel(assignment={("S", 1.0): 0.8})
        updated = luders_update(plus_density(), z_property(1.0), dm)
        np.testing.assert_allclose(updated.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_two_outcome_effect(self):
        # T = diag(0.9, 0.5) on |+>: T rho T / tr = [[.81,.45],[.45,.25]] / 1.06.
        updated = luders_update(plus_density(), z_property(1.0, -1.0), SKEWED)
        expected = np.array([[0.81, 0.45], [0.45, 0.25]]) / 1.06
        np.testing.assert_allclose(updated.matrix, expected, atol=1e-12)

    def test_impossible_outcome(self):
        with pytest.raises(ValueError, match="yes-outcome impossible"):
            luders_update(ket_density(1, 2), z_property(1.0), UNIT)

    def test_dimension_mismatch(self):
        rho3 = DensityOperator(np.eye(3) / 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            luders_update(rho3, z_property(1.0), UNIT)

    def test_outputs_always_valid(self, rng):
        for _ in range(60):
            dim = int(rng.integers(2, 7))
            rho = random_density(rng, dim)
            gen = GeneralizedObservable(random_observable(rng, dim))
            dm = random_detection_model(rng, "S", gen.base.eigenvalues)
            prop = Property(gen, random_sigma(rng, gen.base.eigenvalues))
            if probability_triple(rho, prop, dm).overall <= 1e-6:
                continue
            updated = luders_update(rho, prop, dm)
            assert validate_density_operator(updated.matrix).valid


class TestUnitaryEvolve:
    def test_zero_time_identity(self):
        rho = plus_density()
        evolved = unitary_evolve(rho, z_observable(), 0.0)
        np.testing.assert_allclose(evolved.matrix, rho.matrix, atol=1e-15)

    def test_commuting_state_unchanged(self):
        rho = DensityOperator(np.diag([0.7, 0.3]))
        evolved = unitary_evolve(rho, z_observable(), 1.7)
        np.testing.assert_allclose(evolved.matrix, rho.matrix, atol=1e-12)

    def test_quarter_turn_sends_plus_to_minus(self):
        evolved = unitary_evolve(plus_density(), z_observable(), math.pi / 2)
        minus = DensityOperator.from_state_vector([1.0, -1.0])
        np.testing.assert_allclose(evolved.matrix, minus.matrix, atol=1e-12)

    def test_composition_and_spectrum_preservation(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            rho = random_density(rng, dim)
            ham = random_observable(rng, dim)
            t1, t2 = rng.uniform(-3, 3, size=2)
            once = unitary_evolve(unitary_evolve(rho, ham, t1), ham, t2)
            direct = unitary_evolve(rho, ham, t1 + t2)
            assert np.max(np.abs(once.matrix - direct.matrix)) <= 1e-10
            before = np.sort(np.linalg.eigvalsh(rho.matrix))
            after = np.sort(np.linalg.eigvalsh(direct.matrix))
            assert np.max(np.abs(before - after)) <= 1e-10
            assert abs(np.trace(direct.matrix).real - 1.0) <= 1e-10

    @pytest.mark.parametrize(
        "energy, t",
        [(1.0, math.inf), (1.0, math.nan), (2.0, 1e308), (1.0, 1e308)],
        ids=["t-inf", "t-nan", "phase-overflows", "spread-overflows"],
    )
    def test_non_finite_phase_rejected_naming_t(self, energy, t):
        # Raised at the check, before numpy's exp could warn (warnings are
        # errors in this suite, so a warning would not be a ValueError).
        ham = SpectralObservable((energy, -energy), z_observable().projectors)
        with pytest.raises(ValueError, match=r"^t (must|=)"):
            unitary_evolve(plus_density(), ham, t)


class TestSampling:
    def test_certain_outcome(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert sample_outcomes(ket_density(0, 2), z_generalized(), UNIT, rng, 1)[0] == 1.0

    def test_never_detected(self):
        rng = np.random.default_rng(2)
        dm = DetectionModel.uniform(0.0)
        for _ in range(20):
            assert sample_outcomes(plus_density(), z_generalized(), dm, rng, 1)[0] == "a0"

    def test_frequencies_match_distribution(self):
        rng = np.random.default_rng(12345)
        draws = sample_outcomes(plus_density(), z_generalized(), SKEWED, rng, 100_000)
        counts = {1.0: 0, -1.0: 0, "a0": 0}
        for d in draws:
            counts[d] += 1
        assert counts[1.0] / 1e5 == pytest.approx(0.45, abs=0.01)
        assert counts[-1.0] / 1e5 == pytest.approx(0.25, abs=0.01)
        assert counts["a0"] / 1e5 == pytest.approx(0.30, abs=0.01)

    def test_identical_seeds_identical_streams(self):
        a = sample_outcomes(
            plus_density(), z_generalized(), SKEWED, np.random.default_rng(42), 5000
        )
        b = sample_outcomes(
            plus_density(), z_generalized(), SKEWED, np.random.default_rng(42), 5000
        )
        assert a == b

    def test_batch_matches_single_draws(self):
        batch = sample_outcomes(
            plus_density(), z_generalized(), SKEWED, np.random.default_rng(7), 200
        )
        rng = np.random.default_rng(7)
        singles = [
            sample_outcomes(plus_density(), z_generalized(), SKEWED, rng, 1)[0]
            for _ in range(200)
        ]
        assert batch == singles

    @pytest.mark.parametrize(
        "probs", [[math.nan, 1.0], [0.7, 0.7], [-0.1, 1.1]],
        ids=["nan", "unnormalized", "negative"],
    )
    def test_non_distribution_rejected_before_any_draw(self, probs):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="^probs "):
            sample_indices(np.array(probs), rng, 10)
        assert rng.bit_generator.state == before


def _draw(n):
    return sample_indices(np.array([0.5, 0.5]), np.random.default_rng(0), n)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Property(z_generalized(), (1.0, 1.0)), "sigma contains duplicates"),
        (
            lambda: unitary_evolve(ket_density(0, 3), z_observable(), 1.0),
            "dimension mismatch: state is 3-dim, hamiltonian is 2-dim",
        ),
        (lambda: _draw(2.5), "n must be an integer, got 2.5"),
        (lambda: _draw(True), "n must be an integer, got True"),
        (lambda: _draw(math.inf), "n must be an integer, got inf"),
        (lambda: _draw(-1), "n must be nonnegative, got -1"),
    ],
    ids=[
        "duplicate-sigma",
        "evolve-dimension-mismatch",
        "fractional-draws",
        "bool-draws",
        "infinite-draws",
        "negative-draws",
    ],
)
def test_malformed_input_rejected(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
