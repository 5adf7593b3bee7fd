"""Proper versus improper mixture treatments and their divergence."""

import numpy as np
import pytest

from conftest import ket_density, z_property
from esrsim.linalg import DensityOperator
from esrsim.measurement import DetectionModel, probability_triple
from esrsim.mixtures import (
    ProperComponent,
    ProperMixture,
    esr_qm_divergence,
    proper_conditional_probability,
    proper_overall_probability,
)


def two_component_mixture(w0: float = 0.5) -> ProperMixture:
    return ProperMixture(
        (
            ProperComponent(w0, ket_density(0, 2), "w0"),
            ProperComponent(1.0 - w0, ket_density(1, 2), "w1"),
        )
    )


def random_pure_qubit(rng: np.random.Generator) -> DensityOperator:
    return DensityOperator.from_state_vector(rng.normal(size=2) + 1j * rng.normal(size=2))


def by_state(values: dict) -> DetectionModel:
    """Detection that depends on the component label only, not on the outcome."""
    return DetectionModel(
        assignment={(label, ev): v for label, v in values.items() for ev in (1.0, -1.0)}
    )


WING_DETECTION = by_state({"w0": 0.9, "w1": 0.5})


class TestProperMixtureType:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            ProperMixture(
                (
                    ProperComponent(0.5, ket_density(0, 2), "a"),
                    ProperComponent(0.4, ket_density(1, 2), "b"),
                )
            )

    def test_tiny_weights_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            ProperMixture(
                (
                    ProperComponent(1e-12, ket_density(0, 2), "a"),
                    ProperComponent(1.0 - 1e-12, ket_density(1, 2), "b"),
                )
            )

    def test_components_must_be_pure(self):
        mixed = DensityOperator(np.diag([0.5, 0.5]))
        with pytest.raises(ValueError, match="not pure"):
            ProperMixture((ProperComponent(1.0, mixed, "a"),))


class TestImproperPath:
    """An improper mixture is a density operator on the pure-state path."""

    def test_maximally_mixed_example(self):
        rho = DensityOperator(np.eye(2) / 2)
        triple = probability_triple(rho, z_property(1.0), DetectionModel.uniform(0.8))
        assert triple.overall == pytest.approx(0.4, abs=1e-12)
        assert triple.detection == pytest.approx(0.8, abs=1e-12)
        assert triple.conditional == pytest.approx(0.5, abs=1e-12)

    def test_unit_detection_gives_born_value(self, rng):
        rho = random_pure_qubit(rng)
        triple = probability_triple(rho, z_property(1.0), DetectionModel.uniform(1.0))
        born = float(rho.matrix[0, 0].real)
        assert triple.conditional == pytest.approx(born, abs=1e-12)


class TestProperOverall:
    def test_hand_example(self):
        # 0.5*0.9*1 + 0.5*0.5*0 = 0.45
        value = proper_overall_probability(
            two_component_mixture(), z_property(1.0), WING_DETECTION
        )
        assert value == pytest.approx(0.45, abs=1e-12)

    def test_uniform_detection_factorizes(self, rng):
        d = 0.6
        m = two_component_mixture(0.3)
        value = proper_overall_probability(m, z_property(1.0), DetectionModel.uniform(d))
        born = float(np.trace(m.averaged_density().matrix @ np.diag([1.0, 0.0])).real)
        assert value == pytest.approx(d * born, abs=1e-12)

    def test_single_component_equals_pure_state(self):
        m = ProperMixture((ProperComponent(1.0, ket_density(0, 2), "w0"),))
        value = proper_overall_probability(m, z_property(1.0), WING_DETECTION)
        assert value == pytest.approx(0.9, abs=1e-12)

    def test_affine_in_weights(self, rng):
        # Mixing two proper mixtures with coefficient mu mixes overall values.
        prop = z_property(1.0)
        for _ in range(20):
            s1, s2 = random_pure_qubit(rng), random_pure_qubit(rng)
            dm = by_state({"x": rng.random(), "y": rng.random()})
            mu = float(rng.uniform(0.1, 0.9))
            m1 = ProperMixture((ProperComponent(1.0, s1, "x"),))
            m2 = ProperMixture((ProperComponent(1.0, s2, "y"),))
            mixed = ProperMixture(
                (ProperComponent(mu, s1, "x"), ProperComponent(1.0 - mu, s2, "y"))
            )
            lhs = proper_overall_probability(mixed, prop, dm)
            rhs = mu * proper_overall_probability(m1, prop, dm) + (
                1.0 - mu
            ) * proper_overall_probability(m2, prop, dm)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestProperConditional:
    def test_hand_example(self):
        value = proper_conditional_probability(
            two_component_mixture(), z_property(1.0), WING_DETECTION
        )
        assert value == pytest.approx(0.45 / 0.7, abs=1e-12)

    def test_uniform_detection_cancels(self):
        m = two_component_mixture(0.25)
        value = proper_conditional_probability(m, z_property(1.0), DetectionModel.uniform(0.4))
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_unit_detection_gives_qm_mixture_value(self):
        m = two_component_mixture(0.7)
        value = proper_conditional_probability(m, z_property(1.0), DetectionModel.uniform(1.0))
        assert value == pytest.approx(0.7, abs=1e-12)

    def test_zero_aggregate_detection_undefined(self):
        value = proper_conditional_probability(
            two_component_mixture(), z_property(1.0), DetectionModel.uniform(0.0)
        )
        assert value is None

    def test_state_independent_detection_matches_averaged_density(self, rng):
        # Identical per-component detection: the divergence vanishes and the
        # conditional equals the Born value of the averaged state.
        prop = z_property(1.0)
        for _ in range(50):
            d = float(rng.uniform(0.05, 1.0))
            w = float(rng.uniform(0.1, 0.9))
            m = ProperMixture(
                (
                    ProperComponent(w, random_pure_qubit(rng), "p"),
                    ProperComponent(1.0 - w, random_pure_qubit(rng), "q"),
                )
            )
            value = proper_conditional_probability(m, prop, DetectionModel.uniform(d))
            born = float(
                np.trace(m.averaged_density().matrix @ np.diag([1.0, 0.0])).real
            )
            assert value == pytest.approx(born, abs=1e-12)


class TestDivergence:
    def test_hand_example(self):
        value = esr_qm_divergence(two_component_mixture(), z_property(1.0), WING_DETECTION)
        assert value == pytest.approx(0.45 / 0.7 - 0.5, abs=1e-12)

    def test_uniform_detection_zero(self):
        value = esr_qm_divergence(
            two_component_mixture(0.3), z_property(1.0), DetectionModel.uniform(0.8)
        )
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_unit_detection_zero(self):
        value = esr_qm_divergence(
            two_component_mixture(0.3), z_property(1.0), DetectionModel.uniform(1.0)
        )
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_propagates_undefined(self):
        value = esr_qm_divergence(
            two_component_mixture(), z_property(1.0), DetectionModel.uniform(0.0)
        )
        assert value is None

    def test_zero_iff_detection_coincides(self, rng):
        # Randomized two-component mixtures with per-component uniform
        # detection d_i: divergence is w1 w2 |d1-d2| |p1-p2| / (sum w d), so it
        # vanishes exactly when the detections coincide or the Born values do.
        prop = z_property(1.0)
        for _ in range(100):
            w = float(rng.uniform(0.1, 0.9))
            s1, s2 = random_pure_qubit(rng), random_pure_qubit(rng)
            d1, d2 = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))
            m = ProperMixture(
                (ProperComponent(w, s1, "c1"), ProperComponent(1.0 - w, s2, "c2"))
            )
            dm = by_state({"c1": d1, "c2": d2})
            value = esr_qm_divergence(m, prop, dm)
            p1 = float(s1.matrix[0, 0].real)
            p2 = float(s2.matrix[0, 0].real)
            predicted = (
                w * (1.0 - w) * abs(d1 - d2) * abs(p1 - p2) / (w * d1 + (1.0 - w) * d2)
            )
            assert value == pytest.approx(predicted, abs=1e-12)
            if abs(d1 - d2) > 1e-3 and abs(p1 - p2) > 1e-3:
                assert value > 1e-12

    def test_zero_when_born_values_coincide(self, rng):
        # Distinct detections but identical Born weights: no divergence.
        prop = z_property(1.0)
        s1 = random_pure_qubit(rng)
        z = np.diag([1.0, -1.0]).astype(complex)
        s2 = DensityOperator(z @ s1.matrix @ z)  # same diagonal, different state
        m = ProperMixture(
            (ProperComponent(0.5, s1, "c1"), ProperComponent(0.5, s2, "c2"))
        )
        dm = by_state({"c1": 0.9, "c2": 0.3})
        assert esr_qm_divergence(m, prop, dm) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "components, message",
    [
        ((), "proper mixture needs at least one component"),
        (
            (
                ProperComponent(0.5, ket_density(0, 2), "qubit"),
                ProperComponent(0.5, ket_density(0, 3), "qutrit"),
            ),
            "component dimensions differ",
        ),
        (
            (
                ProperComponent(float("nan"), ket_density(0, 2), "nan"),
                ProperComponent(1.0, ket_density(1, 2), "one"),
            ),
            "component weight nan outside [1e-9, 1]",
        ),
    ],
    ids=["no-components", "mixed-dimensions", "nan-weight"],
)
def test_malformed_mixture_rejected(components, message):
    with pytest.raises(ValueError) as excinfo:
        ProperMixture(components)
    assert str(excinfo.value) == message
