"""Improper versus proper mixtures.

Improper mixtures (reduced states) are plain ``DensityOperator`` values and
go through ``measurement.probability_triple`` like pure states.  Proper
mixtures are epistemic weighted families of pure states and get their own
aggregation: overall probabilities average component overalls, while the
conditional-on-detection value renormalizes by the aggregate detected mass.
The two treatments disagree exactly when the components' detection
probabilities differ, which is what makes proper mixtures an experimental
discriminator.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from .linalg import (
    ARITHMETIC_TOL,
    MIN_COMPONENT_WEIGHT,
    STRUCTURAL_TOL,
    DensityOperator,
    Frozen,
    clamp,
)
from .measurement import DetectionModel, Property, detection_mass, probability_triple

__all__ = [
    "ProperComponent",
    "ProperMixture",
    "proper_overall_probability",
    "proper_conditional_probability",
    "esr_qm_divergence",
]


class ProperComponent(Frozen):
    __slots__ = ("weight", "state", "state_label")

    def __init__(self, weight: float, state: DensityOperator, state_label: Hashable):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "state_label", state_label)


class ProperMixture(Frozen):
    """Weighted family of pure states with per-component labels.

    Weights must be positive (>= 1e-9; smaller weights are rejected rather
    than silently dropped) and sum to 1; every component must be pure.
    """

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("proper mixture needs at least one component")
        total = 0.0
        dim = comps[0].state.dimension
        for c in comps:
            if not MIN_COMPONENT_WEIGHT <= c.weight <= 1.0:
                raise ValueError(f"component weight {c.weight} outside [1e-9, 1]")
            if c.state.dimension != dim:
                raise ValueError("component dimensions differ")
            purity = c.state.purity()
            if abs(purity - 1.0) > STRUCTURAL_TOL:
                raise ValueError(
                    f"component {c.state_label!r} is not pure: Tr[rho^2] = {purity}"
                )
            total += c.weight
        if not abs(total - 1.0) <= ARITHMETIC_TOL:
            raise ValueError(f"component weights sum to {total}, not 1")
        object.__setattr__(self, "components", comps)

    @property
    def dimension(self) -> int:
        return self.components[0].state.dimension

    def averaged_density(self) -> DensityOperator:
        """The density operator QM would assign to the same preparation."""
        acc = np.zeros((self.dimension, self.dimension), dtype=complex)
        for c in self.components:
            acc = acc + c.weight * c.state.matrix
        return DensityOperator(acc)


def proper_overall_probability(
    m: ProperMixture,
    prop: Property,
    dm: DetectionModel,
) -> float:
    """Epistemic average of component overall probabilities."""
    return sum(
        c.weight
        * probability_triple(c.state, prop, dm, c.state_label).overall
        for c in m.components
    )


def proper_conditional_probability(
    m: ProperMixture,
    prop: Property,
    dm: DetectionModel,
) -> float | None:
    """Yes-fraction among detected objects of the whole family.

    Numerator is the weighted overall probability; denominator the weighted
    detected mass per component.  Unlike the improper path, component weights
    are reweighted by how detectable each component is, so the result can
    differ from the Born value of the averaged density operator.  Returns
    ``None`` when the aggregate detected mass vanishes.
    """
    overall = proper_overall_probability(m, prop, dm)
    denominator = sum(
        c.weight * detection_mass(c.state, prop.observable, dm, c.state_label)
        for c in m.components
    )
    if denominator <= ARITHMETIC_TOL:
        return None
    return clamp(overall / denominator, 0.0, 1.0, "proper conditional probability")


def esr_qm_divergence(
    m: ProperMixture,
    prop: Property,
    dm: DetectionModel,
) -> float | None:
    """|proper conditional - Born value of the averaged density operator|.

    Zero under uniform detection; propagates ``None`` when the conditional is
    undefined.
    """
    conditional = proper_conditional_probability(m, prop, dm)
    if conditional is None:
        return None
    born = float(np.trace(m.averaged_density().matrix @ prop.projector).real)
    return abs(conditional - born)
