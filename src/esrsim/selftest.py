"""Cross-module invariant suites, runnable without a test harness.

Five suites cover the load-bearing identities: the overall = detection *
conditional product law (with a post-update certainty leg), the reduction to
unmodified quantum values at unit detection, the exhaustive and randomized
CHSH strategy bound, the GHZ LP feasibility certificate, and the equality of
detection-conditioned and Born correlations (why post-selected Bell tests do
not conflict with quantum mechanics).  The random instance generators here
are shared with the pytest suite.

The suites look up ``luders_update`` and ``conditional_expectation`` in this
module when they run, so a test can patch in a deliberately broken version to
prove the suites have teeth.  A post-update state is valid because it is a
``DensityOperator``, which validates itself on construction; an updater that
returns anything else fails the product-law suite.
"""

from __future__ import annotations

import math

import numpy as np

from .correlations import (
    PAULI_X,
    PAULI_Z,
    GHZScenario,
    TwoPartyScenario,
    brute_force_trichotomic_bound,
    conditional_expectation,
    ghz_local_model_search,
)
from .hidden_variables import enumerate_local_strategies
from .linalg import (
    ARITHMETIC_TOL,
    STRUCTURAL_TOL,
    DensityOperator,
    Frozen,
    SpectralObservable,
)
from .measurement import (
    DetectionModel,
    GeneralizedObservable,
    Property,
    luders_update,
    probability_triple,
)
from .simplex import FEASIBILITY_TOL

__all__ = [
    "SuiteResult",
    "SelfTestReport",
    "run_self_test",
    "random_unitary",
    "random_density",
    "random_observable",
    "random_detection_model",
    "random_sigma",
    "fundamental_equation_suite",
    "qm_reduction_suite",
    "chsh_bound_suite",
    "lp_certificate_suite",
    "conditional_correlation_suite",
]


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    """Random full-rank mixed state from normalized squared Gaussians."""
    weights = rng.random(dim) + 1e-3
    weights /= weights.sum()
    u = random_unitary(rng, dim)
    return DensityOperator(u @ np.diag(weights) @ u.conj().T)


def random_observable(rng: np.random.Generator, dim: int) -> SpectralObservable:
    """Random spectral observable with a random number of distinct eigenvalues."""
    blocks = int(rng.integers(2, dim + 1)) if dim > 1 else 1
    u = random_unitary(rng, dim)
    cuts = sorted(rng.choice(np.arange(1, dim), size=blocks - 1, replace=False)) if blocks > 1 else []
    bounds = [0, *cuts, dim]
    projectors = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        cols = u[:, lo:hi]
        projectors.append(cols @ cols.conj().T)
    eigenvalues = np.sort(rng.uniform(-3.0, 3.0, size=blocks))[::-1]
    while blocks > 1 and np.min(-np.diff(eigenvalues)) < 1e-6:
        eigenvalues = np.sort(rng.uniform(-3.0, 3.0, size=blocks))[::-1]
    return SpectralObservable(eigenvalues=tuple(eigenvalues), projectors=projectors)


def random_detection_model(
    rng: np.random.Generator, state_label, eigenvalues
) -> DetectionModel:
    table = {(state_label, float(ev)): float(rng.random()) for ev in eigenvalues}
    return DetectionModel(assignment=table)


def random_sigma(rng: np.random.Generator, eigenvalues) -> tuple[float, ...]:
    k = int(rng.integers(1, len(eigenvalues) + 1))
    chosen = rng.choice(len(eigenvalues), size=k, replace=False)
    return tuple(float(eigenvalues[i]) for i in sorted(chosen))


class SuiteResult(Frozen):
    __slots__ = ("name", "passed", "checks", "max_deviation", "detail")

    def __init__(self, name: str, passed: bool, checks: int, max_deviation: float,
                 detail: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "max_deviation", max_deviation)
        object.__setattr__(self, "detail", detail)


class SelfTestReport(Frozen):
    __slots__ = ("suites",)

    def __init__(self, suites: tuple[SuiteResult, ...]):
        object.__setattr__(self, "suites", suites)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)


def fundamental_equation_suite(n: int = 1000, seed: int = 20240401) -> SuiteResult:
    """overall = detection * conditional on random instances, plus the
    post-update certainty check Tr[rho' P(sigma)] = 1 on the yes branch.

    The updater must return a ``DensityOperator``, whose constructor has
    already validated it; anything else fails the suite as a post-update
    fault, so the state is never validated twice.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    checks = 0
    for _ in range(n):
        dim = int(rng.integers(2, 9))
        rho = random_density(rng, dim)
        obs = GeneralizedObservable(random_observable(rng, dim))
        dm = random_detection_model(rng, "S", obs.base.eigenvalues)
        prop = Property(obs, random_sigma(rng, obs.base.eigenvalues))
        triple = probability_triple(rho, prop, dm)
        if triple.conditional is not None and triple.conditional > ARITHMETIC_TOL:
            residual = triple.product_law_residual()
            if residual is None:
                return SuiteResult(
                    "fundamental-equation", False, checks, np.inf,
                    f"detection undefined despite conditional > {ARITHMETIC_TOL:g}",
                )
            worst = max(worst, residual)
            checks += 1
        if triple.overall > 1e-6:
            updated = luders_update(rho, prop, dm)
            if not isinstance(updated, DensityOperator):
                return SuiteResult(
                    "fundamental-equation", False, checks, np.inf,
                    f"post-update state is a {type(updated).__name__}, "
                    "not a DensityOperator",
                )
            certainty = float(np.trace(updated.matrix @ prop.projector).real)
            dev = abs(certainty - 1.0)
            if dev > STRUCTURAL_TOL:
                return SuiteResult(
                    "fundamental-equation", False, checks, dev,
                    f"post-update probability of sigma is {certainty}, expected 1",
                )
            checks += 1
    passed = worst <= ARITHMETIC_TOL
    return SuiteResult("fundamental-equation", passed, checks, worst)


def qm_reduction_suite(n: int = 200, seed: int = 20240402) -> SuiteResult:
    """At unit detection, probabilities and updates match plain quantum values."""
    rng = np.random.default_rng(seed)
    unit = DetectionModel.uniform(1.0)
    worst = 0.0
    checks = 0
    for _ in range(n):
        dim = int(rng.integers(2, 9))
        rho = random_density(rng, dim)
        obs = GeneralizedObservable(random_observable(rng, dim))
        prop = Property(obs, random_sigma(rng, obs.base.eigenvalues))
        born = float(np.trace(rho.matrix @ prop.projector).real)
        triple = probability_triple(rho, prop, unit)
        worst = max(worst, abs(triple.overall - born), abs(triple.conditional - born))
        checks += 1
        if born > 1e-6:
            updated = luders_update(rho, prop, unit)
            projected = prop.projector @ rho.matrix @ prop.projector
            standard = projected / float(np.trace(projected).real)
            worst = max(worst, float(np.max(np.abs(updated.matrix - standard))))
            checks += 1
    passed = worst <= STRUCTURAL_TOL
    return SuiteResult("qm-reduction", passed, checks, worst)


def chsh_bound_suite(n_mixtures: int = 1000, seed: int = 20240403) -> SuiteResult:
    """Exhaustive strategy bound equals 2; random mixtures never exceed it."""
    bound = brute_force_trichotomic_bound("chsh")
    if bound.value != 2.0:
        return SuiteResult(
            "chsh-bound", False, 1, abs(bound.value - 2.0),
            f"exhaustive maximum is {bound.value}, expected 2",
        )
    outcomes = enumerate_local_strategies(parties=2, settings=2)
    # Columns ab, ac, db, dc: party A's setting a or d times party B's b or c.
    e = (outcomes[:, 0, :, None] * outcomes[:, 1, None, :]).reshape(len(outcomes), 4)
    # One draw of the n rows is the stream of n draws of one row each.
    w = np.random.default_rng(seed).random((n_mixtures, len(outcomes)))
    corr = (w / w.sum(axis=1, keepdims=True)) @ e.astype(float)
    lhs = np.abs(corr[:, 0] - corr[:, 1]) + np.abs(corr[:, 2] + corr[:, 3])
    worst = float(np.max(lhs - 2.0, initial=0.0))
    passed = worst <= ARITHMETIC_TOL
    return SuiteResult("chsh-bound", passed, n_mixtures + 1, worst)


def lp_certificate_suite() -> SuiteResult:
    """GHZ local-model LP is feasible with tiny residuals, infeasible at unit efficiency."""
    scenario = GHZScenario.standard()
    found = ghz_local_model_search(scenario)
    if not found.feasible:
        return SuiteResult("lp-certificate", False, 1, np.inf, "expected feasible")
    worst = found.max_residual
    for got, want in zip(found.correlations, (1.0, -1.0, -1.0, -1.0)):
        worst = max(worst, abs(got - want))
    forced = ghz_local_model_search(scenario, min_efficiency=1.0)
    if forced.feasible:
        return SuiteResult(
            "lp-certificate", False, 2, worst,
            "unit-efficiency search unexpectedly feasible",
        )
    passed = worst <= FEASIBILITY_TOL
    return SuiteResult("lp-certificate", passed, 2, worst)


def _spin(angle: float) -> np.ndarray:
    return math.cos(angle) * PAULI_Z + math.sin(angle) * PAULI_X


def conditional_correlation_suite(n: int = 200, seed: int = 20240404) -> SuiteResult:
    """With outcome-independent wing efficiencies, the correlation among
    both-detected pairs equals the Born value Tr[rho (A (x) B)]."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        rho = random_density(rng, 4)
        alpha, beta = rng.uniform(0.0, 2.0 * math.pi, size=2)
        eff_a, eff_b = rng.uniform(0.05, 1.0, size=2)
        sc = TwoPartyScenario(
            rho, {"a": alpha, "b": beta},
            DetectionModel.uniform(eff_a), DetectionModel.uniform(eff_b),
        )
        conditional = conditional_expectation(sc, "a", "b").value
        born = float(np.trace(rho.matrix @ np.kron(_spin(alpha), _spin(beta))).real)
        worst = max(worst, abs(conditional - born))
    return SuiteResult("conditional-correlation", worst <= ARITHMETIC_TOL, n, worst)


def run_self_test() -> SelfTestReport:
    suites = (
        fundamental_equation_suite(),
        qm_reduction_suite(),
        chsh_bound_suite(),
        lp_certificate_suite(),
        conditional_correlation_suite(),
    )
    return SelfTestReport(suites=suites)
