"""Finite-dimensional simulator for detection-conditioned quantum measurement.

The package splits into:

- :mod:`esrsim.linalg` - dense complex Hermitian matrices, density/observable
  validators and the package's two numeric tolerances;
- :mod:`esrsim.measurement` - generalized observables with a no-registration
  outcome, detection models, the (overall, detection, conditional) probability
  triple, generalized Lueders update, unitary evolution, seeded sampling;
- :mod:`esrsim.mixtures` - improper versus proper mixtures and their
  divergence;
- :mod:`esrsim.hidden_variables` / :mod:`esrsim.simplex` - microstate models,
  deterministic strategy enumeration and LP feasibility with a dense two-phase
  simplex;
- :mod:`esrsim.correlations` - trichotomic correlation experiments, modified
  Bell/CHSH inequality reports, efficiency scans, GHZ predictions and the
  LP-backed GHZ local-model search;
- :mod:`esrsim.cli` - the ``esr-sim`` scenario runner.
"""

from .linalg import (
    ARITHMETIC_TOL,
    STRUCTURAL_TOL,
    DensityOperator,
    SpectralObservable,
    ValidityReport,
    tensor_product,
    validate_density_operator,
    validate_spectral_observable,
)
from .measurement import (
    DetectionModel,
    Effect,
    GeneralizedObservable,
    ProbabilityTriple,
    Property,
    build_effect,
    luders_update,
    no_detection_probability,
    probability_triple,
    sample_outcome,
    sample_outcomes,
    unitary_evolve,
)
from .mixtures import (
    ImproperMixture,
    ProperComponent,
    ProperMixture,
    esr_qm_divergence,
    improper_probability_triple,
    proper_conditional_probability,
    proper_overall_probability,
)
from .hidden_variables import (
    CorrelationTarget,
    MicroPropertySet,
    MicrostateModel,
    build_feasibility_lp,
    enumerate_local_strategies,
    macro_from_micro,
)
from .simplex import (
    FeasibilityProblem,
    LPResult,
    feasibility_residuals,
    solve_lp_simplex,
)
from .correlations import (
    GHZScenario,
    InequalityReport,
    TwoPartyScenario,
    brute_force_trichotomic_bound,
    conditional_expectation,
    efficiency_scan,
    ghz_local_model_search,
    ghz_quantum_correlations,
    ghz_state,
    modified_bell_report,
    modified_chsh_report,
    singlet_state,
    spin_observable,
    trichotomic_expectation,
)

__version__ = "0.1.0"
