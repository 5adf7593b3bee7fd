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

Import names from their submodules, e.g. ``from esrsim.linalg import
DensityOperator``.  Importing the package itself loads no submodule, and
``esr-sim run`` loads, besides ``cli``, only the modules its scenario calls:

- probability-triple, luders, evolve, monte-carlo: ``linalg`` and
  ``measurement``;
- mixture-divergence: those two and ``mixtures``;
- bell-scan, chsh-scan, ghz-quantum: those two and ``correlations``;
- ghz-local-model: those three, ``hidden_variables`` and ``simplex``;
- hv-verify: ``linalg``, ``measurement`` and ``hidden_variables``;
- self-test: every module but ``mixtures``.

No module imports ``dataclasses``: records are plain classes with
``__slots__``, and the immutable ones derive from ``linalg.Frozen``.
"""

__version__ = "0.1.0"
