"""Invariant suites pass on a pristine build and fail under injected faults."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from esrsim import selftest
from esrsim.correlations import trichotomic_expectation
from esrsim.linalg import DensityOperator
from esrsim.measurement import luders_update
from esrsim.selftest import (
    chsh_bound_suite,
    conditional_correlation_suite,
    fundamental_equation_suite,
    lp_certificate_suite,
    qm_reduction_suite,
    run_self_test,
)


def test_pristine_build_passes():
    start = time.perf_counter()
    report = run_self_test()
    elapsed = time.perf_counter() - start
    assert report.passed
    names = [s.name for s in report.suites]
    assert names == [
        "fundamental-equation",
        "qm-reduction",
        "chsh-bound",
        "lp-certificate",
        "conditional-correlation",
    ]
    assert elapsed < 60.0


def test_individual_suites_report_deviations():
    suite = fundamental_equation_suite(n=100)
    assert suite.passed
    assert suite.max_deviation <= 1e-12
    suite = qm_reduction_suite(n=50)
    assert suite.passed
    assert suite.max_deviation <= 1e-10
    assert chsh_bound_suite(n_mixtures=100).passed
    assert lp_certificate_suite().passed
    suite = conditional_correlation_suite(n=50)
    assert suite.passed
    assert suite.checks == 50
    assert suite.max_deviation <= 1e-12


def _broken_luders(rho, prop, dm, state_label="S"):
    # Test-only fault: returns a state rotated out of the sigma eigenspace,
    # emulating a sign error in the update.
    updated = luders_update(rho, prop, dm, state_label)
    n = updated.dimension
    flip = np.eye(n, dtype=complex)
    flip[0, 0] = 0.0
    flip[0, 1] = 1.0
    flip[1, 1] = 0.0
    flip[1, 0] = 1.0
    return DensityOperator(flip @ updated.matrix @ flip.conj().T)


def test_fault_injection_fails_fundamental_suite(monkeypatch):
    monkeypatch.setattr(selftest, "luders_update", _broken_luders)
    suite = fundamental_equation_suite(n=60)
    assert not suite.passed
    assert "post-update" in suite.detail


def test_fault_injection_duck_typed_update_fails_fundamental_suite(monkeypatch):
    # Test-only fault: an updater that bypasses the DensityOperator
    # constructor and hands back a matrix with a negative eigenvalue.
    def luders(rho, prop, dm, state_label="S"):
        bad = np.zeros((rho.dimension, rho.dimension), dtype=complex)
        bad[0, 0], bad[1, 1] = 1.5, -0.5
        return SimpleNamespace(matrix=bad, dimension=rho.dimension)

    monkeypatch.setattr(selftest, "luders_update", luders)
    suite = fundamental_equation_suite(n=20)
    assert not suite.passed
    assert "post-update" in suite.detail


def test_one_eigensolve_per_density_operator(monkeypatch):
    calls = {"eigvalsh": 0, "DensityOperator": 0}
    eigvalsh = np.linalg.eigvalsh
    init = DensityOperator.__init__

    def counting_eigvalsh(*args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["DensityOperator"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(DensityOperator, "__init__", counting_init)
    suite = fundamental_equation_suite(n=50)
    assert suite.passed
    # One object per instance plus one per update, each solved once.
    assert calls["DensityOperator"] > 50
    assert calls["eigvalsh"] == calls["DensityOperator"]


def test_fault_injection_fails_qm_reduction_suite(monkeypatch):
    monkeypatch.setattr(selftest, "luders_update", _broken_luders)
    suite = qm_reduction_suite(n=30)
    assert not suite.passed


def test_fault_injection_fails_whole_report(monkeypatch):
    monkeypatch.setattr(selftest, "luders_update", _broken_luders)
    report = run_self_test()
    assert not report.passed


def test_fault_injection_fails_conditional_correlation_suite(monkeypatch):
    # Test-only fault: the overall correlation, not divided by the
    # joint-detection mass, stands in for the conditional one.
    monkeypatch.setattr(selftest, "conditional_expectation", trichotomic_expectation)
    suite = conditional_correlation_suite(n=20)
    assert not suite.passed
    assert suite.max_deviation > 1e-3


def test_fault_injection_fails_chsh_bound_suite(monkeypatch):
    # Test-only fault: every strategy answers A = (2, 2), B = (2, 0), whose
    # CHSH combination |E_ab - E_ac| + |E_db + E_dc| is 8, not at most 2.
    broken = np.tile(np.array([[2, 2], [2, 0]]), (81, 1, 1))
    monkeypatch.setattr(selftest, "enumerate_local_strategies", lambda parties, settings: broken)
    suite = chsh_bound_suite(n_mixtures=20)
    assert not suite.passed
    assert suite.max_deviation == pytest.approx(6.0)
    assert suite.checks == 21
