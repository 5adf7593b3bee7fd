"""Independent references for every benchmark item.

Nothing here imports ``esrsim``.  Configs are read as plain JSON and every
expected value is recomputed with numpy from the definitions (Tr[rho P],
Tr[rho T], T rho T^dagger / Tr, U = sum exp(-i E t) P, the singlet closed
form E(x, y) = -cos(x - y)); GHZ verdicts come from ``scipy.optimize.linprog``
on an LP built here.  A check returns a list of problems (empty when the
output is right) and fills a dict of headroom gauges.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np

VALUE_TOL = 1e-9
PRODUCT_LAW_LIMIT = 1e-12
GHZ_RESIDUAL_LIMIT = 1e-9
BINOMIAL_Z = 6.0
SUITE_LIMITS = {  # pass limits the self-test suites state for max_deviation
    "fundamental_equation": 1e-12,
    "qm_reduction": 1e-10,
    "chsh_bound": 1e-12,
    "lp_certificate": 1e-9,
}
GHZ_CONTEXTS = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
GHZ_TARGETS = (1.0, -1.0, -1.0, -1.0)  # XXX, XYY, YXY, YYX on (|000> + |111>)/sqrt(2)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def matrix(node) -> np.ndarray:
    a = np.asarray(node, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def parse_report(data: bytes, fmt: str) -> dict:
    """Report bytes to {record name: (value, residual)}."""
    if fmt == "json":
        doc = json.loads(data)
        return {r["name"]: (r["value"], r["residual"]) for r in doc["results"]}
    rows = list(csv.reader(io.StringIO(data.decode())))
    if rows[0] != ["scenario", "record_name", "value", "residual"]:
        raise ValueError(f"unexpected CSV header {rows[0]}")
    return {
        name: (float(v) if v else None, float(r) if r else None)
        for _, name, v, r in rows[1:]
    }


class Checker:
    def __init__(self):
        self.problems: list[str] = []
        self.gauges: dict[str, float] = {}

    def close(self, name, got, want, tol=VALUE_TOL):
        if want is None or got is None:
            if got is not want:
                self.problems.append(f"{name}: got {got}, want {want}")
        elif not abs(got - want) <= tol:
            self.problems.append(f"{name}: got {got!r}, want {want!r}")

    def gauge(self, name, value, limit):
        self.gauges[name] = max(self.gauges.get(name, 0.0), value / limit)


def _detection_lookup(node):
    if node is None:
        return lambda label, ev: 1.0
    if isinstance(node, (int, float)):
        return lambda label, ev: float(node)
    table = {(e["state"], float(e["eigenvalue"])): float(e["value"]) for e in node.get("entries", [])}
    default = float(node.get("default", 1.0))
    return lambda label, ev: table.get((label, float(ev)), default)


def spectrum(node):
    return [float(e) for e in node["eigenvalues"]], [matrix(p) for p in node["projectors"]]


def _triple(rho, evs, projs, sigma, detect, label):
    p_sigma = sum(p for ev, p in zip(evs, projs) if ev in sigma)
    t = sum(detect(label, ev) * p for ev, p in zip(evs, projs) if ev in sigma)
    conditional = float(np.trace(rho @ p_sigma).real)
    overall = float(np.trace(rho @ t).real)
    detection = overall / conditional if conditional > 1e-12 else None
    return overall, detection, conditional, t


def _state_records(ck, rec, prefix, m):
    for i, j in itertools.product(range(m.shape[0]), repeat=2):
        ck.close(f"{prefix}_{i}_{j}_re", rec.get(f"{prefix}_{i}_{j}_re", (None,))[0], m[i, j].real)
        ck.close(f"{prefix}_{i}_{j}_im", rec.get(f"{prefix}_{i}_{j}_im", (None,))[0], m[i, j].imag)


def chsh_lhs(angles_rad, d):
    a, dd, b, c = angles_rad
    return d * d * (abs(math.cos(a - b) - math.cos(a - c)) + abs(math.cos(dd - b) + math.cos(dd - c)))


def bell_lhs(angles_rad, d):
    a, b, c = angles_rad
    return d * d * abs(math.cos(a - b) - math.cos(a - c))


def check_chsh_scan(ck, angles_rad, grid, lhs_values, threshold, tolerance):
    for d, got in zip(grid, lhs_values):
        ck.close(f"lhs[d={_fmt(d)}]", got, chsh_lhs(angles_rad, d))
    top = chsh_lhs(angles_rad, 1.0)
    want = math.sqrt(2.0 / top) if top > 2.0 else None
    if want is None or threshold is None:
        ck.close("threshold", threshold, want)
        return
    error = abs(threshold - want)
    ck.gauge("threshold_error", error, tolerance)
    if not error <= tolerance:
        ck.problems.append(f"threshold {threshold!r} is {error:.3e} from sqrt(2/lhs(1)) = {want!r}")


def check_bell_scan(ck, angles_rad, grid, lhs_values):
    for d, got in zip(grid, lhs_values):
        ck.close(f"lhs[d={_fmt(d)}]", got, bell_lhs(angles_rad, d))


class GHZOracle:
    """Feasibility of the GHZ local-model LP, decided by scipy's HiGHS."""

    def __init__(self):
        from scipy.optimize import linprog

        self._linprog = linprog
        s = np.array(list(itertools.product((-1, 0, 1), repeat=6))).reshape(-1, 3, 2)
        self._marginals = [(s[:, p, k] != 0).astype(float) for p in range(3) for k in range(2)]
        self._contexts = []
        for ctx in GHZ_CONTEXTS:
            sel = s[:, [0, 1, 2], list(ctx)]
            self._contexts.append((sel.prod(axis=1).astype(float), (sel != 0).all(axis=1).astype(float)))
        self._memo: dict[tuple, bool] = {}

    def feasible(self, min_efficiency, tolerance=0.0, min_joint=1e-6) -> bool:
        key = (min_efficiency, tolerance, min_joint)
        if key not in self._memo:
            self._memo[key] = self._solve(*key)
        return self._memo[key]

    def _solve(self, min_efficiency, tolerance, min_joint) -> bool:
        n = len(self._marginals[0])
        a_eq, b_eq, a_ub, b_ub = [np.ones(n)], [1.0], [], []
        for (prod, det), t in zip(self._contexts, GHZ_TARGETS):
            if tolerance == 0.0:
                a_eq.append(prod - t * det)
                b_eq.append(0.0)
            else:
                a_ub += [prod - (t + tolerance) * det, -(prod - (t - tolerance) * det)]
                b_ub += [0.0, 0.0]
            if min_joint > 0.0:
                a_ub.append(-det)
                b_ub.append(-min_joint)
        if min_efficiency > 0.0:
            a_ub += [-m for m in self._marginals]
            b_ub += [-min_efficiency] * len(self._marginals)
        res = self._linprog(np.zeros(n), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                            bounds=(0, None), method="highs")
        if res.status not in (0, 2):
            raise RuntimeError(f"linprog status {res.status}: {res.message}")
        return res.status == 0


def check_ghz(ck, oracle, feasible, min_efficiency, tolerance, min_joint,
              max_residual=None, correlations=None, joint_masses=None, efficiencies=None):
    want = oracle.feasible(min_efficiency, tolerance, min_joint)
    if feasible != want:
        ck.problems.append(f"GHZ verdict {'feasible' if feasible else 'infeasible'}, linprog says "
                           f"{'feasible' if want else 'infeasible'} at min_efficiency={min_efficiency}")
        return
    if not feasible:
        return
    ck.gauge("ghz_max_residual", max_residual, GHZ_RESIDUAL_LIMIT)
    if not max_residual <= GHZ_RESIDUAL_LIMIT:
        ck.problems.append(f"GHZ certificate residual {max_residual:.3e}")
    for got, t, mass in zip(correlations, GHZ_TARGETS, joint_masses):
        # a row residual r moves a conditional correlation by at most r / mass
        ck.close("GHZ correlation", got, t, tolerance + (max_residual + 1e-12) / mass)
    for value in efficiencies:
        if value < min_efficiency - GHZ_RESIDUAL_LIMIT:
            ck.problems.append(f"GHZ marginal efficiency {value} below {min_efficiency}")


def check_cli(config: dict, samples, records: dict, ghz_oracle, ck: Checker) -> None:
    """Check one ``esr-sim run`` report against the config it was run on."""
    kind = config["scenario_type"]
    value = lambda name: records.get(name, (None, None))[0]  # noqa: E731
    label = config.get("state_label", "S")
    detect = _detection_lookup(config.get("detection_model"))
    if kind in ("probability-triple", "luders", "monte-carlo"):
        rho = matrix(config["state"])
        evs, projs = spectrum(config["observable"])
        sigma = [float(v) for v in config["sigma"]]
        overall, detection, conditional, t = _triple(rho, evs, projs, sigma, detect, label)
        if kind == "probability-triple":
            ck.close("overall", value("overall"), overall)
            ck.close("detection", value("detection"), detection)
            ck.close("conditional", value("conditional"), conditional)
            residual = value("product_law_residual")
            if residual is not None:
                ck.gauge("product_law_residual", residual, PRODUCT_LAW_LIMIT)
                if residual > PRODUCT_LAW_LIMIT:
                    ck.problems.append(f"product law residual {residual:.3e}")
        elif kind == "luders":
            ck.close("yes_probability", value("yes_probability"), overall)
            post = t @ rho @ t.conj().T
            _state_records(ck, records, "post_state", post / np.trace(post).real)
        else:
            n = samples if samples is not None else config.get("samples", 10000)
            probs = [detect(label, ev) * float(np.trace(rho @ p).real) for ev, p in zip(evs, projs)]
            names = [_fmt(ev) for ev in evs] + ["a0"]
            for name, p in zip(names, probs + [1.0 - sum(probs)]):
                got = value(f"freq[{name}]")
                bound = BINOMIAL_Z * math.sqrt(max(p * (1.0 - p), 0.0) / n) + 1e-12
                if got is None or abs(got - p) > bound:
                    ck.problems.append(f"freq[{name}] = {got}, exact {p}, binomial bound {bound:.2e}")
    elif kind == "evolve":
        rho = matrix(config["state"])
        evs, projs = spectrum(config["hamiltonian"])
        u = sum(np.exp(-1j * e * float(config["time"])) * p for e, p in zip(evs, projs))
        _state_records(ck, records, "evolved", u @ rho @ u.conj().T)
        ck.close("trace_deviation", value("trace_deviation"), 0.0)
        ck.close("eigenvalue_drift", value("eigenvalue_drift"), 0.0)
    elif kind == "mixture-divergence":
        evs, projs = spectrum(config["observable"])
        sigma = [float(v) for v in config["sigma"]]
        p_sigma = sum(p for ev, p in zip(evs, projs) if ev in sigma)
        overall = detected = 0.0
        averaged = 0.0
        for comp in config["components"]:
            rho = matrix(comp["state"])
            w = float(comp["weight"])
            averaged = averaged + w * rho
            for ev, p in zip(evs, projs):
                mass = detect(comp["label"], ev) * float(np.trace(rho @ p).real)
                detected += w * mass
                overall += w * mass if ev in sigma else 0.0
        conditional = overall / detected
        born = float(np.trace(averaged @ p_sigma).real)
        ck.close("proper_overall", value("proper_overall"), overall)
        ck.close("proper_conditional", value("proper_conditional"), conditional)
        ck.close("qm_conditional", value("qm_conditional"), born)
        ck.close("divergence", value("divergence"), abs(conditional - born))
    elif kind == "chsh-scan":
        angles = [math.radians(a) for a in config["angles_deg"]]
        grid = [float(d) for d in config["d_grid"]]
        threshold, tolerance = records.get("threshold", (None, None))
        check_chsh_scan(ck, angles, grid, [value(f"lhs[d={_fmt(d)}]") for d in grid],
                        threshold, tolerance)
    elif kind == "bell-scan":
        angles = [math.radians(a) for a in config["angles_deg"]]
        grid = [float(d) for d in config["d_grid"]]
        check_bell_scan(ck, angles, grid, [value(f"lhs[d={_fmt(d)}]") for d in grid])
    elif kind == "ghz-local-model":
        feasible = value("feasible") == 1.0
        names = ("XXX", "XYY", "YXY", "YYX")
        check_ghz(
            ck, ghz_oracle, feasible,
            float(config.get("min_efficiency", 0.0)), 0.0,
            float(config.get("min_joint_detection", 1e-6)),
            value("max_residual"),
            [value(f"correlation_{n}") for n in names],
            [value(f"joint_detection_{n}") for n in names],
            [value(f"efficiency_{p}_{s}") for p in "ABC" for s in "XY"],
        )
    elif kind == "hv-verify":
        target = config["property"]
        table = {(e["microstate"], e["property"]): float(e["value"])
                 for e in config.get("micro_detection", {}).get("entries", [])}
        default = float(config.get("micro_detection", {}).get("default", 1.0))
        overall = detection = 0.0
        for i, (state, w) in enumerate(zip(config["microstates"], config["weights"])):
            d = table.get((i, target), default)
            detection += w * d
            overall += w * d if target in state else 0.0
        ck.close("p_t", value("p_t"), overall)
        ck.close("p_d", value("p_d"), detection)
        ck.close("p", value("p"), overall / detection)
    else:
        ck.problems.append(f"no reference for scenario type {kind!r}")
