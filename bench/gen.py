"""Seeded input generation for the three workloads.

Only numpy is used here: the program under test receives the generated
inputs and nothing else.  Every workload is a sequence of *rounds*.  A round
holds a fixed multiset of item classes, so the cost mix of any run prefix
barely depends on the seed; the seed picks the contents (matrices, spectra,
angles, grids, efficiencies, suite seeds) and the order within a round.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

CLI_SAMPLES = 1_000_000
GHZ_FEASIBLE_SIDE = (0.55, 0.80)  # the LP's feasibility edge sits near 5/6
GHZ_INFEASIBLE_SIDE = (0.87, 1.0)
GHZ_TOLERANCE = (1e-6, 1e-3)
CHSH_ANGLES_DEG = (0.0, 90.0, 45.0, 135.0)  # a, d, b, c at the quantum optimum
CHSH_JITTER_DEG = 10.0  # keeps lhs(1) > 2, so every scan bisects
FUNDAMENTAL_CHUNK = 10
QM_CHUNK = 10
CHSH_MIXTURES = 200
# Spectral blocks per (kind, dimension): a fixed Latin square, so each kind and
# each dimension sees 2, 3 and 4 blocks once and a round's JSON volume (which
# sets its parse and render cost) does not depend on the seed.
BLOCKS = {
    "probability-triple": {8: 2, 32: 3, 64: 4},
    "luders": {8: 3, 32: 4, 64: 2},
    "evolve": {8: 4, 32: 2, 64: 3},
}


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _pairs(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _mixed_state(rng, n):
    w = rng.random(n) + 1e-3
    w /= w.sum()
    u = _unitary(rng, n)
    rho = u @ np.diag(w) @ u.conj().T
    return (rho + rho.conj().T) / 2.0


def _pure_state(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    return (rho + rho.conj().T) / 2.0


def _spectral(rng, n, blocks):
    """Eigenvalues (distinct, gap >= 0.1) and rank-partitioned projectors."""
    u = _unitary(rng, n)
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=blocks - 1, replace=False))
    bounds = [0, *cuts, n]
    projectors = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        cols = u[:, lo:hi]
        p = cols @ cols.conj().T
        projectors.append((p + p.conj().T) / 2.0)
    while True:
        evs = np.sort(rng.uniform(-3.0, 3.0, size=blocks))[::-1]
        if np.min(-np.diff(evs)) >= 0.1:
            break
    return [float(e) for e in evs], projectors


def _observable(rng, n, blocks):
    evs, projectors = _spectral(rng, n, blocks)
    return evs, {"eigenvalues": evs, "projectors": [_pairs(p) for p in projectors]}


def _sigma(rng, evs):
    k = int(rng.integers(1, len(evs) + 1))
    chosen = sorted(int(i) for i in rng.choice(len(evs), size=k, replace=False))
    return [evs[i] for i in chosen]


def _detection(rng, evs, labels=("S",)):
    return {
        "default": float(rng.uniform(0.3, 1.0)),
        "entries": [
            {"state": label, "eigenvalue": ev, "value": float(rng.uniform(0.3, 1.0))}
            for label in labels
            for ev in evs
        ],
    }


def _grid(rng):
    points = int(rng.integers(11, 22))
    return sorted(float(d) for d in rng.uniform(0.0, 1.0, size=points))


def _cli_measurement_config(rng, kind, n, blocks):
    evs, obs = _observable(rng, n, blocks)
    config = {"scenario_type": kind, "dimension": n, "state": _pairs(_mixed_state(rng, n))}
    if kind == "evolve":
        config["hamiltonian"] = obs
        config["time"] = float(rng.uniform(0.1, 3.0))
        return config
    config.update(observable=obs, sigma=_sigma(rng, evs), detection_model=_detection(rng, evs))
    if kind == "monte-carlo":
        config["seed"] = int(rng.integers(0, 2**63))
    return config


def _cli_mixture_config(rng):
    n, k = 8, int(rng.integers(2, 9))
    labels = [f"w{i}" for i in range(k)]
    w = rng.random(k) + 0.1
    w /= w.sum()
    weights = [float(x) for x in w[:-1]]
    weights.append(1.0 - math.fsum(weights))
    evs, obs = _observable(rng, n, 3)
    return {
        "scenario_type": "mixture-divergence",
        "dimension": n,
        "components": [
            {"weight": wt, "state": _pairs(_pure_state(rng, n)), "label": label}
            for wt, label in zip(weights, labels)
        ],
        "observable": obs,
        "sigma": _sigma(rng, evs),
        "detection_model": _detection(rng, evs, labels),
    }


def chsh_angles_deg(rng) -> list[float]:
    return [a + float(rng.uniform(-CHSH_JITTER_DEG, CHSH_JITTER_DEG)) for a in CHSH_ANGLES_DEG]


def bell_angles_deg(rng) -> list[float]:
    return [float(x) for x in rng.uniform(0.0, 180.0, size=3)]


def ghz_efficiency(rng, feasible_side: bool) -> float:
    lo, hi = GHZ_FEASIBLE_SIDE if feasible_side else GHZ_INFEASIBLE_SIDE
    return float(rng.uniform(lo, hi))


def ghz_tolerance(rng) -> float:
    return float(10.0 ** rng.uniform(math.log10(GHZ_TOLERANCE[0]), math.log10(GHZ_TOLERANCE[1])))


def cli_configs(seed: int) -> list[tuple[str, dict]]:
    """The generated cli-batch configs of one seed, in a fixed class order.

    Probability-triple, Lueders and evolve configs come at dimensions 8, 32
    and 64 with the spectral block counts of ``BLOCKS``.
    """
    rng = np.random.default_rng([seed, 1])
    out = []
    for kind, dims in BLOCKS.items():
        for n, blocks in dims.items():
            out.append((f"{kind}-{n}", _cli_measurement_config(rng, kind, n, blocks)))
    out.append(("monte-carlo-8", _cli_measurement_config(rng, "monte-carlo", 8, 3)))
    out.append(("mixture-divergence-8", _cli_mixture_config(rng)))
    out.append(("chsh-scan", {
        "scenario_type": "chsh-scan", "angles_deg": chsh_angles_deg(rng), "d_grid": _grid(rng),
    }))
    out.append(("bell-scan", {
        "scenario_type": "bell-scan", "angles_deg": bell_angles_deg(rng), "d_grid": _grid(rng),
    }))
    for side in (True, False):
        out.append((f"ghz-local-model-{'feasible' if side else 'infeasible'}", {
            "scenario_type": "ghz-local-model",
            "min_efficiency": ghz_efficiency(rng, side),
            "min_joint_detection": 1e-6,
        }))
    return out


def write_cli_inputs(seed: int, shipped_dir: Path, out_dir: Path) -> dict:
    """Write the generated configs; return the manifest of one cli-batch round.

    Each manifest entry names the config path, its scenario type and the
    ``--samples`` override (Monte Carlo runs at 10^6 draws).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for path in sorted(shipped_dir.glob("*.json")):
        entries.append({"name": f"shipped:{path.stem}", "path": str(path), "samples": None})
    digest = hashlib.sha256()
    for name, config in cli_configs(seed):
        text = json.dumps(config, separators=(",", ":")).encode()
        digest.update(text)
        path = out_dir / f"{name}.json"
        path.write_bytes(text)
        samples = CLI_SAMPLES if config["scenario_type"] == "monte-carlo" else None
        entries.append({"name": name, "path": str(path), "samples": samples})
    manifest = {"seed": seed, "entries": entries, "digest": digest.hexdigest()}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def cli_round(seed: int, index: int, entries: list[dict]) -> list[dict]:
    """One round: every config once, shuffled.

    Each config keeps one report format (alternating in manifest order), so
    a run that stops part-way through a round does not tilt the csv/json mix.
    """
    rng = np.random.default_rng([seed, 2, index])
    return [
        dict(entries[i], fmt="json" if i % 2 else "csv")
        for i in rng.permutation(len(entries))
    ]


def invariants_round(seed: int, index: int) -> list[dict]:
    """Five fundamental-equation chunks, one qm-reduction chunk, one CHSH-bound
    call and one LP-certificate call, each suite with its own drawn seed."""
    rng = np.random.default_rng([seed, 3, index])
    items = [{"suite": "fundamental_equation", "n": FUNDAMENTAL_CHUNK} for _ in range(5)]
    items.append({"suite": "qm_reduction", "n": QM_CHUNK})
    items.append({"suite": "chsh_bound", "n": CHSH_MIXTURES})
    items.append({"suite": "lp_certificate"})
    for item in items:
        item["seed"] = int(rng.integers(0, 2**32))
    return [items[i] for i in rng.permutation(len(items))]


def sweeps_round(seed: int, index: int) -> list[dict]:
    """Two CHSH efficiency scans, two Bell scans and two GHZ local-model
    searches, one on each side of the feasibility edge."""
    rng = np.random.default_rng([seed, 4, index])
    items = []
    for _ in range(2):
        items.append({"kind": "chsh", "angles_deg": chsh_angles_deg(rng), "d_grid": _grid(rng)})
    for _ in range(2):
        items.append({"kind": "bell", "angles_deg": bell_angles_deg(rng), "d_grid": _grid(rng)})
    for side in (True, False):
        items.append({
            "kind": "ghz",
            "min_efficiency": ghz_efficiency(rng, side),
            "tolerance": ghz_tolerance(rng),
        })
    return [items[i] for i in rng.permutation(len(items))]
