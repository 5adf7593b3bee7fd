"""Write or check the sha256 digest of every report a fixed set of configs produces.

    python3 scripts/report_digests.py --check   # exit 1 and name each entry whose bytes moved
    python3 scripts/report_digests.py --write   # rewrite the manifest from this checkout

The set: the csv and json reports of the shipped ``configs/*.json``, of the
configs ``bench/gen.py`` generates for seed 301 (Monte Carlo at the
``--samples`` its manifest gives), of a ghz-quantum and of a self-test
config, of two ghz-local-model configs on the noisy GHZ state
p·|GHZ⟩⟨GHZ| + (1−p)·I/8 (p = 0.8, whose targets are ±0.8, not ±1: one
``min_efficiency`` with a local model and one without), plus the stdout of
``esr-sim self-test``.  Each run goes through
``esrsim.cli.main`` in-process.  ``bench/`` is only read.

A change that keeps report bytes shows a clean ``--check``; a change that
moves them rewrites the manifest and names the moved entries.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "scripts" / "report_digests.json"
SEED = 301
EXTRA_SCENARIOS = ("ghz-quantum", "self-test")  # no shipped or generated config has these
NOISY_GHZ_P = 0.8
NOISY_GHZ_EFFICIENCIES = (0.6, 0.9)  # below and above the threshold (4p+1)/(6p) = 0.875

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from esrsim import cli  # noqa: E402
from gen import write_cli_inputs  # noqa: E402


def _digest(argv: list[str]) -> str:
    """sha256 of what ``esr-sim argv`` writes to stdout, or "exit N" if it fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest() if code == 0 else f"exit {code}"


def _noisy_ghz_config(p: float, min_efficiency: float) -> dict:
    """A ghz-local-model config on p·|GHZ⟩⟨GHZ| + (1−p)·I/8."""
    matrix = [[0.0] * 8 for _ in range(8)]
    for i in range(8):
        matrix[i][i] = (1.0 - p) / 8.0
    for i in (0, 7):
        for j in (0, 7):
            matrix[i][j] += p / 2.0
    return {
        "scenario_type": "ghz-local-model",
        "state": [[[value, 0.0] for value in row] for row in matrix],
        "min_efficiency": min_efficiency,
    }


def digests() -> dict[str, str]:
    """{entry name: digest of its bytes}, in a fixed order."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        entries = write_cli_inputs(SEED, ROOT / "configs", tmp / "generated")["entries"]
        for scenario in EXTRA_SCENARIOS:
            path = tmp / f"{scenario}.json"
            path.write_text(json.dumps({"scenario_type": scenario}))
            entries.append({"name": scenario, "path": str(path), "samples": None})
        for eta in NOISY_GHZ_EFFICIENCIES:
            name = f"ghz-local-model-noisy-p{NOISY_GHZ_P}-eta{eta}"
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(_noisy_ghz_config(NOISY_GHZ_P, eta)))
            entries.append({"name": name, "path": str(path), "samples": None})
        for entry in entries:
            for fmt in ("csv", "json"):
                argv = ["run", "--scenario", entry["path"], "--format", fmt]
                if entry["samples"] is not None:
                    argv += ["--samples", str(entry["samples"])]
                found[f"{entry['name']}.{fmt}"] = _digest(argv)
    found["self-test.stdout"] = _digest(["self-test"])
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rewrite the manifest")
    mode.add_argument("--check", action="store_true", help="compare against the manifest")
    args = parser.parse_args(argv)

    found = digests()
    failed = [name for name, digest in found.items() if digest.startswith("exit")]
    if args.write and failed:
        print(f"not written: {', '.join(failed)} failed")
        return 1
    if args.write:
        MANIFEST.write_text(json.dumps(found, indent=1) + "\n")
        print(f"wrote {len(found)} digests to {MANIFEST.relative_to(ROOT)}")
        return 0
    want = json.loads(MANIFEST.read_text())
    moved = [name for name in sorted(want.keys() | found.keys()) if want.get(name) != found.get(name)]
    for name in moved:
        print(f"MOVED {name}: manifest {want.get(name)}, now {found.get(name)}")
    print(f"{len(found) - len(moved)} of {len(found)} digests match the manifest")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
