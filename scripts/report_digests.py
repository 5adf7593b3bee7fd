"""Write or check the sha256 digest of every report a fixed set of configs produces.

    python3 scripts/report_digests.py --check   # exit 1 and name each entry whose bytes moved
    python3 scripts/report_digests.py --write   # rewrite the manifest from this checkout

The set: the csv and json reports of the shipped ``configs/*.json``, of the
configs ``bench/gen.py`` generates for seed 301 (Monte Carlo at the
``--samples`` its manifest gives), of a ghz-quantum and of a self-test
config, of four ghz-local-model configs on the noisy GHZ state
p·|GHZ⟩⟨GHZ| + (1−p)·I/8 (p = 0.8, whose targets are ±0.8, not ±1: one
``min_efficiency`` with a local model and one without; and p = 0.94 and
0.96 at low ``min_efficiency``, where Bland's rule alone fails), plus the
stdout of ``esr-sim self-test``.  Each run goes through
``esrsim.cli.main`` in-process.  ``bench/`` is only read.

The manifest also holds the sha256 of every input config, so ``--check``
tells a moved report whose input moved (input drift, e.g. ``bench/gen.py``
on another BLAS kernel) from one whose input did not (a program change).
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
# (p, min_efficiency, min_joint_detection or None for the CLI default).  At
# p = 0.8, 0.6 and 0.9 lie below and above the threshold (4p+1)/(6p) = 0.875.
NOISY_GHZ = ((0.8, 0.6, None), (0.8, 0.9, None), (0.94, 0.05, 0.0), (0.96, 0.1, 0.3))

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


def _noisy_ghz_config(p: float, min_efficiency: float, min_joint_detection: float | None) -> dict:
    """A ghz-local-model config on p·|GHZ⟩⟨GHZ| + (1−p)·I/8."""
    matrix = [[0.0] * 8 for _ in range(8)]
    for i in range(8):
        matrix[i][i] = (1.0 - p) / 8.0
    for i in (0, 7):
        for j in (0, 7):
            matrix[i][j] += p / 2.0
    config = {
        "scenario_type": "ghz-local-model",
        "state": [[[value, 0.0] for value in row] for row in matrix],
        "min_efficiency": min_efficiency,
    }
    if min_joint_detection is not None:
        config["min_joint_detection"] = min_joint_detection
    return config


def noisy_ghz_configs() -> dict[str, dict]:
    """{report name stem: config} of the NOISY_GHZ configs, in that order."""
    configs = {}
    for p, eta, joint in NOISY_GHZ:
        name = f"ghz-local-model-noisy-p{p}-eta{eta}"
        if joint is not None:
            name += f"-joint{joint}"
        configs[name] = _noisy_ghz_config(p, eta, joint)
    return configs


def digests() -> tuple[dict[str, str], dict[str, str]]:
    """({input name: digest of its config}, {report name: digest of its
    bytes}), each in a fixed order."""
    inputs, found = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        entries = write_cli_inputs(SEED, ROOT / "configs", tmp / "generated")["entries"]
        for scenario in EXTRA_SCENARIOS:
            path = tmp / f"{scenario}.json"
            path.write_text(json.dumps({"scenario_type": scenario}))
            entries.append({"name": scenario, "path": str(path), "samples": None})
        for name, config in noisy_ghz_configs().items():
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(config))
            entries.append({"name": name, "path": str(path), "samples": None})
        for entry in entries:
            inputs[entry["name"]] = hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
            for fmt in ("csv", "json"):
                argv = ["run", "--scenario", entry["path"], "--format", fmt]
                if entry["samples"] is not None:
                    argv += ["--samples", str(entry["samples"])]
                found[f"{entry['name']}.{fmt}"] = _digest(argv)
    found["self-test.stdout"] = _digest(["self-test"])
    return inputs, found


def _moved(want: dict[str, str], found: dict[str, str]) -> list[str]:
    return [name for name in sorted(want.keys() | found.keys()) if want.get(name) != found.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rewrite the manifest")
    mode.add_argument("--check", action="store_true", help="compare against the manifest")
    args = parser.parse_args(argv)

    inputs, found = digests()
    failed = [name for name, digest in found.items() if digest.startswith("exit")]
    if args.write and failed:
        print(f"not written: {', '.join(failed)} failed")
        return 1
    if args.write:
        MANIFEST.write_text(json.dumps({"inputs": inputs, "reports": found}, indent=1) + "\n")
        print(f"wrote {len(inputs)} input and {len(found)} report digests to "
              f"{MANIFEST.relative_to(ROOT)}")
        return 0
    want = json.loads(MANIFEST.read_text())
    drifted = _moved(want["inputs"], inputs)
    for name in drifted:
        print(f"INPUT {name}: manifest {want['inputs'].get(name)}, now {inputs.get(name)}")
    moved = _moved(want["reports"], found)
    for name in moved:
        cause = "input changed" if name.rpartition(".")[0] in drifted else "same input"
        print(f"MOVED {name} ({cause}): manifest {want['reports'].get(name)}, now {found.get(name)}")
    print(f"{len(inputs) - len(drifted)} of {len(inputs)} inputs and "
          f"{len(found) - len(moved)} of {len(found)} digests match the manifest")
    return 1 if drifted or moved else 0


if __name__ == "__main__":
    sys.exit(main())
