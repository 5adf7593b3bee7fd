"""Every report of the shipped and generated configs, checked by an oracle that
does not import esrsim.

``bench/oracle.py`` recomputes each record from its definition with numpy
(and decides GHZ verdicts with scipy's HiGHS), to a tolerance, so this check
holds on any platform's last bits.  ``bench/`` is only read.
"""

import json
import sys
from pathlib import Path

from esrsim.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import oracle  # noqa: E402
from gen import write_cli_inputs  # noqa: E402

SEED = 301  # the generated configs the CI workflow also runs


def test_every_report_passes_the_oracle(tmp_path):
    ghz_oracle = oracle.GHZOracle()
    entries = write_cli_inputs(SEED, ROOT / "configs", tmp_path / "generated")["entries"]
    assert len(entries) == 22
    problems = []
    for entry in entries:
        config = json.loads(Path(entry["path"]).read_text())
        for fmt in ("csv", "json"):
            report = tmp_path / f"report.{fmt}"
            argv = ["run", "--scenario", entry["path"], "--format", fmt, "--output", str(report)]
            if entry["samples"] is not None:
                argv += ["--samples", str(entry["samples"])]
            assert main(argv) == 0, entry["name"]
            ck = oracle.Checker()
            records = oracle.parse_report(report.read_bytes(), fmt)
            oracle.check_cli(config, entry["samples"], records, ghz_oracle, ck)
            problems += [f"{entry['name']} ({fmt}): {p}" for p in ck.problems]
    assert problems == []
