"""The GHZ local-model reports, byte for byte, against the committed digests.

The GHZ search reports numpy's elementwise products and row sums over one
C-ordered indicator block, not BLAS products, so its reports do not depend
on the BLAS kernel and their bytes can be pinned here: the shipped
``configs/ghz_local_model.json`` and the noisy-GHZ configs of
``scripts/report_digests.py``, each as csv and json, run in-process and
compared with ``scripts/report_digests.json``, and the manifest's one
sha256 over every result field of 3,237 searches, which matches under
``OPENBLAS_CORETYPE`` Haswell and Prescott too.  The script alone checks
the manifest's other entries.  ``bench/`` is only read.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "report_digests", ROOT / "scripts" / "report_digests.py"
)
report_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_digests)

MANIFEST = json.loads(report_digests.MANIFEST.read_text())
CONFIGS = {"shipped:ghz_local_model": None, **report_digests.noisy_ghz_configs()}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_ghz_report_bytes_match_the_manifest(name, fmt, tmp_path):
    config = CONFIGS[name]
    if config is None:
        path = ROOT / "configs" / "ghz_local_model.json"
    else:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
    # A moved input would move its report without any program change.
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MANIFEST["inputs"][name]
    argv = ["run", "--scenario", str(path), "--format", fmt]
    assert report_digests._digest(argv) == MANIFEST["reports"][f"{name}.{fmt}"]


def test_ghz_search_fields_match_the_manifest():
    assert len(report_digests.ghz_searches()) == 3237
    assert report_digests.search_digest() == MANIFEST["searches"]
