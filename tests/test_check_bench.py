"""The committed serving benchmark against the gate in ``scripts/check_bench.py``.

``BENCH_serving.json`` records the run's gateway intake bound under
``config.max_queue_depth``; the schema requires that key, so a payload
written with a retired config key (``max_pending``) fails validation
instead of passing unnoticed.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_bench", REPO_ROOT / "scripts" / "check_bench.py"
)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)

SERVING = REPO_ROOT / "BENCH_serving.json"


def test_committed_serving_payload_validates():
    assert check_bench.validate_file(SERVING) == []


def test_committed_serving_payload_meets_its_hard_gates():
    indicators = check_bench._serving_indicators(json.loads(SERVING.read_text()))
    assert indicators["serving_shed_429"] == 1.0
    assert indicators["serving_drain_no_loss"] == 1.0


def test_serving_payload_without_the_queue_bound_fails(tmp_path):
    payload = json.loads(SERVING.read_text())
    payload["config"]["max_pending"] = payload["config"].pop("max_queue_depth")
    path = tmp_path / SERVING.name
    path.write_text(json.dumps(payload))
    assert check_bench.validate_file(path) == [
        "BENCH_serving.json[config]: missing keys ['max_queue_depth']"
    ]
