"""Golden design spaces: the exact output of every Table II sweep, pinned.

For each Table II workload at its default shape on a 16x16 array with the
engine's default enumeration (``realizable_only``, ``canonical``), the fixture
``fixtures/design_spaces.json`` holds

- the design count,
- a SHA-256 over the ordered ``(selection, STT matrix)`` list, and
- a SHA-256 over the ordered ``_evaluate_one`` outcome of every design.

Any optimization of enumeration or the models must leave all three unchanged:
emission order, the representative STT of every class, and every metric bit.

Regenerate (only when a change of results is intended) with::

    PYTHONPATH=src python -m tests.core.test_golden_spaces --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.explore.engine import EvaluationEngine, _evaluate_one
from repro.ir.workloads import TABLE_II
from repro.perf.model import ArrayConfig

FIXTURE = Path(__file__).parent / "fixtures" / "design_spaces.json"


def digest(workload: str) -> dict:
    """Count and hashes of one workload's default 16x16 design space."""
    engine = EvaluationEngine(ArrayConfig(rows=16, cols=16))
    statement = TABLE_II[workload]()
    specs = list(engine.iter_space(statement))
    space = hashlib.sha256()
    metrics = hashlib.sha256()
    for spec in specs:
        space.update(repr((spec.selected, spec.stt.matrix)).encode())
        metrics.update(repr(_evaluate_one(spec, engine.perf, engine.cost)).encode())
    return {
        "designs": len(specs),
        "space_sha256": space.hexdigest(),
        "metrics_sha256": metrics.hexdigest(),
    }


@pytest.mark.parametrize("workload", sorted(TABLE_II))
def test_design_space_matches_golden(workload):
    expected = json.loads(FIXTURE.read_text())[workload]
    assert digest(workload) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.core.test_golden_spaces --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    pinned = {name: digest(name) for name in sorted(TABLE_II)}
    FIXTURE.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(json.dumps(pinned, indent=2, sort_keys=True))
