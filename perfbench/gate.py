"""Correctness gate: every sweep's output against the pinned expectation.

Two views of a sweep's ``list[EvaluationResult]``:

- :func:`digests` — per ``workload@RxC`` item, the design count and two
  SHA-256 digests over the *sorted* rows, so emission order and the STT
  chosen to represent a design class may change without failing:
  ``shape`` over ``(sorted selection, canonical_signature)`` and ``full``
  over ``(sorted selection, canonical_signature, metrics())``.  The loop
  extents do not change which designs exist, so ``designs`` and ``shape``
  are pinned for every seed; ``full`` is pinned for the default seed only.
- :func:`fingerprint` — the exact in-order rows (selection, STT matrix,
  metric bits, failure, seq), cheap enough to compare after every sweep.

:class:`Gate` applies both to every sweep of a run.
"""

from __future__ import annotations

import hashlib
import json
import os

# bound at import, before any traced sweep swaps the module attribute, so
# the gate never records spans
from repro.core.enumerate import canonical_signature

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def item_key(result) -> str:
    return f"{result.workload}@{result.array.rows}x{result.array.cols}"


def digests(results) -> dict[str, dict]:
    out = {}
    for result in results:
        shape, full = [], []
        for point in result.points + result.failures:
            ident = (tuple(sorted(point.spec.selected)), canonical_signature(point.spec))
            shape.append(repr(ident))
            full.append(repr((*ident, point.metrics())))
        out[item_key(result)] = {
            "designs": len(shape),
            "shape": _sha(shape),
            "full": _sha(full),
        }
    return out


def _sha(rows: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()


def fingerprint(results) -> list[tuple]:
    rows = []
    for result in results:
        items = []
        for point in result.points + result.failures:
            failure = None
            if point.failure is not None:
                failure = (point.failure.stage, point.failure.reason)
            items.append((
                point.spec.selected,
                point.spec.stt.matrix,
                tuple(float(m).hex() for m in point.metrics()),
                failure,
                point.seq,
            ))
        rows.append((item_key(result), len(result.points), tuple(items)))
    return rows


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_digests(actual: dict, expected: dict, full: bool) -> list[str]:
    """Mismatch messages (empty when the sweep matches the pin)."""
    problems = []
    for key in sorted(set(actual) | set(expected)):
        if key not in expected:
            problems.append(f"{key}: not in the expected file")
            continue
        if key not in actual:
            problems.append(f"{key}: missing from the sweep")
            continue
        fields = ("designs", "shape", "full") if full else ("designs", "shape")
        for field in fields:
            if actual[key][field] != expected[key][field]:
                problems.append(
                    f"{key}: {field} {actual[key][field]!r} != expected "
                    f"{expected[key][field]!r}"
                )
    return problems


class Gate:
    """Checks each sweep of one run; collects problems and counts failures."""

    def __init__(self, expected: dict, full: bool, reference=None):
        self.expected = expected
        self.full = full
        self.reference = None if reference is None else fingerprint(reference)
        self.first = None
        self.first_problems: list[str] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def check(self, results) -> None:
        self.attempted += 1
        problems = []
        if results is None:
            problems.append("sweep raised")
        else:
            fp = fingerprint(results)
            if self.first is None:
                self.first_problems = check_digests(digests(results), self.expected, self.full)
                self.first = fp
                problems += self.first_problems
            elif fp != self.first:
                problems.append("output differs from this run's first sweep")
            elif self.first_problems:
                problems.append("output repeats the first sweep's mismatch")
            if self.reference is not None and fp != self.reference:
                problems.append("fold differs from LocalSession.sweep() on the same grid")
        if problems:
            self.failed += 1
            self.problems += problems
