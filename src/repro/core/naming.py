"""The paper's dataflow naming scheme (``MNK-SST``) and name-driven search.

A name has two parts separated by ``-``:

- the three *selected loops* (uppercased iterator names) mapped to space-time,
- one letter per tensor, **inputs in formula order, then the output**:
  ``S`` systolic, ``T`` stationary, ``M`` multicast (a reduction tree when the
  tensor is an output), ``U`` unicast, ``B`` 2-D reuse.

Examples from the paper (§VI):

- GEMM ``MNK-SST`` — A, B systolic; C stationary: the classic output-
  stationary systolic array.
- GEMM ``MNK-STS`` — B stationary: weight stationary (TPU-style).
- Conv2D ``XPQ-MMT`` — multicast A and B, stationary C.
- TTMc ``IJK-BBBU`` — all inputs 2-D reuse, output unicast.

Names do not pin down a unique STT matrix; :func:`spec_from_name` searches a
complexity-ordered stream of full-rank matrices and returns the simplest one
whose classification matches the letters.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator

from repro.core import linalg
from repro.core.dataflow import DataflowSpec
from repro.core.stt import STT
from repro.ir.einsum import Statement

__all__ = [
    "parse_name",
    "spec_from_name",
    "matching_specs",
    "best_spec_from_name",
    "stt_candidates",
    "stt_orbit",
    "ARRAY_SYMMETRIES",
    "letters_match",
    "KNOWN_GEMM_DATAFLOWS",
]

_VALID_LETTERS = frozenset("STMUB")

#: Lenient letter acceptance.  The paper's figure labels name compound (2-D)
#: reuse sometimes by the strict code ``B`` (e.g. TTMc ``IJK-BBBU``) and
#: sometimes by the dominant 1-D component (e.g. Conv2D ``XYP-STM``, whose
#: weight tensor is multicast+stationary yet labelled ``T``).  Name search
#: therefore accepts, for each requested letter, the dataflow types listed
#: here; :attr:`DataflowSpec.letters` always emits the strict code.
_LETTER_ACCEPTS: dict[str, frozenset] = {
    "U": frozenset({"unicast"}),
    "S": frozenset({"systolic", "systolic_multicast"}),
    "T": frozenset({"stationary", "multicast_stationary"}),
    "M": frozenset({"multicast", "broadcast"}),
    "B": frozenset(
        {
            "broadcast",
            "multicast_stationary",
            "systolic_multicast",
            "full_reuse",
        }
    ),
}


def letters_match(requested: str, spec: DataflowSpec) -> bool:
    """True when every tensor's dataflow is acceptable for its letter."""
    return all(
        fl.kind.value in _LETTER_ACCEPTS[letter]
        for letter, fl in zip(requested, spec.flows)
    )


def parse_name(name: str) -> tuple[tuple[str, ...], str]:
    """Split ``"MNK-SST"`` into selected loops ``("m","n","k")`` and letters.

    Loop names are single characters in this notation (all Table II iterators
    are single letters).
    """
    if "-" not in name:
        raise ValueError(f"dataflow name needs a '-': {name!r}")
    loops_part, letters = name.split("-", maxsplit=1)
    letters = letters.upper()
    selected = tuple(ch.lower() for ch in loops_part)
    if len(selected) != 3:
        raise ValueError(f"expected 3 selected loops in {name!r}, got {selected}")
    bad = set(letters) - _VALID_LETTERS
    if bad:
        raise ValueError(f"unknown dataflow letters {sorted(bad)} in {name!r}")
    return selected, letters


def _matrix_complexity(matrix: tuple[tuple[int, ...], ...]) -> tuple:
    """Sort key preferring simple, hardware-friendly STT matrices.

    Permutation matrices come first, then single-skew variants like the
    paper's ``[[1,0,0],[0,1,0],[1,1,1]]``, then denser matrices.  Non-negative
    entries are preferred (negative steps mean reversed interconnect).
    """
    flat = [v for row in matrix for v in row]
    abs_sum = sum(abs(v) for v in flat)
    negatives = sum(1 for v in flat if v < 0)
    space_weight = sum(abs(v) for row in matrix[:2] for v in row)
    return (space_weight, abs_sum, negatives, flat)


@lru_cache(maxsize=None)
def _candidate_matrices(bound: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All full-rank 3x3 matrices with entries in ``[-bound, bound]``,
    complexity-ordered.  Cached: the bound-1 set (11,808 matrices) is reused
    by every name lookup and by design-space enumeration."""
    values = range(-bound, bound + 1)
    out = []
    for flat in itertools.product(values, repeat=9):
        matrix = (tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9]))
        if linalg.determinant(matrix) != 0:
            out.append(matrix)
    out.sort(key=_matrix_complexity)
    return tuple(out)


#: The 8 symmetries of a square PE array (dihedral group) as maps of a PE
#: offset ``(p1, p2)``: relabelling PE coordinates produces electrically
#: identical hardware.
ARRAY_SYMMETRIES = (
    lambda p1, p2: (p1, p2),
    lambda p1, p2: (p2, p1),
    lambda p1, p2: (-p1, p2),
    lambda p1, p2: (p1, -p2),
    lambda p1, p2: (-p1, -p2),
    lambda p1, p2: (-p2, p1),
    lambda p1, p2: (p2, -p1),
    lambda p1, p2: (-p2, -p1),
)


def stt_orbit(matrix: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The 16 images of an STT matrix under the group G acting on the left:
    an array symmetry on the two space rows times ``+-1`` on the time row.

    ``G`` acts freely on full-rank matrices (``H T = T`` forces ``H = I``), so
    the 16 images are distinct.
    """
    space1, space2, time = matrix
    flipped = tuple(-v for v in time)
    images = []
    for sym in ARRAY_SYMMETRIES:
        cols = [sym(a, b) for a, b in zip(space1, space2)]
        rows = (tuple(c[0] for c in cols), tuple(c[1] for c in cols))
        images.append((*rows, time))
        images.append((*rows, flipped))
    return tuple(images)


@lru_cache(maxsize=None)
def _orbit_minimal_matrices(bound: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The complexity-minimum of every G-orbit (:func:`stt_orbit`), in
    complexity order: 738 of the 11,808 bound-1 matrices.

    The candidate set is closed under ``G`` (signed row permutations keep
    entry bounds and rank), so walking it in order, the first unseen matrix of
    each orbit is that orbit's minimum.
    """
    seen: set = set()
    out = []
    for matrix in _candidate_matrices(bound):
        if matrix not in seen:
            seen.update(stt_orbit(matrix))
            out.append(matrix)
    return tuple(out)


def stt_candidates(bound: int = 1, *, orbit_minimal: bool = False) -> Iterator[STT]:
    """Complexity-ordered stream of valid STT matrices.

    ``orbit_minimal=True`` streams only the complexity-minimum of each orbit
    under the array symmetries times a time-row sign flip (:func:`stt_orbit`)
    — exact for any consumer whose verdicts are invariant under that group,
    such as canonical design-space enumeration.
    """
    source = _orbit_minimal_matrices if orbit_minimal else _candidate_matrices
    for matrix in source(bound):
        yield STT.trusted(matrix)


def spec_from_name(
    statement: Statement,
    name: str,
    *,
    bound: int = 1,
    candidates: Iterable[STT] | None = None,
) -> DataflowSpec:
    """Find the simplest STT realizing a named dataflow.

    Raises ``LookupError`` when no matrix within the search bound produces the
    requested letters — e.g. asking for a stationary ``A`` in Batched-GEMV,
    which the paper proves impossible.
    """
    selected, letters = parse_name(name)
    if len(letters) != len(statement.accesses):
        raise ValueError(
            f"{name!r} has {len(letters)} letters but {statement.name} has "
            f"{len(statement.accesses)} tensors {statement.tensor_names}"
        )
    stream = candidates if candidates is not None else stt_candidates(bound)
    fallback: DataflowSpec | None = None
    for stt in stream:
        try:
            spec = DataflowSpec(statement, selected, stt)
        except ValueError:
            continue
        if spec.letters == letters:
            return spec
        if fallback is None and letters_match(letters, spec):
            fallback = spec
    if fallback is not None:
        return fallback
    raise LookupError(
        f"no STT with |entries| <= {bound} realizes {name!r} for {statement.name}; "
        "the dataflow may be infeasible for this workload (cf. Batched-GEMV "
        "supporting only unicast A)"
    )


def matching_specs(
    statement: Statement,
    name: str,
    *,
    bound: int = 1,
    limit: int | None = None,
) -> Iterator[DataflowSpec]:
    """All distinct designs realizing a named dataflow, simplest STT first.

    A name rarely pins down a unique STT (e.g. ``MNK-MSM`` leaves open which
    loop becomes time), and the candidates can differ hugely in performance;
    benchmarks pick the best by model.  Deduplicates by hardware signature.
    """
    selected, letters = parse_name(name)
    if len(letters) != len(statement.accesses):
        raise ValueError(
            f"{name!r} has {len(letters)} letters but {statement.name} has "
            f"{len(statement.accesses)} tensors"
        )
    seen: set[tuple] = set()
    count = 0
    for stt in stt_candidates(bound):
        try:
            spec = DataflowSpec(statement, selected, stt)
        except ValueError:
            continue
        if spec.letters != letters and not letters_match(letters, spec):
            continue
        sig = spec.signature()
        if sig in seen:
            continue
        seen.add(sig)
        yield spec
        count += 1
        if limit is not None and count >= limit:
            return


def best_spec_from_name(statement: Statement, name: str, score, *, bound: int = 1, limit: int = 24) -> DataflowSpec:
    """The highest-``score(spec)`` design among the first ``limit`` matches."""
    best = None
    best_score = None
    for spec in matching_specs(statement, name, bound=bound, limit=limit):
        s = score(spec)
        if best_score is None or s > best_score:
            best, best_score = spec, s
    if best is None:
        raise LookupError(f"no STT with |entries| <= {bound} realizes {name!r}")
    return best


#: Well-known GEMM dataflows discussed in the paper, for convenience/tests.
KNOWN_GEMM_DATAFLOWS = {
    "output_stationary": "MNK-SST",
    "weight_stationary": "MNK-STS",
    "input_stationary": "MNK-TSS",
    "multicast_stationary": "MNK-MMT",
    "multicast_reduction_tree": "MNK-MTM",
}
