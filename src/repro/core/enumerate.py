"""Design-space enumeration (paper §VI-B).

The paper sweeps the STT space and reports 148 distinct GEMM designs and 33
distinct Depthwise-Conv2D designs for a 16x16 array.  Distinctness is by
*hardware identity*: two STT matrices that classify every tensor identically
(same dataflow type, same reuse directions) generate the same accelerator.

Enumeration is *streaming*: :func:`iter_specs` and :func:`iter_designs` are
lazy generators that walk complexity-ordered full-rank matrices and yield each
surviving design as soon as it is found, so the space is never materialized
and downstream consumers (:class:`repro.explore.engine.EvaluationEngine`) can
evaluate, batch, or abort mid-stream.  Pruning is composable: the built-in
predicates (dataflow-type filter, nearest-neighbour realizability,
canonical-dedup via a shared signature cache) and arbitrary user predicates
all plug into the same stream, and an :class:`EnumerationStats` counter
records *why* candidates were dropped instead of silently discarding them.

:func:`enumerate_specs` / :func:`enumerate_designs` remain as thin eager
wrappers producing the same designs in the same order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.dataflow import DataflowSpec, DataflowType, selection_directions
from repro.core.linalg import IntVector
from repro.core.naming import ARRAY_SYMMETRIES, stt_candidates
from repro.core.reuse import orient
from repro.ir.einsum import Statement

__all__ = [
    "iter_specs",
    "iter_designs",
    "enumerate_specs",
    "enumerate_designs",
    "loop_selections",
    "DesignSpace",
    "EnumerationStats",
    "is_realizable",
    "canonical_signature",
]

#: A composable pruning predicate: keep the spec when it returns True.
Predicate = Callable[[DataflowSpec], bool]

def is_realizable(spec: DataflowSpec, *, max_step: int = 1, max_delay: int = 1) -> bool:
    """Hardware realizability filter used for the paper's design-space sweeps.

    Keeps designs whose every reuse direction is a *neighbour* step: space
    components in ``[-max_step, max_step]`` and systolic delay at most
    ``max_delay`` cycles.  Longer jumps are expressible in the netlist (extra
    delay registers, long wires) but the paper's synthesized space uses
    nearest-neighbour interconnect.
    """
    for fl in spec.flows:
        for p1, p2, dt in fl.reuse.basis:
            if abs(p1) > max_step or abs(p2) > max_step or abs(dt) > max_delay:
                return False
    return True


def canonical_signature(spec: DataflowSpec) -> tuple:
    """Design identity modulo PE-array relabelling symmetries.

    Applies each of the 8 square-array symmetries to the space components of
    every reuse vector, re-orients, sorts each tensor's basis, and returns the
    lexicographically smallest variant.  Two specs with equal canonical
    signatures generate identical hardware up to mirroring/rotating the array.

    A variant is a tuple of ``(tensor name, kind, image of the basis)``; name
    and kind are the same in all 8, so the smallest variant is the one whose
    tuple of basis images is smallest.  The images of one basis come from
    :func:`_symmetry_images`, memoized on the basis alone: a sweep meets few
    distinct bases, so a signature costs one cache lookup per tensor.
    """
    flows = spec.flows
    best = min(zip(*(_symmetry_images(fl.reuse.basis) for fl in flows)))
    return tuple(
        (fl.tensor_name, fl.kind.value, image) for fl, image in zip(flows, best)
    )


@lru_cache(maxsize=4096)
def _symmetry_images(basis: tuple[IntVector, ...]) -> tuple[tuple[IntVector, ...], ...]:
    """The sorted, oriented image of ``basis`` under each of the 8 array symmetries."""
    return tuple(
        tuple(sorted(orient((*sym(p1, p2), dt)) for p1, p2, dt in basis))
        for sym in ARRAY_SYMMETRIES
    )


def loop_selections(statement: Statement) -> Iterator[tuple[str, ...]]:
    """All ordered selections of three loops that cover every tensor.

    A selection is valid when every tensor of the statement reads at least one
    selected iterator — otherwise its restricted access matrix is all-zero and
    no dataflow exists for it (cf. :func:`repro.core.reuse.reuse_space`).
    """
    names = statement.space.names
    for combo in itertools.permutations(names, 3):
        cols = [statement.space.position(n) for n in combo]
        ok = all(
            any(row[c] != 0 for row in acc.matrix for c in cols)
            for acc in statement.accesses
        )
        if ok:
            yield combo


@dataclass
class EnumerationStats:
    """Mutable tally of what the enumeration stream did with each candidate.

    ``candidates`` counts STT matrices tried; the remaining fields partition
    the rejected ones by reason, so nothing is dropped silently.  Canonical
    enumeration without user predicates tries only one orbit representative
    per 16 matrices (see :func:`iter_specs`), so there ``candidates`` counts
    orbit representatives and ``invalid``, ``type_filtered``,
    ``unrealizable`` and ``duplicates`` shrink about 16x; ``yielded`` is
    unchanged.
    """

    candidates: int = 0
    invalid: int = 0  # no dataflow exists (DataflowSpec raised ValueError)
    type_filtered: int = 0  # outside ``allowed_types``
    unrealizable: int = 0  # fails the nearest-neighbour interconnect filter
    predicate_filtered: int = 0  # dropped by a user predicate
    duplicates: int = 0  # hardware-identical to an earlier design
    yielded: int = 0

    def merge(self, other: "EnumerationStats") -> None:
        for name in (
            "candidates",
            "invalid",
            "type_filtered",
            "unrealizable",
            "predicate_filtered",
            "duplicates",
            "yielded",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def summary(self) -> str:
        return (
            f"{self.yielded} designs from {self.candidates} candidates "
            f"(invalid {self.invalid}, type-filtered {self.type_filtered}, "
            f"unrealizable {self.unrealizable}, predicate-filtered "
            f"{self.predicate_filtered}, duplicates {self.duplicates})"
        )


def iter_specs(
    statement: Statement,
    selected: Sequence[str],
    *,
    bound: int = 1,
    limit: int | None = None,
    allowed_types: frozenset[DataflowType] | None = None,
    realizable_only: bool = False,
    canonical: bool = False,
    predicates: Sequence[Predicate] = (),
    seen: set | None = None,
    stats: EnumerationStats | None = None,
) -> Iterator[DataflowSpec]:
    """Stream distinct dataflow designs for one loop selection.

    Deduplicates on :meth:`DataflowSpec.signature` (or
    :func:`canonical_signature` with ``canonical=True``) and keeps the
    simplest STT representative of each design (the candidate stream is
    complexity-ordered).  ``realizable_only`` restricts to nearest-neighbour
    interconnect, matching the paper's synthesized sweeps.  ``predicates``
    are extra user filters applied after the built-in ones; ``seen`` lets a
    caller share one signature cache across selections; ``stats`` tallies
    every rejection reason.

    With ``canonical=True`` and no ``predicates`` only the complexity-minimum
    STT of each orbit under the group of :func:`repro.core.naming.stt_orbit`
    is tried.  The quotient is exact: :func:`canonical_signature`,
    :func:`is_realizable` and every tensor's :class:`DataflowType` are
    invariant under the group, so every signature class is a union of orbits
    and its first member in complexity order is an orbit minimum — the same
    designs, representatives and order as the full stream.  A user predicate
    may inspect ``spec.stt`` itself, so predicates keep the full stream.
    """
    seen = seen if seen is not None else set()
    stats = stats if stats is not None else EnumerationStats()
    count = 0
    try:
        directions = selection_directions(statement, selected)
    except (KeyError, ValueError):
        directions = None  # a bad selection: every DataflowSpec below raises
    for stt in stt_candidates(bound, orbit_minimal=canonical and not predicates):
        stats.candidates += 1
        try:
            spec = DataflowSpec(statement, selected, stt, directions=directions)
        except ValueError:
            stats.invalid += 1
            continue
        if allowed_types is not None and any(
            fl.kind not in allowed_types for fl in spec.flows
        ):
            stats.type_filtered += 1
            continue
        if realizable_only and not is_realizable(spec):
            stats.unrealizable += 1
            continue
        if predicates and not all(pred(spec) for pred in predicates):
            stats.predicate_filtered += 1
            continue
        sig = canonical_signature(spec) if canonical else spec.signature()
        if sig in seen:
            stats.duplicates += 1
            continue
        seen.add(sig)
        stats.yielded += 1
        yield spec
        count += 1
        if limit is not None and count >= limit:
            return


def enumerate_specs(
    statement: Statement,
    selected: Sequence[str],
    *,
    bound: int = 1,
    limit: int | None = None,
    allowed_types: frozenset[DataflowType] | None = None,
    realizable_only: bool = False,
    canonical: bool = False,
) -> list[DataflowSpec]:
    """Eager wrapper around :func:`iter_specs` (same designs, same order)."""
    return list(
        iter_specs(
            statement,
            selected,
            bound=bound,
            limit=limit,
            allowed_types=allowed_types,
            realizable_only=realizable_only,
            canonical=canonical,
        )
    )


@dataclass
class DesignSpace:
    """Result of a full design-space sweep for one workload."""

    statement: Statement
    specs: list[DataflowSpec] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[DataflowSpec]:
        return iter(self.specs)

    def by_letters(self, letters: str) -> list[DataflowSpec]:
        return [s for s in self.specs if s.letters == letters.upper()]

    def letter_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for spec in self.specs:
            hist[spec.letters] = hist.get(spec.letters, 0) + 1
        return dict(sorted(hist.items()))


def iter_designs(
    statement: Statement,
    *,
    selections: Iterable[Sequence[str]] | None = None,
    bound: int = 1,
    per_selection_limit: int | None = None,
    allowed_types: frozenset[DataflowType] | None = None,
    realizable_only: bool = False,
    canonical: bool = False,
    predicates: Sequence[Predicate] = (),
    stats: EnumerationStats | None = None,
) -> Iterator[DataflowSpec]:
    """Stream loop selections x STT matrices into a deduplicated design space.

    Designs are yielded as soon as they survive pruning — the full space is
    never held in memory, so a consumer can evaluate, batch or stop early.
    With ``canonical=True``, unordered loop selections are also deduplicated:
    ``(m, n, k)`` and ``(n, m, k)`` relabel the same hardware, so only sorted
    selections are swept.
    """
    stats = stats if stats is not None else EnumerationStats()
    seen: set[tuple] = set()
    chosen = selections if selections is not None else loop_selections(statement)
    if canonical and selections is None:
        chosen = sorted({tuple(sorted(sel)) for sel in chosen})
    for sel in chosen:
        per_sel_seen: set[tuple] = set()
        for spec in iter_specs(
            statement,
            tuple(sel),
            bound=bound,
            limit=per_selection_limit,
            allowed_types=allowed_types,
            realizable_only=realizable_only,
            canonical=canonical,
            predicates=predicates,
            seen=per_sel_seen,
            stats=stats,
        ):
            sig = (
                (tuple(sorted(sel)), canonical_signature(spec))
                if canonical
                else spec.signature()
            )
            if sig in seen:
                stats.yielded -= 1
                stats.duplicates += 1
                continue
            seen.add(sig)
            yield spec


def enumerate_designs(
    statement: Statement,
    *,
    selections: Iterable[Sequence[str]] | None = None,
    bound: int = 1,
    per_selection_limit: int | None = None,
    allowed_types: frozenset[DataflowType] | None = None,
    realizable_only: bool = False,
    canonical: bool = False,
) -> DesignSpace:
    """Eager wrapper around :func:`iter_designs` returning a :class:`DesignSpace`."""
    space = DesignSpace(statement)
    space.specs.extend(
        iter_designs(
            statement,
            selections=selections,
            bound=bound,
            per_selection_limit=per_selection_limit,
            allowed_types=allowed_types,
            realizable_only=realizable_only,
            canonical=canonical,
        )
    )
    return space
