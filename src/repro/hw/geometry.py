"""PE-array geometry shared by hardware generation and schedule derivation.

Coordinates: ``p = (row, col)`` with ``0 <= row < rows`` and ``0 <= col <
cols``.  A *space direction* is the ``(dp1, dp2)`` part of a reuse vector.

Lines
-----
Multicast buses and systolic chains group PEs into *lines* along a direction
``d``: the set of PEs reachable from each other by integer steps of ``d``.
The cross product ``row * d2 - col * d1`` is constant along a line and serves
as its raw id; :meth:`Grid.line_index` normalizes raw ids to a dense
``0..G-1`` range for port naming.

Every geometric query depends only on the array shape and one direction (or
one multicast/systolic direction pair), while design-space sweeps ask the same
few questions for thousands of designs.  Lines and line chains are therefore
memoized per ``(rows, cols, direction)`` in bounded caches and returned as
immutable tuples; boundary counts and step maxima have closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

__all__ = ["Grid", "cross", "Line"]


def cross(p: Sequence[int], d: Sequence[int]) -> int:
    """Line invariant of point ``p`` along direction ``d`` (2-D cross product)."""
    return p[0] * d[1] - p[1] * d[0]


@dataclass(frozen=True)
class Line:
    """One line of PEs along a direction."""

    raw_id: int
    index: int
    points: tuple[tuple[int, int], ...]  # ordered along +d


class Grid:
    """A ``rows x cols`` PE array with line/boundary geometry helpers."""

    def __init__(self, rows: int, cols: int):
        if rows <= 0 or cols <= 0:
            raise ValueError(f"grid needs positive dims, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols

    def __contains__(self, p: Sequence[int]) -> bool:
        return 0 <= p[0] < self.rows and 0 <= p[1] < self.cols

    def points(self) -> Iterator[tuple[int, int]]:
        for r in range(self.rows):
            for c in range(self.cols):
                yield (r, c)

    @property
    def size(self) -> int:
        return self.rows * self.cols

    # -- systolic chains --------------------------------------------------
    def entry_point(self, p: Sequence[int], d: Sequence[int]) -> tuple[tuple[int, int], int]:
        """First in-array PE of the line through ``p`` along ``d`` and the
        number of ``d``-steps from that entry to ``p``.

        Data travelling along ``d`` is injected at the entry PE; an element
        needed at ``p`` at time ``t`` enters at ``t - steps * dt``.
        """
        if d[0] == 0 and d[1] == 0:
            raise ValueError("entry_point needs a nonzero direction")
        if tuple(p) not in self:
            raise ValueError(f"{p} outside {self.rows}x{self.cols} grid")
        cur = (p[0], p[1])
        steps = 0
        while True:
            prev = (cur[0] - d[0], cur[1] - d[1])
            if prev not in self:
                return cur, steps
            cur = prev
            steps += 1

    def exit_point(self, p: Sequence[int], d: Sequence[int]) -> tuple[tuple[int, int], int]:
        """Last in-array PE of the line through ``p`` along ``d`` (and steps)."""
        entry, back = self.entry_point(p, (-d[0], -d[1]))
        return entry, back

    def is_entry(self, p: Sequence[int], d: Sequence[int]) -> bool:
        """True when ``p - d`` falls outside the array."""
        return (p[0] - d[0], p[1] - d[1]) not in self

    def is_exit(self, p: Sequence[int], d: Sequence[int]) -> bool:
        return (p[0] + d[0], p[1] + d[1]) not in self

    # -- boundary summaries (closed forms of the per-PE walks above) ------
    def max_entry_steps(self, d: Sequence[int]) -> int:
        """``max(entry_point(p, d)[1] for p in points())``.

        The backward walk from ``p`` stops at the first axis to leave the
        array, and the axes are independent, so the maximum is the smallest
        per-axis maximum.  The exit maximum is ``max_entry_steps(-d)``.
        """
        return min((n - 1) // abs(s) for n, s in zip((self.rows, self.cols), d) if s)

    def entry_count(self, d: Sequence[int]) -> int:
        """Number of PEs with ``is_entry(p, d)``: all of them but those whose
        predecessor ``p - d`` lies in the array.  Exits are ``entry_count(-d)``.
        """
        inner = max(0, self.rows - abs(d[0])) * max(0, self.cols - abs(d[1]))
        return self.size - inner

    # -- lines -------------------------------------------------------------
    def lines(self, d: Sequence[int]) -> tuple[Line, ...]:
        """All lines along direction ``d``, indexed densely by raw id order."""
        return _lines(self.rows, self.cols, (d[0], d[1]))

    def line_index(self, d: Sequence[int]) -> dict[int, int]:
        """Map raw line id -> dense index for direction ``d``."""
        return {line.raw_id: line.index for line in self.lines(d)}

    def line_of(self, p: Sequence[int], d: Sequence[int]) -> int:
        """Dense line index of the line through ``p`` along ``d``."""
        return self.line_index(d)[cross(p, d)]

    # -- line graphs for systolic+multicast dataflows ----------------------
    def line_shift(self, mc: Sequence[int], sy_space: Sequence[int]) -> int:
        """Raw-id delta when a line along ``mc`` shifts by ``sy_space``.

        Used by the systolic+multicast dataflow: the value held by line ``g``
        moves to line ``g + shift`` after one systolic hop.
        """
        return cross(sy_space, mc)

    def line_chain(
        self, mc: Sequence[int], sy_space: Sequence[int]
    ) -> tuple[tuple[int, ...], ...]:
        """Chains of raw line ids connected by systolic hops.

        Returns one tuple per chain, ordered from entry line to exit line.
        Raises if the shift is zero (the systolic direction must actually move
        across lines — otherwise the two reuse directions are parallel, which
        a rank-2 reuse space precludes).
        """
        return _line_chain(self.rows, self.cols, (mc[0], mc[1]), (sy_space[0], sy_space[1]))


@lru_cache(maxsize=1024)
def _lines(rows: int, cols: int, d: tuple[int, int]) -> tuple[Line, ...]:
    if d[0] == 0 and d[1] == 0:
        raise ValueError("lines need a nonzero direction")
    groups: dict[int, list[tuple[int, int]]] = {}
    for r in range(rows):
        for c in range(cols):
            groups.setdefault(cross((r, c), d), []).append((r, c))
    lines = []
    for index, raw in enumerate(sorted(groups)):
        pts = groups[raw]
        # Order points along +d (project onto d).
        pts.sort(key=lambda p: p[0] * d[0] + p[1] * d[1])
        lines.append(Line(raw_id=raw, index=index, points=tuple(pts)))
    return tuple(lines)


@lru_cache(maxsize=1024)
def _line_chain(
    rows: int, cols: int, mc: tuple[int, int], sy_space: tuple[int, int]
) -> tuple[tuple[int, ...], ...]:
    shift = cross(sy_space, mc)
    if shift == 0:
        raise ValueError("systolic direction does not cross multicast lines")
    raw_ids = {line.raw_id for line in _lines(rows, cols, mc)}
    chains = []
    for raw in sorted(raw_ids):
        if raw - shift not in raw_ids:  # entry line
            chain = []
            cur = raw
            while cur in raw_ids:
                chain.append(cur)
                cur += shift
            chains.append(tuple(chain))
    return tuple(chains)
