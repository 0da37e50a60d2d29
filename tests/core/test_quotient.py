"""The symmetry quotient of canonical enumeration is exact.

Canonical enumeration tries only the complexity-minimum STT of each orbit
under G = (8 square-array symmetries on the space rows) x (+-1 on the time
row).  That is sound because every verdict the stream makes is G-invariant;
these tests pin the group action, the invariance, and the paths that must
keep the full stream.
"""

import random

import pytest

from repro.core.dataflow import DataflowSpec
from repro.core.enumerate import (
    EnumerationStats,
    canonical_signature,
    is_realizable,
    iter_specs,
    loop_selections,
)
from repro.core.naming import (
    _candidate_matrices,
    _orbit_minimal_matrices,
    stt_candidates,
    stt_orbit,
)
from repro.core.stt import STT
from repro.ir import workloads

ALL = _candidate_matrices(1)
REPS = _orbit_minimal_matrices(1)


class TestOrbits:
    def test_bound_one_counts(self):
        assert len(ALL) == 11_808
        assert len(REPS) == 738 == len(ALL) // 16

    def test_every_orbit_has_exactly_one_representative(self):
        reps = set(REPS)
        for matrix in ALL:
            orbit = stt_orbit(matrix)
            assert len(set(orbit)) == 16  # G acts freely
            assert matrix in orbit  # the identity is the first element
            assert len(reps.intersection(orbit)) == 1

    def test_representative_is_orbit_minimum_in_complexity_order(self):
        position = {m: i for i, m in enumerate(ALL)}
        for rep in REPS:
            assert position[rep] == min(position[m] for m in stt_orbit(rep))

    def test_representatives_keep_complexity_order(self):
        position = {m: i for i, m in enumerate(ALL)}
        assert [position[m] for m in REPS] == sorted(position[m] for m in REPS)

    def test_orbit_closed_under_the_group(self):
        for matrix in ALL[::97]:
            orbit = set(stt_orbit(matrix))
            for image in orbit:
                assert set(stt_orbit(image)) == orbit

    def test_stream_flag(self):
        assert [s.matrix for s in stt_candidates(1, orbit_minimal=True)] == list(REPS)
        assert sum(1 for _ in stt_candidates(1)) == len(ALL)


def _verdicts(statement, selected, matrix):
    spec = DataflowSpec(statement, selected, STT(matrix))
    return (
        canonical_signature(spec),
        is_realizable(spec),
        tuple(fl.kind for fl in spec.flows),
    )


@pytest.mark.parametrize("workload", sorted(workloads.TABLE_II))
def test_verdicts_invariant_under_all_sixteen_group_elements(workload):
    statement = workloads.TABLE_II[workload]()
    rng = random.Random(workload)
    for selected in loop_selections(statement):
        for matrix in rng.sample(ALL, 2):
            expected = _verdicts(statement, selected, matrix)
            for image in stt_orbit(matrix):
                assert _verdicts(statement, selected, image) == expected, (
                    selected,
                    matrix,
                    image,
                )


class TestFullStreamPaths:
    gemm = workloads.gemm()

    def test_canonical_tries_one_candidate_per_orbit(self):
        stats = EnumerationStats()
        list(iter_specs(self.gemm, ("m", "n", "k"), canonical=True, stats=stats))
        assert stats.candidates == 738

    def test_non_canonical_tries_every_candidate(self):
        stats = EnumerationStats()
        list(iter_specs(self.gemm, ("m", "n", "k"), stats=stats))
        assert stats.candidates == 11_808

    def test_predicate_sees_every_candidate(self):
        recorded = []

        def record(spec):
            recorded.append(spec.stt.matrix)
            return True

        stats = EnumerationStats()
        list(
            iter_specs(
                self.gemm,
                ("m", "n", "k"),
                canonical=True,
                predicates=[record],
                stats=stats,
            )
        )
        assert stats.candidates == 11_808
        assert sorted(recorded) == sorted(ALL)
