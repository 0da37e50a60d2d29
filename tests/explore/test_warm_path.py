"""The memo-backed path is exact: design keys and replayed spaces.

A warm sweep builds each design key from a per-run prefix and replays stored
spaces with per-selection reuse directions.  Both are rewrites of slower
code, so these tests hold them to the results of the code they replaced: key
strings persisted by earlier runs must still hit, and a replayed spec must
classify exactly like a freshly enumerated one.
"""

from __future__ import annotations

import pytest

from repro.core.dataflow import DataflowSpec
from repro.core.enumerate import canonical_signature, iter_designs
from repro.explore.engine import EvaluationEngine, EvaluationStats, MemoCache
from repro.ir.workloads import TABLE_II
from repro.perf.model import ArrayConfig

SQUARE = ArrayConfig(rows=16, cols=16)
RECT = ArrayConfig(rows=8, cols=16)

_GEMM_PREFIX = (
    "(('gemm', ('m', 'n', 'k'), (64, 64, 64), "
    "(('A', False, ((1, 0, 0), (0, 0, 1))), ('B', False, ((0, 1, 0), (0, 0, 1))), "
    "('C', True, ((1, 0, 0), (0, 1, 0))))), ('k', 'm', 'n'), "
)
_COST_PARAMS = (
    "(5.5, 11.0, 7.5, 4.5, 6.0, 4.2, 16.0, 20.0, 0.155, 0.26, 0.035, 0.03, "
    "0.008, 0.085, 0.38, 0.016, 2.2)"
)
#: Keys of gemm's first design, as written by memo files of earlier versions.
PINNED_KEYS = {
    SQUARE: _GEMM_PREFIX
    + "(('A', 'multicast', ((0, 1, 0),)), ('B', 'multicast', ((1, 0, 0),)), "
    "('C', 'stationary', ((0, 0, 1),))), "
    f"((16, 16, 320.0, 32.0, 2), 16, 16, 16, 320.0, 32768, {_COST_PARAMS}))",
    RECT: _GEMM_PREFIX
    + "(('k', 'm', 'n'), (('A', 'multicast', ((1, 0, 0),)), "
    "('B', 'multicast', ((0, 1, 0),)), ('C', 'stationary', ((0, 0, 1),)))), "
    f"((8, 16, 320.0, 32.0, 2), 8, 16, 16, 320.0, 32768, {_COST_PARAMS}))",
}


def legacy_key(engine: EvaluationEngine, statement, spec) -> str:
    """The design key as it was built before the per-run prefix."""
    if engine.array.rows == engine.array.cols:
        sig = canonical_signature(spec)
    else:
        sig = spec.signature()
    return repr(
        (EvaluationEngine._statement_key(statement), spec.selected, sig, engine._config_key())
    )


class TestDesignKeys:
    @pytest.mark.parametrize("array", [SQUARE, RECT], ids=["16x16", "8x16"])
    def test_pinned_key(self, array):
        engine = EvaluationEngine(array)
        statement = TABLE_II["gemm"]()
        spec = next(iter(engine.iter_space(statement)))
        key = engine._design_key(engine._key_prefix(statement), spec)
        assert key == PINNED_KEYS[array]

    def test_every_table_ii_design_keys_as_before(self):
        engines = [EvaluationEngine(SQUARE), EvaluationEngine(RECT)]
        checked = 0
        for workload in sorted(TABLE_II):
            statement = TABLE_II[workload]()
            prefixes = [engine._key_prefix(statement) for engine in engines]
            for spec in engines[0].iter_space(statement):
                for engine, prefix in zip(engines, prefixes):
                    assert engine._design_key(prefix, spec) == legacy_key(
                        engine, statement, spec
                    )
                checked += 1
        assert checked == 6393

    @pytest.mark.parametrize("path", ["evaluate", "stream"])
    def test_pooled_run_matches_serial(self, path):
        statement = TABLE_II["gemm"](16, 16, 16)
        runs = []
        for workers in (0, 2):
            cache = MemoCache()
            engine = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=cache)
            if path == "evaluate":
                result = engine.evaluate(statement, workers=workers)
                points = result.points + result.failures
            else:
                points = list(engine.stream(statement, workers=workers))
            runs.append(
                (
                    [(p.seq, p.spec.selected, p.spec.stt.matrix, p.metrics()) for p in points],
                    list(cache.dump()["points"]),
                )
            )
        serial, pooled = runs
        assert len(serial[0]) == len(serial[1]) > 0
        assert pooled == serial


class TestSpaceReplay:
    @staticmethod
    def _flows(spec: DataflowSpec) -> tuple:
        return tuple((fl.kind, fl.reuse.basis) for fl in spec.flows)

    @pytest.mark.parametrize("workload", ["gemm", "mttkrp", "conv2d"])
    def test_replayed_specs_classify_like_enumerated_ones(self, workload):
        statement = TABLE_II[workload]()
        engine = EvaluationEngine(SQUARE, cache=MemoCache())
        recorded = list(engine.iter_space(statement))
        stats = EvaluationStats()
        replayed = list(engine.iter_space(statement, stats=stats))
        assert stats.space_cache_hit
        fresh = list(iter_designs(statement, realizable_only=True, canonical=True))
        assert len(replayed) == len(recorded) == len(fresh) > 0
        for spec, ref in zip(replayed, fresh):
            plain = DataflowSpec(statement, spec.selected, spec.stt)
            assert spec.selected == ref.selected == plain.selected
            assert spec.stt == ref.stt == plain.stt
            assert self._flows(spec) == self._flows(ref) == self._flows(plain)

    def test_a_bad_stored_selection_still_raises(self):
        statement = TABLE_II["gemm"]()
        engine = EvaluationEngine(SQUARE, cache=MemoCache())
        list(engine.iter_space(statement))
        (key,) = engine.cache.dump()["spaces"]
        matrix = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        for sel in (["m", "n", "q"], ["m", "m", "k"], ["m", "n"]):
            engine.cache.put("spaces", key, [[sel, matrix]])
            with pytest.raises(ValueError):
                list(engine.iter_space(statement))
