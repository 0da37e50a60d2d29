"""MemoCache under concurrency and torn/foreign shard files."""

import io
import json
import threading

from repro.explore.engine import MemoCache


class TestConcurrency:
    def test_threads_hammering_one_cache(self, tmp_path):
        """get/put/flush from many threads: no lost writes, no exceptions.

        This is the evaluation service's access pattern — concurrent request
        handlers sharing the server session's cache.
        """
        cache = MemoCache(tmp_path / "memo.json")
        errors = []
        n_threads, n_keys = 8, 50

        def worker(tid: int) -> None:
            try:
                for i in range(n_keys):
                    key = f"t{tid}-k{i}"
                    cache.put("api", key, {"value": i})
                    assert cache.get("api", key) == {"value": i}
                    if i % 10 == 0:
                        cache.flush()
                    cache.stats()
                    len(cache)
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,)) for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        cache.flush()
        reloaded = MemoCache(tmp_path / "memo.json")
        assert reloaded.stats()["api"] == n_threads * n_keys

    def test_concurrent_merge_both_directions(self, tmp_path):
        """Two caches merging into each other concurrently must not deadlock."""
        a, b = MemoCache(), MemoCache()
        for i in range(200):
            a.put("api", f"a{i}", i)
            b.put("api", f"b{i}", i)
        done = threading.Barrier(2)

        def merge(dst, src):
            done.wait(timeout=10)
            for _ in range(20):
                dst.merge_from(src)

        t1 = threading.Thread(target=merge, args=(a, b))
        t2 = threading.Thread(target=merge, args=(b, a))
        t1.start(), t2.start()
        t1.join(timeout=60), t2.join(timeout=60)
        assert not t1.is_alive() and not t2.is_alive()
        assert a.stats()["api"] == b.stats()["api"] == 400


class TestTornShards:
    """A shard file appearing mid-write must merge as empty, never raise."""

    def test_merge_from_truncated_json(self, tmp_path):
        torn = tmp_path / "torn.json"
        torn.write_text('{"points": {"k": [tru')  # interrupted foreign write
        cache = MemoCache()
        cache.put("points", "mine", [1])
        added = cache.merge_from(torn)
        assert added == {"points": 0, "spaces": 0, "names": 0, "api": 0}
        assert cache.get("points", "mine") == [1]

    def test_merge_from_wrong_shape_json(self, tmp_path):
        """Valid JSON of the wrong shape (regression: this used to raise
        AttributeError out of ``load`` while ``MemoCache(path)`` silently
        tolerated truncated files)."""
        torn = tmp_path / "list.json"
        torn.write_text("[1, 2, 3]")
        cache = MemoCache()
        added = cache.merge_from(torn)
        assert sum(added.values()) == 0

        scalar = tmp_path / "scalar.json"
        scalar.write_text('"just a string"')
        assert sum(cache.merge_from(scalar).values()) == 0

    def test_merge_from_missing_file(self, tmp_path):
        cache = MemoCache()
        assert sum(cache.merge_from(tmp_path / "never-written.json").values()) == 0

    def test_load_ignores_wrong_shape_sections(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"points": ["not", "a", "dict"], "api": {"k": 1}}))
        cache = MemoCache(path)
        assert cache.stats()["points"] == 0
        assert cache.get("api", "k") == 1

    def test_good_shards_still_merge(self, tmp_path):
        src = MemoCache(tmp_path / "src.json")
        src.put("api", "k", {"v": 1})
        src.flush()
        dst = MemoCache()
        assert dst.merge_from(tmp_path / "src.json")["api"] == 1
        assert dst.get("api", "k") == {"v": 1}


class TestFlushBytes:
    def test_file_is_the_compact_json_of_every_section(self, tmp_path):
        path = tmp_path / "memo.json"
        cache = MemoCache(path)
        cache.put("points", "ok", ["ok", 0.5, 1234.0, 0.1 + 0.2, 17.0])
        cache.put("points", "nan", ["ok", float("nan"), float("inf"), -0.0, 1e-300])
        cache.put("points", "fail", ["fail", "perf", "ValueError: tile ≥ 16×16 — Ω, ü"])
        stt = [[0, 0, 1], [0, 1, 0], [1, 1, 0]]
        cache.put("spaces", "('gemm', 1)", [[["m", "n", "k"], stt], [["k", "m", "n"], stt]])
        cache.put("names", "('gemm', 'MNK-SST')", [["m", "n", "k"], stt])
        cache.put("api", "key", {"ok": False, "failure_reason": "naïve"})
        cache.flush()

        data = cache.dump()
        raw = path.read_bytes()
        assert raw == json.dumps(data, separators=(",", ":")).encode()
        # the bytes the streaming encoder (json.dump) writes
        stream = io.StringIO()
        json.dump(data, stream, separators=(",", ":"))
        assert raw == stream.getvalue().encode()
        assert raw.isascii()

        reloaded = MemoCache(path)
        assert json.dumps(reloaded.dump()) == json.dumps(data)
        assert reloaded.stats() == {**cache.stats(), "hits": 0, "misses": 0}


class TestEngineAutoflush:
    def test_autoflush_off_defers_cache_writes(self, tmp_path):
        """A server-style engine (autoflush=False) never rewrites the cache
        file per pipeline run; an explicit flush persists everything."""
        from repro.explore.engine import EvaluationEngine
        from repro.ir import workloads
        from repro.perf.model import ArrayConfig

        path = tmp_path / "memo.json"
        engine = EvaluationEngine(
            ArrayConfig(rows=4, cols=4), cache=path, autoflush=False
        )
        result = engine.evaluate(
            workloads.gemm(16, 16, 16), selections=[("m", "n", "k")]
        )
        assert len(result) > 0
        assert not path.exists()  # no per-run rewrite
        engine.cache.flush()
        assert path.exists()
        warm = EvaluationEngine(ArrayConfig(rows=4, cols=4), cache=path)
        warm_result = warm.evaluate(
            workloads.gemm(16, 16, 16), selections=[("m", "n", "k")]
        )
        assert warm_result.stats.cache_hits == len(warm_result)
