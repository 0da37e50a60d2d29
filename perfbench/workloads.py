"""The three benchmark workloads and the seeded inputs they sweep.

Every workload runs on a 16x16 platform, datapath width 16, serial
evaluation, driven by one closed loop (the next sweep starts when the
previous one returns).  ``setup()`` builds the starting state and returns
the local reference results when it has them; ``sweep()`` is the timed call;
``traced_sweep()`` makes the same call with span-recording objects injected.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import subprocess
import sys
import time

import repro
from repro.api import LocalSession
from repro.explore.engine import MemoCache
from repro.ir import workloads as table_ii
from repro.perf.model import ArrayConfig
from repro.service.client import RemoteSession
from repro.service.coordinator import SweepCoordinator
from repro.service.server import ServiceThread

import repro.explore.engine as engine_mod

ARRAY = ArrayConfig(rows=16, cols=16)
CONFIGS = (ArrayConfig(rows=8, cols=8), ARRAY, ArrayConfig(rows=32, cols=32))

#: Seed whose outputs ``expected.json`` pins in full: Table II's own extents.
DEFAULT_SEED = 0
#: Other seeds scale each loop extent by one of these factors ...
EXTENT_FACTORS = (0.75, 1.0, 1.25)
#: ... among the results that stay at least the largest array dimension.  A
#: loop that long tiles to the array whatever its extent, so the models' work
#: per design, and with it the time per sweep, stays the same from seed to
#: seed; a shorter loop (batched_gemv's batch) keeps its Table II extent.
MIN_SCALED_EXTENT = max(max(c.rows, c.cols) for c in CONFIGS)


def statements(names, seed: int):
    """The Table II statements for ``names`` with loop extents drawn from ``seed``.

    The extents change the models' outputs, not which designs exist.
    """
    rng = random.Random(seed)
    out = []
    for name in names:
        base = table_ii.by_name(name)
        if seed == DEFAULT_SEED:
            out.append(base)
            continue
        extents = {}
        for loop, extent in zip(base.space.names, base.space.extents):
            choices = [
                round(extent * f) for f in EXTENT_FACTORS
                if round(extent * f) >= MIN_SCALED_EXTENT
            ]
            extents[loop] = rng.choice(choices) if choices else extent
        out.append(table_ii.by_name(name, **extents))
    return out


@contextlib.contextmanager
def engine_models(models):
    """Put the traced model classes in under the names the engine looks up.

    A multi-config sweep (and the server, per job) builds its own default
    models for every config, so ``perf=``/``cost=`` cannot reach them.
    """
    if models is None:
        yield
        return
    saved = engine_mod.PerfModel, engine_mod.CostModel
    engine_mod.PerfModel, engine_mod.CostModel = models[0], models[1]
    try:
        yield
    finally:
        engine_mod.PerfModel, engine_mod.CostModel = saved


def n_designs(results) -> int:
    return sum(len(r.points) + len(r.failures) for r in results)


_COLD_START = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from repro.api import LocalSession
from repro.ir import workloads
from repro.perf.model import ArrayConfig
LocalSession(ArrayConfig(rows=16, cols=16), cache=None)
for name, extents in json.loads(sys.argv[2]):
    workloads.by_name(name, **extents)
print(time.perf_counter() - start)
"""


class ColdSweep:
    """``LocalSession(cache=None).sweep(["gemm", "mttkrp"])``: enumeration-bound."""

    name = "cold_sweep"
    workloads = ("gemm", "mttkrp")
    root_layer = "api.session"
    #: the sweep runs in the main thread, so host-speed chunks tick during it
    tick = True
    #: one sweep reads the host's speed less well than the median of two
    min_sweeps = 2

    def __init__(self, seed: int, workdir: str, models=None):
        self.seed = seed
        self.models = models

    def setup(self):
        self.statements = statements(self.workloads, self.seed)
        # a cold sweep starts from a fresh process: the set-up time is what a
        # fresh interpreter spends loading the program and building the
        # statements and the session (its own start-up is not the program's)
        extents = [
            [st.name, dict(zip(st.space.names, st.space.extents))]
            for st in self.statements
        ]
        src = os.path.dirname(os.path.dirname(repro.__file__))
        child = subprocess.run(
            [sys.executable, "-c", _COLD_START, src, json.dumps(extents)],
            check=True, capture_output=True, text=True,
        )
        self.setup_seconds = float(child.stdout)
        self.session = LocalSession(ARRAY, cache=None)
        if self.models is not None:
            perf_cls, cost_cls, _ = self.models
            self.traced_session = LocalSession(
                perf=perf_cls(ARRAY), cost=cost_cls.for_array(ARRAY), cache=None
            )
        return None

    def sweep(self):
        return self.session.sweep(self.statements)

    def traced_sweep(self):
        return self.traced_session.sweep(self.statements)

    def close(self):
        pass


class ConfigSweep:
    """``sweep(["gemm", "batched_gemv"], configs=[8x8, 16x16, 32x32])`` from a
    spaces-only memo file: enumeration replays, all designs evaluate and are
    written back through ``put`` and autoflush.  Perf-model-bound."""

    name = "config_sweep"
    workloads = ("gemm", "batched_gemv")
    root_layer = "api.session"
    tick = True
    min_sweeps = 1

    def __init__(self, seed: int, workdir: str, models=None):
        self.seed = seed
        self.models = models
        self.workdir = workdir
        self.memo_path = os.path.join(workdir, "memo.json")
        self.spaces_path = os.path.join(workdir, "spaces.json")

    def setup(self):
        self.statements = statements(self.workloads, self.seed)
        if os.path.exists(self.spaces_path):
            os.remove(self.spaces_path)
        session = LocalSession(ARRAY, cache=self.spaces_path)
        for statement in self.statements:
            for _ in session.iter_space(statement):
                pass
        session.flush()
        with open(self.spaces_path, "rb") as fh:
            self.spaces = fh.read()
        return None

    def _fresh_memo(self):
        with open(self.memo_path, "wb") as fh:
            fh.write(self.spaces)

    def sweep(self):
        self._fresh_memo()
        session = LocalSession(ARRAY, cache=self.memo_path)
        return session.sweep(self.statements, configs=CONFIGS)

    def traced_sweep(self):
        self._fresh_memo()
        with engine_models(self.models):
            session = LocalSession(ARRAY, cache=self.models[2](self.memo_path))
            return session.sweep(self.statements, configs=CONFIGS)

    def close(self):
        pass


class FleetWarm:
    """``SweepCoordinator([url])`` against one in-process ``ServiceThread``
    whose memo is warm for the config_sweep grid: memo reads, design keys,
    the wire, the row stream and the fold."""

    name = "fleet_warm"
    workloads = ConfigSweep.workloads
    root_layer = "service.coordinator"
    #: the sweep runs on the server and lane threads; a chunk in the main
    #: thread would compete with them for the interpreter lock
    tick = False
    min_sweeps = 1

    def __init__(self, seed: int, workdir: str, models=None):
        self.seed = seed
        self.models = models
        self.server = None
        self.first_row = None
        self.rows = 0
        self.jobs = 0

    def _on_row(self, point):
        if self.first_row is None:
            self.first_row = time.perf_counter()
        self.rows += 1

    def setup(self):
        self.statements = statements(self.workloads, self.seed)
        memo_cls = MemoCache if self.models is None else self.models[2]
        with engine_models(self.models):
            session = LocalSession(ARRAY, cache=memo_cls())
            reference = session.sweep(self.statements, configs=CONFIGS)
        self.server = ServiceThread(session).start()
        factory = None
        if self.models is not None:
            factory = self._counting_session
        self.coordinator = SweepCoordinator(
            [self.server.url], array=ARRAY, on_row=self._on_row, session_factory=factory
        )
        return reference

    def _counting_session(self, url):
        bench = self

        class CountingSession(RemoteSession):
            def submit_job(self, *args, **kwargs):
                job = super().submit_job(*args, **kwargs)
                bench.jobs += 1
                return job

        return CountingSession(url, array=ARRAY)

    def sweep(self):
        self.first_row = None
        self.rows = 0
        self.jobs = 0
        return self.coordinator.sweep(self.statements, configs=CONFIGS)

    def traced_sweep(self):
        with engine_models(self.models):
            return self.sweep()

    def close(self):
        if self.server is not None:
            self.coordinator.close()
            self.server.stop()
            self.server = None


WORKLOADS = {cls.name: cls for cls in (ColdSweep, ConfigSweep, FleetWarm)}
