"""Traced run: spans around the calls into each layer, and per-layer counts.

Spans are recorded only from the benchmark's side of each layer boundary:

- the names ``repro.core.engine`` calls (``choose_roots``,
  ``decompose_query``, ``group_views``, ``execute``) are swapped for timing
  wrappers while a traced round runs, and restored afterwards;
- ``RunResult.pandas`` / ``RunResult.cleanup`` and the apps entry points the
  benchmark calls (``assemble_covar``, ``learn_bgd``, ``learn_tree``) are
  wrapped the same way;
- :class:`TracedLMFAO` is the engine handed to traced rounds (and to
  ``learn_tree``): it times ``compile`` and records each batch's plan
  statistics and Spark job, stage and task counts.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory and are written out as JSON when the run ends.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import repro.apps.covar as covar_mod
import repro.apps.dtree as dtree_mod
import repro.apps.linreg as linreg_mod
import repro.core.engine as engine_mod
import repro.core.executor as executor_mod
from repro.core.engine import LMFAO

#: Self-time metrics: per-layer metric name -> the span it sums.
SELF_TIME = {
    "datasets.cache_s": "datasets.cache",
    "roots.choose_s": "roots.choose_roots",
    "views.decompose_s": "views.decompose_query",
    "group.group_s": "group.group_views",
    "engine.compile_s": "engine.compile",
    "executor.run_s": "executor.execute",
    "executor.collect_s": "executor.pandas",
    "executor.cleanup_s": "executor.cleanup",
    "apps.covar.assemble_s": "apps.covar.assemble_covar",
    "apps.linreg.bgd_s": "apps.linreg.learn_bgd",
    "apps.dtree.self_s": "apps.dtree.learn_tree",
}

#: Counts summed over the batches of a round.
BATCH_COUNTS = (
    "views.A", "views.I", "views.V", "group.G", "group.waves",
    "roots.distinct_roots", "executor.views_run", "executor.spark_jobs",
    "executor.spark_stages", "executor.spark_tasks", "executor.failed_tasks",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    batch: int | None
    round: int


class Tracer:
    """Span recorder plus per-batch Spark bookkeeping for one run."""

    def __init__(self, spark):
        self.spark = spark
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.round = -1
        self.batch: int | None = None
        self.batches: list[dict] = []  # one record per compiled batch
        self._status = spark.sparkContext.statusTracker()
        self._jobs_before: set[int] = set()
        self._storage_before = 0

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, parent, self.batch, self.round)
        )
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    @contextmanager
    def instrumented(self, round_id: int):
        """Swap the layer entry points for timing wrappers for one round."""
        self.round = round_id
        originals = []

        def patch(owner, attr, name, wrapper=None):
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, wrapper(fn) if wrapper else self.wrap(name, fn))

        patch(engine_mod, "choose_roots", "roots.choose_roots")
        patch(engine_mod, "decompose_query", "views.decompose_query")
        patch(engine_mod, "group_views", "group.group_views")
        patch(engine_mod, "execute", "executor.execute")
        patch(executor_mod.RunResult, "pandas", "executor.pandas")
        patch(executor_mod.RunResult, "cleanup", None, self._wrap_cleanup)
        patch(covar_mod, "assemble_covar", "apps.covar.assemble_covar")
        patch(linreg_mod, "learn_bgd", "apps.linreg.learn_bgd")
        patch(dtree_mod, "learn_tree", "apps.dtree.learn_tree")
        try:
            yield
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def _wrap_cleanup(self, fn):
        @functools.wraps(fn)
        def cleanup(run):
            # storage held by this run's persisted views, before release
            with self.span("trace.bookkeeping"):
                cached = self._storage_bytes() - self._storage_before
            with self.span("executor.cleanup"):
                fn(run)
            with self.span("trace.bookkeeping"):
                self._end_batch(cached)

        return cleanup

    # -- per-batch bookkeeping -----------------------------------------
    def begin_batch(self, queries) -> None:
        with self.span("trace.bookkeeping"):
            self.batch = len(self.batches)
            in_tree = any(
                self.spans[i].name == "apps.dtree.learn_tree" for i in self._stack
            )
            self.batches.append(
                {"round": self.round, "queries": list(queries), "in_tree": in_tree}
            )
            self._jobs_before = set(self._status.getJobIdsForGroup(None))
            self._storage_before = self._storage_bytes()

    def note_plan(self, plan) -> None:
        s = plan.stats()
        waves = plan.grouping.waves
        self.batches[-1].update(
            {
                "views.A": s["A"],
                "views.I": s["I"],
                "views.V": s["V"],
                "group.G": s["G"],
                "group.waves": len(waves),
                "group.max_wave_width": max(len(w) for w in waves),
                "roots.distinct_roots": len(set(plan.roots.values())),
                "executor.views_run": len(plan.views),
            }
        )

    def _end_batch(self, cached_bytes: int) -> None:
        new_jobs = set(self._status.getJobIdsForGroup(None)) - self._jobs_before
        stages = set()
        for job in new_jobs:
            info = self._status.getJobInfo(job)
            if info is not None:
                stages.update(info.stageIds)
        tasks = failed = ran = 0
        for sid in stages:
            info = self._status.getStageInfo(sid)
            # stages skipped because their shuffle output was reused never
            # run a task; only stages that ran are counted
            if info is None or info.numCompletedTasks + info.numFailedTasks == 0:
                continue
            ran += 1
            tasks += info.numTasks
            failed += info.numFailedTasks
        self.batches[-1].update(
            {
                "executor.spark_jobs": len(new_jobs),
                "executor.spark_stages": ran,
                "executor.spark_tasks": tasks,
                "executor.failed_tasks": failed,
                "executor.cached_mb": cached_bytes / 2**20,
            }
        )
        self.batch = None

    def _storage_bytes(self) -> int:
        infos = self.spark.sparkContext._jsc.sc().getRDDStorageInfo()
        return sum(info.memSize() for info in infos)

    # -- reduction -----------------------------------------------------
    def self_times(self, round_id: int) -> dict[str, float]:
        """Self time per span name over one round."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s.round == round_id:
                d = s.end - s.start - child_time[i]
                out[s.name] = out.get(s.name, 0.0) + d
        return out

    def round_metrics(self, round_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced round."""
        st = self.self_times(round_id)
        out = {m: st.get(span, 0.0) for m, span in SELF_TIME.items()}
        batches = [b for b in self.batches if b["round"] == round_id]
        for key in BATCH_COUNTS:
            out[key] = sum(b.get(key, 0) for b in batches)
        out["group.max_wave_width"] = max(
            (b["group.max_wave_width"] for b in batches), default=0
        )
        out["executor.cached_mb"] = max(
            (b.get("executor.cached_mb", 0.0) for b in batches), default=0.0
        )
        in_tree = [b for b in batches if b["in_tree"]]
        out["apps.dtree.levels"] = len(in_tree)
        out["apps.dtree.queries"] = sum(len(b["queries"]) for b in in_tree)
        return out

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump(
                {"spans": [asdict(s) for s in self.spans], **extra}, f, default=str
            )


class TracedLMFAO(LMFAO):
    """The engine with ``compile`` timed and each batch's counts recorded."""

    def __init__(self, *args, tracer: Tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def compile(self, queries, roots=None):
        self.tracer.begin_batch(queries)
        with self.tracer.span("engine.compile"):
            plan = super().compile(queries, roots)
        self.tracer.note_plan(plan)
        return plan


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced rounds; counts stay observed
    values rather than the mean of the middle two."""
    return {
        k: (statistics.median if k.endswith(("_s", "_mb")) else statistics.median_low)(
            [r[k] for r in rounds]
        )
        for k in rounds[0]
    }
