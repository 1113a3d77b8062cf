"""The benchmark's three workloads.

Each workload builds its inputs from the run's seed, sets up its relations,
and then runs *rounds*: one client submits the round's batches one after the
other, each after the previous one returned (a closed loop). A round returns
its timings plus deferred correctness checks, which the runner evaluates
after the timed region.

Batch widths and tree depth are narrower than the paper's, so that one run,
with its Spark start-up and warm-up, stays within the benchmark's time
budget; see README.md for the sizes and why each workload exists.
"""
from __future__ import annotations

import dataclasses
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import pandas as pd

import repro.apps.covar as covar_mod
import repro.apps.dtree as dtree_mod
import repro.apps.linreg as linreg_mod
from repro.baselines.duckdb_batch import run_per_query_duckdb
from repro.baselines.ml_baselines import pandas_cart
from repro.core.engine import LMFAO
from repro.datasets import all_datasets
from repro.workloads import build_workload

import gate

Check = Callable[[], "str | None"]


@dataclass
class RoundResult:
    """What one round measured and what must be checked afterwards."""

    wall_s: float = 0.0
    batch_s: dict[str, float] = field(default_factory=dict)
    ingest_s: float | None = None
    train_s: float | None = None
    aggregates: int = 0  # application aggregates A answered
    checks: list[tuple[str, Check]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)  # units that raised

    @property
    def attempted(self) -> int:
        return len(self.checks) + len(self.errors)


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _n_aggregates(queries) -> int:
    return sum(q.n_aggregates for q in queries)


class Workload:
    """Shared set-up: generate the dataset from the seed, cache it in Spark."""

    name: str
    dataset: str
    sf: float
    #: untimed rounds before timing, about 20-25 s of work: round times keep
    #: falling that long while the JVM compiles Spark's planner and scheduler
    warmup_rounds: int

    def __init__(self, spark, seed: int):
        self.spark = spark
        self.seed = seed
        self.spec = all_datasets()[self.dataset]
        self.pdfs: dict[str, pd.DataFrame] = {}
        self.relations = {}
        self.sizes: dict[str, int] = {}

    def load(self) -> float:
        """Generate and cache every relation; returns the caching seconds.

        Called several times during set-up; each call replaces the previous
        copy, so the last one is what the rounds read.
        """
        self.pdfs = self.spec.generate_pandas(self.sf, self.seed)
        t0 = time.perf_counter()
        relations = {
            n: self.spark.createDataFrame(p).cache() for n, p in self.pdfs.items()
        }
        sizes = {n: df.count() for n, df in relations.items()}
        cache_s = time.perf_counter() - t0
        for df in self.relations.values():
            df.unpersist()
        self.relations, self.sizes = relations, sizes
        return cache_s

    def prepare(self) -> None:
        """Set-up that reads the cached relations (after the last ``load``)."""

    def engine(self, engine_cls=LMFAO, **kwargs) -> LMFAO:
        return engine_cls(self.spec.tree(), self.sizes, **kwargs)

    def run_round(self, r: int, engine: LMFAO, tracer=None) -> RoundResult:
        raise NotImplementedError

    def _batch(self, kind: str, queries, engine, res: RoundResult, tracer, check: Callable):
        """Compile, run and collect one batch; times compile->collected."""
        try:
            with _span(tracer, f"batch.{kind}"):
                t0 = time.perf_counter()
                plan = engine.compile(queries)
                run = engine.run(self.spark, self.relations, plan)
                out = {q.name: run.pandas(q.name) for q in queries}
                res.batch_s[kind] = time.perf_counter() - t0
                run.cleanup()
        except Exception as e:  # counted as a failed unit; the round goes on
            res.errors.append(f"{kind}: {type(e).__name__}: {e}")
            return None
        res.aggregates += _n_aggregates(queries)
        res.checks.append((kind, lambda: check(out)))
        return out


class BatchRepeat(Workload):
    """The same batches resubmitted over unchanged data."""

    name = "batch-repeat"
    dataset = "favorita"
    sf = 0.05
    warmup_rounds = 4
    kinds = ("count", "dc")
    #: cube dimensions (the full spec has three: family, city, htype)
    cube_dims = ("family",)

    def __init__(self, spark, seed):
        super().__init__(spark, seed)
        self.spec = dataclasses.replace(self.spec, cube_dims=self.cube_dims)

    def prepare(self) -> None:
        self.queries = {k: build_workload(self.spec, k, self.relations) for k in self.kinds}
        self._expected: dict[str, dict] = {}

    def expected(self, kind: str) -> dict:
        # the data never changes, so DuckDB answers each batch once
        if kind not in self._expected:
            self._expected[kind] = run_per_query_duckdb(
                self.pdfs, self.spec.tree(), self.queries[kind]
            )
        return self._expected[kind]

    def run_round(self, r, engine, tracer=None):
        res = RoundResult()
        t0 = time.perf_counter()
        for kind in self.kinds:
            qs = self.queries[kind]
            self._batch(
                kind, qs, engine, res, tracer,
                lambda out, kind=kind, qs=qs: gate.check_batch(out, self.expected(kind), qs),
            )
        res.wall_s = time.perf_counter() - t0
        return res


class FreshFact(Workload):
    """Each round replaces the fact table, then refreshes a model and a cube."""

    name = "fresh-fact"
    dataset = "yelp"
    sf = 0.1
    warmup_rounds = 3
    #: covar-batch categoricals (the full spec has five) and cube dimensions
    #: (the full spec has three: b_city, cat_id, b_open)
    cm_cats = ("b_city",)
    cube_dims = ("b_city",)

    def __init__(self, spark, seed):
        super().__init__(spark, seed)
        self.spec = dataclasses.replace(
            self.spec, cm_cats=self.cm_cats, cube_dims=self.cube_dims
        )

    def prepare(self) -> None:
        self.cont = tuple(self.spec.db.attrs_of_kind("cont"))
        self.queries = {
            "cm": build_workload(self.spec, "cm"),
            "dc": build_workload(self.spec, "dc"),
        }

    def fact_slice(self, r: int) -> pd.DataFrame:
        """Round ``r``'s new fact rows, from a seed derived from the run's."""
        return self.spec.generate_pandas(self.sf, self.seed * 1000 + 1 + r)[
            self.spec.fact
        ]

    def run_round(self, r, engine, tracer=None):
        fact = self.spec.fact
        new_rows = self.fact_slice(r)
        pdfs = {**self.pdfs, fact: new_rows}
        tree = self.spec.tree()
        res = RoundResult()
        t0 = time.perf_counter()
        with _span(tracer, "datasets.cache"):
            df = self.spark.createDataFrame(new_rows).cache()
            df.count()
            self.relations[fact].unpersist()
            self.relations[fact] = df
        res.ingest_s = time.perf_counter() - t0

        def checker(kind):
            qs = self.queries[kind]
            return lambda out: gate.check_batch(
                out, run_per_query_duckdb(pdfs, tree, qs), qs
            )

        t_train = time.perf_counter()
        cm_out = self._batch("cm", self.queries["cm"], engine, res, tracer, checker("cm"))
        if cm_out is None:
            res.errors.append("model: covar batch failed")
        else:
            try:
                cm = covar_mod.assemble_covar(cm_out, self.cont, self.cm_cats, self.spec.label)
                model = linreg_mod.learn_bgd(cm, self.spec.label)
                res.train_s = time.perf_counter() - t_train
                res.checks.append(("model", lambda: gate.check_model(model)))
            except Exception as e:
                res.errors.append(f"model: {type(e).__name__}: {e}")
        self._batch("dc", self.queries["dc"], engine, res, tracer, checker("dc"))
        res.wall_s = time.perf_counter() - t0
        return res


class DtreeTrain(Workload):
    """One regression tree: each level's batch depends on the previous split."""

    name = "dtree-train"
    dataset = "favorita"
    sf = 0.05
    warmup_rounds = 2
    max_depth = 2
    min_split = 100
    n_buckets = 5
    cont = ("txns",)
    cats = ("promo",)

    def prepare(self) -> None:
        self.thresholds = dtree_mod.compute_thresholds(
            self.relations, self.spec.db, self.cont, self.n_buckets
        )
        self._cart: list[dict] | None = None

    def cart(self) -> list[dict]:
        # the same data every round: CART over the materialized join once
        if self._cart is None:
            joined = gate.materialized_join(self.pdfs, self.spec.tree(), self.spec.fact)
            self._cart = pandas_cart(
                joined, cont=self.cont, cats=self.cats, label=self.spec.label,
                kind="regression", max_depth=self.max_depth,
                min_split=self.min_split, thresholds=self.thresholds,
            )
        return self._cart

    def level_queries(self, tree) -> list:
        """The queries of every level batch ``learn_tree`` submitted."""
        return [
            q
            for nd in tree.nodes
            if nd.depth < self.max_depth
            for q in dtree_mod.node_queries(
                nd, self.cont, self.cats, self.spec.label, self.thresholds,
                "regression",
            )
        ]

    def run_round(self, r, engine, tracer=None):
        res = RoundResult()
        t0 = time.perf_counter()
        try:
            tree = dtree_mod.learn_tree(
                self.spark, self.relations, engine, cont=self.cont,
                cats=self.cats, label=self.spec.label, kind="regression",
                max_depth=self.max_depth, min_split=self.min_split,
                thresholds=self.thresholds,
            )
        except Exception as e:
            res.errors.append(f"tree: {type(e).__name__}: {e}")
        else:
            res.train_s = time.perf_counter() - t0
            res.aggregates = _n_aggregates(self.level_queries(tree))
            res.checks.append(("tree", lambda: gate.check_tree(tree, self.cart())))
        res.wall_s = time.perf_counter() - t0
        return res


WORKLOADS = {w.name: w for w in (BatchRepeat, FreshFact, DtreeTrain)}
