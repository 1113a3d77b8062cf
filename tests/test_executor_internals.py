"""Executor-internals tests: column pruning, base-join sharing, run-result
lifecycle, Example 3.3 numeric correctness on a chain database."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.apps.dtree import Node, compute_thresholds, node_queries
from repro.core.engine import LMFAO, result_size_mb
from repro.core.executor import _used_source_columns
from repro.core.expr import count, delta, ident, sum_of
from repro.core.join_tree import JoinTree
from repro.core.query import Query
from repro.core.schema import Attribute as A
from repro.core.schema import Database, Relation
from repro.core.sql import render_query_sql
from repro.core.views import ViewRegistry, decompose_query
from repro.datasets import FAVORITA
from repro.oracle import assert_equivalent


def test_used_source_columns_prunes(favorita):
    """A count query must scan only the join keys of each relation."""
    reg = ViewRegistry()
    decompose_query(Query("q", (), (count(),)), "Sales", FAVORITA.tree(), reg)
    stores_view = [v for v in reg.views if v.source == "Stores"][0]
    used = _used_source_columns(stores_view, reg.views, FAVORITA.tree())
    assert used == ["store"]  # city/state/stype/cluster pruned


def test_used_source_columns_includes_factor_attrs(favorita):
    reg = ViewRegistry()
    decompose_query(
        Query("q", (), (sum_of(ident("price")),)), "Sales", FAVORITA.tree(), reg
    )
    oil_view = [v for v in reg.views if v.source == "Oil"][0]
    used = _used_source_columns(oil_view, reg.views, FAVORITA.tree())
    assert set(used) == {"date", "price"}


def test_shared_base_join(spark, favorita):
    """Sibling nodes of a tree level emit query views with one incoming
    signature; the executor persists their base join once and both views
    aggregate it, and every result still matches the oracle."""
    spec = favorita.spec
    cont = spec.continuous_features()
    cats = tuple(c for c in spec.cm_cats if c != spec.label)
    thresholds = compute_thresholds(favorita.relations, spec.db, cont, 5)
    a = cont[0]
    t = thresholds[a][len(thresholds[a]) // 2]
    siblings = [Node(1, (delta(a, "<=", t),), 1), Node(2, (delta(a, ">", t),), 1)]
    queries = [
        q
        for nd in siblings
        for q in node_queries(nd, cont, cats, spec.label, thresholds, "regression")
    ]
    plan = favorita.engine.compile(queries)
    run = favorita.engine.run(spark, favorita.relations, plan)
    try:
        # one extra cached DataFrame per shared base join
        assert len(run._cached) > len(plan.views)
        for q in queries:
            sql = render_query_sql(spec.tree(), q)
            assert_equivalent(run[q.name], sql, **favorita.pandas)
    finally:
        run.cleanup()


@pytest.fixture(scope="module")
def chain(spark):
    """Paper Example 3.3: S_k(X_k, X_{k+1}), k=1..4, uniform random keys."""
    db = Database(
        [
            Relation(f"S{k}", (A(f"X{k}", "key"), A(f"X{k+1}", "key")))
            for k in range(1, 5)
        ]
    )
    tree = JoinTree(db, [(f"S{k}", f"S{k+1}") for k in range(1, 4)])
    g = np.random.default_rng(42)
    pdfs = {
        f"S{k}": pd.DataFrame(
            {f"X{k}": g.integers(1, 6, 200), f"X{k+1}": g.integers(1, 6, 200)}
        )
        for k in range(1, 5)
    }
    rels = {n: spark.createDataFrame(p).cache() for n, p in pdfs.items()}
    sizes = {n: df.count() for n, df in rels.items()}
    return tree, rels, pdfs, LMFAO(tree, sizes)


def test_example_3_3_counts_correct(spark, chain):
    """Q_i(X_i; 1) over the chain — multi-root decomposition (left/right
    count views) must give the exact per-value counts of the 4-way join."""
    tree, rels, pdfs, engine = chain
    queries = [Query(f"Q{i}", (f"X{i}",), (count(),)) for i in range(1, 6)]
    plan = engine.compile(queries)
    run = engine.run(spark, rels, plan)
    joined = (
        pdfs["S1"].merge(pdfs["S2"]).merge(pdfs["S3"]).merge(pdfs["S4"])
    )
    try:
        for i in range(1, 6):
            got = (
                run.pandas(f"Q{i}")
                .set_index(f"X{i}")["agg0"]
                .astype(int)
                .sort_index()
            )
            exp = joined.groupby(f"X{i}").size().sort_index()
            assert got.to_dict() == exp.to_dict(), f"Q{i} mismatch"
    finally:
        run.cleanup()


def test_example_3_3_pair_counts(spark, chain):
    """Q_{i,j}(X_i, X_j; 1) — the paper's pairwise extension."""
    tree, rels, pdfs, engine = chain
    q = Query("p", ("X1", "X4"), (count(),))
    plan = engine.compile([q])
    run = engine.run(spark, rels, plan)
    joined = pdfs["S1"].merge(pdfs["S2"]).merge(pdfs["S3"]).merge(pdfs["S4"])
    try:
        got = {
            (r.X1, r.X4): int(r.agg0)
            for r in run.pandas("p").itertuples()
        }
        exp = joined.groupby(["X1", "X4"]).size().to_dict()
        assert got == exp
    finally:
        run.cleanup()


def test_run_result_lifecycle(spark, favorita):
    q = Query("q", (), (count(),))
    plan = favorita.engine.compile([q])
    run = favorita.engine.run(spark, favorita.relations, plan)
    assert run["q"].count() == 1
    pdf = run.pandas("q")
    assert len(pdf) == 1
    run.cleanup()
    assert run._cached == []
    run.cleanup()  # idempotent


def test_result_size_mb_counts_values(spark, favorita):
    q = Query("q", ("family",), (count(),))
    plan = favorita.engine.compile([q])
    run = favorita.engine.run(spark, favorita.relations, plan)
    try:
        n_rows = run["q"].count()
        mb = result_size_mb(run)
        assert abs(mb - n_rows * 2 * 8 / 2**20) < 1e-9
    finally:
        run.cleanup()


def test_fmt_table_alignment():
    from repro.harness import fmt_table

    s = fmt_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123}])
    lines = s.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines)
    assert "0.12" in s  # float formatting
