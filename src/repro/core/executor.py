"""Multi-Output execution + Parallelization layers (paper §3.5).

A view materializes as: scan its source relation (projected to the columns
actually used), hash-join the incoming views on the edge join keys, then one
``groupBy().agg()`` computing *all* of the view's merged aggregates in a
single pass — the Spark analog of LMFAO's multi-output plan (one scan, many
aggregates, Tungsten whole-stage codegen standing in for the generated C++;
see DESIGN.md "substitutions"). Within a group, views that share the same
incoming-view set and source columns also share a persisted base join, so
the scan+join work is not repeated. View merging already folds most such
views into one, so this fires only where merging cannot: the query views of
sibling nodes in a multi-node tree level, and ``merge_views=False`` plans.

Parallelization: groups within a wave are submitted from a thread pool —
Spark's scheduler runs their jobs concurrently; domain parallelism comes from
the partitioning of the scanned relation.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.group import Grouping
from repro.core.join_tree import JoinTree
from repro.core.views import Atom, ViewDef

#: Threads submitting the Spark jobs of one wave.
POOL_WORKERS = 4


@dataclass
class RunResult:
    """Materialized query results plus the cached internal views.

    Query DataFrames are persisted and already forced; call :meth:`cleanup`
    when done to release executor memory.
    """

    dataframes: dict[str, DataFrame]
    _cached: list[DataFrame] = field(default_factory=list)

    def __getitem__(self, query_name: str) -> DataFrame:
        return self.dataframes[query_name]

    def pandas(self, query_name: str):
        return self.dataframes[query_name].toPandas()

    def cleanup(self) -> None:
        for df in self._cached:
            df.unpersist()
        self._cached.clear()


def _atom_expr(atom: Atom, views: list[ViewDef]):
    """Spark Column for one partial product: local factors × incoming refs."""
    col = atom.local.to_spark()
    for vid, aidx in atom.refs:
        col = col * F.col(views[vid].col(aidx))
    return col


def _used_source_columns(view: ViewDef, views: list[ViewDef], tree: JoinTree):
    """Columns of the source relation this view actually reads."""
    omega = tree.db.schema_of(view.source)
    used = set(view.group_by) & omega
    for atom in view.atoms:
        used |= {a for f_ in atom.local.factors for a in f_.attrs if a in omega}
    for vid in view.incoming:
        used |= {a for a in views[vid].group_by if a in omega}
    return sorted(used)


def _base_df(
    view: ViewDef,
    views: list[ViewDef],
    tree: JoinTree,
    relations: dict[str, DataFrame],
    mat: dict[int, DataFrame],
) -> DataFrame:
    """Source relation joined with the view's incoming views (inner, on the
    edge join keys = incoming group-by ∩ source schema)."""
    omega = tree.db.schema_of(view.source)
    df = relations[view.source].select(*_used_source_columns(view, views, tree))
    for vid in view.incoming:
        keys = [a for a in views[vid].group_by if a in omega]
        df = df.join(mat[vid], on=keys, how="inner")
    return df


def _aggregate(view: ViewDef, views: list[ViewDef], base: DataFrame) -> DataFrame:
    atom_cols = [_atom_expr(a, views) for a in view.atoms]
    if view.is_query:
        aggs = []
        for name, idxs in view.outputs:
            expr = atom_cols[idxs[0]]
            for i in idxs[1:]:
                expr = expr + atom_cols[i]
            aggs.append(F.sum(expr).alias(name))
    else:
        aggs = [
            F.sum(c).alias(view.col(i)) for i, c in enumerate(atom_cols)
        ]
    if view.group_by:
        return base.groupBy(*view.group_by).agg(*aggs)
    return base.agg(*aggs)


def execute(
    spark: SparkSession,
    relations: dict[str, DataFrame],
    tree: JoinTree,
    views: list[ViewDef],
    grouping: Grouping,
    *,
    parallel: bool = True,
) -> RunResult:
    """Materialize all views wave by wave; returns the forced query results."""
    mat: dict[int, DataFrame] = {}
    cached: list[DataFrame] = []
    results: dict[str, DataFrame] = {}

    for wave in grouping.waves:
        # Plan construction is py4j-heavy and not worth contending over:
        # build every view plan of the wave serially, then execute the
        # independent Spark jobs concurrently.
        pending: list[DataFrame] = []
        for gi in wave:
            # Within a group, views sharing an incoming signature share one
            # persisted base join (the MOO shared-scan analog). The base is
            # forced once so parallel consumers do not race to fill it.
            members = [views[vid] for vid in grouping.groups[gi]]
            sigs = {
                v.vid: (
                    v.source,
                    v.incoming,
                    tuple(_used_source_columns(v, views, tree)),
                )
                for v in members
            }
            counts: dict[tuple, int] = {}
            for s in sigs.values():
                counts[s] = counts.get(s, 0) + 1
            shared: dict[tuple, DataFrame] = {}
            for v in members:
                sig = sigs[v.vid]
                if counts[sig] > 1:
                    if sig not in shared:
                        b = _base_df(v, views, tree, relations, mat).persist()
                        b.count()
                        shared[sig] = b
                        cached.append(b)
                    base = shared[sig]
                else:
                    base = _base_df(v, views, tree, relations, mat)
                out = _aggregate(v, views, base).persist()
                cached.append(out)
                mat[v.vid] = out
                pending.append(out)
                if v.is_query:
                    results[v.query_name or v.col(0)] = out
        # force the wave: later waves read these views from cache
        if parallel and len(pending) > 1:
            with ThreadPoolExecutor(max_workers=POOL_WORKERS) as pool:
                list(pool.map(lambda df: df.count(), pending))
        else:
            for df in pending:
                df.count()

    return RunResult(results, cached)
