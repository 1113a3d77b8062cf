"""Correctness gate: every checked output is compared with an independent
computation, outside the timed region.

- Aggregate batches are checked query by query against DuckDB, which runs
  each query as plain SQL over the natural join of the same pandas inputs
  the engine's relations were built from.
- A learned regression tree is checked split for split against the CART
  over the materialized join (``pandas_cart``).
- A BGD model must have a finite ``theta``.

Each check returns ``None`` when the output is right and a one-line reason
otherwise; the runner counts every reason as a failure.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

from repro.core.sql import natural_join_clause

RTOL = 1e-6
ATOL = 1e-6


def check_batch(got: dict[str, pd.DataFrame], expected: dict[str, pd.DataFrame], queries) -> str | None:
    for q in queries:
        reason = compare_frames(got[q.name], expected[q.name], q.group_by)
        if reason is not None:
            return f"{q.name}: {reason}"
    return None


def compare_frames(got: pd.DataFrame, expected: pd.DataFrame, keys) -> str | None:
    """Same columns, same group keys, values equal to a relative 1e-6."""
    if set(got.columns) != set(expected.columns):
        return f"columns {sorted(got.columns)} != {sorted(expected.columns)}"
    if len(got) != len(expected):
        return f"{len(got)} rows != {len(expected)} expected"
    keys = list(keys)
    if keys:
        got = got.sort_values(keys).reset_index(drop=True)
        expected = expected.sort_values(keys).reset_index(drop=True)
        if not (got[keys].to_numpy() == expected[keys].to_numpy()).all():
            return "group keys differ"
    values = [c for c in expected.columns if c not in keys]
    a = got[values].to_numpy(dtype=float)
    b = expected[values].to_numpy(dtype=float)
    if not np.allclose(a, b, rtol=RTOL, atol=ATOL, equal_nan=False):
        worst = np.unravel_index(np.argmax(np.abs(a - b)), a.shape)
        return (
            f"{values[worst[1]]} row {worst[0]}: {a[worst]!r} != {b[worst]!r}"
        )
    return None


def materialized_join(pdfs: dict[str, pd.DataFrame], tree, root: str) -> pd.DataFrame:
    """The full natural join, computed by DuckDB."""
    con = duckdb.connect()
    try:
        for name, pdf in pdfs.items():
            con.register(name, pdf)
        return con.execute(
            f"SELECT * FROM {natural_join_clause(tree, root)}"
        ).fetchdf()
    finally:
        con.close()


def tree_splits(tree) -> dict[str, tuple | None]:
    """Split of every node of a ``DecisionTree``, keyed by its L/R path."""
    out: dict[str, tuple | None] = {}
    stack = [(tree.root, "")]
    while stack:
        node, path = stack.pop()
        out[path] = node.split
        if node.split is not None:
            stack += [(node.left, path + "L"), (node.right, path + "R")]
    return out


def check_tree(tree, cart_nodes: list[dict]) -> str | None:
    got = tree_splits(tree)
    want = {n["path"]: n["split"] for n in cart_nodes}
    for path in sorted(set(got) | set(want)):
        if got.get(path, "missing") != want.get(path, "missing"):
            return (
                f"node {path or 'root'}: split {got.get(path, 'missing')} "
                f"!= {want.get(path, 'missing')}"
            )
    return None


def check_model(model) -> str | None:
    if not np.all(np.isfinite(model.theta)):
        return "BGD theta has non-finite entries"
    return None
