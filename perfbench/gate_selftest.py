"""Self-test of the correctness gate: right outputs pass, perturbed ones trip it.

Runs without Spark on a tiny generated dataset, in well under a second. The
benchmark runs it before every measurement and refuses to report results if
the gate lets a perturbed output through. Standalone::

    python3 perfbench/gate_selftest.py
"""
from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np


def selftest() -> list[str]:
    """Problems found with the gate; empty when it works."""
    import gate
    from repro.apps.dtree import DecisionTree, Node
    from repro.baselines.duckdb_batch import run_per_query_duckdb
    from repro.baselines.ml_baselines import pandas_cart
    from repro.datasets import all_datasets
    from repro.workloads import build_workload

    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    spec = all_datasets()["favorita"]
    tree = spec.tree()
    pdfs = spec.generate_pandas(0.002, 11)
    queries = build_workload(spec, "dc")
    want = run_per_query_duckdb(pdfs, tree, queries)
    got = {k: v.sample(frac=1.0, random_state=0) for k, v in want.items()}
    expect(gate.check_batch(got, want, queries) is None, "reordered rows fail")

    q = max(queries, key=lambda q: len(q.group_by))
    bad = {k: v.copy() for k, v in got.items()}
    col = q.agg_names[0]
    bad[q.name].loc[bad[q.name].index[0], col] *= 1.001
    expect(gate.check_batch(bad, want, queries) is not None, "perturbed value passes")
    bad = {k: v.copy() for k, v in got.items()}
    bad[q.name] = bad[q.name].iloc[1:]
    expect(gate.check_batch(bad, want, queries) is not None, "missing row passes")

    # a tree built from the CART's own nodes passes; one changed split fails
    joined = gate.materialized_join(pdfs, tree, spec.fact)
    cont, cats = ("txns",), ("promo", "family")
    thresholds = {"txns": sorted(joined["txns"].quantile([0.25, 0.5, 0.75]))}
    nodes = pandas_cart(
        joined, cont=cont, cats=cats, label=spec.label, max_depth=2,
        min_split=10, thresholds=thresholds,
    )
    by_path = {n["path"]: Node(i, (), len(n["path"]), split=n["split"]) for i, n in enumerate(nodes)}
    for path, node in by_path.items():
        if node.split is not None:
            node.left, node.right = by_path[path + "L"], by_path[path + "R"]
    learned = DecisionTree(by_path[""], "regression", spec.label)
    expect(gate.check_tree(learned, nodes) is None, "identical tree fails")
    attr, op, val = by_path[""].split
    by_path[""].split = (attr, op, val + 1)
    expect(gate.check_tree(learned, nodes) is not None, "changed split passes")

    expect(gate.check_model(SimpleNamespace(theta=np.ones(3))) is None, "finite theta fails")
    expect(
        gate.check_model(SimpleNamespace(theta=np.array([1.0, np.nan]))) is not None,
        "NaN theta passes",
    )
    return problems


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    found = selftest()
    for p in found:
        print(f"gate self-test: {p}", file=sys.stderr)
    print("gate self-test:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
