import sys

import pytest
from pyspark.sql import SparkSession

from repro.harness import make_spark


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session."""
    s = make_spark("repro-tests")
    sc = s.sparkContext
    # one line in the test log with the effective session sizing
    print(
        f"[conftest] spark.driver.memory={sc.getConf().get('spark.driver.memory')} "
        f"master={sc.master} defaultParallelism={sc.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
