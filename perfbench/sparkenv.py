"""Spark session sizing for the benchmark, plus /proc readers for the driver.

The session mirrors the repository's harness (8 shuffle partitions, broadcast
joins off, Arrow transfers on, no UI) but is sized from this machine instead
of a fixed 40g heap: ``local[<cores>]`` and a driver heap of half the RAM,
clamped to 2-8 GiB (the same rule the tier-1 test command uses). The status
store retains far more jobs and stages than Spark's default of 1000, because
one wide batch can launch more than that and the traced run counts them.

Every file Spark, the JVM and pyspark write goes under ``workdir``.
"""
from __future__ import annotations

import os
import shlex
import subprocess

#: Jobs/stages kept in Spark's status store (default 1000 each).
RETAINED = 200_000


def driver_memory() -> str:
    """Half of MemTotal in whole GiB, clamped to 2..8."""
    gib = 2
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                gib = int(line.split()[1]) // (2 * 1024 * 1024)
                break
    return f"{min(8, max(2, gib))}g"


def session_config(workdir: str) -> dict[str, str]:
    """The effective settings, printed with the results."""
    cores = len(os.sched_getaffinity(0))
    return {
        "master": f"local[{cores}]",
        "spark.driver.memory": driver_memory(),
        "spark.sql.shuffle.partitions": "8",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.ui.retainedJobs": str(RETAINED),
        "spark.ui.retainedStages": str(RETAINED),
        "spark.local.dir": os.path.join(workdir, "spark-local"),
        "spark.driver.host": "127.0.0.1",
    }


def start_session(workdir: str, conf: dict[str, str]):
    """Launch the driver JVM and return the SparkSession.

    Must run before anything imports pyspark's gateway: driver memory and
    JVM options are read at launch, not from the session builder.
    """
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(conf["spark.local.dir"], exist_ok=True)
    # pyspark and the JVM otherwise write under /tmp
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = conf["spark.local.dir"]
    java_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            "--master", conf["master"],
            "--driver-memory", conf["spark.driver.memory"],
            "--conf", shlex.quote(f"spark.driver.extraJavaOptions={java_opts}"),
            "--conf", f"spark.ui.enabled={conf['spark.ui.enabled']}",
            "--conf", f"spark.driver.host={conf['spark.driver.host']}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for key, value in conf.items():
        if key != "master" and key != "spark.driver.memory":
            builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def jvm_pid(spark) -> int:
    """PID of the driver JVM that pyspark launched."""
    return spark.sparkContext._gateway.proc.pid


def stop_session(spark) -> None:
    """Stop Spark and wait until the driver JVM has exited."""
    sc = spark.sparkContext
    proc = sc._gateway.proc
    spark.stop()
    sc._gateway.shutdown()
    # the gateway JVM exits when its stdin closes
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the peak resident set sizes (VmHWM) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time consumed so far by ``pid``."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

