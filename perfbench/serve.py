"""serve_http: ``repro-t3 serve`` as a child process, driven over HTTP.

Two keep-alive connections send ``POST /predict`` in a closed loop, as
an optimizer or admission controller does: each waits for its answer
before asking again. The SQL comes from a pool of join-plus-filter
queries over ``tpcds_sf1``, larger than the server's 1024-entry plan
cache, drawn with a Zipf skew so that both the cache-hit and the
cache-miss path run.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro.core.model import T3Model
from repro.datagen.instances import get_instance
from repro.engine.cardinality import ExactCardinalityModel
from repro.engine.optimizer import Optimizer
from repro.engine.simulator import ExecutionSimulator
from repro.engine.sqlparser import parse_sql

import checks
from common import (
    JobSuite,
    Run,
    check_set_up_trainings,
    deadline_loop,
    latency_metrics,
    plan_exec_metric,
    qerror_metrics,
    smoke_t3,
)
from tracer import Tracer

INSTANCE = "tpcds_sf1"
#: Distinct SQL strings; four times the server's plan cache.
POOL_SIZE = 4096
#: Zipf exponent of the request mix over the pool's ranks.
ZIPF_SKEW = 1.0
#: The pool and the popularity rank of each entry are the same in every
#: run; the seed picks the draws.
POOL_SEED = 20250
CONNECTIONS = 2
#: Requests per connection per round.
ROUND = 8
#: Not in the pool: warms the server's instance and optimizer in set-up.
WARMUP_SQL = "SELECT count(*) FROM item"
#: Every this many pool entries, one is asked again after the load, in
#: one batched request, to measure accuracy on a fixed set of answers.
ACCURACY_STRIDE = 32

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"


def sql_pool(size: int = POOL_SIZE, seed: int = POOL_SEED) -> List[str]:
    """Distinct ``SELECT count(*)`` queries over one to three tables,
    joined along the instance's declared join edges, with one or two
    ``<=`` filters of log-uniform selectivity, most popular first."""
    instance = get_instance(INSTANCE)
    schema, catalog = instance.schema, instance.catalog
    rng = np.random.default_rng(seed)
    edges = schema.join_edges
    joinable = sorted({t for e in edges for t in (e.left_table,
                                                  e.right_table)})
    numeric = {t: [c.name for c in schema.table(t).columns
                   if c.dtype.is_numeric
                   and c.name != schema.table(t).primary_key]
               for t in joinable}
    pool: List[str] = []
    seen = set()
    while len(pool) < size:
        tables = [joinable[rng.integers(len(joinable))]]
        conditions = []
        for _ in range(rng.integers(0, 3)):
            crossing = [e for e in edges
                        if (e.left_table in tables) != (e.right_table
                                                        in tables)]
            edge = crossing[rng.integers(len(crossing))]
            tables.append(edge.right_table if edge.left_table in tables
                          else edge.left_table)
            conditions.append(f"{edge.left_column} = {edge.right_column}")
        filtered = [t for t in tables if numeric[t]]
        for _ in range(rng.integers(1, 3)):
            table = filtered[rng.integers(len(filtered))]
            column = numeric[table][rng.integers(len(numeric[table]))]
            selectivity = float(np.exp(rng.uniform(np.log(0.01),
                                                   np.log(0.9))))
            value = catalog.column_stats(table, column).distribution \
                .quantile(selectivity)
            conditions.append(f"{column} <= {value:.2f}")
        sql = (f"SELECT count(*) FROM {', '.join(tables)} "
               f"WHERE {' AND '.join(conditions)}")
        if sql not in seen:
            seen.add(sql)
            pool.append(sql)
    return pool


def request_mix(run: Run, pool: Sequence[str], n: int) -> List[List[str]]:
    """Per connection, ``n`` SQL strings drawn from the pool's ranks with
    Zipf skew."""
    ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_SKEW
    draws = run.rng("serve_http").choice(len(pool), size=(CONNECTIONS, n),
                                         p=weights / weights.sum())
    return [[pool[d] for d in row] for row in draws]


class Server:
    """One ``repro-t3 serve`` child process on an ephemeral port."""

    def __init__(self, run: Run, model_path: Path, index: int):
        self.port_file = run.tmp / f"port-{index}"
        self.spans_file = run.tmp / f"spans-{index}.json"
        self.log_path = run.tmp / f"serve-{index}.log"
        serve_args = ["serve", "-m", f"t3={model_path}", "--port", "0",
                      "--port-file", str(self.port_file)]
        if run.trace:
            command = [sys.executable, str(_HERE / "serve_traced.py"),
                       str(self.spans_file)] + serve_args
        else:
            command = [sys.executable, "-m", "repro.cli"] + serve_args
        env = dict(os.environ, PYTHONPATH=str(_SRC), TMPDIR=str(run.tmp),
                   PYTHONDONTWRITEBYTECODE="1")
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=run.tmp)
        try:
            self.port = self._wait_for_port(timeout_s=120.0)
        except BaseException:
            self.close()
            raise

    def _wait_for_port(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}: "
                    f"{self.log_path.read_text()[-2000:]}")
            try:
                return int(self.port_file.read_text())
            except (FileNotFoundError, ValueError):
                time.sleep(0.02)
        raise RuntimeError(f"server did not report a port in {timeout_s}s")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)

    def get(self, path: str) -> str:
        connection = self.connect()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read().decode("utf-8")
            if response.status != 200:
                raise RuntimeError(f"GET {path}: {response.status} {body}")
            return body
        finally:
            connection.close()

    def status(self) -> Dict[str, int]:
        """``VmHWM`` (kB) and ``Threads`` of the server process."""
        fields = {}
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            key, _, value = line.partition(":")
            if key in ("VmHWM", "Threads"):
                fields[key] = int(value.split()[0])
        return fields

    def close(self) -> None:
        """Stop the server with SIGINT, as an operator would, and reap it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def _post(connection: http.client.HTTPConnection, sql):
    """POST one SQL string, or a list of them as one batched request."""
    items = ([{"sql": s, "instance": INSTANCE} for s in sql]
             if isinstance(sql, list) else {"sql": sql, "instance": INSTANCE})
    body = json.dumps(items).encode("utf-8")
    connection.request("POST", "/predict", body,
                       {"Content-Type": "application/json"})
    response = connection.getresponse()
    payload = response.read()
    if response.status != 200:
        raise RuntimeError(f"{response.status}: {payload[:200]!r}")
    return json.loads(payload)


class _Client(threading.Thread):
    """One keep-alive connection in a closed loop, in whole rounds."""

    def __init__(self, server: Server, mix: Sequence[str], seconds: float):
        super().__init__(daemon=True)
        self.server, self.mix, self.seconds = server, mix, seconds
        self.answers: List[Dict[str, object]] = []
        self.attempted = 0
        self.errors: List[str] = []

    def run(self) -> None:
        connection = self.server.connect()
        try:
            for _ in deadline_loop(self.seconds):
                for _ in range(ROUND):
                    sql = self.mix[self.attempted % len(self.mix)]
                    self.attempted += 1
                    started = time.perf_counter()
                    try:
                        answer = _post(connection, sql)
                    except (OSError, http.client.HTTPException,
                            RuntimeError, ValueError) as exc:
                        self.errors.append(f"{sql}: {exc!r}")
                        connection.close()
                        connection = self.server.connect()
                        continue
                    answer["latency_s"] = time.perf_counter() - started
                    answer["sql"] = sql
                    self.answers.append(answer)
        finally:
            connection.close()


def _set_up(run: Run, index: int):
    _ctx, model = smoke_t3(run, index)
    model_path = run.tmp / f"model-{index}.json"
    model.save(model_path)
    server = Server(run, model_path, index)
    try:
        connection = server.connect()
        try:
            _post(connection, WARMUP_SQL)
        finally:
            connection.close()
    except BaseException:
        server.close()
        raise
    return model, model_path, server


def _ask_batch(server: Server, sqls: List[str]) -> List[Dict[str, object]]:
    """The server's answers for ``sqls``, asked in one batched request."""
    connection = server.connect()
    try:
        answers = _post(connection, sqls)
    finally:
        connection.close()
    for sql, answer in zip(sqls, answers):
        answer["sql"] = sql
    return answers


def _reference(model_path: Path, sqls: Sequence[str]):
    """Per SQL: the prediction recomputed here from the saved model with
    the interpreted backend, and the simulator's time for the plan."""
    model = T3Model.load(model_path, compile_to_native=False)
    instance = get_instance(INSTANCE)
    optimizer = Optimizer(instance.schema, instance.catalog)
    cards = ExactCardinalityModel(instance.catalog)
    simulator = ExecutionSimulator(instance.catalog)
    predicted, simulated = {}, {}
    for sql in sqls:
        plan = optimizer.optimize(
            parse_sql(sql, instance.schema, instance.catalog),
            "serving_query")
        predicted[sql] = model.predict_query(plan, cards)
        simulated[sql] = simulator.query_time(plan, cards)
    return predicted, simulated


def _histogram_mean(metrics_text: str, name: str) -> float:
    values = {}
    for line in metrics_text.splitlines():
        key, _, value = line.partition(" ")
        if key in (f"{name}_sum", f"{name}_count"):
            values[key] = float(value)
    count = values.get(f"{name}_count", 0.0)
    return values.get(f"{name}_sum", 0.0) / count if count else 0.0


def serve_http(run: Run, tracer: Tracer) -> Dict[str, float]:
    pool = sql_pool()
    mixes = request_mix(run, pool, n=50_000)
    model, model_path, server = run.set_up(
        lambda i: _set_up(run, i), release=lambda result: result[2].close())
    try:
        clients = [_Client(server, mix, run.seconds) for mix in mixes]
        started = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=run.seconds + 300)
            if client.is_alive():
                raise RuntimeError("a load connection did not finish")
        elapsed = time.perf_counter() - started
        metrics_text = server.get("/metrics")
        status = server.status()
        # On a traced run the server's spans must cover the load alone;
        # the accuracy metrics are reported by untraced runs only.
        accuracy = ([] if run.trace
                    else _ask_batch(server, pool[::ACCURACY_STRIDE]))
    finally:
        server.close()

    answers = [a for client in clients for a in client.answers]
    run.attempted = sum(client.attempted for client in clients)
    for client in clients:
        for error in client.errors:
            run.note_failure(error)
    latency_metrics(run, [a["latency_s"] for a in answers],
                    len(answers) / elapsed)
    run.metric("peak_rss_mb", status["VmHWM"] / 1024.0, "MiB")

    predicted, simulated = _reference(
        model_path, sorted({a["sql"] for a in answers + accuracy}))
    check_set_up_trainings(run)
    run.check(checks.check_served(answers + accuracy, predicted))
    if run.trace:
        return _serving_layers(tracer, server, answers, metrics_text, status)
    qerror_metrics(run, [a["predicted_seconds"] for a in accuracy],
                   [simulated[a["sql"]] for a in accuracy])
    plan_exec_metric(run, JobSuite().plan_quality(model))
    return {}


def _serving_layers(tracer: Tracer, server: Server, answers,
                    metrics_text: str, status: Dict[str, int]
                    ) -> Dict[str, float]:
    """Per-layer serving numbers from the responses' stage times, the
    ``/metrics`` scrape and the traced server's own spans."""
    stages = [a["stages"] for a in answers]
    misses = [s for a, s in zip(answers, stages) if not a["cache_hit"]]

    def mean_ms(values) -> float:
        values = list(values)
        return statistics.fmean(values) * 1e3 if values else 0.0

    infer_ms = mean_ms(s["infer_seconds"] for s in stages)
    server_spans = json.loads(server.spans_file.read_text())
    tracer.merge(server_spans)
    native = server_spans["totals"].get("treecomp.native_call", {})
    native_ms = (native["total_ns"] / native["calls"] / 1e6
                 if native.get("calls") else 0.0)
    return {
        "serving.http.outside_service_ms": mean_ms(
            a["latency_s"] - s["total_seconds"]
            for a, s in zip(answers, stages)),
        "serving.service.total_ms": mean_ms(s["total_seconds"]
                                            for s in stages),
        "serving.batching.infer_ms": infer_ms,
        "serving.batching.queue_wait_ms": infer_ms - native_ms,
        "serving.batching.rows_per_batch": _histogram_mean(
            metrics_text, "t3_serving_batch_rows"),
        "serving.cache.hit_ratio": (len(answers) - len(misses))
        / max(len(answers), 1),
        "engine.parse_optimize_ms_per_miss": mean_ms(
            s["parse_seconds"] for s in misses),
        "core.features.featurize_ms_per_miss": mean_ms(
            s["featurize_seconds"] for s in misses),
        "serving.server_threads": status["Threads"],
    }
