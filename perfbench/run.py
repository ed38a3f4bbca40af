"""The T3 benchmark command.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload predict_tpcds --seed 1 \\
        --seconds 16 --trace 0

Workloads: ``predict_tpcds``, ``join_order_job`` and ``serve_http`` (see
README.md). The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
every end-to-end metric of BENCHMARK.json with ``--trace 0``, every
per-layer metric with ``--trace 1``. Everything the run writes lives in
a private ``.perfbench-run-*`` directory that is removed at exit.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("predict_tpcds", "join_order_job", "serve_http")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Unwind through the finally blocks that stop the server child and
    # remove the run directory.
    raise SystemExit(128 + signum)


def _execute(args, tmp: Path) -> dict:
    import layers
    import offline
    import serve
    from common import Run
    from tracer import Tracer, install

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(args.seed, args.seconds, bool(args.trace), tmp)
    workload = {"predict_tpcds": offline.predict_tpcds,
                "join_order_job": offline.join_order_job,
                "serve_http": serve.serve_http}[args.workload]
    tracer = install(Tracer()) if run.trace else Tracer()
    try:
        measured = workload(run, tracer)
    finally:
        tracer.close()
    for problem in run.problems:
        print(f"wrong output: {problem}", file=sys.stderr)

    if run.trace:
        print(tracer.table(), file=sys.stderr)
        measured["traced.ops_per_s"] = run.metrics["ops_per_s"][0]
        values = layers.layer_values(tracer, measured)
        wanted = spec["per_layer"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    else:
        run.metric("setup_s", statistics.median(run.setup_times), "s")
        print("set-up times: " + ", ".join(
            f"{t:.3f}s" for t in run.setup_times), file=sys.stderr)
        metrics = {}
        for m in spec["end_to_end"]:
            value, unit = run.metrics[m["name"]]
            if unit != m["unit"]:
                raise ValueError(f"{m['name']} measured in {unit}, "
                                 f"declared in {m['unit']}")
            metrics[m["name"]] = {"value": value, "unit": unit}
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC}); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _terminate)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT))
    # The compiled tree libraries and gcc's own files go here too.
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    try:
        result = _execute(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
