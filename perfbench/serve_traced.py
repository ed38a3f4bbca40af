"""Run ``repro-t3`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_JSON serve ...``

Tracing starts when the server starts serving, so model loading and
its compilation stay out of the figures. When the server stops, the
span totals and counters are written to ``SPANS_JSON``.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
from pathlib import Path  # noqa: E402

from repro import cli  # noqa: E402
from repro.serving.http import ServingServer  # noqa: E402

from tracer import Tracer, install  # noqa: E402


def main(argv) -> int:
    spans_out, cli_args = Path(argv[0]), argv[1:]
    tracer = install(Tracer())
    serve_forever = ServingServer.serve_forever

    def traced_serve_forever(self):
        tracer.enabled = True
        return serve_forever(self)

    tracer.replace(ServingServer, "serve_forever", traced_serve_forever)
    try:
        return cli.main(cli_args)
    finally:
        tracer.enabled = False
        spans_out.write_text(json.dumps(tracer.dump()))
        tracer.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
