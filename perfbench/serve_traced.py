"""``repro serve`` with the benchmark's layer wrappers installed.

Used by traced ``serve_http`` runs in place of ``python -m repro``::

    python3 perfbench/serve_traced.py serve --untrained --port 0

The arguments go to ``repro.cli.main`` unchanged.  When the server stops
(SIGINT), the last standard-output line is ``{"trace": {...}}``: calls,
inclusive and self seconds of every wrapped call in the server process,
plus the duration of each ``POST`` handled.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, install_layer_wrappers


def main(argv) -> int:
    tracer = Tracer()
    install_layer_wrappers(tracer)
    from repro.cli import main as cli_main
    from repro.serving.http import ServingHandler
    from repro.serving.service import InferenceService

    tracer.wrap(ServingHandler, "do_POST", "serving.request", "serving")
    tracer.wrap(InferenceService, "classify_many", "serving.classify",
                "serving")
    tracer.keep_samples.add("serving.request")
    code = cli_main(argv)
    summary = {
        "calls": dict(tracer.calls),
        "total_s": dict(tracer.total_s),
        "self_s": dict(tracer.self_s),
        "request_s": tracer.samples["serving.request"],
    }
    print(json.dumps({"trace": summary}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
