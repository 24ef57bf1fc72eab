"""``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/traced_server.py SPANS_OUT serve --port 0

Installs the same wrappers as the traced in-process run before the
server is built, records every span, and on shutdown (SIGINT) writes
them with the witness-cache hit count to ``SPANS_OUT`` as JSON.  The
benchmark keeps the spans that start inside its traced passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    spans.install(recorder)
    recorder.enabled = True
    from repro.cli import main as cli_main
    from repro.witness import witness_cache_info

    try:
        return cli_main(argv)
    finally:
        recorder.enabled = False
        with open(out, "w") as fh:
            json.dump(
                {"spans": recorder.spans, "witness_cache_hits": witness_cache_info()[0]},
                fh,
            )


if __name__ == "__main__":
    sys.exit(main())
