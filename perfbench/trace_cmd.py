"""Run one landmark-frames command with layer spans recorded.

    python3 perfbench/trace_cmd.py SPANS_JSON <landmark-frames arguments...>

Needs `src` on PYTHONPATH. Installs the wrappers from spans.py, runs the
command in this process, restores the wrappers, writes the recorded
spans and the command's in-process wall time to SPANS_JSON, and exits
with the command's status.
"""

import json
import os
import sys
import time

import spans
from landmark_frames import cli


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = spans.Tracer(pid=os.getpid())
    tracer.install()
    start = time.perf_counter()
    try:
        status = cli.main(cli_args)
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
    data = tracer.rec.export()
    data["wall_s"] = wall
    data["status"] = status
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
