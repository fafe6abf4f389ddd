"""Start the serving daemon with the benchmark's boundary timers.

    python3 perfbench/serve_host.py SIDE_FILE serve --socket PATH ...

Installs the simulator, daemon and isolation boundaries of
perfbench/layers.py, then calls the program's normal ``serve`` entry
with the remaining arguments.  Forked executions append their timings
to SIDE_FILE; the daemon appends its own when ``serve`` returns.
"""

from __future__ import annotations

import sys

import layers


def main(argv) -> int:
    side_file, serve_argv = argv[0], argv[1:]
    tracer = layers.new_tracer()
    tracer.install(layers.DAEMON)
    layers.isolation_boundary(tracer, "repro.serve.service", side_file,
                              "serve.executor")
    from repro.harness.__main__ import main as harness_main

    try:
        return harness_main(serve_argv)
    finally:
        tracer.append_to(side_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
