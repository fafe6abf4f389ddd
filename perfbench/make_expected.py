"""Regenerate ``perfbench/expected.json`` from an in-process reference
run of every workload's matrix (no isolation, no daemon, no runner
threads).  Run it only when the program's simulated results are meant
to change::

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import os
import sys

import common

sys.path.insert(0, common.SRC)

import campaign  # noqa: E402
import serve  # noqa: E402
import sweep  # noqa: E402


def main() -> int:
    expected = {
        "sweep": sweep.reference(),
        "campaign": campaign.reference(),
        "serve": serve.reference(),
    }
    path = os.path.join(common.HERE, "expected.json")
    with open(path, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
