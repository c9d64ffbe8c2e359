"""Fresh-interpreter probe: the library import and one cold campaign.

    python3 perfbench/child.py <backend> <seed>

Prints one JSON object: ``import_s`` (the wall time of the library import),
``setup_s`` (the wall time of the first campaign after it, lazy caches
included) and the campaign's score ``digest``.  ``perfbench/run.py`` starts it; it pins
BLAS threading itself so that it can also be run by hand.
"""

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    start = time.perf_counter()
    import repro.api  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.fleet  # noqa: F401

    imported = time.perf_counter()
    from perfbench.workloads import Campaign

    rep = Campaign(int(argv[1])).run(argv[0])
    result = {"import_s": imported - start, "setup_s": rep.wall_s, "digest": rep.digest}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
