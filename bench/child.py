"""Child-process entry points of the benchmark.

    python bench/child.py [--trace FILE] cli ARGS...        cccpde CLI, traced
    python bench/child.py [--trace FILE] wide16-data SEED DIR TRAIN_ROWS TEST_ROWS
    python bench/child.py micro FILE                        layer microbenchmarks

The harness puts `src/` on PYTHONPATH and pins the thread environment.
Untraced measured ops run `python -m cccpde` directly, not this file.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# wide16: the composite layout in 16 dimensions. The class clusters sit at
# -3 and +3 on the first axis; each class puts half its rows in the shared
# blob at the origin, where abstention should fire.
WIDE16_DIM = 16
WIDE16_CLUSTER_VAR = 0.7
WIDE16_BLOB_VAR = 1.0


def wide16_components(n_rows: int) -> list:
    import numpy as np

    def center(x):
        return np.r_[x, np.zeros(WIDE16_DIM - 1)]
    cluster = n_rows // 4
    blob = n_rows // 2 - cluster
    return [
        (0, center(-3.0), WIDE16_CLUSTER_VAR, cluster),
        (0, center(0.0), WIDE16_BLOB_VAR, blob),
        (1, center(3.0), WIDE16_CLUSTER_VAR, cluster),
        (1, center(0.0), WIDE16_BLOB_VAR, blob),
    ]


def wide16_data(seed: int, out: Path, train_rows: int, test_rows: int) -> int:
    import cccpde.data as data
    from cccpde.numerics import derive_seed
    out.mkdir(parents=True, exist_ok=True)
    for split, rows in (("train", train_rows), ("test", test_rows)):
        ds = data.gen_mixture(wide16_components(rows),
                              derive_seed(seed, f"wide16/{split}"),
                              name=f"wide16-{split}")
        data.save_csv(ds, out / f"{split}.csv")
    return 0


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    command, args = argv[0], argv[1:]
    if command == "micro":
        import micro
        out = Path(args[0])
        out.write_text(json.dumps(micro.run_all(out.parent)), encoding="utf-8")
        return 0

    if command not in ("cli", "wide16-data"):
        print(f"unknown child command {command!r}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    import cccpde.cli
    import_s = time.perf_counter() - start if command == "cli" else 0.0
    tracer = None
    if trace_path:
        import tracer as tracing
        tracer = tracing.install()
    try:
        if command == "cli":
            return cccpde.cli.main(args)
        return wide16_data(int(args[0]), Path(args[1]), int(args[2]), int(args[3]))
    finally:
        if tracer is not None:
            tracer.dump(trace_path, {"cli.import_s": import_s})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
