"""Layer microbenchmarks: direct calls into public cccpde functions.

Each case runs at the default size and at one larger size. A case makes
one warm-up call, then repeats its call until `BUDGET_S` has passed (at
least `MIN_REPS` times) and reports the median seconds per call in the
case's unit. A call that alone takes longer than `BUDGET_S`, such as the
1e5 x 16 CSV cases, is timed once.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from cccpde.bayes import BetaPosterior, posterior_report
from cccpde.data import Dataset, load_csv, save_csv
from cccpde.flow import CouplingLayer
from cccpde.model import CccpDeModel, load_model, save_model
from cccpde.nn import AdamState, DenseBlock
from cccpde.numerics import Rng

BUDGET_S = 0.1
MIN_REPS = 3
BATCH = 128
HIDDEN = 64
SCALE = {"ms": 1e3, "us": 1e6}


def per_call(fn) -> float:
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    if first > BUDGET_S:
        return first
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - start < BUDGET_S:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def coupling_case(dim: int):
    layer = CouplingLayer(dim, HIDDEN, Rng(1), zero_init_outputs=False)
    x = Rng(2).normals(BATCH * dim).reshape(BATCH, dim)
    g_y, g_log_det = np.ones((BATCH, dim)), np.ones(BATCH)

    def step():
        layer.forward(x)
        layer.backward(g_y, g_log_det)
    return step


def dense_block_case(rate: float):
    block = DenseBlock(HIDDEN, HIDDEN, rate, Rng(3))
    rng = Rng(4)
    x = rng.normals(BATCH * HIDDEN).reshape(BATCH, HIDDEN)
    upstream = np.ones((BATCH, HIDDEN))

    def step():
        block.forward(x, rng, training=True)
        block.backward(upstream)
    return step


def quickstart_model(dim: int) -> CccpDeModel:
    # the 2-D quick-start model trains with --head-depth 2; wide16 uses the default
    return CccpDeModel(dim, 2, head_depth=2 if dim == 2 else 1, rng=Rng(5))


def adam_case(dim: int):
    params = quickstart_model(dim).params()
    for p in params:
        p.grad[...] = 1e-3
    adam = AdamState()
    return lambda: adam.step(params)


def posterior_case(counts: tuple[float, float]):
    class_counts = np.array([2000.0, 2000.0])
    log_d = np.log(np.array(counts) / class_counts)
    prior = BetaPosterior(1.0, 1.0)
    return lambda: posterior_report(log_d, class_counts, prior, 1.0)


def run_all(scratch: Path) -> dict:
    """Every case, keyed by metric name; files go under `scratch`."""
    results = {}

    def record(name, unit, seconds):
        results[name] = {"value": seconds * SCALE[unit], "unit": unit}

    for dim in (2, 16):
        record(f"micro.coupling.fwd_bwd.d{dim}", "ms", per_call(coupling_case(dim)))
    record("micro.dense_block.fwd_bwd.dropout", "ms", per_call(dense_block_case(0.05)))
    record("micro.dense_block.fwd_bwd.no_dropout", "ms", per_call(dense_block_case(0.0)))
    for dim in (2, 16):
        record(f"micro.adam.step.d{dim}", "ms", per_call(adam_case(dim)))
    rng = Rng(6)
    for n in (4000, 100_000):
        record(f"micro.rng.uniforms.{n}", "ms", per_call(lambda: rng.uniforms(n)))
        record(f"micro.rng.permutation.{n}", "ms", per_call(lambda: rng.permutation(n)))
    record("micro.bayes.posterior_row.small", "us", per_call(posterior_case((3.0, 5.0))))
    record("micro.bayes.posterior_row.1e4", "us", per_call(posterior_case((6000.0, 4000.0))))

    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for rows, dim in ((4000, 2), (100_000, 16)):
            ds = Dataset(Rng(7).normals(rows * dim).reshape(rows, dim),
                         np.arange(rows) % 2)
            path = Path(tmp) / f"{rows}x{dim}.csv"
            record(f"micro.data.save_csv.{rows}x{dim}", "ms",
                   per_call(lambda: save_csv(ds, path)))
            record(f"micro.data.load_csv.{rows}x{dim}", "ms",
                   per_call(lambda: load_csv(path)))
        for dim in (2, 16):
            model = quickstart_model(dim)
            path = Path(tmp) / f"d{dim}.bin"
            record(f"micro.model.save.d{dim}", "ms", per_call(lambda: save_model(model, path)))
            record(f"micro.model.load.d{dim}", "ms", per_call(lambda: load_model(path)))
    return results
