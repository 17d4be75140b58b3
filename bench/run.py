"""Benchmark of the cccpde CLI.

    python3 bench/run.py --workload {quickstart,eval-sweep,wide16,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload runs `cccpde` subcommands as child processes, one at a time,
pinned to one BLAS/OpenMP thread. The harness checks every op's exit code
and outputs, hashes the byte-stable artifacts, and prints every metric by
name and unit. The last line of standard output is one JSON object:
`--trace 0` reports the end-to-end metrics, `--trace 1` a separate traced
run's per-layer metrics. Results, provenance, digests and traces are kept
under bench/out/runs/; see bench/README.md for how to read them.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SRC = ROOT / "src"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
WORKLOADS = ("quickstart", "eval-sweep", "wide16")
# set-ups per run; the short ones repeat more so their median holds still
SETUP_REPS = {"quickstart": 5, "eval-sweep": 3, "wide16": 3}
DEADLINE_S = 170.0  # a run must end within 180 s
COMPOSITE_ROWS = 4000  # gen-data default train and test size
QUICKSTART_EPOCHS = 30  # train default
# eval-sweep and wide16 passes are kept short so that a run measures several
# passes and per-op medians ride out bursts of load on a shared host
EVAL_SWEEP_EPOCHS = 3
EVAL_SWEEP_TEST_ROWS = 300
WIDE16_TRAIN_ROWS = 4000
WIDE16_TEST_ROWS = 600
WIDE16_EPOCHS = 2
WIDE16_SAMPLES = 20_000
HASHED_SUFFIXES = (".csv", ".bin")


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


@dataclass
class Op:
    name: str
    argv: list[str]  # arguments after `cccpde`, or after child.py for child ops
    kind: str
    rows: int = 0  # rows each output must hold
    test_rows: int = 0  # data ops: rows of test.csv, when not `rows`
    work: int = 0  # rows x epochs for train, samples for sample
    auc_check: bool = False  # retained AUC must not fall below the full AUC
    child: bool = False  # runs bench/child.py rather than the CLI

    def arg(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]


@dataclass
class OpResult:
    op: Op
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    info: dict = field(default_factory=dict)


# -- workloads -------------------------------------------------------------------


def setup_ops(workload: str, seed: int, s: str) -> list[Op]:
    """The set-up of one workload, writing under directory `s`."""
    if workload == "quickstart":
        # the quick start makes its own inputs; set-up is one program start
        return [Op("start", ["--help"], "start")]
    if workload == "eval-sweep":
        return [
            Op("gen-data", ["gen-data", "--preset", "composite", "--out",
                            f"{s}/data", "--seed", str(seed),
                            "--test-size", str(EVAL_SWEEP_TEST_ROWS)],
               "data", rows=COMPOSITE_ROWS, test_rows=EVAL_SWEEP_TEST_ROWS),
            Op("train-cccpde", ["train", "--model", "cccpde", "--data",
                                f"{s}/data/train.csv", "--out", f"{s}/cccpde.bin",
                                "--seed", str(seed + 2), "--head-depth", "2",
                                "--epochs", str(EVAL_SWEEP_EPOCHS)],
               "train", rows=COMPOSITE_ROWS, work=COMPOSITE_ROWS * EVAL_SWEEP_EPOCHS),
        ]
    return [Op("wide16-data", ["wide16-data", str(seed), f"{s}/data",
                               str(WIDE16_TRAIN_ROWS), str(WIDE16_TEST_ROWS)],
               "data", rows=WIDE16_TRAIN_ROWS, test_rows=WIDE16_TEST_ROWS, child=True)]


def pass_ops(workload: str, seed: int, s: str, p: str) -> list[Op]:
    """One measured pass, reading set-up outputs in `s`, writing under `p`."""
    if workload == "quickstart":
        # the README quick start, verbatim apart from the output paths
        return [
            Op("gen-data", ["gen-data", "--preset", "composite", "--out",
                            f"{p}/data", "--seed", str(seed)],
               "data", rows=COMPOSITE_ROWS),
            Op("train-ffnn", ["train", "--model", "ffnn", "--data",
                              f"{p}/data/train.csv", "--out", f"{p}/ffnn.bin",
                              "--seed", str(seed + 1)],
               "train", rows=COMPOSITE_ROWS, work=COMPOSITE_ROWS * QUICKSTART_EPOCHS),
            Op("train-cccpde", ["train", "--model", "cccpde", "--data",
                                f"{p}/data/train.csv", "--out", f"{p}/cccpde.bin",
                                "--seed", str(seed + 2), "--head-depth", "2"],
               "train", rows=COMPOSITE_ROWS, work=COMPOSITE_ROWS * QUICKSTART_EPOCHS),
            Op("eval", ["eval", "--model", f"{p}/cccpde.bin", "--ffnn",
                        f"{p}/ffnn.bin", "--data", f"{p}/data/test.csv",
                        "--out", f"{p}/eval", "--volume", "0.6"],
               "eval", rows=COMPOSITE_ROWS, auc_check=True),
            Op("sample", ["sample", "--model", f"{p}/cccpde.bin", "--class-index",
                          "1", "--count", "25", "--out", f"{p}/samples.csv"],
               "sample", rows=25, work=25),
            Op("density-grid", ["density-grid", "--model", f"{p}/cccpde.bin",
                                "--resolution", "150", "--out", f"{p}/grid.csv"],
               "grid", rows=150 * 150),
            Op("glm-demo", ["glm-demo", "--out", f"{p}/glm", "--seed", str(seed + 3)],
               "glm", rows=200),
        ]
    if workload == "eval-sweep":
        volumes = [("default", []), ("0.6", ["--volume", "0.6"]),
                   ("60", ["--volume", "60"]),
                   # fails at the parent commit (incomplete beta does not
                   # converge); kept so the failure shows as a failed op
                   ("1e6", ["--volume", "1e6"])]
        return [Op(f"eval-{tag}", ["eval", "--model", f"{s}/cccpde.bin", "--data",
                                   f"{s}/data/test.csv", "--out", f"{p}/eval-{tag}",
                                   *flags],
                   "eval", rows=EVAL_SWEEP_TEST_ROWS)
                for tag, flags in volumes]
    return [
        Op("train-cccpde", ["train", "--model", "cccpde", "--data",
                            f"{s}/data/train.csv", "--out", f"{p}/wide16.bin",
                            "--seed", str(seed + 1), "--epochs", str(WIDE16_EPOCHS)],
           "train", rows=WIDE16_TRAIN_ROWS, work=WIDE16_TRAIN_ROWS * WIDE16_EPOCHS),
        Op("eval", ["eval", "--model", f"{p}/wide16.bin", "--data",
                    f"{s}/data/test.csv", "--out", f"{p}/eval", "--volume", "1e8"],
           "eval", rows=WIDE16_TEST_ROWS, auc_check=True),
        Op("sample", ["sample", "--model", f"{p}/wide16.bin", "--class-index", "1",
                      "--count", str(WIDE16_SAMPLES), "--seed", str(seed + 2),
                      "--out", f"{p}/samples.csv"],
           "sample", rows=WIDE16_SAMPLES, work=WIDE16_SAMPLES),
    ]


# -- running ops -----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_op(op: Op, work: Path, deadline: float, trace: Path | None = None
           ) -> OpResult | None:
    """Run one op to completion; None if the deadline left no time to start it."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None
    if op.child or trace is not None:
        cmd = [sys.executable, str(BENCH / "child.py")]
        cmd += ["--trace", str(trace)] if trace is not None else []
        cmd += op.argv if op.child else ["cli", *op.argv]
    else:
        cmd = [sys.executable, "-m", "cccpde", *op.argv]
    with tempfile.TemporaryFile(dir=work) as out, \
            tempfile.TemporaryFile(dir=work) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return OpResult(op, proc.returncode, wall,
                        usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                        out.read().decode("utf-8", "replace"),
                        err.read().decode("utf-8", "replace"))


def run_ops(ops: list[Op], work: Path, deadline: float,
            trace_dir: Path | None = None) -> list[OpResult]:
    results = []
    for i, op in enumerate(ops):
        trace = trace_dir / f"{i:02d}-{op.name}.json" if trace_dir else None
        result = run_op(op, work, deadline, trace)
        if result is None:
            break
        if result.exit_code == 0:
            check_op(result, work)
        results.append(result)
    return results


# -- output checks ---------------------------------------------------------------


def csv_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n") - 1


def auc(scores: list[float], labels: list[int]) -> float | None:
    """Rank-sum (Mann-Whitney) AUC with ties at half credit."""
    import numpy as np
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[inverse]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def check_eval(result: OpResult, out: Path) -> list[str]:
    info, problems = result.info, []
    with open(out / "reports.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    info["rows_out"] = len(rows)
    if len(rows) != result.op.rows:
        problems.append(f"reports.csv has {len(rows)} rows, expected {result.op.rows}")
    kept = [r for r in rows if r["abstain"] == "0"]
    info["retained"] = len(kept)
    info["retained_share"] = len(kept) / max(len(rows), 1)
    printed = re.search(r"^retained (\d+), rejected (\d+) of (\d+)", result.stdout, re.M)
    if printed is None or int(printed.group(1)) != len(kept):
        problems.append(f"abstain==0 count {len(kept)} differs from printed "
                        f"{printed.group(0) if printed else 'nothing'}")
    full = auc([float(r["score_sigmoid"]) for r in rows], [int(r["label"]) for r in rows])
    retained = auc([float(r["score_sigmoid"]) for r in kept], [int(r["label"]) for r in kept])
    info["auc_full"], info["auc_retained"] = full, retained
    line = re.search(r"^sigmoid: auc ([0-9.]+)(?: -> retained auc ([0-9.]+))?$",
                     result.stdout, re.M)
    if line is None or full is None or abs(float(line.group(1)) - full) > 6e-5:
        problems.append(f"sigmoid AUC {full} differs from the printed line")
    elif line.group(2) is not None and (
            retained is None or abs(float(line.group(2)) - retained) > 6e-5):
        problems.append(f"retained sigmoid AUC {retained} differs from the printed line")
    # the claim is testable only when the retained rows hold both classes
    if result.op.auc_check and retained is not None and retained < full:
        problems.append(f"retained sigmoid AUC {retained} is below the full AUC {full}")
    return problems


def check_op(result: OpResult, work: Path) -> None:
    """Check one successful op's outputs; problems go to result.info."""
    op = result.op
    try:
        if op.kind == "start":
            problems = [] if "usage:" in result.stdout else ["no usage text"]
        elif op.kind == "data":
            out = work / (op.arg("--out") if "--out" in op.argv else op.argv[2])
            expected = {"train": op.rows, "test": op.test_rows or op.rows}
            problems = [f"{name}.csv has {n} rows, expected {want}"
                        for name, want in expected.items()
                        if (n := csv_rows(out / f"{name}.csv")) != want]
        elif op.kind == "train":
            expected = f"trained {op.arg('--model')} on {op.rows} rows"
            problems = [] if expected in result.stdout and \
                (work / op.arg("--out")).is_file() else [f"missing {expected!r}"]
        elif op.kind == "eval":
            problems = check_eval(result, work / op.arg("--out"))
        else:
            out = work / op.arg("--out")
            out = out / "glm_demo.csv" if op.kind == "glm" else out
            n = csv_rows(out)
            result.info["rows_out"] = n
            problems = [] if n == op.rows else [f"{out.name} has {n} rows, expected {op.rows}"]
    except (OSError, KeyError, ValueError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    result.info["problems"] = problems


# -- determinism digests ---------------------------------------------------------


def digests(root: Path) -> dict[str, str]:
    """sha256 of every byte-stable artifact under root, by relative path."""
    found = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.suffix in HASHED_SUFFIXES:
            found[path.relative_to(root).as_posix()] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def compare(label: str, first: dict, other: dict) -> list[str]:
    keys = sorted(set(first) | set(other))
    differing = [k for k in keys if first.get(k) != other.get(k)]
    return [f"{label}: {', '.join(differing)} differ"] if differing else []


def tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_against_earlier(workload: str, seed: int, current: dict,
                          identity: dict) -> list[str]:
    """Compare with the digests an earlier run of this seed and source left."""
    store = OUT / "digests" / f"{workload}-seed{seed}.json"
    if store.is_file():
        earlier = json.loads(store.read_text(encoding="utf-8"))
        if earlier["identity"] == identity:
            return compare("artifacts vs an earlier run with this seed",
                           earlier["digests"], current)
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps({"identity": identity, "digests": current},
                              indent=1, sort_keys=True), encoding="utf-8")
    tmp.replace(store)
    return []


# -- metrics ---------------------------------------------------------------------


def rate(results: list[OpResult], kind: str, name: str | None = None) -> float | None:
    chosen = [r for r in results if r.op.kind == kind and r.exit_code == 0
              and (name is None or r.op.name == name)]
    if not chosen:
        return None
    work = sum(r.info.get("rows_out", 0) if kind == "eval" else r.op.work
               for r in chosen)
    return work / sum(r.wall_s for r in chosen)


def median_of(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(setups: list[list[OpResult]], passes: list[list[OpResult]],
               attempted: int, failed: int) -> dict[str, tuple[float | None, str]]:
    """Medians over set-ups and passes; BENCHMARK.json gates the first three.

    pipeline_s sums each op's median over the passes, so a burst of load
    that slows one op of one pass does not move it.
    """
    train_source = passes if any(r.op.name == "train-cccpde" for r in passes[0]) \
        else setups  # eval-sweep trains only in set-up
    return {
        "pipeline_s": (sum(statistics.median(r.wall_s for r in op_runs)
                           for op_runs in zip(*passes)), "s"),
        "setup_s": (median_of([sum(r.wall_s for r in s) for s in setups]), "s"),
        "peak_rss_mb": (median_of([max(r.rss_mb for r in p) for p in passes]), "MiB"),
        "train_cccpde_rows_per_s": (
            median_of([rate(p, "train", "train-cccpde") for p in train_source]),
            "row_epochs/s"),
        "eval_rows_per_s": (median_of([rate(p, "eval") for p in passes]), "rows/s"),
        "train_ffnn_rows_per_s": (
            median_of([rate(p, "train", "train-ffnn") for p in passes]), "row_epochs/s"),
        "sample_rows_per_s": (median_of([rate(p, "sample") for p in passes]), "rows/s"),
        "op_fail_share": (failed / attempted if attempted else None, "ratio"),
    }


class TraceTotals:
    """Layer aggregates summed over the traced processes of one run."""

    def __init__(self, paths: list[Path]):
        self.layers: dict[str, list] = {}
        self.raw: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.row_seconds: list[float] = []
        self.import_s = 0.0
        self.spans_dropped = 0
        for path in paths:
            data = json.loads(path.read_text(encoding="utf-8"))
            for table, mine in ((data["layers"], self.layers), (data["raw"], self.raw)):
                for key, values in table.items():
                    acc = mine.setdefault(key, [0, 0.0, 0.0])
                    for i, v in enumerate(values):
                        acc[i] += v
            for key, value in data["counters"].items():
                self.counters[key] = self.counters.get(key, 0.0) + value
            self.row_seconds += data["posterior_row_seconds"]
            self.import_s += data["cli.import_s"]
            self.spans_dropped += data["spans_dropped"]

    def calls(self, layer): return self.layers.get(layer, [0, 0.0, 0.0])[0]
    def total(self, layer): return self.layers.get(layer, [0, 0.0, 0.0])[1]
    def self_s(self, layer): return self.layers.get(layer, [0, 0.0, 0.0])[2]
    def count(self, key): return self.counters.get(key, 0.0)

    def row_us(self, q: float) -> float:
        if not self.row_seconds:
            return 0.0
        ordered = sorted(self.row_seconds)
        return 1e6 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    def metrics(self) -> dict[str, tuple[float, str]]:
        steps = self.raw.get("model.CccpDeModel.loss_and_grads", [0])[0]
        rows = self.count("bayes.posterior_reports.rows")
        s = self.self_s
        return {
            "nn.dropout.self_s": (s("nn.dropout"), "s"),
            "nn.dropout.calls": (self.calls("nn.dropout"), "count"),
            "nn.dropout.zeroed": (self.count("nn.dropout.zeroed"), "count"),
            "nn.dense_block.forward_self_s": (s("nn.dense_block.forward"), "s"),
            "nn.dense_block.backward_self_s": (s("nn.dense_block.backward"), "s"),
            "nn.dense_block.calls": (self.calls("nn.dense_block.forward"), "count"),
            "nn.dense_layer.forward_calls_per_step": (
                self.count("nn.dense_layer.forward_calls_in_step") / steps if steps else 0.0,
                "calls/step"),
            "nn.adam.step_self_s": (s("nn.adam.step"), "s"),
            "nn.adam.steps": (self.calls("nn.adam.step"), "count"),
            "flow.coupling.forward_self_s": (s("flow.coupling.forward"), "s"),
            "flow.coupling.forward_rows": (self.count("flow.coupling.forward_rows"), "count"),
            "flow.coupling.backward_self_s": (s("flow.coupling.backward"), "s"),
            "flow.coupling.inverse_self_s": (s("flow.coupling.inverse"), "s"),
            "flow.coupling.inverse_rows": (self.count("flow.coupling.inverse_rows"), "count"),
            "model.loss_and_grads.self_s": (s("model.loss_and_grads"), "s"),
            "model.loss_and_grads.steps": (self.calls("model.loss_and_grads"), "count"),
            "model.eval_loss.self_s": (s("model.eval_loss"), "s"),
            "model.train.s": (self.total("model.train"), "s"),
            "model.glm_fit.s": (self.total("model.glm_fit"), "s"),
            "model.forward.self_s": (s("model.forward"), "s"),
            "model.forward.rows": (self.count("model.forward.rows"), "count"),
            "bayes.posterior_reports.self_s": (s("bayes.posterior_reports"), "s"),
            "bayes.posterior_reports.rows": (rows, "count"),
            "bayes.posterior_row_us.p50": (self.row_us(0.50), "us"),
            "bayes.posterior_row_us.p99": (self.row_us(0.99), "us"),
            "bayes.beta_cdf.self_s": (s("bayes.beta_cdf"), "s"),
            "bayes.beta_cdf.calls_per_row": (
                self.calls("bayes.beta_cdf") / rows if rows else 0.0, "calls/row"),
            "evaluate.roc_auc.self_s": (s("evaluate.roc_auc"), "s"),
            "evaluate.write_reports_csv.self_s": (s("evaluate.write_reports_csv"), "s"),
            "evaluate.density_grid.self_s": (s("evaluate.density_grid"), "s"),
            "evaluate.write_density_grid_csv.self_s": (
                s("evaluate.write_density_grid_csv"), "s"),
            "numerics.rng_permutation.self_s": (s("numerics.rng_permutation"), "s"),
            "numerics.rng_permutation.calls": (self.calls("numerics.rng_permutation"), "count"),
            "numerics.rng_normals.self_s": (s("numerics.rng_normals"), "s"),
            "numerics.rng_normals.draws": (self.count("numerics.rng_normals.draws"), "count"),
            "data.load_csv.self_s": (s("data.load_csv"), "s"),
            "data.load_csv.rows": (self.count("data.load_csv.rows"), "count"),
            "data.save_csv.self_s": (s("data.save_csv"), "s"),
            "data.save_csv.rows": (self.count("data.save_csv.rows"), "count"),
            "data.gen_mixture.self_s": (s("data.gen_mixture"), "s"),
            "serialize.read_state.self_s": (s("serialize.read_state"), "s"),
            "serialize.read_state.bytes": (self.count("serialize.read_state.bytes"), "bytes"),
            "serialize.write_state.self_s": (s("serialize.write_state"), "s"),
            "serialize.write_state.bytes": (self.count("serialize.write_state.bytes"), "bytes"),
            "cli.main.self_s": (s("cli.main"), "s"),
            "cli.import_s": (self.import_s, "s"),
        }


# -- provenance ------------------------------------------------------------------


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (subprocess.SubprocessError, OSError):
            commit = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_commit": commit, "source_sha256": tree_sha256(SRC),
        "bench_sha256": tree_sha256(BENCH),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "platform": platform.platform(),
        "thread_env": THREAD_ENV,
        "inherited_thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# -- one workload ----------------------------------------------------------------


def op_record(r: OpResult) -> dict:
    return {"name": r.op.name, "argv": r.op.argv, "exit_code": r.exit_code,
            "wall_s": r.wall_s, "cpu_s": r.cpu_s, "peak_rss_mb": r.rss_mb,
            "info": r.info}


def declared(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    run_id = f"{stamp}-{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    results_dir = OUT / "runs" / run_id
    work = OUT / "work" / run_id
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True)
    prov = provenance(workload, seed, seconds, trace)
    trace_dir = results_dir / "trace" if trace else None
    if trace_dir:
        trace_dir.mkdir()
    try:
        setups = []
        for i in range(1 if trace else SETUP_REPS[workload]):
            done = run_ops(setup_ops(workload, seed, f"setup{i}"), work, deadline,
                           trace_dir if i == 0 else None)
            bad = [r for r in done if r.exit_code != 0 or r.info.get("problems")]
            if bad or len(done) < len(setup_ops(workload, seed, "")):
                detail = bad[0].stderr.strip()[-2000:] or bad[0].info if bad else "deadline"
                raise BenchError(f"{workload} set-up failed: {detail}")
            setups.append(done)

        passes: list[list[OpResult]] = []
        complete = True
        measure_start = time.perf_counter()
        while True:
            expected = pass_ops(workload, seed, "setup0", f"pass{len(passes)}")
            traced = trace and len(passes) == 1  # pass0 untraced, pass1 traced
            done = run_ops(expected, work, deadline, trace_dir if traced else None)
            passes.append(done)
            if len(done) < len(expected):
                complete = False
                break
            if trace:
                if len(passes) == 2:
                    break
                continue
            typical = statistics.median(sum(r.wall_s for r in p) for p in passes)
            if (time.perf_counter() - measure_start + typical > seconds
                    or time.monotonic() + typical > deadline):
                break

        attempted = sum(len(p) for p in passes)
        failed = sum(1 for p in passes for r in p if r.exit_code != 0)
        problems = [] if complete else ["deadline reached before every op ran"]
        problems += [f"{r.op.name}: {msg}" for p in setups + passes for r in p
                     for msg in r.info.get("problems", [])]

        setup_digests = [digests(work / f"setup{i}") for i in range(len(setups))]
        pass_digests = [digests(work / f"pass{i}") for i in range(len(passes))]
        for i in range(1, len(setups)):
            problems += compare(f"set-up {i} vs set-up 0", setup_digests[0], setup_digests[i])
        for i in range(1, len(passes)):
            problems += compare(f"pass {i} vs pass 0", pass_digests[0], pass_digests[i])
        current = {**{f"setup/{k}": v for k, v in setup_digests[0].items()},
                   **{f"pass/{k}": v for k, v in pass_digests[0].items()}}
        identity = {k: prov[k] for k in ("source_sha256", "bench_sha256", "python", "numpy")}
        if complete:
            problems += check_against_earlier(workload, seed, current, identity)

        # a traced run's end-to-end figures come from its untraced pass only
        e2e = end_to_end(setups, passes[:1] if trace else passes, attempted, failed)
        if trace:
            totals = TraceTotals(sorted(trace_dir.glob("*.json")))
            metrics = totals.metrics()
            untraced, traced_s = (sum(r.wall_s for r in p) for p in passes[:2])
            metrics["trace.overhead_share"] = (traced_s / untraced - 1.0, "ratio")
            micro_file = results_dir / "micro.json"
            micro = run_op(Op("micro", ["micro", str(micro_file)], "micro", child=True),
                           work, deadline)
            if micro is None or micro.exit_code != 0:
                raise BenchError(f"microbenchmarks failed: {micro.stderr[-2000:] if micro else 'deadline'}")
            for name, m in json.loads(micro_file.read_text(encoding="utf-8")).items():
                metrics[name] = (m["value"], m["unit"])
            (results_dir / "trace.json").write_text(json.dumps(
                {"layers": totals.layers, "raw": totals.raw, "counters": totals.counters,
                 "spans_dropped": totals.spans_dropped}, indent=1, sort_keys=True),
                encoding="utf-8")
        else:
            metrics = e2e

        want = declared(trace)
        reported = {k: v for k, v in metrics.items() if k in want}
        if set(reported) != set(want) or any(reported[k][1] != want[k] for k in want):
            raise BenchError(f"metrics {sorted(reported)} do not match BENCHMARK.json")
        missing = [k for k, (v, _) in reported.items() if v is None]
        problems += [f"metric {k} has no successful op to measure" for k in missing]

        summary = {
            "correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v if v is not None else 0.0, "unit": u}
                        for k, (v, u) in reported.items()},
        }
        record = {
            "summary": summary, "problems": problems, "provenance": prov,
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            if trace else None,
            "setups": [[op_record(r) for r in s] for s in setups],
            "passes": [[op_record(r) for r in p] for p in passes],
            "diagnostics": {
                "retained_share": {r.op.name: r.info.get("retained_share")
                                   for r in passes[0] if r.op.kind == "eval"},
                "auc_claim_untestable": [
                    f"pass{i}/{r.op.name}" for i, p in enumerate(passes) for r in p
                    if r.op.auc_check and r.exit_code == 0
                    and r.info.get("auc_retained") is None],
                "failed_stderr": {f"pass{i}/{r.op.name}": r.stderr[-2000:]
                                  for i, p in enumerate(passes) for r in p
                                  if r.exit_code != 0},
            },
            "wall_s": time.monotonic() - started,
        }
        (results_dir / "result.json").write_text(json.dumps(record, indent=1),
                                                  encoding="utf-8")
        (results_dir / "digests.json").write_text(json.dumps(
            {"identity": identity, "setups": setup_digests, "passes": pass_digests},
            indent=1), encoding="utf-8")
        report(workload, seed, trace, summary, problems, e2e, metrics, len(passes),
               results_dir)
        return summary
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(workload, seed, trace, summary, problems, e2e, metrics, n_passes,
           results_dir) -> None:
    print(f"workload {workload}, seed {seed}, trace {trace}: {n_passes} pass(es), "
          f"{summary['attempted']} ops attempted, {summary['failed']} failed")
    shown = metrics if trace else e2e
    for name, (value, unit) in shown.items():
        text = "n/a (no such op in this workload)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:42s} {text}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  results: {results_dir.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cccpde" / "cli.py").is_file():
        print(f"error: no cccpde source under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = {name: run_workload(name, args.seed, args.seconds, args.trace)
                     for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summaries[args.workload] if args.workload != "all" else summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
