#!/usr/bin/env python3
"""fedsim benchmark.

Drives fedsim the way a user does, `fedsim run <preset> --seed S --out-dir D
--override total_iterations=N`, by calling `fedsim.cli.main` in-process as a
closed loop: one caller, the next operation starts when the previous one has
returned. Every operation's exports are checked (the correctness gate)
before the next one starts.

    python3 perfbench/run.py --workload foolsgold-1000-clients --seed 7 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"  # operation outputs; removed when the run ends
TRACES = HERE / "traces"  # span dumps of traced runs
REFERENCE = HERE / "reference.tsv"

HELD_OUT_SEED = 7  # keep out of tuning; confirm claimed gains on it
SETUP_PROBES = 7  # fresh processes per run; setup_s is their median
MIN_TIMED_OPS = 3
REFERENCE_TOLERANCE = 0.005  # absolute, on final accuracy and attack rate

SUMMARY_RE = re.compile(r"^(?P<key>.+): accuracy=(?P<acc>\S+) attack_rate=(?P<atk>\S+)$")
FAILED_RE = re.compile(r"^(?P<key>.+): failed \(")


def _sweep_outcome(key: str, acc: float, atk: float) -> str | None:
    if "defense.kind=baseline" in key and atk < 0.5:
        return "label flip did not succeed against plain averaging"
    if "defense.kind=foolsgold" in key and atk > 0.05:
        return "FoolsGold let the label flip through (attack rate > 0.05)"
    return None


def _a99_outcome(key: str, acc: float, atk: float) -> str | None:
    if atk > 0.02:
        return "FoolsGold let the 990-sybil label flip through (attack rate > 0.02)"
    return None


@dataclass(frozen=True)
class Workload:
    preset: str
    rounds: int  # total_iterations of each run (each grid point)
    outcome: object = None  # (key, accuracy, attack rate) -> problem or None


WORKLOADS = {
    "sweep-small-roster": Workload("multikrum-sweep", 50, _sweep_outcome),
    "foolsgold-1000-clients": Workload("a99", 10, _a99_outcome),
    "roni-scoring": Workload("roni-demo", 15),
}

SPEC = ROOT / "BENCHMARK.json"  # metric names and units
# The defense-specific kernel times are printed in the traced report but are
# not per_layer metrics: each is zero on the workloads without that defense.
# defenses.scoring_s, their sum, is.
KERNEL_SPANS = {
    "defenses.similarity_matrix_s": "defenses.similarity_matrix",
    "defenses.multikrum_scores_s": "defenses.multikrum_scores",
    "defenses.roni_scoring_s": "defenses.roni_score",
}


@dataclass
class OpResult:
    """One `fedsim run` call: a grid of runs or a single run."""

    elapsed: float
    traced: bool
    points: int  # operations attempted: grid points, or 1 for a single run
    failed: int
    rounds: int  # rounds of the runs that exported every round
    # run key -> (final accuracy, final attack rate), for finite values
    values: dict[str, tuple[float, float]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    sha256: str = ""
    alphas_accepted: int = 0
    alphas_computed: int = 0


class Bench:
    """A workload bound to a seed, with the fedsim modules it drives."""

    def __init__(self, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self.seed = seed
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import fedsim
        import fedsim.cli
        from fedsim.presets import get_preset

        if Path(fedsim.__file__).resolve().parent != SRC / "fedsim":
            raise RuntimeError(f"imported fedsim from {fedsim.__file__}, not {SRC}")
        self.cli = fedsim.cli
        preset = get_preset(self.workload.preset)
        grid = preset.kind == "grid"
        self.expected_points = math.prod(len(v) for v in preset.sweep.values()) \
            if grid else 1
        self.csv_name = f"{preset.config.name}-{'grid' if grid else 'series'}.csv"
        self.config = preset.config
        self.reference = _load_reference(name, self.workload.rounds, seed)

    @functools.cached_property
    def source_rows(self) -> int:
        """Test rows of the attacked class. Every workload attacks with a
        label flip, whose attack rate is the share of these rows predicted
        as the target class. Read after the operations, so the dataset is
        built by fedsim's own first run."""
        from fedsim.engine import load_dataset

        _train, test = load_dataset(self.config)
        return int((test.y == self.config.attacks[0].source).sum())

    def argv(self, out_dir: Path) -> list[str]:
        return ["run", self.workload.preset, "--seed", str(self.seed),
                "--out-dir", str(out_dir),
                "--override", f"total_iterations={self.workload.rounds}"]

    def run_op(self, traced: bool = False) -> OpResult:
        out_dir = WORK / "op"
        shutil.rmtree(out_dir, ignore_errors=True)
        stdout = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = self.cli.main(self.argv(out_dir))
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        return self.check(elapsed, traced, code, stdout.getvalue(), out_dir)

    def check(self, elapsed: float, traced: bool, code, stdout: str,
              out_dir: Path) -> OpResult:
        """The correctness gate for one operation's outputs."""
        op = OpResult(elapsed, traced, self.expected_points, 0, 0)
        if code != 0:
            op.failed = op.points
            op.problems.append(f"fedsim run exited with {code}")
            return op
        summaries = {}
        failed = set()
        for line in stdout.splitlines():
            if m := SUMMARY_RE.match(line):
                summaries[m["key"]] = (float(m["acc"]), float(m["atk"]))
            elif m := FAILED_RE.match(line):
                failed.add(m["key"])
        rows, nonfinite = self._read_csv(out_dir / self.csv_name, op)
        missing = op.points - len(summaries) - len(failed)
        if missing > 0:
            op.problems.append(f"{missing} runs missing from the output")
        op.failed = max(missing, 0) + len(failed)
        op.problems += [f"{key}: raised an error" for key in sorted(failed)]
        for key, (acc, atk) in sorted(summaries.items()):
            if rows.get(key, 0) == self.workload.rounds:
                op.rounds += self.workload.rounds
            if math.isfinite(acc) and math.isfinite(atk):
                op.values[key] = (acc, atk)
            problem = self._point_problem(key, acc, atk, rows.get(key, 0),
                                          key in nonfinite)
            if problem:
                op.failed += 1
                op.problems.append(f"{key}: {problem}")
        return op

    def _read_csv(self, path: Path, op: OpResult) -> tuple[Counter, set]:
        rows: Counter = Counter()
        nonfinite = set()
        try:
            blob = path.read_bytes()
        except OSError as exc:
            op.problems.append(f"no export: {exc}")
            return rows, nonfinite
        op.sha256 = hashlib.sha256(blob).hexdigest()
        reader = csv.reader(io.StringIO(blob.decode()))
        next(reader)
        for row in reader:
            rows[row[0]] += 1
            values = [float(v) for v in row[2:]]
            if not all(math.isfinite(v) for v in values):
                nonfinite.add(row[0])
            alphas = values[2:]  # after accuracy and attack_rate
            op.alphas_computed += len(alphas)
            op.alphas_accepted += sum(a > 0.0 for a in alphas)
        return rows, nonfinite

    def _point_problem(self, key: str, acc: float, atk: float, rows: int,
                       nonfinite: bool) -> str | None:
        if rows != self.workload.rounds:
            return f"{rows} of {self.workload.rounds} rounds exported"
        if nonfinite or not (0.0 <= acc <= 1.0 and 0.0 <= atk <= 1.0):
            return f"non-finite or out-of-range values (accuracy={acc}, attack={atk})"
        if self.reference is not None:
            ref = self.reference[1].get(key)
            if ref is None:
                return "no reference value recorded for this run"
            tol = REFERENCE_TOLERANCE
            if not (ref[0] - tol <= acc <= ref[1] + tol
                    and ref[2] - tol <= atk <= ref[3] + tol):
                return (f"accuracy={acc} attack={atk} outside the reference "
                        f"accuracy [{ref[0]}, {ref[1]}], attack [{ref[2]}, {ref[3]}] "
                        f"+- {tol}")
        if self.workload.outcome is not None:
            return self.workload.outcome(key, acc, atk)
        return None

    def probe_setup(self) -> float:
        """Seconds from spawning a fresh process until its first round starts."""
        argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                *self.argv(WORK / "probe")]
        start = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        m = re.search(r"first_round_monotonic=(\S+)", proc.stdout)
        if proc.returncode != 0 or m is None:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-500:]}")
        return float(m.group(1)) - start


def _load_reference(name: str, rounds: int, seed: int) -> tuple[str, dict] | None:
    """Reference ranges per run: key -> (accuracy lo, hi, attack rate lo, hi).

    For a recorded seed each range is that seed's single value; for any
    other seed it spans the values of every recorded seed. None when
    nothing is recorded for this workload and run length.
    """
    try:
        lines = REFERENCE.read_text().splitlines()[1:]
    except FileNotFoundError:
        return None
    exact: dict[str, tuple] = {}
    envelope: dict[str, list] = {}
    seeds = set()
    for line in lines:
        workload, n, s, key, acc, atk = line.split("\t")
        if (workload, int(n)) != (name, rounds):
            continue
        acc, atk = float(acc), float(atk)
        seeds.add(s)
        if int(s) == seed:
            exact[key] = (acc, acc, atk, atk)
        lo_hi = envelope.setdefault(key, [acc, acc, atk, atk])
        lo_hi[:] = [min(lo_hi[0], acc), max(lo_hi[1], acc),
                    min(lo_hi[2], atk), max(lo_hi[3], atk)]
    if exact:
        return f"recorded for seed {seed}", exact
    if envelope:
        return f"range of {len(seeds)} recorded seeds", {
            key: tuple(v) for key, v in envelope.items()}
    return None


def _blas() -> tuple[str, int | None]:
    """Name and version of numpy's BLAS, and its thread count if readable."""
    import ctypes

    import numpy

    name = "unknown"
    with contextlib.suppress(KeyError, TypeError):  # older numpy: no mode=
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    with contextlib.suppress(OSError):
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(p for p in libs if ".so" in p):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    fn = getattr(handle, symbol)
                    fn.restype = ctypes.c_int
                    return name, int(fn())
    return name, None


def provenance(seed: int) -> dict:
    import numpy

    blas, threads = _blas()
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": threads, "seed": seed,
            "held_out_seed": HELD_OUT_SEED}


def _smoothed_attack(hits: int, rows: int) -> float:
    """Rule-of-succession attack success rate, (k + 1) / (n + 2): a defense
    that stops every attack reads 1/(n + 2), never exactly 0."""
    return (hits + 1) / (rows + 2)


def end_to_end(bench: Bench, timed: list[OpResult], setup: list[float]) -> dict:
    acc = [a for op in timed for a, _ in op.values.values()]
    hits = [round(a * bench.source_rows) for op in timed for _, a in op.values.values()]
    return {
        "rounds_per_s": statistics.median(op.rounds / op.elapsed for op in timed),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_accuracy": statistics.fmean(acc),
        "attack_rate": statistics.fmean(
            _smoothed_attack(h, bench.source_rows) for h in hits),
    }


def _percentile(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if values else 0.0


def per_layer(tracer, warm_op: int, traced_ops: list[int],
              untraced: list[OpResult], traced: list[OpResult]) -> tuple[dict, dict]:
    """Per-operation medians of layer times and counts over the traced ops.

    Returns (values by metric name, the traced report's extra rows).
    """
    per_op: dict[str, list[float]] = defaultdict(list)
    update_durations: list[float] = []
    aggregate_durations: list[float] = []
    for op in traced_ops:
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span in tracer.op_spans(op):
            duration = span.end - span.start
            total[span.name] += duration
            self_s[span.name] += span.self_s
            calls[span.name] += 1
            if span.name == "clients.local_update":
                update_durations.append(duration)
            elif span.name == "defenses.aggregate":
                aggregate_durations.append(duration)
        counters = tracer.counters[op]
        values = {
            "data.partition_s": total["data.partition"],
            "cli.parse_validate_s": self_s["cli.main"],
            "clients.local_update_calls": calls["clients.local_update"],
            "clients.local_update_s": total["clients.local_update"],
            "clients.self_s": self_s["clients.local_update"],
            "model.gradient_calls": calls["model.gradient"],
            "model.gradient_s": total["model.gradient"],
            "model.sgd_step_s": total["model.sgd_step"],
            "defenses.aggregate_s": total["defenses.aggregate"],
            "defenses.scoring_s": sum(total[s] for s in KERNEL_SPANS.values()),
            "metrics.eval_s": total["metrics.eval"],
            "metrics.final_eval_s": total["metrics.final_eval"],
            "metrics.export_s": total["metrics.export"],
            "engine.self_s": self_s["engine.run"] + self_s["engine.run_grid"],
        }
        values.update({k: total[s] for k, s in KERNEL_SPANS.items()})
        for key in ("model.gradient_rows", "defenses.update_bytes_per_round",
                    "defenses.history_bytes", "defenses.similarity_flops",
                    "defenses.roni_rows_scored", "metrics.eval_rows"):
            values[key] = counters.get(key, 0)
        values["_wall_s"] = total["cli.main"]
        for name, s in self_s.items():
            values[f"_self:{name}"] = s
        for key, value in values.items():
            per_op[key].append(value)

    medians = {key: statistics.median(v) for key, v in per_op.items()}
    cold_load = next(s for s in tracer.op_spans(warm_op) if s.name == "data.load_dataset")
    medians["data.load_dataset_s"] = cold_load.end - cold_load.start
    medians["clients.local_update_us_p50"] = _percentile(update_durations, 50) * 1e6
    medians["clients.local_update_us_p99"] = _percentile(update_durations, 99) * 1e6
    medians["defenses.aggregate_ms_p50"] = _percentile(aggregate_durations, 50) * 1e3
    medians["defenses.aggregate_ms_p99"] = _percentile(aggregate_durations, 99) * 1e3
    accepted = sum(op.alphas_accepted for op in traced)
    computed = sum(op.alphas_computed for op in traced)
    medians["defenses.accepted_update_ratio"] = accepted / computed if computed else 0.0
    fast = statistics.median(op.rounds / op.elapsed for op in untraced)
    slow = statistics.median(op.rounds / op.elapsed for op in traced)
    medians["trace.overhead_pct"] = (fast / slow - 1.0) * 100.0
    report = {
        "samples": {"clients.local_update": len(update_durations),
                    "defenses.aggregate": len(aggregate_durations),
                    "traced_ops": len(traced_ops), "untraced_ops": len(untraced)},
        "kernels": {key: medians[key] for key in KERNEL_SPANS},
        "self_share": {k.split(":", 1)[1]: v / medians["_wall_s"]
                       for k, v in sorted(medians.items(), key=lambda kv: -kv[1])
                       if k.startswith("_self:")},
        "rounds_per_s": {"untraced": fast, "traced": slow},
    }
    return medians, report


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        bench = Bench(name, seed)
        setup = [] if trace else [bench.probe_setup() for _ in range(SETUP_PROBES)]
        tracer = None
        if trace:
            from spans import Tracer, install_fedsim_spans

            tracer = Tracer()
            install_fedsim_spans(tracer)
            tracer.install()
        # Warm-up: fills fedsim's dataset cache and warms BLAS. Checked, not timed.
        warm = bench.run_op(traced=trace)
        if tracer is not None:
            tracer.uninstall()
        timed: list[OpResult] = []
        traced_ops: list[int] = []
        deadline = time.perf_counter() + seconds
        while True:
            n_traced = len(traced_ops)
            n_plain = len(timed) - n_traced
            if time.perf_counter() >= deadline and (
                    min(n_traced, n_plain) >= 2 if trace else len(timed) >= MIN_TIMED_OPS):
                break
            use_trace = trace and n_traced < n_plain
            if use_trace:
                traced_ops.append(len(tracer.roots))
                tracer.install()
            timed.append(bench.run_op(traced=use_trace))
            if use_trace:
                tracer.uninstall()
        if tracer is not None:
            TRACES.mkdir(exist_ok=True)
            tracer.write(str(TRACES / f"{name}-seed{seed}.tsv.gz"))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    ops = [warm] + timed
    attempted = sum(op.points for op in ops)
    failed = sum(op.failed for op in ops)
    shas = sorted({op.sha256 for op in ops})
    if len(shas) != 1:
        failed = attempted
        print("gate: exports differ between operations with the same seed",
              file=sys.stderr)
    for op in ops:
        for problem in op.problems:
            print(f"gate: {problem}", file=sys.stderr)
    if not any(op.rounds and op.values for op in timed):
        print("no timed operation completed a run", file=sys.stderr)
        return 1

    print(f"workload={name} preset={bench.workload.preset} "
          f"rounds_per_run={bench.workload.rounds} seed={seed} trace={int(trace)}")
    print("provenance " + json.dumps(provenance(seed), sort_keys=True))
    ref = f"{bench.reference[0]} +- {REFERENCE_TOLERANCE}" \
        if bench.reference is not None else "none recorded"
    print(f"gate: {attempted - failed}/{attempted} runs passed; reference {ref}; "
          f"export sha256 {' '.join(shas)} over {len(ops)} operations")
    accepted = sum(op.alphas_accepted for op in ops)
    computed = sum(op.alphas_computed for op in ops)
    print(f"defenses.accepted_update_ratio {accepted / max(computed, 1):.6f} "
          f"({accepted} of {computed} updates given a nonzero alpha)")

    if trace:
        plain = [op for op in timed if op.rounds and not op.traced]
        traced = [op for op in timed if op.rounds and op.traced]
        values, report = per_layer(tracer, 0, traced_ops, plain, traced)
        for key, share in report["self_share"].items():
            print(f"self {key:<28} {share * 100:6.2f} % of operation wall time")
        for key, value in report["kernels"].items():
            print(f"{key} {value:.6g} s")
        print("samples " + json.dumps(report["samples"]))
        print(f"tracing overhead: {report['rounds_per_s']['untraced']:.3f} rounds/s "
              f"untraced vs {report['rounds_per_s']['traced']:.3f} traced")
    else:
        values = end_to_end(bench, timed, setup)
        print("timed operations: " + " ".join(
            f"{op.rounds / op.elapsed:.4g}" for op in timed) + " rounds/s; set-up probes: "
            + " ".join(f"{s:.4g}" for s in setup) + " s")
    spec = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
        print()
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fedsim" / "__init__.py").is_file():
        print(f"fedsim sources not found under {SRC}", file=sys.stderr)
        return 2
    # BLAS may use every processor this process may run on, no more; set
    # before numpy loads so the thread pool is sized from it.
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, nproc)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
