"""valnov benchmark: recipe chains run in-process through ``valnov.cli.main``.

    python3 benchmark/run.py --workload mtl-profile --seed 1 --seconds 20 --trace 0

Run from a checkout; the package is imported from the checkout's ``src``.
The load is a closed loop: one process, one client, each stage starting
when the previous one returns. After set-up (imports, three identical
input generations, one untimed warm-up chain) the chain repeats until
``--seconds`` have passed. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced chains and prints the
per-layer metrics of the traced ones. Every chain is checked against the
warm-up chain (same prediction bytes, same combined score) and by the
workload's own checks; a failed stage or check makes the exit code 1.

The last stdout line is the result object; the line before it records the
environment, set-up parts, input statistics and every per-stage sample.
Work files go to ``.bench_work`` and are removed; records and spans go to
``.bench_out``. See README.md in this directory for the metrics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the benchmark's load is one client on at most nproc
# threads, and a threaded BLAS makes float sums depend on the core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pkgutil  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import layers  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

INPUT_GENERATIONS = 3
STAGE_METRICS = tuple(m for w in WORKLOADS.values() for m in w.stage_metrics)


def per_layer_names() -> list[str]:
    return layers.metric_names() + list(STAGE_METRICS) + ["trace.overhead_s"]


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class StageFailed(Exception):
    pass


class Bench:
    def __init__(self, workload: Workload, work: Path, cli, tracer: Tracer | None):
        self.wl = workload
        self.work = work
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: tuple[dict[str, str], float] | None = None

    def stage(self, label: str, argv: list[str]) -> float:
        """Run one CLI stage; returns its wall time, raises StageFailed."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)  # looked up per call, so tracing sees it
        except (Exception, SystemExit):
            code = "exception"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failures.append(f"stage {label} exited {code}: {err.getvalue().strip()[-2000:]}")
            raise StageFailed(label)
        return elapsed

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {what}")

    def iteration(self, k: int, traced: bool) -> dict[str, float]:
        """One chain; stage label -> seconds."""
        it = self.work / f"iter-{k}"
        it.mkdir()
        times: dict[str, float] = {}
        for label, argv in self.wl.stages(it):
            span = self.tracer.span(f"bench.{label}") if traced else contextlib.nullcontext()
            with span:
                times[label] = self.stage(label, argv)
            self.wl.after_stage(label, it)

        digests = {rel: _sha256(it / rel) for rel in self.wl.outputs}
        f1 = json.loads((it / self.wl.report).read_text(encoding="utf-8"))["combined"]
        if self.reference is None:
            self.reference = (digests, f1)
        else:
            ref_digests, ref_f1 = self.reference
            for rel, digest in digests.items():
                self.check(f"{rel} identical to the warm-up chain's", digest == ref_digests[rel])
            self.check("combined_f1 identical to the warm-up chain's", f1 == ref_f1)
        for what, ok in self.wl.checks(it):
            self.check(what, ok)
        shutil.rmtree(it)
        return times


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _stage_sum(samples: list[dict[str, float]], labels) -> float:
    """Sum over ``labels`` of each stage's median time. A burst of machine
    load slows one stage of one chain, so per-stage medians shed it where
    the median of whole-chain sums would not."""
    return sum(_median([t[label] for t in samples]) for label in labels)


def _environment(workload: Workload) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_threads": BLAS_THREADS,
        "prompting_parallelism": workload.parallelism,
        "load": {"loop": "closed", "processes": 1, "clients": 1},
    }


def _emit(record: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))


def run(args: argparse.Namespace, work: Path, out_dir: Path) -> int:
    import valnov
    import valnov.cli as cli
    from valnov.stemming import stem

    modules = [
        importlib.import_module(f"valnov.{m.name}") for m in pkgutil.iter_modules(valnov.__path__)
    ]
    import_s = time.perf_counter() - T0

    workload = WORKLOADS[args.workload]()
    tracer = Tracer(layers.VALUE_HOOKS, layers.DISTINCT_HOOKS) if args.trace else None
    bench = Bench(workload, work, cli, tracer)
    record: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(workload),
    }
    untraced: list[dict[str, float]] = []
    traced: list[tuple[int, dict[str, float]]] = []
    try:
        generation_s, digests = [], []
        for r in range(INPUT_GENERATIONS):
            data = work / f"data-{r}"
            data.mkdir()
            start = time.perf_counter()
            paths = workload.prepare(data, args.seed, bench.stage)
            generation_s.append(time.perf_counter() - start)
            digests.append({split: _sha256(p) for split, p in paths.items()})
        bench.check("inputs identical across generations", all(d == digests[0] for d in digests))
        start = time.perf_counter()
        bench.iteration(0, traced=False)
        warmup_s = time.perf_counter() - start
        setup_s = import_s + _median(generation_s) + warmup_s
        record["setup"] = {
            "import_s": import_s,
            "generation_s": generation_s,
            "warmup_s": warmup_s,
        }
        record["inputs"] = {
            split: gen.text_stats(gen.read_jsonl(p), stem) for split, p in paths.items()
        }
        record["inputs"]["generator_vocabulary"] = workload.generator_vocabulary

        start = time.perf_counter()
        k = 1
        while True:
            use_tracer = bool(args.trace) and k % 2 == 0
            if use_tracer:
                tracer.iteration = k
                tracer.install(modules)
                try:
                    traced.append((k, bench.iteration(k, traced=True)))
                finally:
                    tracer.uninstall()
            else:
                untraced.append(bench.iteration(k, traced=False))
            k += 1
            done = time.perf_counter() - start >= args.seconds
            if done and (traced or not args.trace):
                break
    except StageFailed:
        record["failures"] = bench.failures
        _emit(record, False, bench.attempted, len(bench.failures), {})
        return 1

    traced_times = [t for _, t in traced]
    chain = list(untraced[0])
    record["failures"] = bench.failures
    record["samples"] = {"untraced": untraced, "traced": traced_times}
    if args.trace:
        spans = tracer.spans()
        selfs = self_times(spans)
        per_iter = [
            layers.iteration_metrics(spans, selfs, k, tracer.distinct) for k, _ in traced
        ]
        metrics = {
            name: (_median([m[name] for m in per_iter]), unit_of(name))
            for name in layers.metric_names()
        }
        for name in STAGE_METRICS:
            metrics[name] = (_stage_sum(untraced, workload.stage_metrics.get(name, ())), "s")
        overhead = _stage_sum(traced_times, chain) - _stage_sum(untraced, chain)
        metrics["trace.overhead_s"] = (overhead, "s")
        tracer.write(out_dir / f"spans-{workload.name}-seed{args.seed}.tsv.gz")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "recipe_s": (_stage_sum(untraced, chain), "s"),
            "hot_stage_s": (_stage_sum(untraced, workload.hot), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "combined_f1": (bench.reference[1], "f1"),
        }
    (out_dir / f"record-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    failed = len(bench.failures)
    _emit(record, failed == 0, bench.attempted, failed, metrics)
    return 0 if failed == 0 else 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "valnov" / "cli.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        return run(args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
