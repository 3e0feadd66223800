"""pivotmine benchmark: end-to-end runs of the CLI, with output checks.

    python3 perfbench/run.py --workload m24-cold --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-check

Run it from the root of a source checkout: every command is a child
``python -m pivotmine`` with ``src`` on PYTHONPATH, in a scratch
directory under ``.perfbench_work`` that is removed afterwards.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
one untraced and one traced round.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

E2E_METRICS = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"), ("mrr", "score")]
SETUP_REPEATS = 5
PROBE_PERIOD_S = 0.1  # child running time between two speed probes
PROBE_REFERENCE_S = 0.0025  # probe() on an undisturbed CPU of the 2-core reference machine
SELF_CHECK_SEEDS = 3  # untraced runs per workload in --self-check
DEADLINE_S = 170.0  # every run ends within 180 s


@dataclass
class Cmd:
    """One finished child.  ``wall`` is the time it ran (stops for speed
    probes excluded); ``scaled`` is that time at the reference CPU speed."""

    argv: list[str]
    code: int
    wall: float
    scaled: float
    rss_mib: float
    cpu: float


def probe() -> float:
    """Time a fixed piece of pure-Python work (dict updates and integer
    arithmetic): the current speed of the CPU it runs on."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(15000):
        key = i & 63
        table[key] = table.get(key, 0) + i
        total += (i * i) % 7
    return time.perf_counter() - t0


class SpeedSampler(threading.Thread):
    """Splits a child's running time into slices of PROBE_PERIOD_S.

    A shared CPU's speed drifts by up to 2x within seconds and differs per
    core.  So between slices the child is stopped (SIGSTOP) and probe()
    runs on the same pinned CPU; each slice counts as its time scaled by
    PROBE_REFERENCE_S over the mean probe at its two ends.  The child is
    never reaped here: the caller waits for its exit with WNOWAIT, so its
    pid stays valid until stop() has joined this thread.
    """

    def __init__(self, pid: int, first_probe: float):
        super().__init__(daemon=True)
        self.pid = pid
        self.done = threading.Event()
        self.probes = [first_probe]
        self.slices: list[float] = []
        self.start_t = time.perf_counter()
        self.exited = False  # the last slice already ends at the child's exit

    def run(self) -> None:
        while not self.done.wait(PROBE_PERIOD_S):
            os.kill(self.pid, signal.SIGSTOP)
            info = os.waitid(os.P_PID, self.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
            self.slices.append(time.perf_counter() - self.start_t)
            self.probes.append(probe())
            if info.si_code != os.CLD_STOPPED:
                self.exited = True
                return
            os.kill(self.pid, signal.SIGCONT)
            self.start_t = time.perf_counter()

    def stop(self, exit_t: float) -> tuple[float, float]:
        """(running time, scaled time), once the child has exited at exit_t."""
        self.done.set()
        self.join()
        if not self.exited:
            self.slices.append(max(0.0, exit_t - self.start_t))
            self.probes.append(probe())
        scaled = sum(t * 2 * PROBE_REFERENCE_S / (a + b)
                     for t, a, b in zip(self.slices, self.probes, self.probes[1:]))
        return sum(self.slices), scaled


@dataclass
class Op:
    """One CLI command of a round and the check errors on its outputs."""

    cmd: Cmd
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.cmd.code != 0 or bool(self.errors)


@contextmanager
def checking(op: Op):
    """Count an output that cannot be read (missing or malformed) as a
    check error of the op that should have written it."""
    try:
        yield
    except Exception as exc:  # noqa: BLE001 - any unreadable output fails the op
        op.errors.append(f"unreadable output: {type(exc).__name__}: {exc}")


@dataclass
class Round:
    """The ops of one round.  The timed ops make up wall_s; the others
    (the warm rerun of m24-cold) exist to check the timed ones."""

    ops: list[Op]
    timed: list[Op]
    mrr: float | None
    spans: list[dict] = field(default_factory=list)  # of the timed ops
    warm_spans: list[dict] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(op.cmd.wall for op in self.timed)

    @property
    def scaled(self) -> float:
        return sum(op.cmd.scaled for op in self.timed)


class Runner:
    """One workload at one seed and scale, in its own scratch directory."""

    def __init__(self, workload: wl.Workload, seed: int, scale: wl.Scale, deadline: float):
        self.wl = workload
        self.seed = seed
        self.scale = scale
        self.deadline = deadline
        self.work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}-{seed}"
        self.log = self.work / "commands.log"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    # -- child processes ---------------------------------------------------

    def cli(self, argv: list[str], trace_to: Path | None = None) -> Cmd:
        """Run one pivotmine command and reap it with its resource usage.

        An untraced command runs under a SpeedSampler.  A traced one runs
        unstopped, since its spans are timed inside the child; its scaled
        time is its wall time.
        """
        if trace_to is None:
            cmd = [sys.executable, "-m", "pivotmine", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "tracing.py"), str(trace_to), *argv]
        timeout = max(1.0, self.deadline - time.monotonic())
        first_probe = probe()
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=log, stderr=log)
            sampler = SpeedSampler(proc.pid, first_probe) if trace_to is None else None
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                if sampler:
                    sampler.start()
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                exit_t = time.perf_counter()
                wall, scaled = sampler.stop(exit_t) if sampler else (exit_t - t0, exit_t - t0)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Cmd(argv, proc.returncode, wall, scaled, usage.ru_maxrss / 1024.0,
                   usage.ru_utime + usage.ru_stime)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Synthesize the corpus; returns the median time of several runs."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(SRC / "pivotmine")],
            check=True, stdout=subprocess.DEVNULL,
        )
        argv = wl.synth_args(self.wl, self.scale, self.seed, self.work)
        times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.work / "data", ignore_errors=True)
            cmd = self.cli(argv)
            if cmd.code != 0:
                log_tail = self.log.read_text(encoding="utf-8", errors="replace")[-2000:]
                raise RuntimeError(f"synth failed with exit code {cmd.code}:\n{log_tail}")
            times.append(cmd.scaled)
        setup_s = statistics.median(times)
        wl.write_config(self.wl, self.scale, self.work)
        data = self.work / "data"
        self.truth = json.loads((data / "ground_truth.json").read_text(encoding="utf-8"))
        self.corpus = wl.read_corpus(data / "corpus")
        coverage = self.scale.m24_coverage if self.wl.shape == "pipeline" else self.scale.wide_coverage
        self.selected = wl.selection(self.corpus, coverage)
        if self.wl.shape == "mine":
            wl.write_wide_pivots(self.work, self.truth, self.corpus, self.selected,
                                 self.scale.wide_pivots)
        return setup_s

    # -- rounds ------------------------------------------------------------

    def round(self, index: int, traced: bool = False) -> Round:
        out = f"run{index}"
        spans_dir = self.work / f"spans{index}"
        spans_dir.mkdir()
        pipeline = self.wl.shape == "pipeline"
        if pipeline:
            shutil.rmtree(self.work / "cache", ignore_errors=True)
        commands = [wl.pipeline_command(out)] if pipeline else wl.mine_commands(out)
        timed = [Op(self.cli(argv, spans_dir / f"{i}.json" if traced else None))
                 for i, argv in enumerate(commands)]
        ops = list(timed)
        if pipeline:
            mrr = self.check_pipeline(timed[0], self.work / out)
            ops.append(self.warm_rerun(timed[0], self.work / out,
                                       spans_dir / "warm.json" if traced else None))
        else:
            mrr = self.check_mine(timed, self.work / out)
        spans = load_spans(spans_dir / f"{i}.json" for i in range(len(timed)))
        warm_spans = load_spans([spans_dir / "warm.json"])
        for path in (out, f"{out}-warm", spans_dir):
            shutil.rmtree(self.work / path, ignore_errors=True)
        return Round(ops, timed, mrr, spans, warm_spans)

    def warm_rerun(self, cold: Op, out: Path, trace_to: Path | None) -> Op:
        """Rerun the pipeline on the cache the cold run filled: every pair
        must hit (no cache file is rewritten) and every artifact must be
        byte-identical to the cold run's."""
        cache = self.work / "cache"
        before = checks.cache_state(cache)
        warm = Op(self.cli(wl.pipeline_command(f"{out.name}-warm"), trace_to))
        if cold.cmd.code == 0 and warm.cmd.code == 0:
            with checking(warm):
                warm.errors += checks.check_identical(out, out.with_name(f"{out.name}-warm"))
                if checks.cache_state(cache) != before:
                    warm.errors.append("the warm rerun rewrote the alignment cache")
        return warm

    def check_pipeline(self, op: Op, out: Path) -> float | None:
        if op.cmd.code != 0:
            return None
        data = self.work / "data"
        mrr = None
        with checking(op):
            op.errors += checks.check_pivots(out / "pivots.tsv", out / "head.json",
                                             self.truth, wl.FEATURE)
            errors, mrr = checks.check_mrr(out / "ngrams", data / "gold.tsv", out / "mrr.json",
                                           wl.FEATURE)
            op.errors += errors
            op.errors += checks.check_map(out, self.selected)
            if (out / "selection.txt").read_text(encoding="utf-8").split() != self.selected:
                op.errors.append("selection.txt differs from the recomputed selection")
            op.errors += checks.check_distances(out / "markers_distance.tsv", out / "markers.nwk")
            op.errors += checks.check_mining(out / "ngrams", out / "mining_summary.json",
                                             self.truth, self.corpus, self.selected, wl.FEATURE)
        return mrr

    def check_mine(self, ops: list[Op], out: Path) -> float | None:
        """Checks of the program's outputs; pivots.tsv and head.json are
        benchmark inputs (see workloads.write_wide_pivots), not checked."""
        mine, markers, mapping, evaluation = ops
        mined = out / wl.FEATURE
        mrr = None
        if mine.cmd.code == 0:
            with checking(mine):
                mine.errors += checks.check_mining(mined / "ngrams", mined / "mining_summary.json",
                                                   self.truth, self.corpus, self.selected, wl.FEATURE)
        if markers.cmd.code == 0:
            with checking(markers):
                markers.errors += checks.check_distances(out / "markers" / "markers_distance.tsv",
                                                         out / "markers" / "markers.nwk")
        if mapping.cmd.code == 0:
            with checking(mapping):
                mapping.errors += checks.check_map(out / "map", self.selected)
        if evaluation.cmd.code == 0:
            with checking(evaluation):
                errors, mrr = checks.check_mrr(mined / "ngrams", self.work / "data" / "gold.tsv",
                                               out / "eval" / "mrr.json", wl.FEATURE)
                evaluation.errors += errors
        return mrr


def load_spans(paths) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8")) for p in paths if p.is_file()]


def tally(rounds: list[Round]) -> tuple[bool, int, int]:
    """(correct, attempted, failed).  An op fails on a non-zero exit or a
    check error; ``correct`` is false when an op that exited 0 produced
    wrong or unreadable output, and speaks only of those ops: a crash is
    counted in ``failed`` alone."""
    ops = [op for r in rounds for op in r.ops]
    for op in ops:
        if op.cmd.code != 0:
            print(f"FAILED exit {op.cmd.code}: pivotmine {' '.join(op.cmd.argv)}", file=sys.stderr)
        for err in op.errors:
            print(f"CHECK {op.cmd.argv[0]}: {err}", file=sys.stderr)
    correct = not any(op.errors for op in ops if op.cmd.code == 0)
    return correct, len(ops), sum(op.failed for op in ops)


def run_workload(workload: wl.Workload, seed: int, seconds: float, trace: bool,
                 scale: wl.Scale = wl.FULL) -> dict:
    runner = Runner(workload, seed, scale, time.monotonic() + DEADLINE_S)
    try:
        setup_s = runner.setup()
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(runner.round(len(rounds)))
            if trace or time.perf_counter() - start >= seconds:
                break
        if trace:
            traced = runner.round(len(rounds), traced=True)
            rounds.append(traced)
            plain = rounds[0]
            values = tracing.layer_metrics(
                traced.spans, traced.wall, plain.wall,
                cpu_s=sum(op.cmd.cpu for op in plain.timed),
                warm_rerun_s=sum(op.cmd.scaled for op in plain.ops if op not in plain.timed))
            if traced.warm_spans:  # cache reads are measured where they hit
                warm = tracing.layer_metrics(traced.warm_spans, 0.0, 0.0, 0.0, 0.0)
                for name in ("aligner.cache_read_s", "aligner.cache_hits"):
                    values[name] = warm[name]
            units = dict(tracing.LAYER_METRICS)
        else:
            mrrs = [r.mrr for r in rounds if r.mrr is not None]
            values = {
                "setup_s": setup_s,
                "wall_s": statistics.median(r.scaled for r in rounds),
                "peak_rss_mib": statistics.median(max(op.cmd.rss_mib for op in r.timed) for r in rounds),
                "mrr": statistics.median(mrrs) if mrrs else 0.0,
            }
            units = dict(E2E_METRICS)
            print(f"{workload.name} unscaled wall = "
                  f"{statistics.median(r.wall for r in rounds):.6g} s (median over rounds)")
        correct, attempted, failed = tally(rounds)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        try:
            runner.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def print_result(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    print(f"{name} attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")


def self_check() -> int:
    """All three workload shapes on tiny inputs, with the same checks,
    and the spread of each end-to-end metric over repeated runs."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)
    ok &= [m["name"] for m in declared["end_to_end"]] == [n for n, _ in E2E_METRICS]
    ok &= [m["name"] for m in declared["per_layer"]] == [n for n, _ in tracing.LAYER_METRICS]
    if not ok:
        print("BENCHMARK.json names differ from the benchmark's metrics", file=sys.stderr)
    for workload in wl.WORKLOADS.values():
        results = [run_workload(workload, seed, 0, False, wl.SMALL) for seed in range(1, SELF_CHECK_SEEDS + 1)]
        results.append(run_workload(workload, 1, 0, True, wl.SMALL))
        for r in results:
            ok &= r["correct"] and r["failed"] == 0
        print(f"{workload.name}: attempted={sum(r['attempted'] for r in results)} "
              f"failed={sum(r['failed'] for r in results)} "
              f"correct={all(r['correct'] for r in results)}")
        for metric, unit in E2E_METRICS:
            values = [r["metrics"][metric]["value"] for r in results[:-1]]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {metric:14s} median {med:10.4f} {unit:5s} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"iqr/median {spread:.3f}")
        layers = results[-1]["metrics"]
        print("  traced: " + ", ".join(
            f"{k}={layers[k]['value']:.4g}" for k in
            ("trace.traced_wall_s", "trace.untraced_wall_s", "trace.overhead_s",
             "trace.unaccounted_s", "trace.missing_hooks")))
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload shape on tiny inputs and report spreads")
    args = parser.parse_args(argv)
    if not (SRC / "pivotmine" / "cli.py").is_file():
        print(f"no pivotmine sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # Children inherit this CPU, so that SpeedSampler probes the CPU they run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        results = {}
        for name, workload in wl.WORKLOADS.items():
            results[name] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print_result(name, results[name])
        print(json.dumps(results))
        return 0
    result = run_workload(wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
