"""Whole-run benchmark of the FedTiny reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each run is a fresh interpreter (``child.py``), one at a time. With
``--trace 0`` whole runs repeat until ``--seconds`` would be exceeded,
set-up-only runs top the set-up samples up to ``SETUP_SAMPLES``, and a
workload with a twin executor is run once more on it. With ``--trace 1``
one untraced run is followed by traced runs for ``--seconds``.

Every run's full result record is checked: it must be byte-identical
across the runs of an invocation and with the twin, and at
``REFERENCE_SEED`` equal the digest in ``reference.json``. A run that
raises, times out or fails a check is a failed run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Thread-count variables such as
``OPENBLAS_NUM_THREADS`` are recorded as found and never set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import LAYERS, clock  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

#: Set-up samples per invocation; set-up-only runs make up the shortfall.
SETUP_SAMPLES = 5
#: An invocation must end within 180 s; no run may start past this.
DEADLINE_S = 165.0
#: What ``out/result-*.json`` keeps of each run.
RECORD_KEYS = (
    "kind", "trace", "ok", "error", "wall_s", "cpu_s", "setup_s", "digest",
    "peak_rss_mb", "worker_peak_rss_mb", "round_starts", "round_ends",
    "spawned", "done", "coverage",
)
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "round_s.p50": "s",
    "cpu_s": "s",
    "train_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Counts made by the traced run's wrappers (see ``tracer.TARGETS``).
TRACE_COUNTS = {
    "fl.server.ingest.accepted": "count",
    "fl.server.ingest.submitted": "count",
    "fl.transport.frames": "count",
    "fl.transport.bytes": "bytes",
    "core.progressive.adjustments": "count",
    "core.selection.pairs": "count",
}
PER_LAYER = {
    **{f"{layer}_s": "s" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **TRACE_COUNTS,
    "fl.executor.run_clients_first_s": "s",
    "fl.comm.upload_bytes": "bytes",
    "fl.comm.download_bytes": "bytes",
    "fl.failures": "count",
    "fl.executor.worker_peak_rss_mb": "MB",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


def digest(record: dict) -> str:
    """SHA-256 of a run's full result record in canonical JSON."""
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


class Runner:
    """Starts child runs one at a time, each in its own process group."""

    def __init__(self, workload: str, seed: int, started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = started + DEADLINE_S
        self.log: list[dict] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )

    def run(self, kind="run", trace=False, executor=None,
            trace_path=None) -> dict:
        """One child run: its report plus ``ok``, wall and CPU seconds.

        ``kind`` is ``"run"``, ``"setup"`` (stop at the first round) or
        ``"twin"``. Every run launched is kept in :attr:`log`.
        """
        job = {
            "workload": self.workload, "seed": self.seed, "trace": trace,
            "setup_only": kind == "setup", "executor": executor,
            "trace_path": trace_path,
        }
        report = {"kind": kind, "trace": trace, "ok": False}
        self.log.append(report)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        job["spawned"] = spawned = clock()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            stdout=subprocess.PIPE, env=self.env, cwd=ROOT,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(
                timeout=max(1.0, self.deadline - spawned)
            )
            exited = clock()
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            report["error"] = "timeout"
            return report
        finally:
            _reap_group(proc.pid)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        lines = stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            report["error"] = f"exit {proc.returncode}"
            return report
        report.update(json.loads(lines[-1]))
        report.update(
            ok=True,
            spawned=spawned,
            wall_s=exited - spawned,
            cpu_s=(after.ru_utime + after.ru_stime)
            - (before.ru_utime + before.ru_stime),
            setup_s=report["round_starts"][0] - spawned,
        )
        if kind != "setup":
            report["digest"] = digest(report["record"])
        return report

    def time_left(self) -> float:
        return self.deadline - clock()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Wait up to 5 s for the run's leftover processes, then kill them."""
    for _ in range(50):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)
    _kill_group(pgid)


def check_outputs(workload: str, seed: int, runs: list[dict],
                  twin: dict | None, reference: dict) -> int:
    """Failed-run count over ``runs`` (plus the twin, if any).

    A run that did not finish fails alone. Finished runs that disagree
    with each other, with the twin, or at the reference seed with the
    recorded digest all fail: no single run can be trusted then.
    """
    finished = [run for run in runs if run["ok"]]
    failed = len(runs) - len(finished)
    digests = {run["digest"] for run in finished}
    if twin is not None:
        failed += not twin["ok"]
        digests.add(twin.get("digest"))
    if seed == REFERENCE_SEED:
        digests.add(reference.get(workload))
    if len(digests) > 1:
        failed += len(finished)
    return failed


def _round_durations(runs: list[dict]) -> list[float]:
    return [
        end - start
        for run in runs
        for start, end in zip(run["round_starts"], run["round_ends"])
    ]


def end_to_end_metrics(runs: list[dict], setups: list[float]) -> dict:
    rounds = _round_durations(runs)
    return {
        "run_s": statistics.median(run["wall_s"] for run in runs),
        "setup_s": statistics.median(setups),
        "round_s.p50": statistics.median(rounds),
        "cpu_s": statistics.median(run["cpu_s"] for run in runs),
        "train_samples_per_s": sum(run["train_samples"] for run in runs)
        / sum(rounds),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }


def per_layer_metrics(run: dict, untraced: dict) -> dict:
    """One traced run's per-layer metrics."""
    metrics = {}
    layers = run["layers"]
    for layer in LAYERS:
        row = layers.get(layer, {"inclusive_s": 0.0, "self_s": 0.0,
                                 "calls": 0})
        metrics[f"{layer}_s"] = row["inclusive_s"]
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.calls"] = row["calls"]
    metrics.update({
        name: run["counters"].get(name, 0) for name in TRACE_COUNTS
    })
    rounds = run["record"]["rounds"]
    metrics.update({
        "fl.executor.run_clients_first_s": run["first_run_clients_s"],
        "fl.comm.upload_bytes": sum(r["upload_bytes"] for r in rounds),
        "fl.comm.download_bytes": sum(r["download_bytes"] for r in rounds),
        "fl.failures": len(run["record"]["summary"]["failures"]),
        "fl.executor.worker_peak_rss_mb": run["worker_peak_rss_mb"],
        "trace.overhead": (run["done"] - run["spawned"])
        / (untraced["done"] - untraced["spawned"]),
        "trace.coverage": run["coverage"],
    })
    return metrics


def environment(load_at_start: tuple, runs: list[dict]) -> dict:
    env = next((run["env"] for run in runs if run.get("env")), {})
    return {
        "nproc": os.cpu_count(),
        **env,
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "loadavg_at_start": list(load_at_start),
    }


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4f} [{q1:.4f}, {q3:.4f}]"


def print_runs(runs: list[dict], setups: list[float]) -> None:
    finished = [run for run in runs if run["ok"]]
    print(f"runs: {len(finished)} finished of {len(runs)}")
    if not finished:
        return
    print(f"  run_s    median [q1, q3]: "
          f"{_quartiles([r['wall_s'] for r in finished])}")
    print(f"  setup_s  median [q1, q3]: {_quartiles(setups)}")
    print(f"  round_s  median [q1, q3]: "
          f"{_quartiles(_round_durations(finished))}")
    print(f"  cpu_s    median [q1, q3]: "
          f"{_quartiles([r['cpu_s'] for r in finished])}")


def print_layer_table(run: dict) -> None:
    wall = run["done"] - run["spawned"]
    rows = sorted(run["layers"].items(),
                  key=lambda item: -item[1]["inclusive_s"])
    print(f"{'layer':32} {'incl s':>9} {'self s':>9} {'calls':>8} "
          f"{'share':>6}")
    for name, row in rows:
        print(f"{name:32} {row['inclusive_s']:9.3f} {row['self_s']:9.3f} "
              f"{row['calls']:8d} {row['inclusive_s'] / wall:6.1%}")
    print(f"traced wall {wall:.3f} s; top-level coverage "
          f"{run['coverage']:.1%}")


def repeat(runner: Runner, seconds: float, **kwargs) -> list[dict]:
    """Whole runs back to back while the next one fits in ``seconds``."""
    runs: list[dict] = []
    started = clock()
    while True:
        runs.append(runner.run(**kwargs))
        walls = [run["wall_s"] for run in runs if run["ok"]]
        projected = statistics.median(walls) if walls else 0.0
        if (clock() - started + projected > seconds
                or runner.time_left() < 2 * projected + 5):
            return runs


def measure(args, runner: Runner) -> tuple[dict, int]:
    """Untraced: whole runs, set-up-only top-up, then the twin."""
    runs = repeat(runner, args.seconds)
    finished = [run for run in runs if run["ok"]]
    setups = [run["setup_s"] for run in finished]
    probes_failed = 0
    while (len(setups) < SETUP_SAMPLES and not probes_failed
           and runner.time_left() > 20):
        probe = runner.run(kind="setup")
        if probe["ok"]:
            setups.append(probe["setup_s"])
        else:
            probes_failed += 1
    executor = WORKLOADS[args.workload]["twin"]
    twin = runner.run(kind="twin", executor=executor) if executor else None
    failed = probes_failed + check_outputs(
        args.workload, args.seed, runs, twin, load_reference()
    )
    print_runs(runs, setups)
    if failed or not finished:
        return {}, max(failed, 1)
    return end_to_end_metrics(finished, setups), failed


def measure_traced(args, runner: Runner) -> tuple[dict, int]:
    """One untraced run, then traced runs; per-layer medians."""
    untraced = runner.run()
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    traced = repeat(runner, args.seconds, trace=True,
                    trace_path=str(trace_path))
    failed = check_outputs(args.workload, args.seed, [untraced] + traced,
                           None, load_reference())
    traced = [run for run in traced if run["ok"]]
    if failed or not untraced["ok"] or not traced:
        return {}, max(failed, 1)
    per_run = [per_layer_metrics(run, untraced) for run in traced]
    metrics = {
        name: statistics.median(values[name] for values in per_run)
        for name in PER_LAYER
    }
    print_layer_table(traced[0])
    print(f"tracing overhead (traced / untraced run): "
          f"{metrics['trace.overhead']:.3f}; Chrome trace: {trace_path}")
    return metrics, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    started = clock()
    load_at_start = os.getloadavg()
    # Byte-compile first, so the first run's set-up is not charged for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        check=True, stdout=subprocess.DEVNULL,
    )
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, started)
    measure_fn = measure_traced if args.trace else measure
    values, failed = measure_fn(args, runner)
    units = PER_LAYER if args.trace else END_TO_END
    env = environment(load_at_start, runner.log)
    print("env " + json.dumps(env))
    record = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / record).write_text(json.dumps({
        "env": env,
        "metrics": values,
        "runs": [{key: run.get(key) for key in RECORD_KEYS}
                 for run in runner.log],
    }, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.log),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
