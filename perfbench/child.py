"""One whole federated run in a fresh interpreter.

    python3 perfbench/child.py '<job json>'

The harness (``run.py``) starts this once per run, because ``repro run``
users pay imports and executor start-up on every run. The job names a
workload and seed; this builds the workload's ``RunSpec`` and
``ScalePreset``, runs it through ``repro.experiments.runner.run_spec`` and
prints one JSON line: the full result record, round boundaries, peak RSS
and, when traced, the per-layer table.

Every run installs the round clock (two timestamps per round). Only a
traced run wraps the layers listed in ``tracer.TARGETS``. A set-up-only
run stops when the first round starts.
"""

import time

_STARTED = time.monotonic()

import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _result_record(result) -> dict:
    return {
        "summary": result.to_dict(),
        "rounds": [dataclasses.asdict(r) for r in result.rounds],
    }


def main(job: dict) -> dict:
    tracer = tracing.Tracer() if job["trace"] else None
    from repro.experiments.configs import get_scale
    from repro.experiments.runner import run_spec
    from repro.experiments.specs import RunSpec

    imported = tracing.clock()
    if tracer is not None:
        tracer.add("setup.import", _STARTED, imported)
    rounds = tracing.RoundClock(tracer, job["setup_only"])
    rounds.install()
    if tracer is not None:
        tracing.install(tracer)

    workload = WORKLOADS[job["workload"]]
    fields = dict(workload["spec"])
    overrides = dict(fields.pop("overrides"))
    if job["executor"] is not None:
        overrides["executor"] = job["executor"]
    spec = RunSpec(
        seed=job["seed"], overrides=tuple(overrides.items()), **fields
    )
    preset = dataclasses.replace(get_scale("bench"), **workload["preset"])
    out = {"round_starts": rounds.starts}
    try:
        result = run_spec(spec, preset=preset)
    except tracing.SetupDone:
        return out
    done = tracing.clock()
    out.update(
        done=done,
        round_ends=rounds.ends,
        train_samples=rounds.train_samples,
        record=_result_record(result),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        worker_peak_rss_mb=resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss / 1024,
        env=_environment(),
    )
    if tracer is not None:
        out["layers"] = tracer.layer_table()
        out["counters"] = dict(tracer.counters)
        out["coverage"] = tracer.top_level_coverage(job["spawned"], done)
        out["first_run_clients_s"] = tracer.first_duration(
            "fl.executor.run_clients"
        )
        if job["trace_path"]:
            tracer.write_chrome_trace(job["trace_path"], job["spawned"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1])), default=str))
