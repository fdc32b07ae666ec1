"""The benchmark's workloads: plain data, so the harness never imports repro.

Each workload is one whole federated run on synthetic ``cifar10`` at the
``bench`` scale. ``spec`` holds the ``RunSpec`` fields and ``preset`` the
fields replaced on the ``bench`` ``ScalePreset``; the child process builds
both from them and the seed, and the program receives nothing else.

``twin`` names an executor whose run of the same inputs must produce the
same result bytes: the cross-executor output check.

Why each workload is here (the layers each should and should not move are
listed in README.md):

- ``fedtiny-serial`` is the ROADMAP reference run. Conv lowering and BN do
  most of the work; executor and transport are bypassed.
- ``fedavg-network-fanout`` carries the most bytes per unit of compute:
  dense-fallback payloads, framing, ingest validation and packed
  aggregation over a real localhost transport. Core pruning is bypassed.
- ``fedtiny-select`` is the one workload where candidate selection, the
  candidate pool and pretraining dominate, and where ``repro.nn`` runs
  mostly in inference mode.
"""

from __future__ import annotations

#: The seed at which each workload's output must match ``reference.json``.
REFERENCE_SEED = 0

WORKLOADS: dict[str, dict] = {
    "fedtiny-serial": {
        "spec": {
            "method": "fedtiny",
            "model": "resnet18",
            "dataset": "cifar10",
            "target_density": 0.05,
            "dirichlet_alpha": 0.5,
            "overrides": {"executor": "serial"},
        },
        "preset": {},
        "twin": None,
    },
    "fedavg-network-fanout": {
        "spec": {
            "method": "fedavg",
            "model": "vgg11",
            "dataset": "cifar10",
            "target_density": 1.0,
            "dirichlet_alpha": None,
            # One worker, not nproc: with two workers, each with its own
            # OpenBLAS pool, on two cores, rounds split into ~1.1 s and
            # ~3.3-4.5 s (BLAS oversubscription, ROADMAP item 2) and run_s
            # spreads ~29% across seeds, wider than any bound allows. One
            # worker keeps framing, ingest and the packed aggregation on
            # the path and runs steadily.
            "overrides": {"executor": "network", "executor_workers": 1},
        },
        # 528 federated samples over 24 clients: about one batch each.
        "preset": {"num_clients": 24},
        "twin": "serial",
    },
    "fedtiny-select": {
        "spec": {
            "method": "fedtiny",
            "model": "resnet18",
            "dataset": "cifar10",
            "target_density": 0.01,
            "dirichlet_alpha": 0.5,
            # The paper's uncapped pool C* = 0.1 / d = 10 (bench caps it
            # at 6).
            "pool_size": 10,
            "overrides": {"executor": "serial", "rounds": 2},
        },
        "preset": {},
        # The process executor's parity check: a fedtiny run on it is
        # too unsteady to time (see README.md), but not to check.
        "twin": "process",
    },
}
