"""Federated experiment context and the shared round loop.

Every method (FedTiny and each baseline) runs against a
:class:`FederatedContext`: a shared model instance, the client
population, the test set, cost profiles, and a communication tracker.
The context provides the one primitive all methods share — a FedAvg
training round over sparse models — while mask manipulation stays in
the method implementations.

The round loop is a *systems simulation*, not just a learning loop:
each client carries a :class:`~repro.fl.latency.DeviceProfile` drawn
from the configured fleet, a simulated wall clock advances by the
per-round compute+transfer time the configured
:class:`~repro.fl.policies.RoundPolicy` charges, and every round record
carries the cumulative ``sim_time_seconds`` — so accuracy-vs-wall-clock
curves fall out of ordinary runs.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from ..data.dataset import Dataset
from ..data.partition import VirtualShardPlan, partition_dataset, \
    plan_partition
from ..metrics.accuracy import evaluate
from ..metrics.flops import ModelProfile, profile_model, \
    training_flops_per_sample
from ..metrics.tracker import RoundRecord, RunResult
from ..nn.module import Module
from ..sparse.mask import MaskSet
from .aggregation import HierarchicalAggregator
from .client import Client
from .comm import CommTracker
from .executor import available_executors, build_executor
from .faults import FailureRecord, FaultSchedule, FaultTolerantRunner, \
    RetryPolicy, RoundFaultStats
from .fleet import ClientDirectory, MaterializedDirectory, \
    VirtualClientDirectory, cohort_size
from .latency import FleetPlan, build_fleet, parse_fleet_spec
from .payload import packed_nbytes
from .policies import RoundInfo, SynchronousPolicy, available_policies, \
    build_policy
from .server import Server
from .state import set_state
from .transport import TransportConfig

__all__ = ["CONFIG_ROLES", "FLConfig", "FederatedContext", "setting"]

_LOG = logging.getLogger(__name__)


#: What an FLConfig field changes. A ``result`` field changes what a
#: run computes, so it is part of the run's identity. A ``resumable``
#: field changes only how or how long a run executes: a checkpoint
#: resumes across it. A ``plumbing`` field drives crash-resume itself.
CONFIG_ROLES = ("result", "resumable", "plumbing")


def setting(default: Any, role: str, help: str | None = None) -> Any:
    """Declare one :class:`FLConfig` field: default, role and CLI help.

    A field with ``help`` is a setting: a ``repro run`` flag and a
    :class:`~repro.experiments.specs.RunSpec` override key. Every other
    consumer (preset overrides, run identity) reads the same metadata.
    """
    metadata = {"role": role}
    if help is not None:
        metadata["help"] = help
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class FLConfig:
    """Hyper-parameters of the federated protocol (paper Section IV-A1).

    The one declaration of every protocol setting; see :func:`setting`.
    """

    num_clients: int = setting(10, "result")
    rounds: int = setting(
        300, "resumable", "number of rounds (default: the scale's)"
    )
    local_epochs: int = setting(
        5, "result", "override the preset's local epochs per round"
    )
    batch_size: int = setting(64, "result")
    lr: float = setting(0.05, "result")
    momentum: float = setting(0.9, "result")
    weight_decay: float = setting(0.0, "result")
    dirichlet_alpha: float | None = setting(0.5, "result")
    dev_fraction: float = setting(0.1, "result")
    participation_fraction: float = setting(
        1.0, "result", "fraction of clients sampled each round"
    )
    quantize_upload_bits: int | None = setting(
        None, "result", "quantize client uploads to this many bits"
    )
    eval_every: int = setting(1, "result")
    augment: bool = setting(False, "result")
    executor: str = setting(
        "serial", "resumable",
        "client execution backend, see 'repro list' (default: serial)",
    )
    executor_workers: int | None = setting(
        None, "resumable",
        "process/network executor: worker count (default: one per "
        "CPU, at most 8 process or 4 network workers)",
    )
    # Fleet-scale knobs (see repro.fl.fleet); min_partition_samples is
    # the Dirichlet per-client floor.
    client_backend: str = setting(
        "materialized", "result",
        "client population backend: 'virtual' keeps clients as IDs "
        "until selected (default: materialized)",
    )
    virtual_shard_size: int | None = setting(
        None, "result",
        "virtual backend: derive per-ID overlapping shards of this size "
        "instead of an exact partition (lets the population exceed the "
        "dataset)",
    )
    aggregation_fan_in: int | None = setting(
        None, "result",
        "reduce uploads tree-wise through simulated edge-aggregator "
        "groups of this size",
    )
    min_partition_samples: int = setting(2, "result")
    # Systems-simulation knobs: the device fleet spec (see
    # repro.fl.latency.parse_fleet_spec) and the round policy plus its
    # parameters (see repro.fl.policies).
    fleet: str = setting(
        "uniform", "result",
        "device fleet spec: uniform or heterogeneous[:spread], e.g. "
        "heterogeneous:16",
    )
    round_policy: str = setting(
        "sync", "result",
        "round completion policy, see 'repro list' (default: sync)",
    )
    deadline_fraction: float = setting(
        1.5, "result",
        "deadline policy: round budget as a multiple of the median "
        "device's completion time",
    )
    deadline_over_select: float = setting(
        1.5, "result",
        "deadline policy: participant over-selection multiplier (>= 1)",
    )
    dropout_rate: float = setting(
        0.1, "result", "dropout policy: per-round client failure probability"
    )
    async_buffer_fraction: float = setting(
        0.5, "result",
        "async policy: fraction of uploads that closes the round",
    )
    staleness_discount: float = setting(
        0.5, "result",
        "async policy: per-round weight discount for late uploads",
    )
    # Fault-tolerance knobs (see repro.fl.faults). With ``faults`` None
    # the round loop stays byte-identical to the fault-free golden run.
    faults: str | None = setting(
        None, "result",
        "inject deterministic faults: a preset name (chaos, "
        "flaky_clients, bad_transport) or 'kind:prob,...' pairs, e.g. "
        "corrupt_payload:0.1,client_timeout:0.05",
    )
    retry_max_attempts: int = setting(
        3, "result",
        "delivery attempts per client per round under fault injection "
        "(default 3)",
    )
    retry_backoff_seconds: float = setting(
        0.5, "result",
        "base simulated backoff between retries (default 0.5)",
    )
    retry_backoff_factor: float = setting(2.0, "result")
    retry_timeout_seconds: float = setting(
        5.0, "result",
        "simulated seconds a client_timeout fault costs (default 5)",
    )
    pool_failure_limit: int = setting(2, "result")
    # Networked-transport knobs (see repro.fl.transport). Only the
    # "network" executor reads them; they are validated for every
    # config so a bad flag fails fast.
    transport_timeout: float = setting(
        30.0, "resumable",
        "network executor: per-request socket timeout and in-flight "
        "task reassignment budget in real seconds (default 30)",
    )
    heartbeat_interval: float = setting(
        1.0, "resumable",
        "network executor: worker heartbeat period in real seconds; "
        "liveness expires after 5 missed beats (default 1)",
    )
    max_reconnects: int = setting(
        3, "resumable",
        "network executor: reconnect attempts per worker request and "
        "reassignments per task before the client is excluded "
        "(default 3)",
    )
    # Crash-resume knobs: the round loop snapshots the full run state
    # every ``checkpoint_every`` rounds and resumes bit-for-bit.
    checkpoint_dir: str | None = setting(
        None, "plumbing", "snapshot the run here for crash-resume"
    )
    checkpoint_every: int = setting(
        1, "plumbing", "rounds between checkpoints (default 1)"
    )
    resume: bool = setting(
        False, "plumbing",
        "resume from the latest checkpoint in --checkpoint-dir, "
        "bit-for-bit",
    )
    seed: int = setting(0, "result")

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if not 0.0 < self.dev_fraction <= 1.0:
            raise ValueError("dev_fraction must be in (0, 1]")
        if not 0.0 < self.participation_fraction <= 1.0:
            raise ValueError("participation_fraction must be in (0, 1]")
        if self.quantize_upload_bits is not None and not (
            2 <= self.quantize_upload_bits <= 16
        ):
            raise ValueError("quantize_upload_bits must be in [2, 16]")
        if self.executor not in available_executors():
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"available: {available_executors()}"
            )
        if self.executor_workers is not None and self.executor_workers < 1:
            raise ValueError("executor_workers must be >= 1")
        if self.client_backend not in ("materialized", "virtual"):
            raise ValueError(
                f"unknown client backend {self.client_backend!r}; "
                f"expected 'materialized' or 'virtual'"
            )
        if self.virtual_shard_size is not None:
            if self.client_backend != "virtual":
                raise ValueError(
                    "virtual_shard_size requires client_backend='virtual'"
                )
            if self.virtual_shard_size < 1:
                raise ValueError("virtual_shard_size must be >= 1")
        if self.aggregation_fan_in is not None and self.aggregation_fan_in < 1:
            raise ValueError("aggregation_fan_in must be >= 1")
        if self.min_partition_samples < 1:
            raise ValueError("min_partition_samples must be >= 1")
        parse_fleet_spec(self.fleet)  # raises on malformed specs
        if self.round_policy not in available_policies():
            raise ValueError(
                f"unknown round policy {self.round_policy!r}; "
                f"available: {available_policies()}"
            )
        if self.deadline_fraction <= 0.0:
            raise ValueError("deadline_fraction must be positive")
        if self.deadline_over_select < 1.0:
            raise ValueError("deadline_over_select must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if not 0.0 < self.async_buffer_fraction <= 1.0:
            raise ValueError("async_buffer_fraction must be in (0, 1]")
        if not 0.0 < self.staleness_discount <= 1.0:
            raise ValueError("staleness_discount must be in (0, 1]")
        if self.faults is not None:
            FaultSchedule.parse(self.faults)  # raises on malformed specs
        if self.retry_max_attempts < 1:
            raise ValueError("retry_max_attempts must be >= 1")
        if self.retry_backoff_seconds < 0.0:
            raise ValueError("retry_backoff_seconds must be >= 0")
        if self.retry_backoff_factor < 1.0:
            raise ValueError("retry_backoff_factor must be >= 1")
        if self.retry_timeout_seconds < 0.0:
            raise ValueError("retry_timeout_seconds must be >= 0")
        if self.pool_failure_limit < 1:
            raise ValueError("pool_failure_limit must be >= 1")
        self.transport_config()  # raises on malformed transport knobs
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        if self.checkpoint_dir is not None and self.round_policy == "async":
            # The async policy buffers late uploads across rounds in
            # process-local state the checkpoint cannot capture; a
            # resumed run would silently drop them.
            raise ValueError(
                "checkpointing does not support round_policy='async'"
            )

    def transport_config(self) -> TransportConfig:
        """The networked executor's transport knobs as one object."""
        return TransportConfig(
            timeout=self.transport_timeout,
            heartbeat_interval=self.heartbeat_interval,
            max_reconnects=self.max_reconnects,
        )


class FederatedContext:
    """Everything a federated pruning method needs to run."""

    def __init__(
        self,
        model: Module,
        train_data: Dataset,
        test_data: Dataset,
        config: FLConfig,
        dataset_name: str = "synthetic",
        model_name: str = "model",
    ) -> None:
        self.model = model
        self.test_data = test_data
        self.config = config
        self.dataset_name = dataset_name
        self.model_name = model_name
        self.comm = CommTracker()
        self.rng = np.random.default_rng(config.seed)

        self.directory: ClientDirectory
        if config.client_backend == "virtual":
            if config.virtual_shard_size is not None:
                # Derived overlapping shards: the population can exceed
                # the dataset, and no per-client state exists up front.
                plan = VirtualShardPlan(
                    len(train_data),
                    config.num_clients,
                    config.virtual_shard_size,
                    seed=config.seed,
                )
            else:
                # Exact partition, computed as index arrays only; this
                # consumes self.rng exactly like partition_dataset, so
                # downstream draws match the materialized backend.
                plan = plan_partition(
                    train_data,
                    config.num_clients,
                    config.dirichlet_alpha,
                    self.rng,
                    min_samples=config.min_partition_samples,
                )
            self.directory = VirtualClientDirectory(
                train_data,
                plan,
                FleetPlan(config.fleet, config.num_clients, config.seed),
                dev_fraction=config.dev_fraction,
                seed=config.seed,
            )
        else:
            shards = partition_dataset(
                train_data,
                config.num_clients,
                config.dirichlet_alpha,
                self.rng,
                min_samples=config.min_partition_samples,
            )
            fleet = build_fleet(
                config.fleet, config.num_clients, config.seed
            )
            self.directory = MaterializedDirectory(
                [
                    Client(
                        client_id=index,
                        train_data=shard,
                        dev_fraction=config.dev_fraction,
                        seed=config.seed,
                        device=fleet[index],
                    )
                    for index, shard in enumerate(shards)
                ]
            )
        self.profile: ModelProfile = profile_model(
            model, train_data.image_shape
        )
        self.server = Server(
            model, aggregation_fan_in=config.aggregation_fan_in
        )
        self.executor = build_executor(
            config.executor,
            max_workers=config.executor_workers,
            transport=config.transport_config(),
        )
        self.round_policy = build_policy(config.round_policy, config)
        # Simulation-only randomness (availability draws) lives on its
        # own stream so systems realism never perturbs client sampling
        # or batch order.
        self.sim_rng = np.random.default_rng(config.seed * 52_711 + 13)
        self.sim_time = 0.0
        # Real (wall-clock) seconds spent inside executor training
        # calls. The simulated clock stays authoritative for policy
        # decisions (that is the byte-parity contract); this counter
        # observes what the actual transport/compute cost, which is
        # only meaningfully nonzero under real-transport backends.
        self.real_time_seconds = 0.0
        self.last_round_info: RoundInfo | None = None
        self._dropped_since_record = 0
        # Fault tolerance: the schedule/runner exist only when faults
        # are enabled, so the fault-free round loop takes the exact
        # code path (and RNG consumption) it always did.
        self.retry_policy = RetryPolicy(
            max_attempts=config.retry_max_attempts,
            backoff_seconds=config.retry_backoff_seconds,
            backoff_factor=config.retry_backoff_factor,
            timeout_seconds=config.retry_timeout_seconds,
            pool_failure_limit=config.pool_failure_limit,
        )
        self.fault_schedule: FaultSchedule | None = (
            FaultSchedule.parse(config.faults, seed=config.seed)
            if config.faults is not None else None
        )
        self.fault_runner: FaultTolerantRunner | None = (
            FaultTolerantRunner(
                self.fault_schedule, self.retry_policy, seed=config.seed
            )
            if self.fault_schedule is not None else None
        )
        # Full structured failure log for the run, plus the deltas not
        # yet folded into a round record (same discipline as the comm
        # counters: record_round drains them).
        self.failure_log: list[FailureRecord] = []
        self._failures_since_record: list[FailureRecord] = []
        self._fault_stats_since_record = RoundFaultStats()
        self._round_counter = 0
        # Lazily defaults to the whole fleet: eagerly listing it here
        # would materialize every virtual client before the first round.
        self._last_participants: list[Client] | None = None
        # Comm totals already folded into earlier round records, so each
        # record holds this round's delta (RunResult sums them back up).
        self._recorded_upload = 0
        self._recorded_download = 0

    # ------------------------------------------------------------------
    # Shared primitives
    # ------------------------------------------------------------------
    @property
    def clients(self) -> list[Client]:
        """Every client, materialized (compatibility surface; O(N))."""
        return self.directory.all_clients()

    @property
    def last_participants(self) -> list[Client]:
        """Clients aggregated in the last round (whole fleet before
        any round has run)."""
        if self._last_participants is None:
            self._last_participants = list(self.directory.all_clients())
        return self._last_participants

    @last_participants.setter
    def last_participants(self, value: list[Client]) -> None:
        self._last_participants = value

    @property
    def sample_counts(self) -> list[int]:
        return self.directory.sample_counts()

    def new_result(self, method: str, target_density: float) -> RunResult:
        return RunResult(
            method=method,
            dataset=self.dataset_name,
            model=self.model_name,
            target_density=target_density,
        )

    def sample_participants(
        self, fraction: float | None = None
    ) -> list[Client]:
        """Clients taking part in the next round.

        With ``participation_fraction < 1`` a random subset (at least
        one client) is drawn each round, as in standard FedAvg client
        sampling; the selection is stored on ``last_participants`` so
        mask-adjustment protocols query the same devices that trained.
        ``fraction`` overrides the configured participation fraction
        (round policies over-select through it).
        """
        return [
            self.directory.materialize(client_id)
            for client_id in self.sample_participant_ids(fraction)
        ]

    def sample_participant_ids(
        self, fraction: float | None = None
    ) -> list[int]:
        """Sorted cohort IDs for the next round, no clients built.

        The cohort size follows the explicit
        :func:`~repro.fl.fleet.cohort_size` rule — ``max(1,
        ceil(fraction * n))`` — shared with the materialized sampler
        (the historical ``int(round(...))`` rule was banker's-rounded).
        Full participation consumes no randomness, matching the
        historical fast path.
        """
        if fraction is None:
            fraction = self.config.participation_fraction
        population = self.directory.num_clients
        if fraction >= 1.0:
            return list(range(population))
        count = cohort_size(fraction, population)
        chosen = self.rng.choice(population, size=count, replace=False)
        return sorted(int(i) for i in chosen)

    def participant_round_times(
        self, participants: list[Client]
    ) -> list[float]:
        """Simulated seconds each participant needs for one round.

        Compute time comes from the method's per-sample training FLOPs
        at the current mask density; transfer time from the same byte
        accounting the communication tracker charges.
        """
        flops_per_sample = training_flops_per_sample(
            self.profile, self.server.masks
        )
        upload = self.upload_bytes_per_client()
        download = self.model_exchange_bytes()
        epochs = self.config.local_epochs
        return [
            float(
                client.device.time_for(
                    flops_per_sample * epochs * client.num_samples,
                    upload,
                    download,
                )
            )
            for client in participants
        ]

    def run_fedavg_round(
        self, need_states: bool = True
    ) -> list[dict[str, np.ndarray]]:
        """One policy-driven round: select, train, aggregate, tick.

        The configured :class:`~repro.fl.policies.RoundPolicy` picks the
        participants, decides which of them train and upload in time on
        the simulated fleet, and folds the surviving uploads into the
        global state; the context's simulated wall clock advances by the
        round's elapsed seconds. Local training is delegated to the
        configured :class:`~repro.fl.executor.ClientExecutor` backend.
        Returns the states aggregated at full weight this round (aligned
        with ``last_participants``; some methods inspect them before
        they are discarded).

        ``need_states=False`` declares that the caller will not read
        the returned states (its round hook ignores them). When the
        active policy is the plain synchronous barrier, uploads are
        unquantized, and the executor shipped packed payloads, the
        round then feeds those payloads straight into the sparse-aware
        :meth:`~repro.fl.server.Server.aggregate_packed` — no per-client
        dense decode — and returns an empty list. The committed global
        state is bitwise identical either way.
        """
        cfg = self.config
        policy = self.round_policy
        self._round_counter += 1
        participants = policy.select(self)
        times = self.participant_round_times(participants)
        plan = policy.plan(self, participants, times)
        trained = [participants[i] for i in plan.trained]
        download = self.model_exchange_bytes()
        upload = self.upload_bytes_per_client()
        fault_seconds = 0.0
        train_started = time.perf_counter()
        if self.fault_runner is not None and trained:
            outcome = self.fault_runner.run_round(
                self, trained, self._round_counter
            )
            fault_seconds = outcome.extra_seconds
            self.failure_log.extend(outcome.records)
            self._failures_since_record.extend(outcome.records)
            self._fault_stats_since_record.merge(outcome.stats)
            results = outcome.results
            if outcome.excluded:
                # Retry-exhausted clients leave the cohort; the plan
                # re-packs around the survivors and the excluded join
                # the dropped set (aggregation renormalizes over the
                # sample counts that actually arrived).
                keep = [
                    k for k in range(len(trained))
                    if k not in outcome.excluded
                ]
                plan = plan.without_trained(outcome.excluded)
                trained = [trained[k] for k in keep]
                results = [results[k] for k in keep]
        else:
            results = self.executor.run_clients(self, trained)
            lost = frozenset(
                i for i, r in enumerate(results) if r is None
            )
            if lost:
                # A real-transport backend could not deliver these
                # clients' tasks within the reassignment budget: they
                # leave the cohort exactly like retry-exhausted clients
                # under a fault schedule. Their RNG streams never
                # advanced, so the surviving cohort is untouched.
                lost_records = [
                    FailureRecord(
                        self._round_counter,
                        trained[i].client_id,
                        0,
                        "connection_lost",
                        "excluded",
                    )
                    for i in sorted(lost)
                ]
                self.failure_log.extend(lost_records)
                self._failures_since_record.extend(lost_records)
                self._fault_stats_since_record.recoveries += len(lost)
                keep = [
                    k for k in range(len(trained)) if k not in lost
                ]
                plan = plan.without_trained(lost)
                trained = [trained[k] for k in keep]
                results = [results[k] for k in keep]
        self.real_time_seconds += time.perf_counter() - train_started
        drain = getattr(self.executor, "drain_records", None)
        if drain is not None:
            # Transport-level adjudications (deduped replays after a
            # reconnect, quarantined bytes) join the structured failure
            # log; the deterministic fault counters are untouched, so
            # chaos accounting still compares across executors.
            transport_records = drain()
            if transport_records:
                self.failure_log.extend(transport_records)
                self._failures_since_record.extend(transport_records)
        packed_fast_path = (
            not need_states
            and cfg.quantize_upload_bits is None
            and type(policy) is SynchronousPolicy
            and bool(results)
            and all(r.payload is not None for r in results)
        )
        states: list[dict[str, np.ndarray]] = []
        for result in results:
            if not packed_fast_path:
                state = result.resolve_state()
                if cfg.quantize_upload_bits is not None:
                    # Lossy round trip: the server only ever sees the
                    # dequantized upload (FL-PQSU's quantization stage).
                    from ..sparse.quantize import (
                        dequantize_state,
                        quantize_state,
                    )

                    state = dequantize_state(
                        quantize_state(state, cfg.quantize_upload_bits)
                    )
                states.append(state)
            self.comm.record_download(download)
            self.comm.record_upload(upload)
        if plan.dropped_received_broadcast:
            # Deadline stragglers pulled the model before being cut;
            # offline (dropout) clients never saw the broadcast.
            for _ in plan.dropped:
                self.comm.record_download(download)
        if not trained:
            # The whole cohort was lost (e.g. retry exhaustion on every
            # client): nothing arrived, so the round commits nothing and
            # the global state carries over unchanged.
            on_time_states = []
            self.last_participants = []
            stale_applied = 0
        elif packed_fast_path:
            # Synchronous barrier: everyone trained is aggregated, so
            # the packed uploads fold straight into the global state.
            on_time_states = []
            self.last_participants = list(trained)
            self.server.aggregate_packed(
                [r.payload for r in results],
                [client.num_samples for client in trained],
            )
            stale_applied = 0
        else:
            on_time_states = [states[p] for p in plan.on_time]
            self.last_participants = [trained[p] for p in plan.on_time]
            stale_applied = policy.aggregate(self, participants, plan, states)
        elapsed = plan.elapsed_seconds + fault_seconds
        self.sim_time += elapsed
        self._dropped_since_record += len(plan.dropped)
        on_time_set = set(plan.on_time)
        self.last_round_info = RoundInfo(
            selected_ids=tuple(c.client_id for c in participants),
            aggregated_ids=tuple(
                c.client_id for c in self.last_participants
            ),
            dropped_ids=tuple(
                participants[i].client_id for i in plan.dropped
            ),
            late_ids=tuple(
                trained[p].client_id
                for p in range(len(trained))
                if p not in on_time_set
            ),
            stale_applied=stale_applied,
            elapsed_seconds=elapsed,
        )
        return on_time_states

    def _live_model_state(self) -> dict[str, np.ndarray]:
        """The shared model's state as read-only views (no copies)."""
        view = {
            name: param.data
            for name, param in self.model.named_parameters()
        }
        for name, buf in self.model.named_buffers():
            view["buffer::" + name] = buf
        return view

    def run_streaming_sync_round(self) -> RoundInfo:
        """One synchronous FedAvg round streamed over cohort IDs.

        The fleet-scale round loop: cohort IDs are drawn without
        building clients; each selected client is materialized, pulls
        the broadcast, trains, has its live model state folded straight
        into a :class:`~repro.fl.aggregation.HierarchicalAggregator`,
        and is released before the next client is built. At most one
        client is live at a time and the server folds uploads through
        O(model) accumulators, so round memory is independent of cohort
        size. With the default fan-in the committed state, comm bytes,
        and simulated elapsed time are bitwise identical to
        :meth:`run_fedavg_round` on the same cohort.

        Limitations (by construction): synchronous barrier only,
        unquantized uploads, and ``last_participants`` is not updated —
        method round hooks belong to the materialized-compatible
        :meth:`run_fedavg_round` path.
        """
        cfg = self.config
        if cfg.round_policy != "sync":
            raise ValueError(
                "the streaming round requires round_policy='sync'"
            )
        if cfg.quantize_upload_bits is not None:
            raise ValueError(
                "the streaming round does not support quantized uploads"
            )
        participant_ids = self.sample_participant_ids()
        counts = [
            self.directory.sample_count(i) for i in participant_ids
        ]
        aggregator = HierarchicalAggregator(
            counts, fan_in=cfg.aggregation_fan_in
        )
        download = self.model_exchange_bytes()
        upload = self.upload_bytes_per_client()
        flops_per_sample = training_flops_per_sample(
            self.profile, self.server.masks
        )
        train_kwargs = dict(
            epochs=cfg.local_epochs,
            batch_size=cfg.batch_size,
            lr=cfg.lr,
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
            augment=cfg.augment,
        )
        elapsed = 0.0
        # Failure bookkeeping: a round that dies mid-way must leave no
        # trace, so snapshot the comm counters and record each cohort
        # member's round-boundary RNG position as it materializes.
        comm_before = (
            self.comm.upload_bytes, self.comm.download_bytes,
            dict(self.comm.by_phase),
        )
        round_rng_states: dict[int, dict] = {}
        self.server.broadcast()
        try:
            for client_id, count in zip(participant_ids, counts):
                client = self.directory.materialize(client_id)
                round_rng_states.setdefault(
                    client_id, client.rng.bit_generator.state
                )
                try:
                    self.server.restore_broadcast()
                    client.train(
                        self.model, collect_state=False, **train_kwargs
                    )
                    # The aggregator only reads the arrays, so the live
                    # model views go in without a get_state copy; they
                    # are consumed before the next restore_broadcast
                    # overwrites them.
                    aggregator.add_state(self._live_model_state())
                    self.comm.record_download(download)
                    self.comm.record_upload(upload)
                    seconds = float(
                        client.device.time_for(
                            flops_per_sample * cfg.local_epochs * count,
                            upload,
                            download,
                        )
                    )
                    if seconds > elapsed:
                        elapsed = seconds
                finally:
                    # Always hand the client back: a leaked live client
                    # would pin its shard and desynchronize the virtual
                    # directory's saved RNG positions.
                    self.directory.release(client_id)
        except BaseException:
            # No commit happened, so the server's authoritative state is
            # untouched; reset the shared model from the broadcast
            # snapshot instead of leaving half-trained client weights,
            # rewind every cohort RNG stream to the round boundary
            # (including clients that finished before the failure), and
            # void the aborted round's comm charges — a replay of the
            # round is bit-for-bit as if the failure never happened.
            self.server.restore_broadcast()
            self.directory.restore_rng(round_rng_states)
            upload_b, download_b, by_phase = comm_before
            self.comm.upload_bytes = upload_b
            self.comm.download_bytes = download_b
            self.comm.by_phase = by_phase
            raise
        self.server.commit_state(aggregator.finish())
        self.sim_time += elapsed
        ids = tuple(participant_ids)
        self.last_round_info = RoundInfo(
            selected_ids=ids,
            aggregated_ids=ids,
            dropped_ids=(),
            late_ids=(),
            stale_applied=0,
            elapsed_seconds=elapsed,
        )
        return self.last_round_info

    def model_exchange_bytes(self) -> int:
        """Bytes to move the current sparse model one way (float32).

        This is the *measured* size of the packed payload the transport
        codec actually ships (active values + int32 indices, dense
        fallback at the crossover), which by construction reconciles
        with the :mod:`repro.sparse.storage` accounting model — see
        :func:`repro.fl.payload.packed_nbytes`.
        """
        return packed_nbytes(self.model, self.server.masks)

    def upload_bytes_per_client(self) -> int:
        """Upload size, honoring ``quantize_upload_bits`` if enabled.

        Quantization shrinks only the *value* payload; the 4-byte flat
        indices of sparse tensors are unaffected.
        """
        bits = self.config.quantize_upload_bits
        if bits is None:
            return self.model_exchange_bytes()
        total_bits = 0
        masked = set(self.server.masks.layer_names())
        for name, param in self.model.named_parameters():
            if name in masked:
                active = self.server.masks.layer_active(name)
                total_bits += min(
                    active * (bits + 32), param.size * bits
                )
            else:
                total_bits += param.size * bits
        for _, buf in self.model.named_buffers():
            total_bits += int(buf.size) * bits
        return (total_bits + 7) // 8

    def evaluate_global(self) -> tuple[float, float]:
        """(accuracy, loss) of the global model on the test set."""
        self.server.load_into_model()
        result = evaluate(self.model, self.test_data, self.config.batch_size)
        return result.accuracy, result.loss

    def record_round(
        self,
        result: RunResult,
        round_index: int,
        train_flops: float,
    ) -> None:
        """Evaluate (if scheduled) and append a round record."""
        if (
            round_index % self.config.eval_every != 0
            and round_index != self.config.rounds
        ):
            return
        accuracy, loss = self.evaluate_global()
        upload_delta = self.comm.upload_bytes - self._recorded_upload
        download_delta = self.comm.download_bytes - self._recorded_download
        self._recorded_upload = self.comm.upload_bytes
        self._recorded_download = self.comm.download_bytes
        fault_stats = self._fault_stats_since_record
        result.record_round(
            RoundRecord(
                round_index=round_index,
                test_accuracy=accuracy,
                test_loss=loss,
                density=self.server.masks.density,
                upload_bytes=upload_delta,
                download_bytes=download_delta,
                train_flops=train_flops,
                sim_time_seconds=self.sim_time,
                dropped_clients=self._dropped_since_record,
                faults_injected=fault_stats.injected,
                retries=fault_stats.retries,
                quarantined_uploads=fault_stats.quarantined,
                recovery_actions=fault_stats.recoveries,
            )
        )
        result.failures.extend(self._failures_since_record)
        self._failures_since_record = []
        self._fault_stats_since_record = RoundFaultStats()
        self._dropped_since_record = 0

    def close(self) -> None:
        """Release the execution backend's worker resources."""
        self.executor.close()

    def __enter__(self) -> "FederatedContext":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        # The shm arena and worker pool must be released even when the
        # round loop raises; `with FederatedContext(...) as ctx:`
        # guarantees it.
        self.close()

    def degrade_executor(self) -> bool:
        """Fall back to the serial executor (graceful degradation).

        Called by the fault-recovery layer after repeated pool
        breakage. The serial backend is bitwise-identical to the pool,
        so a degraded run finishes with the same results, just without
        parallelism. Returns ``False`` when already serial.
        """
        if self.executor.name == "serial":
            return False
        _LOG.warning(
            "degrading executor %r to 'serial'", self.executor.name
        )
        self.executor.close()
        self.executor = build_executor("serial")
        return True

    def sync_comm_baseline(self) -> None:
        """Exclude traffic recorded so far from future round deltas.

        Called after one-off phases (candidate selection) whose bytes
        are accounted separately on the run result.
        """
        self._recorded_upload = self.comm.upload_bytes
        self._recorded_download = self.comm.download_bytes

    # ------------------------------------------------------------------
    # Crash-resumable runs
    # ------------------------------------------------------------------
    def checkpoint_path(self, method_name: str) -> Path | None:
        """Where this run checkpoints (``None`` when disabled)."""
        if self.config.checkpoint_dir is None:
            return None
        return Path(self.config.checkpoint_dir) / (
            f"{method_name}_{self.model_name}_{self.dataset_name}"
            f"_seed{self.config.seed}.npz"
        )

    def _checkpoint_fingerprint(self, result: RunResult) -> dict:
        """Identity of the run a checkpoint belongs to.

        Every ``result`` field of the config counts; ``resumable`` ones
        (``rounds``, the executor and its transport) do not. A snapshot
        from a shorter or killed run, or from another executor,
        legitimately resumes into a longer run.
        """
        identity = {
            "method": result.method,
            "model": self.model_name,
            "dataset": self.dataset_name,
            "target_density": result.target_density,
        }
        for spec in fields(self.config):
            if spec.metadata["role"] == "result":
                identity[spec.name] = getattr(self.config, spec.name)
        return identity

    def save_checkpoint(
        self,
        path: Path,
        result: RunResult,
        round_index: int,
        method_state: dict | None = None,
    ) -> None:
        """Snapshot the full run state after ``round_index``.

        Captures everything a bit-for-bit resume needs: the committed
        global state and masks, every RNG stream position (context,
        simulation, and per-client), the simulated clock, comm and
        failure counters, the recorded round metrics, and the method's
        own cross-round state (``method_state``, from
        :meth:`~repro.methods.base.FederatedMethod.checkpoint_state`).
        The write is atomic — a kill during checkpointing leaves the
        previous snapshot usable.
        """
        from ..nn.checkpoint import save_run_checkpoint

        stats = self._fault_stats_since_record
        meta = {
            "fingerprint": self._checkpoint_fingerprint(result),
            "round_index": round_index,
            "round_counter": self._round_counter,
            "mask_epoch": self.server.mask_epoch,
            "sim_time": self.sim_time,
            "rng_state": self.rng.bit_generator.state,
            "sim_rng_state": self.sim_rng.bit_generator.state,
            "client_rng_states": self.directory.rng_snapshot(),
            "comm": (
                self.comm.upload_bytes,
                self.comm.download_bytes,
                dict(self.comm.by_phase),
            ),
            "recorded_comm": (
                self._recorded_upload, self._recorded_download
            ),
            "dropped_since_record": self._dropped_since_record,
            "failure_log": list(self.failure_log),
            "failures_since_record": list(self._failures_since_record),
            "fault_stats_since_record": (
                stats.injected, stats.retries,
                stats.quarantined, stats.recoveries,
            ),
            "method_state": dict(method_state or {}),
            "result": {
                "rounds": [vars(r) for r in result.rounds],
                "failures": list(result.failures),
                "max_training_flops_per_round":
                    result.max_training_flops_per_round,
                "memory_footprint_bytes": result.memory_footprint_bytes,
                "selection_comm_bytes": result.selection_comm_bytes,
                "selection_flops": result.selection_flops,
                "metadata": dict(result.metadata),
            },
        }
        save_run_checkpoint(
            path,
            self.server.state,
            {name: mask for name, mask in self.server.masks.items()},
            meta,
        )

    def try_resume(
        self, path: Path, result: RunResult
    ) -> tuple[int, dict] | None:
        """Restore a :meth:`save_checkpoint` snapshot, if one exists.

        Returns ``(next_round_index, method_state)`` after installing
        the snapshot into the context and ``result``, or ``None`` when
        no checkpoint is on disk. Raises when the checkpoint belongs to
        a different run configuration — resuming across configs would
        silently produce garbage.
        """
        from ..nn.checkpoint import load_run_checkpoint

        if not path.exists():
            return None
        ckpt = load_run_checkpoint(path)
        meta = ckpt.meta
        expected = self._checkpoint_fingerprint(result)
        found = meta.get("fingerprint")
        if found != expected:
            # A checkpoint from before the fingerprint became a mapping
            # carries a tuple and differs in every key.
            differing = sorted(
                key for key, value in expected.items()
                if not isinstance(found, dict) or found.get(key) != value
            )
            raise ValueError(
                f"checkpoint {path} belongs to a different run "
                f"(differs in {differing})"
            )
        _LOG.info(
            "resuming %s from %s after round %d",
            result.method, path, ckpt.round_index,
        )
        # Server: masks first (set_masks re-applies them to the model),
        # then the committed state, then pin the epoch counter so
        # executors' mask-keyed caches line up with the original run.
        self.server.set_masks(
            MaskSet({
                name: np.asarray(mask, dtype=bool)
                for name, mask in ckpt.masks.items()
            })
        )
        self.server.commit_state(ckpt.state)
        self.server.mask_epoch = int(meta["mask_epoch"])
        # Every RNG stream back to its exact position.
        self.rng.bit_generator.state = meta["rng_state"]
        self.sim_rng.bit_generator.state = meta["sim_rng_state"]
        self.directory.restore_rng(meta["client_rng_states"])
        # Clocks and counters.
        self.sim_time = float(meta["sim_time"])
        self._round_counter = int(meta["round_counter"])
        self._dropped_since_record = int(meta["dropped_since_record"])
        upload, download, by_phase = meta["comm"]
        self.comm.upload_bytes = int(upload)
        self.comm.download_bytes = int(download)
        self.comm.by_phase = dict(by_phase)
        self._recorded_upload, self._recorded_download = (
            int(v) for v in meta["recorded_comm"]
        )
        self.failure_log = list(meta["failure_log"])
        self._failures_since_record = list(
            meta["failures_since_record"]
        )
        self._fault_stats_since_record = RoundFaultStats(
            *meta["fault_stats_since_record"]
        )
        # Round-scoped caches are stale by definition.
        self._last_participants = None
        self.last_round_info = None
        # The run record so far.
        saved = meta["result"]
        result.rounds = [RoundRecord(**d) for d in saved["rounds"]]
        result.failures = list(saved["failures"])
        result.max_training_flops_per_round = saved[
            "max_training_flops_per_round"
        ]
        result.memory_footprint_bytes = saved["memory_footprint_bytes"]
        result.selection_comm_bytes = saved["selection_comm_bytes"]
        result.selection_flops = saved["selection_flops"]
        result.metadata = dict(saved["metadata"])
        return ckpt.round_index + 1, dict(meta.get("method_state") or {})

    # ------------------------------------------------------------------
    # Mask plumbing
    # ------------------------------------------------------------------
    def install_masks(self, masks: MaskSet) -> None:
        self.server.set_masks(masks)

    def reset_model_state(self, state: dict[str, np.ndarray]) -> None:
        """Overwrite the global state (e.g. rewind for LotteryFL)."""
        set_state(self.model, state)
        self.server.commit_state(state)
