"""Outside-in tracing of one run: spans recorded around calls into repro.

Nothing here edits the program. :func:`patch` replaces a public function
or method of a ``repro`` module with a wrapper, in the defining module and
in every ``repro`` module that imported the same object by name, so calls
that were bound by ``from x import f`` are seen too. Only the master
process is traced: executor workers are spawned from a fresh import and
run the unwrapped code.

Spans are kept in memory as ``(id, name, start, end, parent, thread)``.
Parentage is per thread, because the network server's handlers run on
their own threads. A layer's inclusive time counts only its outermost
span, so nested lowering variants are not counted twice; its self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pickle
import sys
import threading
import time
from collections import Counter, defaultdict

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes


class SetupDone(Exception):
    """Raised at the first round of a set-up-only run."""


def patch(module_name: str, qualname: str, make) -> None:
    """Replace ``module_name.qualname`` with ``make(original)``."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return
    original = getattr(module, attr)
    wrapper = make(original)
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


class RoundClock:
    """Round boundaries, installed in every run, traced or not.

    A round runs from the method's ``train_round`` call to the end of the
    context's ``record_round`` (which evaluates). Set-up is everything
    before the first round starts.
    """

    def __init__(self, tracer: "Tracer | None", setup_only: bool) -> None:
        self.tracer = tracer
        self.setup_only = setup_only
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.train_samples = 0
        self._span = None

    def install(self) -> None:
        patch("repro.methods.base", "FederatedMethod.train_round",
              self._wrap_train_round)
        patch("repro.fl.simulation", "FederatedContext.record_round",
              self._wrap_record_round)

    def _wrap_train_round(self, fn):
        @functools.wraps(fn)
        def train_round(method, ctx, round_index):
            self.starts.append(clock())
            if self.setup_only:
                raise SetupDone
            if self.tracer is not None:
                self._span = self.tracer.begin("fl.round")
            states = fn(method, ctx, round_index)
            self.train_samples += ctx.config.local_epochs * sum(
                client.num_samples for client in ctx.last_participants
            )
            return states
        return train_round

    def _wrap_record_round(self, fn):
        @functools.wraps(fn)
        def record_round(ctx, *args, **kwargs):
            try:
                return fn(ctx, *args, **kwargs)
            finally:
                if self.tracer is not None:
                    self.tracer.end(self._span)
                self.ends.append(clock())
        return record_round


class Tracer:
    """In-memory span recorder with per-thread parentage and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: dict[int, tuple] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def begin(self, name: str) -> int:
        """Open a span that :meth:`end` closes (same thread, nested)."""
        stack = self._stack()
        sid = next(self._ids)
        self._open[sid] = (
            name, clock(), stack[-1] if stack else None,
            threading.get_ident(),
        )
        stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        name, start, parent, thread = self._open.pop(sid)
        stack = self._stack()
        if stack[-1] != sid:
            raise RuntimeError(f"span {name} closed out of order")
        stack.pop()
        self.spans.append((sid, name, start, clock(), parent, thread))

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span measured elsewhere."""
        self.spans.append(
            (next(self._ids), name, start, end, None, threading.get_ident())
        )

    def wrapper(self, name: str, after=None):
        """A ``make`` for :func:`patch` that records one span per call.

        ``after(tracer, arguments, result)`` adds counts from a call's
        bound arguments and result.
        """
        def make(fn):
            spans, ids = self.spans, self._ids
            signature = inspect.signature(fn) if after else None
            stack_of = self._stack

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack = stack_of()
                sid = next(ids)
                parent = stack[-1] if stack else None
                stack.append(sid)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((sid, name, start, end, parent,
                                  threading.get_ident()))
                if after is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(self, bound.arguments, result)
                return result
            return traced
        return make

    # ------------------------------------------------------------------
    # Analysis and export
    # ------------------------------------------------------------------
    def layer_table(self) -> dict[str, dict]:
        """Per span name: inclusive seconds, self seconds and calls."""
        by_id = {span[0]: span for span in self.spans}
        covered = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        table: dict[str, dict] = {}
        for sid, name, start, end, parent, _ in self.spans:
            row = table.setdefault(
                name, {"inclusive_s": 0.0, "self_s": 0.0, "calls": 0}
            )
            row["calls"] += 1
            row["self_s"] += (end - start) - covered[sid]
            ancestor = parent
            while ancestor is not None and by_id[ancestor][1] != name:
                ancestor = by_id[ancestor][4]
            if ancestor is None:
                row["inclusive_s"] += end - start
        return table

    def first_duration(self, name: str) -> float:
        """Duration of the earliest span called ``name`` (0 if none)."""
        spans = [span for span in self.spans if span[1] == name]
        if not spans:
            return 0.0
        _, _, start, end, _, _ = min(spans, key=lambda span: span[2])
        return end - start

    def top_level_coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by main-thread root spans."""
        main = threading.main_thread().ident
        intervals = sorted(
            (s, e) for _, _, s, e, parent, thread in self.spans
            if parent is None and thread == main
        )
        covered, reach = 0.0, start
        for s, e in intervals:
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        return covered / (end - start)

    def write_chrome_trace(self, path: str, origin: float) -> None:
        """Chrome trace-event JSON; opens in Perfetto as is."""
        threads = {threading.main_thread().ident: 0}
        events = []
        for sid, name, start, end, parent, thread in self.spans:
            tid = threads.setdefault(thread, len(threads))
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": sid, "parent": parent},
            })
        events.sort(key=lambda event: event["ts"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


# ----------------------------------------------------------------------
# What the traced run wraps: (module, qualname, span name, counter hook)
# ----------------------------------------------------------------------
def _frame_bytes(meta, blob) -> int:
    from repro.fl.transport import _FRAME

    meta_bytes = pickle.dumps(
        meta if meta is not None else {}, protocol=pickle.HIGHEST_PROTOCOL
    )
    return _FRAME.size + len(meta_bytes) + len(blob)


def _count_sent(tracer, arguments, result) -> None:
    tracer.count("fl.transport.frames")
    tracer.count(
        "fl.transport.bytes",
        _frame_bytes(arguments["meta"], arguments["blob"]),
    )


def _count_received(tracer, arguments, result) -> None:
    _, meta, blob = result
    tracer.count("fl.transport.frames")
    tracer.count("fl.transport.bytes", _frame_bytes(meta, blob))


def _count_ingest(tracer, arguments, result) -> None:
    tracer.count("fl.server.ingest.submitted")
    if result == "accepted":
        tracer.count("fl.server.ingest.accepted")


def _count_adjustments(tracer, arguments, result) -> None:
    if result is not None:
        tracer.count("core.progressive.adjustments", result.total_adjusted)


def _count_selection_pairs(tracer, arguments, result) -> None:
    tracer.count(
        "core.selection.pairs",
        len(arguments["candidates"]) * len(arguments["ctx"].sample_counts),
    )


TARGETS = [
    ("repro.experiments.runner", "prepare_data", "data.prepare", None),
    ("repro.experiments.runner", "make_context", "setup.context", None),
    ("repro.fl.training", "server_pretrain", "fl.training.pretrain", None),
    ("repro.pruning.candidate_pool", "generate_candidate_pool",
     "pruning.candidate_pool", None),
    ("repro.core.adaptive_bn", "AdaptiveBNSelection.select",
     "core.selection", _count_selection_pairs),
    ("repro.core.progressive", "ProgressivePruner.maybe_adjust",
     "core.progressive", _count_adjustments),
    ("repro.fl.executor", "SerialExecutor.run_clients",
     "fl.executor.run_clients", None),
    ("repro.fl.executor", "ProcessPoolClientExecutor.run_clients",
     "fl.executor.run_clients", None),
    ("repro.fl.executor", "NetworkClientExecutor.run_clients",
     "fl.executor.run_clients", None),
    ("repro.fl.client", "Client.train", "fl.client.train", None),
    ("repro.fl.simulation", "FederatedContext.evaluate_global",
     "fl.evaluate", None),
    ("repro.fl.simulation", "FederatedContext.close", "fl.close", None),
    ("repro.fl.server", "Server.aggregate", "fl.server.aggregate", None),
    ("repro.fl.server", "Server.aggregate_packed",
     "fl.server.aggregate", None),
    ("repro.fl.server", "RoundIngest.submit", "fl.server.ingest",
     _count_ingest),
    ("repro.fl.payload", "pack_state", "fl.payload.encode", None),
    ("repro.fl.payload", "pack_model_state", "fl.payload.encode", None),
    ("repro.fl.payload", "ModelBinding.pack", "fl.payload.encode", None),
    ("repro.fl.payload", "StatePacker.pack", "fl.payload.encode", None),
    ("repro.fl.payload", "unpack_state", "fl.payload.decode", None),
    ("repro.fl.payload", "unpack_into_model", "fl.payload.decode", None),
    ("repro.fl.payload", "PackedPayload.from_bytes",
     "fl.payload.decode", None),
    ("repro.fl.transport", "send_frame", "fl.transport.send", _count_sent),
    ("repro.fl.transport", "recv_frame", "fl.transport.recv_wait",
     _count_received),
    ("repro.nn.layers.conv", "Conv2d.forward", "nn.conv.forward", None),
    ("repro.nn.layers.conv", "Conv2d.backward", "nn.conv.backward", None),
    ("repro.nn.functional", "im2col", "nn.lowering.im2col", None),
    ("repro.nn.functional", "im2col_kernel_major",
     "nn.lowering.im2col", None),
    ("repro.nn.functional", "im2col_reference",
     "nn.lowering.im2col", None),
    ("repro.nn.functional", "col2im", "nn.lowering.col2im", None),
    ("repro.nn.functional", "col2im_kernel_major",
     "nn.lowering.col2im", None),
    ("repro.nn.functional", "col2im_reference",
     "nn.lowering.col2im", None),
    ("repro.nn.layers.batchnorm", "BatchNorm2d.forward", "nn.bn.forward",
     None),
    ("repro.nn.layers.batchnorm", "BatchNorm2d.backward",
     "nn.bn.backward", None),
    ("repro.nn.layers.linear", "Linear.forward", "nn.linear.forward", None),
    ("repro.nn.layers.linear", "Linear.backward", "nn.linear.backward",
     None),
    ("repro.nn.optim", "SGD.step", "nn.optim.step", None),
]

#: Every span name the traced run can report, in table order.
LAYERS = ["setup.import", "fl.round"] + list(
    dict.fromkeys(target[2] for target in TARGETS)
)


def install(tracer: Tracer) -> None:
    for module_name, qualname, name, after in TARGETS:
        patch(module_name, qualname, tracer.wrapper(name, after))
