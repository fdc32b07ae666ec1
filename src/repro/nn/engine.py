"""Sparsity-aware execution-engine configuration.

The compute layers (:class:`~repro.nn.layers.Conv2d`,
:class:`~repro.nn.layers.Linear`) consult this module to decide *how* to
run, independently of *what* they compute:

``density_threshold``
    Below this parameter density a layer drops the all-zero output rows
    of its reshaped effective weight from every matrix multiplication, so
    fully-pruned output channels cost nothing. Above it the layer runs
    the plain dense kernels. Dropping exactly-zero rows never changes the
    mathematical result, but BLAS may associate the surviving partial
    sums differently for the smaller matmul shapes, so results can drift
    by a few ULPs versus the dense kernels. The threshold therefore
    defaults to ``0.0`` (dispatch off): runs stay byte-identical to the
    pre-engine substrate unless the caller opts in (``repro run
    --density-threshold``, :func:`configure`, or the environment
    variable below).

:func:`inference_mode`
    Layers skip all backward-pass bookkeeping (``_cache`` activations,
    max-pool argmax indices, BN ``x_hat`` tensors) inside this context.
    Evaluation and BN recalibration run forward-only, so the caches are
    pure memory and time overhead there.

:func:`masked_weight_grads`
    Inside this context, layers skip the weight-gradient computation for
    fully-pruned output rows. The masked SGD update (paper Eq. 5)
    multiplies gradients by the mask before applying them, so local
    training loops can enable this without changing a single update;
    growth-signal collection (paper Eq. 6) must run *outside* it so
    pruned positions keep their dense gradients.

The threshold can be pre-set for a whole process tree with the
``REPRO_DENSITY_THRESHOLD`` environment variable (read at import, so it
propagates to spawned executor workers).

:func:`pin_blas_threads`
    Runs at import: every process of a run (master, process-pool and
    network workers, sweep children) does its GEMMs on one BLAS thread,
    because the parallelism lives in the executors, and an idle OpenBLAS
    pool spins on the spare cores, burning CPU without shortening the
    run. A
    thread count set in ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
    ``OMP_NUM_THREADS`` is left alone.
"""

from __future__ import annotations

import ctypes
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "pin_blas_threads",
    "EngineConfig",
    "get_config",
    "configure",
    "dispatch_rows",
    "inference_mode",
    "caching_enabled",
    "masked_weight_grads",
    "weight_grads_masked",
    "LoweringCache",
    "lowering_cache",
    "active_lowering_cache",
]

_LOG = logging.getLogger(__name__)

# ----------------------------------------------------------------------
# BLAS thread policy
# ----------------------------------------------------------------------
#: Variables OpenBLAS reads its thread count from, highest priority first.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")
#: Thread setters of numpy's bundled scipy-openblas and of a plain build.
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                        "openblas_set_num_threads")


def _openblas_function(names: tuple[str, ...]):
    """The first of ``names`` the loaded OpenBLAS exports, or ``None``.

    The library is found in ``/proc/self/maps``, so only Linux resolves.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower()}
    except OSError as exc:
        _LOG.debug("cannot list loaded libraries: %s", exc)
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            _LOG.debug("cannot open %s: %s", path, exc)
            continue
        for name in names:
            function = getattr(lib, name, None)
            if function is not None:
                return function
    return None


def pin_blas_threads() -> bool:
    """Pin BLAS to one thread in this process and its future children.

    Unless the user set a thread count, sets ``OPENBLAS_NUM_THREADS=1``
    (so spawned children start single-threaded) and calls the loaded
    OpenBLAS's setter (so this process is pinned even though numpy was
    imported first; forked children inherit it). Returns whether this
    process was pinned; never raises.
    """
    if any(name in os.environ for name in _BLAS_THREAD_VARS):
        return False
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    setter = _openblas_function(_BLAS_THREAD_SETTERS)
    if setter is None:
        _LOG.debug("no OpenBLAS thread setter found; only child "
                   "processes are pinned to one BLAS thread")
        return False
    setter.argtypes = (ctypes.c_int,)
    setter.restype = None
    setter(1)
    return True


pin_blas_threads()

_DEFAULT_DENSITY_THRESHOLD = 0.0


@dataclass
class EngineConfig:
    """Tunable knobs of the sparsity-aware compute engine."""

    #: Sparse row dispatch activates when a prunable parameter's density
    #: is strictly below this value (0.0, the default, disables it
    #: entirely; 1.0 means always try to drop rows).
    density_threshold: float = _DEFAULT_DENSITY_THRESHOLD


def _validated_threshold(
    value: float, source: str = "density_threshold"
) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(
            f"{source} must be in [0, 1], got {value}"
        )
    return float(value)


def _initial_config() -> EngineConfig:
    raw = os.environ.get("REPRO_DENSITY_THRESHOLD")
    if raw is None:
        return EngineConfig()
    try:
        threshold = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"environment variable REPRO_DENSITY_THRESHOLD must be a "
            f"float in [0, 1], got {raw!r}"
        ) from exc
    return EngineConfig(
        density_threshold=_validated_threshold(
            threshold,
            source="environment variable REPRO_DENSITY_THRESHOLD",
        )
    )


_config = _initial_config()


def get_config() -> EngineConfig:
    """The live engine configuration (mutate via :func:`configure`)."""
    return _config


def configure(*, density_threshold: float | None = None) -> EngineConfig:
    """Update engine knobs; returns the updated config."""
    if density_threshold is not None:
        _config.density_threshold = _validated_threshold(density_threshold)
    return _config


def dispatch_rows(param, num_rows: int):
    """Active output-row indices for sparse dispatch, or ``None``.

    ``None`` means run the dense kernels: the parameter is unmasked, its
    density is at or above the threshold, or no output row is fully
    pruned (so there is nothing to drop).
    """
    if param.mask is None:
        return None
    if param.density >= _config.density_threshold:
        return None
    rows = param.active_output_rows()
    if rows.size == num_rows:
        return None
    return rows


# ----------------------------------------------------------------------
# Inference fast path (no backward bookkeeping)
# ----------------------------------------------------------------------
_inference_depth = 0


@contextmanager
def inference_mode():
    """Forward-only context: layers keep no state for ``backward``.

    A ``backward`` call after a forward pass taken inside this context
    raises ``RuntimeError("backward called before forward")``, exactly as
    if no forward had run.
    """
    global _inference_depth
    _inference_depth += 1
    try:
        yield
    finally:
        _inference_depth -= 1


def caching_enabled() -> bool:
    """Whether layers should record backward-pass caches."""
    return _inference_depth == 0


# ----------------------------------------------------------------------
# Masked weight gradients (training fast path)
# ----------------------------------------------------------------------
_masked_grad_depth = 0


@contextmanager
def masked_weight_grads():
    """Skip weight gradients of fully-pruned output rows.

    Only safe where gradients feed a *masked* update (local SGD); never
    wrap growth-signal collection in this.
    """
    global _masked_grad_depth
    _masked_grad_depth += 1
    try:
        yield
    finally:
        _masked_grad_depth -= 1


def weight_grads_masked() -> bool:
    """Whether fully-pruned-row weight gradients may be skipped."""
    return _masked_grad_depth > 0


# ----------------------------------------------------------------------
# Lowering cache (candidate-selection fast path)
# ----------------------------------------------------------------------
class LoweringCache:
    """Memoized ``im2col`` lowerings of registered, immutable inputs.

    The im2col lowering is a pure relayout of its input: it depends on
    the input values and the layer geometry, never on parameter values
    or masks. During candidate selection the same dev batches are pushed
    through ``C`` candidate structures, so the lowering of every layer
    whose input *is* a dev batch (the stem convolution) is recomputed
    ``C`` times for bytes that cannot change.

    The cache is keyed by strict object identity: a caller registers the
    batch arrays it promises not to mutate (:meth:`register_source`),
    and :meth:`lowering` serves a memoized column matrix only when the
    layer's input **is** one of those arrays. Any other input — every
    deeper layer, whose activations do depend on the candidate masks —
    falls through to a fresh computation and is never cached, so a hit
    is bit-identical to recomputation by construction. Layers consult
    the cache only in inference mode (no backward bookkeeping), keeping
    every training path untouched; the dispatch decision itself still
    runs through the version-tagged ``Parameter`` caches.

    Cached column matrices must be treated as read-only by consumers
    (the conv forward only ever multiplies them).
    """

    def __init__(self) -> None:
        # id(array) -> (array, source_key); the stored reference keeps
        # the array alive, so a registered id can never be recycled.
        self._sources: dict[int, tuple] = {}
        self._entries: dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0

    def register_source(self, array, key) -> None:
        """Promise that ``array`` is immutable and identified by ``key``."""
        self._sources[id(array)] = (array, key)

    def lowering(self, layer, x, kind: tuple, compute):
        """The lowering of ``x`` for ``layer``, memoized when possible.

        ``kind`` distinguishes lowering layouts (patch-major vs
        kernel-major) and geometry; ``compute`` is a zero-argument
        callable producing the column matrix.
        """
        source = self._sources.get(id(x))
        if source is None or source[0] is not x:
            return compute()
        key = (id(layer), kind, source[1])
        col = self._entries.get(key)
        if col is None:
            col = compute()
            self._entries[key] = col
            self.misses += 1
        else:
            self.hits += 1
        return col

    def clear(self) -> None:
        """Drop every registered source and memoized lowering."""
        self._sources.clear()
        self._entries.clear()


_lowering_cache_stack: list[LoweringCache] = []


@contextmanager
def lowering_cache(cache: LoweringCache):
    """Expose ``cache`` to the compute layers for this context."""
    _lowering_cache_stack.append(cache)
    try:
        yield cache
    finally:
        _lowering_cache_stack.pop()


def active_lowering_cache() -> LoweringCache | None:
    """The innermost active lowering cache, or ``None``."""
    if not _lowering_cache_stack:
        return None
    return _lowering_cache_stack[-1]
