"""The BLAS thread policy: one OpenBLAS thread in every process of a run.

``repro.nn.engine`` pins BLAS at import. The policy's own checks run in
fresh interpreters with every thread-count variable stripped, so they
test the policy and not whatever the calling shell exports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.nn import engine

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")

pytestmark = pytest.mark.skipif(
    engine._openblas_function(_GETTERS) is None,
    reason="numpy is not linked against a findable OpenBLAS",
)


def _blas_threads() -> int:
    """Probe task: this process's OpenBLAS thread count."""
    import ctypes

    from repro.nn import engine

    getter = engine._openblas_function(_GETTERS)
    getter.argtypes = ()
    getter.restype = ctypes.c_int
    return getter()


def _run_python(script: Path, **env_overrides: str) -> str:
    env = {k: v for k, v in os.environ.items()
           if k not in engine._BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC, str(Path(__file__).parent)]
    )
    env.update(env_overrides)
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


_PROBE_SCRIPT = """\
import json
import multiprocessing
import types
from concurrent.futures import ProcessPoolExecutor

import numpy  # imported first: the pin must still reach this process
import repro
from repro.fl.executor import ProcessPoolClientExecutor

from test_blas_threads import _blas_threads

if __name__ == "__main__":
    report = {"master": _blas_threads()}
    executor = ProcessPoolClientExecutor(max_workers=1)
    pool = executor._ensure_pool(
        types.SimpleNamespace(directory=None, model=None)
    )
    report["pool_worker"] = pool.submit(_blas_threads).result(timeout=60)
    executor.close()
    # Network workers and sweep children are spawn-started.
    with ProcessPoolExecutor(
        1, mp_context=multiprocessing.get_context("spawn")
    ) as spawned:
        report["spawned_worker"] = spawned.submit(_blas_threads).result(
            timeout=60
        )
    print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def probe_report(tmp_path_factory) -> dict:
    script = tmp_path_factory.mktemp("blas") / "probe.py"
    script.write_text(_PROBE_SCRIPT)
    return json.loads(_run_python(script))


class TestThreadPolicy:
    def test_master_is_pinned_after_import(self, probe_report):
        assert probe_report["master"] == 1

    def test_process_pool_worker_is_pinned(self, probe_report):
        assert probe_report["pool_worker"] == 1

    def test_spawned_worker_is_pinned(self, probe_report):
        assert probe_report["spawned_worker"] == 1

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="OpenBLAS caps its threads at the cores")
    def test_explicit_thread_count_is_honoured(self, tmp_path):
        script = tmp_path / "explicit.py"
        script.write_text(
            "import repro\n"
            "from test_blas_threads import _blas_threads\n"
            "print(_blas_threads())\n"
        )
        assert _run_python(script, OPENBLAS_NUM_THREADS="2").strip() == "2"

    def test_explicit_env_is_not_overwritten(self, monkeypatch):
        for name in engine._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        assert engine.pin_blas_threads() is False
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    def test_missing_setter_falls_back_to_env_only(self, monkeypatch,
                                                   caplog):
        for name in engine._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(engine, "_BLAS_THREAD_SETTERS",
                            ("no_such_blas_symbol",))
        with caplog.at_level("DEBUG", logger=engine.__name__):
            assert engine.pin_blas_threads() is False
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        assert "no OpenBLAS thread setter" in caplog.text


_GEMM_SCRIPT = """\
import os
import time

import numpy as np
import repro

a = np.random.default_rng(0).random((256, 256), dtype=np.float32)
b = a.T.copy()
for _ in range(20):  # warm up the BLAS kernels
    a @ b
cpu0, wall0 = os.times(), time.perf_counter()
while time.perf_counter() - wall0 < 1.0:
    a @ b
cpu1, wall = os.times(), time.perf_counter() - wall0
cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
print(cpu / wall)
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="oversubscription needs a second core")
def test_gemm_loop_does_not_oversubscribe(tmp_path):
    """CPU/wall gate: an idle BLAS pool spinning on a spare core shows
    up as process CPU time well above wall time (~2x on two cores)."""
    script = tmp_path / "gemm.py"
    script.write_text(_GEMM_SCRIPT)
    ratio = float(_run_python(script))
    assert ratio <= 1.1, f"process CPU/wall {ratio:.2f} > 1.1"
