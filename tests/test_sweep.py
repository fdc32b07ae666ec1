"""Tests for the crash-resumable sweep orchestrator.

The chaos suite here pins the ISSUE-10 acceptance invariant: a sweep
killed at any seeded point (including mid-journal-append) and resumed
must produce a results store byte-identical to the uninterrupted
sweep, with exactly-once execution per RunSpec. Fast cases drive the
orchestrator with an injected in-process runner (serial isolation);
a small number of slow cases exercise real child processes, the
watchdog, and a real ``kill -9`` of the CLI.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.journal import (
    SWEEP_SCOPE,
    JournalEntry,
    JournalError,
    SweepJournal,
    read_index,
    resolve_states,
    write_index,
)
from repro.experiments.specs import (
    RunSpec,
    expand_grid,
    parse_axis_value,
)
from repro.experiments.sweep import (
    GridScheduler,
    SweepKilled,
    SweepOrchestrator,
    available_schedulers,
    register_scheduler,
)
from repro.fl.faults import RetryPolicy
from repro.metrics.tracker import RoundRecord, RunResult

#: Same run-fault boundaries as CHAOS but without journal tears: the
#: byte-identity reference (tears *are* kills, so an "uninterrupted"
#: sweep by definition draws none).
RUN_FAULTS = "run_crash:0.12,run_hang:0.06"
CHAOS = "run_crash:0.12,run_hang:0.06,journal_torn_write:0.08"


def fake_runner(spec, config_extras):
    """Deterministic stand-in for a real federated run."""
    result = RunResult(
        method=spec.method, dataset=spec.dataset, model=spec.model,
        target_density=spec.target_density,
    )
    result.record_round(RoundRecord(
        0, 0.5 + spec.seed * 0.01 + spec.target_density,
        1.0 - spec.target_density, spec.target_density, 100, 200, 1e6,
    ))
    return result


def small_grid():
    return expand_grid(
        {"density": [0.05, 0.1], "seed": [0, 1]},
        {"method": "fedtiny", "scale": "tiny"},
    )


def run_to_completion(out, max_resumes=100, runner=fake_runner):
    """Resume a killed sweep until it completes; count the resumes."""
    for resumes in range(max_resumes):
        orchestrator = SweepOrchestrator(out, resume=True, runner=runner)
        try:
            return orchestrator.execute(), resumes
        except SweepKilled:
            continue
    raise AssertionError("sweep did not complete within the resume budget")


# ----------------------------------------------------------------------
# RunSpec / grid expansion
# ----------------------------------------------------------------------
class TestRunSpec:
    def test_fingerprint_is_order_and_alias_stable(self):
        a = RunSpec("fedtiny", overrides=(("rounds", 3),
                                          ("quantize_bits", 8)))
        b = RunSpec("fedtiny", overrides=(("quantize_upload_bits", 8),
                                          ("rounds", 3)))
        assert a.fingerprint() == b.fingerprint()
        assert a == b

    def test_execution_only_keys_do_not_change_identity(self):
        plain = RunSpec("fedtiny")
        checkpointed = RunSpec("fedtiny", overrides=(
            ("checkpoint_dir", "/tmp/x"), ("checkpoint_every", 1),
            ("resume", True),
        ))
        assert plain.fingerprint() == checkpointed.fingerprint()

    @pytest.mark.parametrize("spec, digest", [
        (RunSpec("fedtiny"),
         "39e016abb29cb575874c5acf86d595156052df398506509164a18c7aef3a4b5f"),
        (RunSpec("fedtiny", overrides=(("quantize_bits", 8),)),
         "a64c6940b65adb6a6e9dc296425290590077e1fbf6fb818aff87765e43501306"),
        (RunSpec("fedavg", model="vgg11", target_density=1.0, scale="tiny",
                 dirichlet_alpha=None, seed=3, pool_size=2, overrides=(
                     ("executor", "network"), ("executor_workers", 2),
                     ("rounds", 3), ("checkpoint_dir", "ck"),
                     ("checkpoint_every", 2), ("resume", True))),
         "e578c2f0b976fc25d6ebd2aa67d359e34d6a30873f0fec4b32c8c3a6d398ba18"),
    ])
    def test_fingerprint_is_pinned(self, spec, digest):
        # Journaled sweeps re-verify runs by these digests on resume.
        assert spec.fingerprint() == digest

    def test_from_dict_missing_keys_take_the_defaults(self):
        assert RunSpec.from_dict({"method": "fedtiny"}) == RunSpec("fedtiny")
        assert RunSpec.from_dict(
            {"method": "fedtiny"}
        ).dirichlet_alpha == 0.5

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown config override"):
            RunSpec("fedtiny", overrides=(("no_such_knob", 1),))

    def test_non_scalar_override_rejected(self):
        with pytest.raises(ValueError, match="JSON scalar"):
            RunSpec("fedtiny", overrides=(("rounds", [1, 2]),))

    def test_none_override_means_preset_default(self):
        spec = RunSpec("fedtiny", overrides=(("rounds", None),))
        assert spec.overrides == ()
        assert spec.fingerprint() == RunSpec("fedtiny").fingerprint()

    def test_dict_roundtrip(self):
        spec = RunSpec("snip", model="vgg11", target_density=0.1,
                       seed=3, overrides=(("rounds", 2),))
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_expand_grid_order_and_axis_mapping(self):
        specs = expand_grid(
            {"density": [0.05, 0.1], "rounds": [1, 2]},
            {"method": "fedtiny", "scale": "tiny"},
        )
        assert len(specs) == 4
        # Last axis varies fastest; non-core names become overrides.
        assert [s.target_density for s in specs] == [0.05, 0.05, 0.1, 0.1]
        assert [dict(s.overrides)["rounds"] for s in specs] == [1, 2, 1, 2]
        assert specs == expand_grid(
            {"density": [0.05, 0.1], "rounds": [1, 2]},
            {"method": "fedtiny", "scale": "tiny"},
        )

    def test_expand_grid_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown config override"):
            expand_grid({"bogus": [1]}, {"method": "fedtiny"})

    def test_expand_grid_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="no values"):
            expand_grid({"density": []}, {"method": "fedtiny"})

    def test_parse_axis_value(self):
        assert parse_axis_value("3") == 3
        assert parse_axis_value("0.5") == 0.5
        assert parse_axis_value("true") is True
        assert parse_axis_value("none") is None
        assert parse_axis_value("fedavg") == "fedavg"


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = SweepJournal.open(path)
        journal.append("r0", "running", attempt=0, detail="x")
        journal.append("r0", "done")
        journal.close()
        entries = SweepJournal.replay(path)
        assert [(e.run_id, e.state, e.seq) for e in entries] == [
            ("r0", "running", 0), ("r0", "done", 1),
        ]

    def test_torn_tail_ignored_and_repaired(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = SweepJournal.open(path)
        journal.append("r0", "running")
        journal.append("r0", "done", torn=True)  # simulated power cut
        journal.close()
        # Replay tolerates the torn tail without repairing it.
        assert [e.state for e in SweepJournal.replay(path)] == ["running"]
        # Reopening repairs: terminates the garbage and journals it.
        reopened = SweepJournal.open(path)
        assert reopened.repaired_tail
        assert reopened.repair_epoch == 1
        states = [e.state for e in reopened.entries]
        assert states == ["running", "torn_repaired"]
        reopened.append("r0", "done")
        reopened.close()
        assert [e.state for e in SweepJournal.replay(path)] == [
            "running", "torn_repaired", "done",
        ]

    def test_interior_damage_without_repair_marker_raises(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = SweepJournal.open(path)
        journal.append("r0", "running")
        journal.close()
        text = path.read_text()
        path.write_text("garbage not json\n" + text)
        with pytest.raises(JournalError, match="damaged"):
            SweepJournal.replay(path)

    def test_seq_gap_raises(self, tmp_path):
        path = tmp_path / "j.journal"
        entry = JournalEntry(seq=5, run_id="r0", state="running")
        path.write_text(entry.to_line())
        with pytest.raises(JournalError, match="seq"):
            SweepJournal.replay(path)

    def test_invalid_state_raises(self):
        with pytest.raises(JournalError, match="invalid state"):
            JournalEntry(seq=0, run_id="r0", state="exploded")
        with pytest.raises(JournalError, match="invalid state"):
            JournalEntry(seq=0, run_id=SWEEP_SCOPE, state="running")

    def test_duplicate_done_violates_exactly_once(self):
        entries = [
            JournalEntry(0, "r0", "running"),
            JournalEntry(1, "r0", "done"),
            JournalEntry(2, "r0", "done"),
        ]
        with pytest.raises(JournalError, match="exactly-once"):
            resolve_states(entries)

    def test_resolve_counts_failed_attempts(self):
        entries = [
            JournalEntry(0, "r0", "running", attempt=0),
            JournalEntry(1, "r0", "failed", attempt=0),
            JournalEntry(2, "r0", "running", attempt=1),
            JournalEntry(3, "r0", "failed", attempt=1),
        ]
        assert resolve_states(entries) == {"r0": ("failed", 2)}

    def test_index_version_check(self, tmp_path):
        path = tmp_path / "index.json"
        write_index(path, {"runs": []})
        assert read_index(path)["runs"] == []
        path.write_text('{"format_version": 99}')
        with pytest.raises(JournalError, match="version"):
            read_index(path)


# ----------------------------------------------------------------------
# Chaos: kill/resume byte-identity and exactly-once execution
# ----------------------------------------------------------------------
class TestSweepChaos:
    def test_kill_resume_byte_identity_over_seeded_points(self, tmp_path):
        specs = small_grid()
        reference = SweepOrchestrator(
            tmp_path / "ref", specs, runner=fake_runner,
            faults=RUN_FAULTS, sweep_seed=3,
        )
        reference.execute()
        golden = (tmp_path / "ref" / "results.json").read_bytes()

        killed = 0
        for kill_point in range(1, 13):
            out = tmp_path / f"kill{kill_point}"
            orchestrator = SweepOrchestrator(
                out, specs, runner=fake_runner,
                faults=CHAOS, sweep_seed=3,
                kill_after_events=kill_point,
            )
            try:
                orchestrator.execute()
            except SweepKilled:
                killed += 1
                run_to_completion(out)
            assert (out / "results.json").read_bytes() == golden, (
                f"store diverged after kill point {kill_point}"
            )
            # Exactly-once: every run journals done exactly once.
            entries = SweepJournal.replay(out / "sweep.journal")
            done = [e.run_id for e in entries if e.state == "done"]
            assert sorted(done) == sorted(set(done))
        assert killed >= 5, "chaos suite must cover >= 5 seeded kills"

    def test_completed_runs_never_reexecute_after_resume(self, tmp_path):
        specs = small_grid()
        out = tmp_path / "sweep"
        calls: list[str] = []

        def counting_runner(spec, config_extras):
            calls.append(spec.fingerprint())
            return fake_runner(spec, config_extras)

        orchestrator = SweepOrchestrator(
            out, specs, runner=counting_runner, kill_after_events=5,
        )
        with pytest.raises(SweepKilled):
            orchestrator.execute()
        done_before = {
            run_id for run_id, (state, _) in resolve_states(
                SweepJournal.replay(out / "sweep.journal")
            ).items() if state == "done"
        }
        assert done_before, "kill point must land after some completions"
        finished = {
            fp for fp, run_id in zip(
                (s.fingerprint() for s in specs),
                (f"{i:04d}-{s.fingerprint()[:12]}"
                 for i, s in enumerate(specs)),
            ) if run_id in done_before
        }
        calls.clear()
        run_to_completion(out, runner=counting_runner)
        assert not (set(calls) & finished), (
            "a journaled-done run was re-executed on resume"
        )

    def test_torn_journal_write_repairs_and_converges(self, tmp_path):
        specs = small_grid()
        reference = SweepOrchestrator(
            tmp_path / "ref", specs, runner=fake_runner,
        )
        reference.execute()
        golden = (tmp_path / "ref" / "results.json").read_bytes()

        out = tmp_path / "torn"
        orchestrator = SweepOrchestrator(
            out, specs, runner=fake_runner,
            faults="journal_torn_write:0.35", sweep_seed=11,
        )
        tears = 0
        try:
            orchestrator.execute()
        except SweepKilled:
            tears += 1
            _, resumes = run_to_completion(out)
            tears += resumes
        assert tears >= 1, "tear probability did not fire; reseed the test"
        entries = SweepJournal.replay(out / "sweep.journal")
        repairs = [e for e in entries
                   if e.run_id == SWEEP_SCOPE and e.state == "torn_repaired"]
        assert len(repairs) == tears
        # Journal tears never touch results: byte-identical store.
        assert (out / "results.json").read_bytes() == golden

    def test_random_scheduler_interleavings_assemble_identically(
        self, tmp_path
    ):
        specs = small_grid()
        SweepOrchestrator(
            tmp_path / "grid", specs, runner=fake_runner,
        ).execute()
        golden = (tmp_path / "grid" / "results.json").read_bytes()
        for seed in (1, 2, 3):
            out = tmp_path / f"random{seed}"
            SweepOrchestrator(
                out, specs, runner=fake_runner,
                scheduler="random", sweep_seed=seed,
            ).execute()
            # The store is assembled in grid order whatever order the
            # scheduler executed in, and every spec ran exactly once.
            assert (out / "results.json").read_bytes() == golden
            entries = SweepJournal.replay(out / "sweep.journal")
            done = [e.run_id for e in entries if e.state == "done"]
            assert len(done) == len(specs) == len(set(done))


# ----------------------------------------------------------------------
# Defenses: retry, quarantine, abort, degradation guards
# ----------------------------------------------------------------------
class TestSweepDefenses:
    def test_poisoned_config_quarantined_rest_completes(self, tmp_path):
        specs = small_grid()
        poisoned = specs[1].fingerprint()

        def sometimes_poisoned(spec, config_extras):
            if spec.fingerprint() == poisoned:
                raise RuntimeError("this config always explodes")
            return fake_runner(spec, config_extras)

        out = tmp_path / "sweep"
        report = SweepOrchestrator(
            out, specs, runner=sometimes_poisoned,
            retry=RetryPolicy(max_attempts=2),
        ).execute()
        assert report.done == len(specs) - 1
        assert report.quarantined == 1
        assert report.retries == 1  # one extra attempt before quarantine
        kinds = [(f.kind, f.action) for f in report.failures]
        assert kinds.count(("run_exception", "retried")) == 2
        assert ("retry_exhausted", "quarantined") in kinds
        # The quarantined run is excluded from the store; the rest ship.
        store = json.loads((out / "results.json").read_text())
        assert len(store["results"]) == len(specs) - 1

    def test_max_failures_aborts_cleanly(self, tmp_path):
        def always_broken(spec, config_extras):
            raise RuntimeError("environment is on fire")

        out = tmp_path / "sweep"
        report = SweepOrchestrator(
            out, small_grid(), runner=always_broken,
            retry=RetryPolicy(max_attempts=1), max_failures=0,
        ).execute()
        assert report.aborted
        assert report.quarantined == 1
        assert report.pending == 3
        assert report.store_path is None
        entries = SweepJournal.replay(out / "sweep.journal")
        assert any(e.state == "aborted" for e in entries)

    def test_fresh_sweep_refuses_existing_dir(self, tmp_path):
        out = tmp_path / "sweep"
        SweepOrchestrator(out, small_grid()[:1], runner=fake_runner).execute()
        with pytest.raises(JournalError, match="already holds a sweep"):
            SweepOrchestrator(
                out, small_grid()[:1], runner=fake_runner
            ).execute()

    def test_duplicate_specs_rejected(self, tmp_path):
        spec = RunSpec("fedtiny", scale="tiny")
        with pytest.raises(ValueError, match="duplicate"):
            SweepOrchestrator(
                tmp_path / "sweep", [spec, spec], runner=fake_runner
            ).execute()

    def test_resume_rejects_mismatched_grid(self, tmp_path):
        out = tmp_path / "sweep"
        specs = small_grid()
        with pytest.raises(SweepKilled):
            SweepOrchestrator(
                out, specs, runner=fake_runner, kill_after_events=2,
            ).execute()
        with pytest.raises(JournalError, match="does not match"):
            SweepOrchestrator(
                out, specs[:2], resume=True, runner=fake_runner,
            ).execute()

    def test_resume_restores_identity_knobs_from_index(self, tmp_path):
        out = tmp_path / "sweep"
        with pytest.raises(SweepKilled):
            SweepOrchestrator(
                out, small_grid(), runner=fake_runner,
                faults=RUN_FAULTS, sweep_seed=7, kill_after_events=2,
                retry=RetryPolicy(max_attempts=5),
            ).execute()
        resumed = SweepOrchestrator(
            out, resume=True, runner=fake_runner,
            faults="run_crash:0.9", sweep_seed=999,
        )
        resumed.execute()
        assert resumed.faults == RUN_FAULTS
        assert resumed.sweep_seed == 7
        assert resumed.retry.max_attempts == 5
        assert resumed.report.resumed

    def test_resume_requires_an_index(self, tmp_path):
        with pytest.raises(JournalError, match="nothing to resume"):
            SweepOrchestrator(
                tmp_path / "missing", resume=True, runner=fake_runner,
            ).execute()

    def test_done_run_with_missing_artifact_refuses_resume(self, tmp_path):
        out = tmp_path / "sweep"
        specs = small_grid()[:2]
        SweepOrchestrator(out, specs, runner=fake_runner).execute()
        victim = next((out / "runs").iterdir())
        victim.unlink()
        with pytest.raises(JournalError, match="missing"):
            SweepOrchestrator(
                out, resume=True, runner=fake_runner
            ).execute()

    def test_scheduler_registry(self, tmp_path):
        assert available_schedulers() == sorted(available_schedulers())
        assert "grid" in available_schedulers()
        assert "random" in available_schedulers()
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler("grid", GridScheduler)
        with pytest.raises(ValueError, match="unknown scheduler"):
            SweepOrchestrator(
                tmp_path / "sweep", small_grid()[:1],
                runner=fake_runner, scheduler="bayesopt",
            ).execute()

    def test_report_json_roundtrips(self, tmp_path):
        report = SweepOrchestrator(
            tmp_path / "sweep", small_grid()[:1], runner=fake_runner,
        ).execute()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["done"] == 1
        assert payload["failures"] == []


# ----------------------------------------------------------------------
# Real child processes, the watchdog, and a real kill -9 of the CLI
# ----------------------------------------------------------------------
def _one_round_specs(count=2):
    return [
        RunSpec(method="fedavg", scale="tiny", seed=seed,
                overrides=(("rounds", 1),))
        for seed in range(count)
    ]


class TestSweepProcessIsolation:
    def test_process_isolation_matches_serial_bytes(self, tmp_path):
        specs = _one_round_specs()
        SweepOrchestrator(
            tmp_path / "proc", specs,
            isolation="process", watchdog_seconds=120,
        ).execute()
        SweepOrchestrator(
            tmp_path / "serial", specs, isolation="serial",
        ).execute()
        assert (tmp_path / "proc" / "results.json").read_bytes() == \
            (tmp_path / "serial" / "results.json").read_bytes()

    def test_injected_crash_kills_real_child_then_quarantines(
        self, tmp_path
    ):
        report = SweepOrchestrator(
            tmp_path / "sweep", _one_round_specs(1),
            faults="run_crash:1.0", retry=RetryPolicy(max_attempts=2),
            isolation="process", watchdog_seconds=60,
        ).execute()
        assert report.quarantined == 1
        crashes = [f for f in report.failures if f.kind == "run_crash"]
        assert len(crashes) == 2
        assert all("exited with code 41" in f.detail for f in crashes)

    def test_watchdog_kills_hung_child(self, tmp_path):
        start = time.monotonic()
        report = SweepOrchestrator(
            tmp_path / "sweep", _one_round_specs(1),
            faults="run_hang:1.0", retry=RetryPolicy(max_attempts=1),
            isolation="process", watchdog_seconds=2,
        ).execute()
        assert report.quarantined == 1
        (hang,) = [f for f in report.failures if f.kind == "run_hang"]
        assert "watchdog" in hang.detail
        assert time.monotonic() - start < 30

    def test_checkpointed_runs_stay_byte_identical(self, tmp_path):
        specs = _one_round_specs(1)
        SweepOrchestrator(
            tmp_path / "plain", specs, isolation="serial",
        ).execute()
        checkpointed = SweepOrchestrator(
            tmp_path / "ckpt", specs, isolation="serial",
            checkpoint_runs=True,
        )
        checkpointed.execute()
        assert (tmp_path / "ckpt" / "checkpoints").is_dir()
        assert (tmp_path / "plain" / "results.json").read_bytes() == \
            (tmp_path / "ckpt" / "results.json").read_bytes()


class TestSweepCLI:
    def _cli(self, *args):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", *args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )

    def _run_cli(self, *args, timeout=600):
        proc = self._cli(*args)
        out, err = proc.communicate(timeout=timeout)
        return proc.returncode, out.decode(), err.decode()

    GRID = ("--grid", "seed=0,1", "--method", "fedavg",
            "--scale", "tiny", "--grid", "rounds=1",
            "--isolation", "serial")

    def test_cli_sigkill_resume_byte_identity(self, tmp_path):
        code, out, err = self._run_cli(
            "--out", str(tmp_path / "ref"), *self.GRID,
        )
        assert code == 0, err
        golden = (tmp_path / "ref" / "results.json").read_bytes()

        victim = tmp_path / "victim"
        proc = self._cli("--out", str(victim), *self.GRID)
        # Kill as soon as the journal proves the sweep is mid-flight.
        journal = victim / "sweep.journal"
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if journal.exists() and journal.stat().st_size > 0:
                break
            if proc.poll() is not None:
                break  # finished before we could kill it: still valid
            time.sleep(0.02)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.communicate(timeout=60)

        code, out, err = self._run_cli(
            "--out", str(victim), "--resume",
        )
        assert code == 0, err
        assert (victim / "results.json").read_bytes() == golden
        entries = SweepJournal.replay(victim / "sweep.journal")
        done = [e.run_id for e in entries if e.state == "done"]
        assert sorted(done) == sorted(set(done))

    def test_cli_rejects_malformed_grid(self, tmp_path):
        code, out, err = self._run_cli(
            "--out", str(tmp_path / "x"), "--grid", "nonsense",
        )
        assert code == 2
        assert "malformed --grid" in err

    def test_cli_injected_tear_exits_resumable(self, tmp_path):
        out_dir = tmp_path / "torn"
        # Tear probability 1 on the very first append: exits code 3
        # with resume instructions, holding only a repaired journal.
        code, out, err = self._run_cli(
            "--out", str(out_dir), *self.GRID,
            "--faults", "journal_torn_write:1.0",
        )
        assert code == 3
        assert "--resume" in err
