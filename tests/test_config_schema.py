"""Tests for the single config schema: FLConfig's field metadata.

Every protocol setting is declared once, as an FLConfig field with a
role and (for a setting) CLI help. These tests pin what is derived
from that metadata: the ``repro run``/``repro chaos`` flags, the
RunSpec override keys, preset configs, and checkpoint identity.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.cli import build_parser
from repro.experiments import make_context, run_experiment
from repro.experiments.configs import SCALES, get_scale
from repro.experiments.specs import CONFIG_OVERRIDE_KEYS
from repro.fl.simulation import CONFIG_ROLES, FLConfig
from repro.nn.checkpoint import load_run_checkpoint, save_run_checkpoint

#: The override keys before the schema was derived from FLConfig.
_OVERRIDE_KEYS = frozenset({
    "aggregation_fan_in", "async_buffer_fraction", "checkpoint_dir",
    "checkpoint_every", "client_backend", "deadline_fraction",
    "deadline_over_select", "dropout_rate", "executor", "executor_workers",
    "faults", "fleet", "heartbeat_interval", "local_epochs",
    "max_reconnects", "participation_fraction", "quantize_upload_bits",
    "resume", "retry_backoff_seconds", "retry_max_attempts",
    "retry_timeout_seconds", "round_policy", "rounds", "staleness_discount",
    "transport_timeout", "virtual_shard_size",
})

#: ``repro run`` options that are not FLConfig settings.
_RUN_CORE_DESTS = frozenset({
    "help", "method", "model", "dataset", "density", "scale", "alpha",
    "pool_size", "density_threshold", "seed", "json",
})


def _subparser(name):
    parser = build_parser()
    (sub,) = [
        action for action in parser._actions
        if hasattr(action, "choices") and isinstance(action.choices, dict)
    ]
    return sub.choices[name]


def _options(parser):
    return {
        option: action.dest
        for action in parser._actions
        for option in action.option_strings
    }


class TestFieldMetadata:
    def test_every_field_has_a_role(self):
        for spec in dataclasses.fields(FLConfig):
            assert spec.metadata.get("role") in CONFIG_ROLES, spec.name

    def test_resumable_and_plumbing_fields(self):
        by_role = {
            role: {
                spec.name for spec in dataclasses.fields(FLConfig)
                if spec.metadata["role"] == role
            }
            for role in CONFIG_ROLES
        }
        assert by_role["resumable"] == {
            "rounds", "executor", "executor_workers", "transport_timeout",
            "heartbeat_interval", "max_reconnects",
        }
        assert by_role["plumbing"] == {
            "checkpoint_dir", "checkpoint_every", "resume",
        }

    def test_override_keys_are_the_fields_with_help(self):
        with_help = {
            spec.name for spec in dataclasses.fields(FLConfig)
            if "help" in spec.metadata
        }
        assert CONFIG_OVERRIDE_KEYS == with_help == _OVERRIDE_KEYS


class TestDerivedFlags:
    def test_run_flags_are_exactly_the_settings(self):
        options = _options(_subparser("run"))
        dests = set(options.values())
        assert dests - _RUN_CORE_DESTS == CONFIG_OVERRIDE_KEYS
        assert options["--executor-workers"] == "executor_workers"
        assert options["--quantize-bits"] == "quantize_upload_bits"
        assert "--quantize-upload-bits" not in options

    def test_chaos_flags_come_from_the_same_fields(self):
        options = _options(_subparser("chaos"))
        assert {
            dest for dest in options.values() if dest in CONFIG_OVERRIDE_KEYS
        } == {
            "faults", "rounds", "executor", "retry_max_attempts",
            "transport_timeout", "heartbeat_interval", "max_reconnects",
        }
        args = build_parser().parse_args(["chaos"])
        assert args.settings == {"faults": "chaos"}

    def test_executor_workers_flag_parses(self):
        args = build_parser().parse_args([
            "run", "--method", "fedavg", "--executor", "network",
            "--executor-workers", "1", "--quantize-bits", "8", "--resume",
            "--checkpoint-dir", "ckpt",
        ])
        assert args.settings == {
            "executor": "network", "executor_workers": 1,
            "quantize_upload_bits": 8, "resume": True,
            "checkpoint_dir": "ckpt",
        }

    def test_absent_flags_are_not_settings(self):
        args = build_parser().parse_args(["run", "--method", "fedavg"])
        assert args.settings == {}
        assert args.rounds is None and args.resume is None


class TestPresetConfig:
    @pytest.mark.parametrize("scale", sorted(SCALES))
    def test_preset_fixes_its_fields_and_keeps_defaults(self, scale):
        preset = get_scale(scale)
        assert preset.fl_config() == FLConfig(
            num_clients=preset.num_clients, rounds=preset.rounds,
            local_epochs=preset.local_epochs,
            batch_size=preset.batch_size, lr=preset.lr,
        )

    def test_overrides_win_over_the_preset(self):
        config = get_scale("tiny").fl_config(
            rounds=9, dirichlet_alpha=None, seed=4, executor_workers=2
        )
        assert (config.rounds, config.dirichlet_alpha, config.seed) == (
            9, None, 4
        )
        assert config.executor_workers == 2


class TestCheckpointIdentity:
    def test_fingerprint_covers_every_result_field(self):
        ctx, _ = make_context("resnet18", "cifar10", get_scale("tiny"))
        try:
            identity = ctx._checkpoint_fingerprint(
                SimpleNamespace(method="fedavg", target_density=0.5)
            )
        finally:
            ctx.close()
        result_fields = {
            spec.name for spec in dataclasses.fields(FLConfig)
            if spec.metadata["role"] == "result"
        }
        assert set(identity) == result_fields | {
            "method", "model", "dataset", "target_density",
        }
        assert identity["target_density"] == 0.5

    def test_resume_into_a_different_density_is_refused(self, tmp_path):
        # A checkpoint of a d=0.05 run used to resume silently into a
        # d=0.5, alpha=100 run, which then reported target density 0.5
        # with final density 0.05.
        ckpt = str(tmp_path / "ckpt")
        run_experiment(
            "fedtiny", "resnet18", "cifar10", 0.05, scale="tiny",
            rounds=2, checkpoint_dir=ckpt,
        )
        with pytest.raises(ValueError, match="different run") as err:
            run_experiment(
                "fedtiny", "resnet18", "cifar10", 0.5, scale="tiny",
                dirichlet_alpha=100.0, rounds=4, checkpoint_dir=ckpt,
                resume=True,
            )
        assert "target_density" in str(err.value)
        assert "dirichlet_alpha" in str(err.value)

    def test_legacy_tuple_fingerprint_is_refused(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        common = dict(scale="tiny", checkpoint_dir=str(ckpt))
        run_experiment("fedavg", "resnet18", "cifar10", 1.0, rounds=1,
                       **common)
        (path,) = ckpt.iterdir()
        saved = load_run_checkpoint(path)
        saved.meta["fingerprint"] = (
            "fedavg", "resnet18", "cifar10", 0, 4, 1, "sync",
            "materialized",
        )
        save_run_checkpoint(path, saved.state, saved.masks, saved.meta)
        with pytest.raises(ValueError, match="different run"):
            run_experiment("fedavg", "resnet18", "cifar10", 1.0, rounds=2,
                           resume=True, **common)
