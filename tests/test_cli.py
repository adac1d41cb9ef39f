"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.rl import TrainingConfig


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.benchmark == "HalfCheetah"
        assert args.regime == "fixar-dynamic"
        assert args.timesteps == 3_000

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--benchmark", "Ant"])

    def test_throughput_batches(self):
        args = build_parser().parse_args(["throughput", "--batches", "32", "64"])
        assert args.batches == [32, 64]

    def test_train_worker_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.num_envs == 1
        assert args.num_workers == 1
        assert args.sync_interval == 1
        assert args.pipeline_depth == 0

    @pytest.mark.parametrize("value", ["-1", "one"])
    def test_rejects_bad_pipeline_depth_at_the_boundary(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["train", "--pipeline-depth", value])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert "--pipeline-depth" in message
        assert "non-negative integer" in message or "expected an integer" in message

    @pytest.mark.parametrize("flag", ["--num-envs", "--num-workers", "--sync-interval"])
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_rejects_non_positive_counts_at_the_boundary(self, flag, value, capsys):
        """Values < 1 fail fast in the parser with a readable message, not as
        a deep VectorEnv/engine error."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["train", flag, value])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert flag in message
        assert "positive integer" in message or "expected an integer" in message


class TestCommands:
    def test_resources_command(self, capsys):
        assert main(["resources"]) == 0
        output = capsys.readouterr().out
        assert "PEs" in output
        assert "fits Alveo U50: True" in output

    def test_resources_command_custom_design(self, capsys):
        assert main(["resources", "--cores", "8", "--array", "16", "16"]) == 0
        output = capsys.readouterr().out
        assert "fits Alveo U50: False" in output

    def test_compare_command_paper_numbers(self, capsys):
        assert main(["compare", "--use-paper-numbers"]) == 0
        output = capsys.readouterr().out
        assert "FA3C" in output
        assert "38779.8" in output

    def test_compare_command_modelled(self, capsys):
        assert main(["compare"]) == 0
        assert "FIXAR" in capsys.readouterr().out

    def test_throughput_command(self, capsys):
        assert main(["throughput", "--benchmark", "Swimmer", "--batches", "64", "256"]) == 0
        output = capsys.readouterr().out
        assert "FIXAR platform IPS" in output
        assert "speedup" in output
        assert "breakdown batch" in output

    def test_throughput_half_precision(self, capsys):
        assert main(["throughput", "--batches", "64", "--half-precision"]) == 0
        assert "half precision" in capsys.readouterr().out

    def test_train_command_quick(self, capsys, tmp_path):
        checkpoint = tmp_path / "agent.npz"
        exit_code = main(
            [
                "train",
                "--timesteps", "400",
                "--batch-size", "16",
                "--hidden", "24", "16",
                "--regime", "fixar-dynamic",
                "--checkpoint", str(checkpoint),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "reward curve" in output
        assert "precision switch" in output
        assert checkpoint.exists()

    def test_train_command_cosim(self, capsys):
        exit_code = main(
            ["train", "--timesteps", "300", "--batch-size", "16", "--hidden", "24", "16", "--cosim"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "co-simulated platform trace" in output
        assert "platform_ips" in output

    def test_train_command_multi_worker(self, capsys):
        exit_code = main(
            [
                "train",
                "--timesteps", "240",
                "--batch-size", "16",
                "--hidden", "24", "16",
                "--regime", "float32",
                "--num-envs", "2",
                "--num-workers", "2",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "2 workers x 2 envs in lock-step" in output
        assert "reward curve" in output

    def test_cosim_rejects_multiple_workers(self, capsys):
        exit_code = main(
            ["train", "--timesteps", "200", "--num-workers", "2", "--cosim"]
        )
        assert exit_code == 2
        assert "--num-workers" in capsys.readouterr().err

    @pytest.mark.pipelined
    def test_train_command_pipelined(self, capsys):
        exit_code = main(
            [
                "train",
                "--timesteps", "240",
                "--batch-size", "16",
                "--hidden", "24", "16",
                "--regime", "float32",
                "--num-envs", "2",
                "--num-workers", "2",
                "--pipeline-depth", "1",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "pipelined depth 1 schedule" in output
        assert "reward curve" in output

    def test_cosim_rejects_pipelined_schedule(self, capsys):
        exit_code = main(
            ["train", "--timesteps", "200", "--pipeline-depth", "1", "--cosim"]
        )
        assert exit_code == 2
        assert "--pipeline-depth" in capsys.readouterr().err

    def test_cosim_rejects_schedule_flag(self, capsys):
        exit_code = main(
            ["train", "--timesteps", "200", "--schedule", "pipelined", "--cosim"]
        )
        assert exit_code == 2
        assert "--schedule" in capsys.readouterr().err

    def test_sequential_schedule_conflicts_with_depth(self, capsys):
        exit_code = main(
            [
                "train",
                "--timesteps", "200",
                "--schedule", "sequential",
                "--pipeline-depth", "2",
            ]
        )
        assert exit_code == 2
        assert "conflicts with pipeline_depth" in capsys.readouterr().err

    def test_train_command_explicit_sequential_schedule(self, capsys):
        exit_code = main(
            [
                "train",
                "--timesteps", "120",
                "--batch-size", "16",
                "--hidden", "24", "16",
                "--regime", "float32",
                "--num-envs", "2",
                "--schedule", "sequential",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "sequential schedule" in output
        assert "reward curve" in output

    def test_train_command_weighted_fleet_schedule(self, capsys):
        exit_code = main(
            [
                "train",
                "--fleet", "HalfCheetah:1,Hopper:1",
                "--timesteps", "96",
                "--batch-size", "16",
                "--hidden", "16", "12",
                "--regime", "float32",
                "--num-envs", "2",
                "--schedule", "weighted",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "weighted schedule" in output
        assert "Hopper reward curve" in output

    def test_fleet_accepts_mixed_width_spec(self, capsys):
        exit_code = main(
            [
                "train",
                "--fleet", "HalfCheetah:1:4,Hopper:1:2",
                "--timesteps", "96",
                "--batch-size", "16",
                "--hidden", "16", "12",
                "--regime", "float32",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "halfcheetah:1:4,hopper:1:2" in output
        assert "HalfCheetah reward curve" in output


class TestChoiceEnumeratingRejections:
    """Rejection errors for --assignment/--schedule enumerate
    the valid choices at the parser boundary (PR-7 validation sweep) —
    consistent with the positive-int validators, the user never needs the
    docs to learn what would have been accepted."""

    @pytest.mark.parametrize("command", ["train", "serve"])
    def test_placement_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--placement", "colocated"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --placement" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["fifo", "adaptive"])
    def test_schedule_rejection_enumerates_choices(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["train", "--schedule", value])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert "--schedule" in message
        choices = re.search(r"choose from ([^)]*)\)", message).group(1)
        assert [choice.strip(" '") for choice in choices.split(",")] == [
            "sequential", "pipelined", "weighted",
        ]

    def test_config_rejects_the_removed_schedule(self):
        with pytest.raises(
            ValueError, match=r"\('sequential', 'pipelined', 'weighted'\)"
        ):
            TrainingConfig(schedule="adaptive")

    @pytest.mark.parametrize("value", ["fastest", "Hopper", "Hopper=,"])
    def test_assignment_rejection_enumerates_choices(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["train", "--assignment", value])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert "--assignment" in message
        assert "round-robin" in message
        assert "balanced" in message
        assert "Benchmark=device" in message

    def test_assignment_rejects_non_integer_device(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["train", "--assignment", "Hopper=first"])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert "--assignment" in message
        assert "integer" in message
        assert "Benchmark=device" in message

    def test_assignment_policy_names_parse(self):
        args = build_parser().parse_args(["train", "--assignment", "balanced"])
        assert args.assignment == "balanced"
        args = build_parser().parse_args(["train", "--assignment", "round-robin"])
        assert args.assignment == "round-robin"

    def test_assignment_mapping_parses_to_devices(self):
        args = build_parser().parse_args(
            ["train", "--assignment", "Hopper=0, HalfCheetah=1"]
        )
        assert args.assignment == {"Hopper": 0, "HalfCheetah": 1}

    def test_cosim_rejects_assignment(self, capsys):
        exit_code = main(
            ["train", "--cosim", "--assignment", "balanced", "--timesteps", "8"]
        )
        assert exit_code == 2
        assert "--assignment" in capsys.readouterr().err


class TestAssignmentFlag:
    """--assignment reaches the training path (not just the parser)."""

    def test_fleet_run_with_explicit_affinity(self, capsys):
        exit_code = main(
            [
                "train",
                "--fleet", "HalfCheetah:1,Hopper:1",
                "--timesteps", "96",
                "--batch-size", "16",
                "--hidden", "16", "12",
                "--regime", "float32",
                "--devices", "2",
                "--assignment", "Hopper=0,HalfCheetah=1",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "hopper->dev0" in output
        assert "halfcheetah->dev1" in output

    def test_fleet_run_with_balanced_assignment(self, capsys):
        exit_code = main(
            [
                "train",
                "--fleet", "HalfCheetah:1,Hopper:1",
                "--timesteps", "96",
                "--batch-size", "16",
                "--hidden", "16", "12",
                "--regime", "float32",
                "--devices", "2",
                "--assignment", "balanced",
            ]
        )
        assert exit_code == 0
        assert "device affinity:" in capsys.readouterr().out

    @pytest.mark.parametrize("assignment", ["typo=1", "Hopper=7"])
    @pytest.mark.parametrize(
        "target",
        [["--benchmark", "Hopper"], ["--fleet", "Hopper:1,HalfCheetah:1"]],
        ids=["train", "fleet"],
    )
    def test_unresolvable_mapping_exits_2_without_a_traceback(
        self, target, assignment, capsys
    ):
        """An unknown benchmark or a non-collection device is only knowable
        once the run's groups and pool exist; both branches report it."""
        exit_code = main(
            [
                "train",
                *target,
                "--timesteps", "96",
                "--batch-size", "16",
                "--hidden", "16", "12",
                "--regime", "float32",
                "--devices", "2",
                "--assignment", assignment,
            ]
        )
        assert exit_code == 2
        error_lines = capsys.readouterr().err.strip().splitlines()
        assert len(error_lines) == 1
        assert error_lines[0].startswith("error: --assignment: ")


_TRAIN_TARGETS = pytest.mark.parametrize(
    "target",
    [["--benchmark", "HalfCheetah"], ["--fleet", "Hopper:1,HalfCheetah:1"]],
    ids=["train", "fleet"],
)


class TestPrecisionFlags:
    """--precision-policy / --precision-spec build the run's one driver."""

    QUICK_RUN = [
        "--timesteps", "200",
        "--num-envs", "4",
        "--batch-size", "16",
        "--hidden", "16", "12",
    ]

    @_TRAIN_TARGETS
    def test_naming_global_switch_is_the_default_run(self, target, capsys):
        """`global-switch` *is* the built-in controller: without a spec it
        keeps the run's own schedule (switch at timesteps // 2), so the flag
        changes neither the curve nor the switch line."""
        command = ["train", *target, *self.QUICK_RUN]
        assert main(command) == 0
        default_output = capsys.readouterr().out
        assert main([*command, "--precision-policy", "global-switch"]) == 0
        named_output = capsys.readouterr().out
        assert "precision switch at t=100" in default_output
        assert "reward curve:" in default_output
        assert named_output == default_output

    @_TRAIN_TARGETS
    def test_explicit_spec_overrides_the_run_schedule(self, target, capsys):
        command = [
            "train", *target, *self.QUICK_RUN,
            "--precision-policy", "global-switch",
            "--precision-spec", "16@150",
        ]
        assert main(command) == 0
        assert "precision switch at t=150" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "policy, spec",
        [
            (None, "16@10"),
            ("global-switch", "abc"),
            ("global-switch", "16@x"),
            ("global-switch", "8@10"),
            ("global-switch", "16@-5"),
            ("global-switch", "1@10"),
            ("per-layer", "actor=abc"),
            ("range-driven", "tolerance=x"),
        ],
    )
    @_TRAIN_TARGETS
    def test_malformed_spec_exits_2_before_the_banner(
        self, target, policy, spec, capsys
    ):
        exit_code = main(
            [
                "train",
                *target,
                "--timesteps", "96",
                *(["--precision-policy", policy] if policy else []),
                f"--precision-spec={spec}",
            ]
        )
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "training " not in captured.out
        error_lines = captured.err.strip().splitlines()
        assert len(error_lines) == 1
        assert error_lines[0].startswith("error: --precision-spec: ")


class TestServeCheckpointErrors:
    """``serve --checkpoint`` on an unusable file: exit 2, one
    ``error: --checkpoint:`` line, no traceback."""

    def test_good_checkpoint_serves(self, checkpoints, capsys):
        argv = ["serve", "--checkpoint", str(checkpoints["good"]), "--requests", "32"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "serving HalfCheetah" in captured.out

    @pytest.mark.parametrize(
        "name",
        [
            "garbage", "empty", "truncated-64", "truncated-half", "truncated-tail",
            "corrupt-member", "bare-npy", "no-metadata", "metadata-not-json",
            "missing-key", "format-version-2", "foreign-agent-class", "missing-parameter",
            "unknown-parameter", "qat-layers-not-dict", "qat-missing-half-mode",
        ],
    )
    def test_unusable_checkpoint_exits_2_with_one_line(self, checkpoints, name, capsys):
        assert main(["serve", "--checkpoint", str(checkpoints[name])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: --checkpoint: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "filename, env_name",
        [("absent.npz", "HalfCheetah"), ("good.npz", "Hopper")],
        ids=["missing-file", "dimension-mismatch"],
    )
    def test_unservable_path_exits_2_with_one_line(
        self, checkpoints, filename, env_name, capsys
    ):
        path = checkpoints["good"].with_name(filename)
        assert main(["serve", "--checkpoint", str(path), "--benchmark", env_name]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --checkpoint: ")
