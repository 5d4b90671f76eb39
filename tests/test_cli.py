"""Tests for the command-line interface."""

import pytest

from repro.cli import DATASETS, EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig5"])
        assert args.name == "fig5"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_explore_defaults(self):
        args = build_parser().parse_args(["explore", "x5"])
        assert args.rounds == 2
        assert args.objective == "pca"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8000
        assert args.store is None
        assert args.max_sessions == 64
        assert args.ttl is None
        assert args.cache_size == 128

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9001", "--store", "sqlite:/tmp/x.db", "--ttl", "30"]
        )
        assert args.port == 9001
        assert args.store == "sqlite:/tmp/x.db"
        assert args.ttl == 30.0


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "x5" in out

    def test_registries_cover_all_paper_items(self):
        assert set(EXPERIMENTS) == {
            "fig1", "fig2", "fig3", "table1", "fig5", "fig6",
            "table2", "fig7", "fig8", "fig9",
        }
        assert set(DATASETS) == {
            "three-d", "x5", "bnc", "segmentation", "cytometry",
        }

    def test_dataset_description(self, capsys):
        assert main(["dataset", "three-d"]) == 0
        out = capsys.readouterr().out
        assert "(150, 3)" in out
        assert "classes" in out

    def test_experiment_fig5(self, capsys):
        assert main(["experiment", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "Case A" in out

    def test_explore_three_d(self, capsys):
        assert main(["explore", "three-d", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "round 0" in out
        assert "final top |score|" in out


class TestAutonomousExploreCLI:
    def test_parser_policy_flags(self):
        args = build_parser().parse_args(
            [
                "explore", "--policy", "surprise", "--dataset", "three-d",
                "--rounds", "3", "--seed", "1", "--trace", "t.jsonl",
                "--warm-start",
            ]
        )
        assert args.policy == "surprise"
        assert args.dataset == "three-d"
        assert args.trace == "t.jsonl"
        assert args.warm_start is True
        assert args.replay is None

    def test_parser_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "--policy", "nope", "x5"])

    def test_parser_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.sessions == 8
        assert args.rounds == 3
        assert args.url is None
        assert args.output == "BENCH_loadgen.json"

    def test_explore_without_dataset_errors(self, capsys):
        assert main(["explore", "--policy", "surprise"]) == 2
        assert "dataset" in capsys.readouterr().err

    def test_policy_run_trace_and_replay(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "explore", "--policy", "surprise", "--dataset",
                    "three-d", "--rounds", "2", "--seed", "0",
                    "--trace", str(trace),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "knowledge curve" in out
        assert trace.exists()

        assert main(["explore", "--replay", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "replay matches" in out

    def test_loadgen_smoke_against_temp_server(self, tmp_path, capsys):
        output = tmp_path / "BENCH_loadgen.json"
        assert (
            main(
                [
                    "loadgen", "--sessions", "2", "--workers", "2",
                    "--rounds", "1", "--dataset", "three-d",
                    "--policy", "random-walk", "--output", str(output),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "req/s" in out
        assert output.exists()

    def test_temporary_fleets_remove_their_runtime_directories(
        self, tmp_path, short_tmp, monkeypatch, capsys
    ):
        # The loadgen fleet and the bench service suite's fleets each
        # make a runtime directory (worker sockets, L2 cache, store).
        import tempfile

        from repro import bench

        monkeypatch.setattr(tempfile, "tempdir", str(short_tmp))
        assert main(
            [
                "loadgen", "--serve-workers", "2", "--sessions", "1",
                "--workers", "1", "--rounds", "1", "--dataset", "three-d",
                "--policy", "random-walk",
                "--output", str(tmp_path / "BENCH_loadgen.json"),
            ]
        ) == 0
        assert "req/s" in capsys.readouterr().out
        assert bench.run_service_suite(quick=True)["suite"] == "service"
        assert list(short_tmp.iterdir()) == []
