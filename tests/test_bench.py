"""Tests for the benchmark suites and their baseline regression gate."""

import json

import numpy as np
import pytest

import benchmarks.suites as bench
from repro import perf
from repro.core.equivalence import build_equivalence_classes


#: Tiny workloads so the whole CLI path runs in well under a second.
_TINY = {"structural": 3, "d": 4, "n": 64, "sweeps": 2, "repeats": 1}
_TINY_PROJECTION = {"n": 48, "d": 3, "restarts": 2, "iterations": 4,
                    "repeats": 1}
_TINY_OBS = {"repeats": 1, "merge_shards": 2, "history_samples": 3}


@pytest.fixture
def tiny_sizes(monkeypatch):
    monkeypatch.setitem(bench.SIZES, "quick", dict(_TINY))
    monkeypatch.setitem(
        bench.PROJECTION_SIZES, "quick", dict(_TINY_PROJECTION)
    )
    monkeypatch.setitem(bench.OBS_SIZES, "quick", dict(_TINY_OBS))


class TestWorkload:
    def test_many_class_workload_shape(self):
        data, constraints = bench.many_class_workload(4, 5, 128, seed=0)
        assert data.shape == (128, 5)
        # 2d margins + `structural` half constraints.
        assert len(constraints) == 2 * 5 + 4
        classes = build_equivalence_classes(128, constraints)
        # Random halves shatter the rows into many classes (up to 2^4).
        assert classes.n_classes > 4

    def test_workload_is_deterministic(self):
        data1, cs1 = bench.many_class_workload(3, 4, 64, seed=7)
        data2, cs2 = bench.many_class_workload(3, 4, 64, seed=7)
        np.testing.assert_array_equal(data1, data2)
        for a, b in zip(cs1, cs2):
            np.testing.assert_array_equal(a.w, b.w)
            np.testing.assert_array_equal(a.rows, b.rows)


class TestSuite:
    def test_payload_shape_and_artifact(self, tiny_sizes, tmp_path):
        payload = bench.run_core_solver_suite(quick=True, seed=0)
        assert payload["suite"] == "core_solver"
        assert payload["mode"] == "quick"
        for key in ("optim_sweep", "whiten", "sample", "init", "equivalence"):
            assert f"{key}_vectorized_s" in payload["timings"]
            assert f"{key}_reference_s" in payload["timings"]
            assert payload["speedups"][key] > 0
        path = bench.write_payload(payload, tmp_path)
        assert path.name == "BENCH_core_solver.json"
        assert json.loads(path.read_text())["workload"]["n"] == _TINY["n"]

    def test_projection_payload_shape_and_artifact(self, tiny_sizes, tmp_path):
        payload = bench.run_projection_suite(quick=True, seed=0)
        assert payload["suite"] == "projection"
        assert payload["mode"] == "quick"
        for key in ("fastica", "fastica_restarts"):
            assert f"{key}_vectorized_s" in payload["timings"]
            assert f"{key}_reference_s" in payload["timings"]
            assert payload["speedups"][key] > 0
        path = bench.write_payload(payload, tmp_path)
        assert path.name == "BENCH_projection.json"
        saved = json.loads(path.read_text())
        assert saved["workload"]["restarts"] == _TINY_PROJECTION["restarts"]

    def test_projection_rows_compare_equal_work(self, monkeypatch):
        """Both sides of each FastICA row run the same iterations.

        The plateau test stops runs whatever the tolerance, so a serial
        side that started elsewhere would stop elsewhere and the speedup
        would compare unequal work.  The cap sits above the plateau
        window so the plateau test, not the cap, ends the runs.
        """
        sizes = dict(_TINY_PROJECTION, n=400, d=5, restarts=3, iterations=200)
        monkeypatch.setitem(bench.PROJECTION_SIZES, "quick", sizes)
        its = bench.run_projection_suite(quick=True, seed=0)["iterations"]
        assert its["fastica_vectorized"] == its["fastica_reference"]
        assert (
            its["fastica_restarts_vectorized"]
            == its["fastica_restarts_reference"]
        )
        assert 0 < its["fastica_vectorized"] < sizes["iterations"]
        # Every restart counts, not only the winner (restart 0 starts
        # where the single run does).
        assert its["fastica_restarts_vectorized"] > its["fastica_vectorized"]
        # Counting switched perf on for one call only.
        assert not perf.is_enabled()
        assert perf.snapshot() == {"timings": {}, "counters": {}}

    def test_obs_payload_shape_and_artifact(self, tiny_sizes, tmp_path):
        payload = bench.run_obs_suite(quick=True, seed=0)
        assert payload["suite"] == "obs"
        assert payload["mode"] == "quick"
        assert set(payload["timings"]) == {
            "history_sample_s", "snapshot_merge_s",
        }
        assert all(value > 0 for value in payload["timings"].values())
        path = bench.write_payload(payload, tmp_path)
        assert path.name == "BENCH_obs.json"
        saved = json.loads(path.read_text())
        assert saved["workload"]["merge_shards"] == _TINY_OBS["merge_shards"]

    def test_check_baselines_passes_and_fails(self, tiny_sizes, tmp_path):
        payload = bench.run_core_solver_suite(quick=True, seed=0)
        generous = tmp_path / "ok.json"
        generous.write_text(
            json.dumps({"tolerance": 2.0, "core_solver": {"quick": {
                "optim_sweep_vectorized_s": 1000.0}}})
        )
        assert bench.check_baselines(payload, generous) == []
        strict = tmp_path / "bad.json"
        strict.write_text(
            json.dumps({"tolerance": 1.0, "core_solver": {"quick": {
                "optim_sweep_vectorized_s": 1e-12,
                "missing_metric_s": 1.0}}})
        )
        failures = bench.check_baselines(payload, strict)
        assert len(failures) == 2
        assert any("exceeds" in f for f in failures)
        assert any("missing" in f for f in failures)

    def test_check_baselines_suite_keyed_layout(self, tiny_sizes, tmp_path):
        payload = bench.run_projection_suite(quick=True, seed=0)
        suite_keyed = tmp_path / "suites.json"
        suite_keyed.write_text(
            json.dumps({
                "tolerance": 2.0,
                "core_solver": {"quick": {"optim_sweep_vectorized_s": 1e-12}},
                "projection": {"quick": {"fastica_vectorized_s": 1000.0}},
            })
        )
        # The projection payload is judged only by its own section.
        assert bench.check_baselines(payload, suite_keyed) == []
        strict = tmp_path / "strict.json"
        strict.write_text(
            json.dumps({
                "tolerance": 1.0,
                "projection": {"quick": {"fastica_vectorized_s": 1e-12}},
            })
        )
        failures = bench.check_baselines(payload, strict)
        assert failures and "exceeds" in failures[0]

    def test_legacy_flat_file_never_judges_other_suites(
        self, tiny_sizes, tmp_path
    ):
        """A flat (mode -> budgets) baselines file is not read at all: no
        payload — core_solver included — is graded against its budgets;
        each gets the 'section missing' error instead."""
        legacy = tmp_path / "legacy.json"
        legacy.write_text(
            json.dumps({"tolerance": 2.0, "quick": {
                "optim_sweep_vectorized_s": 1e-12}})
        )
        core_solver = {
            "suite": "core_solver",
            "mode": "quick",
            "timings": {"optim_sweep_vectorized_s": 0.1},
        }
        for payload in (
            bench.run_projection_suite(quick=True, seed=0),
            core_solver,
        ):
            failures = bench.check_baselines(payload, legacy)
            assert len(failures) == 1
            assert "would check nothing" in failures[0]
            assert "optim_sweep" not in failures[0]

    def test_check_baselines_missing_mode_section_fails(self, tmp_path):
        payload = {
            "suite": "core_solver",
            "mode": "quick",
            "timings": {"optim_sweep_vectorized_s": 0.1},
        }
        no_mode = tmp_path / "no_mode.json"
        no_mode.write_text(
            json.dumps({"tolerance": 2.0, "core_solver": {"full": {}}})
        )
        failures = bench.check_baselines(payload, no_mode)
        assert failures and "'quick'" in failures[0]
        assert "would check nothing" in failures[0]

    def test_committed_baselines_cover_both_suites(self):
        committed = json.loads(
            (
                __import__("pathlib").Path(bench.__file__).resolve().parent
                / "baselines.json"
            ).read_text()
        )
        for suite in ("core_solver", "projection", "store", "obs"):
            assert suite in committed, f"baselines.json lost its {suite} section"
            for mode in ("quick", "full"):
                assert committed[suite][mode], (suite, mode)


class TestCli:
    def test_bench_command_writes_both_artifacts(
        self, tiny_sizes, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        status = bench.main(["--quick"])
        assert status == 0
        out = capsys.readouterr().out
        assert "suite core_solver (quick)" in out
        assert "suite projection (quick)" in out
        assert "suite obs (quick)" in out
        assert (tmp_path / "BENCH_core_solver.json").exists()
        assert (tmp_path / "BENCH_projection.json").exists()
        assert (tmp_path / "BENCH_obs.json").exists()

    def test_bench_command_single_suite(
        self, tiny_sizes, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        status = bench.main(["--quick", "--suite", "projection"])
        assert status == 0
        assert "suite projection (quick)" in capsys.readouterr().out
        assert not (tmp_path / "BENCH_core_solver.json").exists()
        assert (tmp_path / "BENCH_projection.json").exists()

    def test_bench_command_check_failure_exits_nonzero(
        self, tiny_sizes, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        strict = tmp_path / "strict.json"
        strict.write_text(
            json.dumps({
                "tolerance": 1.0,
                "core_solver": {"quick": {"optim_sweep_vectorized_s": 1e-12}},
                "projection": {"quick": {"fastica_vectorized_s": 1e-12}},
            })
        )
        status = bench.main(["--quick", "--check", str(strict)])
        assert status == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err
        # Both suites' regressions are reported, not just the first.
        assert "optim_sweep_vectorized_s" in err
        assert "fastica_vectorized_s" in err
