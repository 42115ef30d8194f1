"""Tests for the parallel execution layer (repro.exec).

Covers the task runner's contract (results stream in submission order,
inline vs process-pool parity, path-free crash records and fail-fast at any
job count, one pool per run and no pool thread outliving it), the SweepSpec
grid (JSON round-trip, deterministic coordinate-derived seeds), campaign
byte-reproducibility at ``--jobs 1`` vs ``--jobs N``, and the driver layers
refactored onto the task runner (``python -m repro`` verbs, experiment
campaign).
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.api.report import RunReport
from repro.api.spec import SystemSpec
from repro.exec import (
    CampaignReport,
    CampaignRunner,
    SweepSpec,
    TaskSpec,
    get_demo_sweep,
    run_tasks,
)
from repro.exec.backend import canonicalize, resolve_task_fn


def echo_tasks(count: int = 3):
    return [TaskSpec(task_id=f"t{i}", fn="exec_tasks:echo",
                     payload={"i": i, "nested": {"tuple_becomes": [1, 2]}})
            for i in range(count)]


#: A small, fast sweep: two synthesized windows (loss on/off), n=8.
def tiny_sweep(seed: int = 3) -> SweepSpec:
    return SweepSpec(name="tiny", base=SystemSpec(seed=seed), n_nodes=(8,),
                     loss_rates=(0.0, 0.1), publications=2)


class TestBackends:
    def test_inline_runs_in_submission_order(self):
        results = run_tasks(echo_tasks())
        assert [r["echo"]["i"] for r in results] == [0, 1, 2]

    def test_inline_stream_is_lazy(self):
        # Each task runs when the stream reaches it: the result before a
        # crashing task is read before the crash is raised.
        stream = run_tasks([*echo_tasks(1), crashing_task()])
        assert next(stream) == {"echo": echo_tasks(1)[0].payload}
        with pytest.raises(KeyError, match="E99"):
            next(stream)

    def test_process_pool_matches_inline(self):
        tasks = echo_tasks()
        assert list(run_tasks(tasks, jobs=2)) == list(run_tasks(tasks))

    def test_canonicalize_matches_process_boundary(self):
        # Tuples -> lists, int keys -> str keys, sorted key order: what a
        # canonical JSON dump + json.loads produce.
        value = {"b": (1, 2), "a": {3: "x"}}
        assert canonicalize(value) == {"a": {"3": "x"}, "b": [1, 2]}

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_tasks(echo_tasks(), jobs=0)

    def test_resolve_task_fn_errors(self):
        with pytest.raises(ValueError, match="module:function"):
            resolve_task_fn("no-colon")
        with pytest.raises(ValueError, match="callable"):
            resolve_task_fn("repro.exec.tasks:not_a_function")
        with pytest.raises(ValueError, match="module:function"):
            TaskSpec(task_id="x", fn="no-colon")

    def test_pool_threads_do_not_outlive_the_run(self):
        # A pool thread left behind would make the next pool fork a
        # multi-threaded process (a DeprecationWarning, an error here, on
        # Python 3.12+), on success and on fail-fast alike.
        before = threading.active_count()
        list(run_tasks(echo_tasks(), jobs=2))
        assert threading.active_count() == before
        with pytest.raises(KeyError):
            list(run_tasks([*echo_tasks(), crashing_task()], jobs=2))
        assert threading.active_count() == before

    def test_closing_a_pooled_stream_shuts_its_pool_down(self):
        before = threading.active_count()
        stream = run_tasks(echo_tasks(6), jobs=2)
        assert next(stream)["echo"]["i"] == 0
        stream.close()
        assert threading.active_count() == before

    def test_pool_streams_every_result_once_in_submission_order(self, pools_built):
        tasks = echo_tasks(6)
        results = list(run_tasks(tasks, jobs=2))
        assert results == [{"echo": task.payload} for task in tasks]
        assert pools_built == [2]

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_no_tasks_is_no_results(self, jobs, pools_built):
        assert list(run_tasks([], jobs=jobs)) == []
        assert pools_built == []

    def test_one_task_runs_inline_at_any_job_count(self, monkeypatch):
        # One worker's worth of work opens no pool, whatever --jobs says.
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was opened for a single task")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        tasks = echo_tasks(1)
        assert list(run_tasks(tasks, jobs=4)) == [{"echo": tasks[0].payload}]


class TestSweepSpec:
    def test_json_round_trip_is_lossless(self):
        sweep = SweepSpec(name="rt",
                          base=SystemSpec(topology="sharded", shards=2, seed=9),
                          n_nodes=(8, 16), shards=(1, 2),
                          scenarios=("lossy-network", None),
                          loss_rates=(0.0, 0.05), seeds=2)
        assert SweepSpec.from_json(sweep.to_json()) == sweep

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(name="")
        with pytest.raises(ValueError):
            SweepSpec(name="x", n_nodes=(1,))
        with pytest.raises(ValueError):
            SweepSpec(name="x", loss_rates=(1.0,))
        with pytest.raises(ValueError):
            SweepSpec(name="x", seeds=0)

    @pytest.mark.parametrize("key", ["window_rounds", "settle_rounds"])
    def test_a_retired_window_key_is_rejected_by_name(self, key):
        with pytest.raises(TypeError, match=key):
            SweepSpec.from_dict({**tiny_sweep().to_dict(), key: 20.0})

    def test_same_sweep_same_master_seed_same_task_seeds(self):
        first = [t.seed for t in tiny_sweep(seed=3).expand()]
        second = [t.seed for t in tiny_sweep(seed=3).expand()]
        assert first == second

    def test_distinct_tasks_never_share_a_seed(self):
        sweep = SweepSpec(name="grid", base=SystemSpec(seed=1),
                          n_nodes=(8, 12), shards=(1, 2),
                          loss_rates=(0.0, 0.1), seeds=3)
        seeds = [t.seed for t in sweep.expand()]
        assert len(seeds) == 2 * 2 * 2 * 3
        assert len(set(seeds)) == len(seeds)

    def test_task_seeds_outlive_the_retired_scheduler_axis(self):
        """The seeds derived while ``"wheel"`` was a swept coordinate: the
        literal kept in its slot keeps every task seed (and E13's numbers)."""
        assert [(t.task_id, t.seed) for t in tiny_sweep().expand()] == [
            ("window/n8/loss0/s0", 15656718475907074112),
            ("window/n8/loss0.1/s0", 16761256684318010207)]

    def test_master_seed_changes_every_task_seed(self):
        a = {t.seed for t in tiny_sweep(seed=3).expand()}
        b = {t.seed for t in tiny_sweep(seed=4).expand()}
        assert not a & b

    def test_seeds_are_coordinate_derived_not_positional(self):
        # Adding an axis value must not disturb the seeds of existing points.
        small = tiny_sweep()
        grown = small.with_overrides(loss_rates=(0.0, 0.1, 0.2))
        small_seeds = {t.task_id: t.seed for t in small.expand()}
        grown_seeds = {t.task_id: t.seed for t in grown.expand()}
        for task_id, seed in small_seeds.items():
            assert grown_seeds[task_id] == seed

    def test_scenario_axis_overrides_library_spec(self):
        sweep = SweepSpec(name="lib", base=SystemSpec(seed=2),
                          scenarios=("lossy-network",), n_nodes=(8,),
                          shards=(2,), loss_rates=(0.2,))
        task = sweep.expand()[0]
        scenario = sweep.scenario_for(task)
        assert scenario.subscribers == 8
        assert scenario.facade == "sharded" and scenario.shards == 2
        assert all(p.loss_rate == 0.2 for p in scenario.phases)
        system = sweep.system_for(task)
        assert system.topology == "sharded" and system.shards == 2
        assert system.seed == task.seed

    def test_unswept_axes_inherit(self):
        sweep = SweepSpec(name="inherit", base=SystemSpec(seed=2),
                          scenarios=("sharded-supervisor-failover",))
        task = sweep.expand()[0]
        scenario = sweep.scenario_for(task)
        # The library scenario keeps its own facade/shards/sizing.
        assert scenario.facade == "sharded" and scenario.shards == 4
        assert scenario.subscribers == 16


class TestCampaign:
    def test_inline_and_process_pool_reports_byte_identical(self):
        sweep = tiny_sweep()
        inline = CampaignRunner(sweep, jobs=1).run()
        pooled = CampaignRunner(sweep, jobs=2).run()
        assert inline.to_json() == pooled.to_json()
        assert inline.passed

    def test_artifact_round_trip_and_claims(self):
        report = CampaignRunner(tiny_sweep(), jobs=1).run()
        again = CampaignReport.from_json(report.to_json())
        assert again.to_json() == report.to_json()
        claims = report.claims()
        assert len(claims) == 2 and all(claims.values())
        assert report.failed_tasks == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_progress_streams_every_task_in_sweep_order(self, jobs, pools_built):
        sweep = tiny_sweep()
        seen = []
        CampaignRunner(sweep, jobs=jobs).run(
            progress=lambda task, rep, done, total: seen.append(
                (task.task_id, rep["passed"], done, total)))
        assert seen == [(t.task_id, True, done, 2)
                        for done, t in enumerate(sweep.expand(), 1)]
        assert pools_built == ([] if jobs == 1 else [2])

    def test_artifact_contains_no_wall_clock(self):
        report = CampaignRunner(tiny_sweep(), jobs=1).run()
        assert all(entry["report"]["wall_seconds"] is None
                   for entry in report.tasks)


class TestDriverLayers:
    def test_scenario_report_dict_round_trip(self):
        from repro.scenarios.library import get_scenario
        from repro.scenarios.runner import ScenarioReport, ScenarioRunner
        report = ScenarioRunner(get_scenario("lossy-network"), seed=1).run()
        rebuilt = ScenarioReport.from_dict(
            json.loads(json.dumps(report.to_dict(), sort_keys=True)))
        assert rebuilt.to_json() == report.to_json()
        assert rebuilt.passed == report.passed

    def test_run_report_dict_round_trip(self):
        report = RunReport(name="X", title="t", headers=["a"], rows=[(1, 2.5)],
                           claims={"ok": True}, metadata={"n": 3})
        rebuilt = RunReport.from_dict(
            json.loads(json.dumps(report.to_dict(), sort_keys=True)))
        assert rebuilt.to_json() == report.to_json()

    @pytest.mark.parametrize("argv", [
        ["scenario", "--run", "lossy-network", "--seed", "1", "--json"],
        ["sweep", "--demo", "scenario-replicates", "--out"],
    ], ids=lambda argv: argv[0])
    def test_cli_jobs_parity(self, argv, tmp_path, capsys):
        """What a verb prints, and the artifact it writes, are the same bytes
        at --jobs 1 and --jobs 2."""
        from repro.cli import main

        def run(jobs):
            out = tmp_path / f"jobs{jobs}.json"
            full = [*argv, str(out)] if argv[-1] == "--out" else argv
            assert main([*full, "--jobs", str(jobs)]) == 0
            return capsys.readouterr().out, out.read_text() if out.exists() else None

        assert run(1) == run(2)

    def test_sweep_print_spec_replays_through_spec(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["sweep", "--demo", "scenario-replicates", "--print-spec"]) == 0
        spec = tmp_path / "sweep.json"
        spec.write_text(capsys.readouterr().out)
        for name, source in (("demo", ["--demo", "scenario-replicates"]),
                             ("spec", ["--spec", str(spec)])):
            assert main(["sweep", *source, "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        assert (tmp_path / "demo").read_bytes() == (tmp_path / "spec").read_bytes()

    def test_experiment_campaign_runs_on_one_pool_in_request_order(self, pools_built):
        from repro.experiments.runner import run_experiment_campaign
        keys = ["E7", "E1", "E8"]
        seen = []
        reports = run_experiment_campaign(
            keys=keys, jobs=2,
            progress=lambda key, report, done, total: seen.append((key, done, total)))
        assert list(reports) == keys
        assert seen == [(key, done, 3) for done, key in enumerate(keys, 1)]
        assert all(report.passed for report in reports.values())
        assert pools_built == [2]

    def test_experiment_campaign_matches_inline_run(self):
        from repro.experiments.runner import run_experiment_campaign
        reports = run_experiment_campaign(keys=["E1"], jobs=2)
        assert set(reports) == {"E1"}
        report = reports["E1"]
        assert report.passed
        # Identical (modulo wall) to the canonicalized in-process run.
        from repro.experiments.experiments import e1_topology
        expected = canonicalize(e1_topology().to_dict())
        measured = report.to_dict()
        measured["wall_seconds"] = expected["wall_seconds"] = None
        assert canonicalize(measured) == expected

    def test_experiment_campaign_unknown_key(self):
        from repro.experiments.runner import run_experiment_campaign
        with pytest.raises(KeyError, match="unknown experiments"):
            run_experiment_campaign(keys=["E99"])

    def test_e13_experiment_claims_hold(self):
        from repro.experiments.experiments import e13_parallel_campaign
        report = e13_parallel_campaign(seed=0)
        assert report.passed, report.failed_claims
        assert len(report.rows) == 4  # 2 loss rates x 2 shard counts

    def test_demo_sweeps_expand(self):
        for name in ("e13-loss-shards", "scenario-replicates"):
            sweep = get_demo_sweep(name, seed=1)
            tasks = sweep.expand()
            assert tasks, name
            seeds = [t.seed for t in tasks]
            assert len(set(seeds)) == len(seeds)
        with pytest.raises(KeyError, match="unknown demo sweep"):
            get_demo_sweep("nope")


def crashing_task(task_id: str = "boom", experiment: str = "E99") -> TaskSpec:
    """A real task that raises: an unknown experiment is a ``KeyError``."""
    return TaskSpec(task_id=task_id, fn="repro.exec.tasks:run_experiment_task",
                    payload={"experiment": experiment})


class TestFaultTolerance:
    def test_task_failure_round_trip(self):
        from repro.exec.backend import TaskFailure, failure_from_result, \
            is_failure_result
        failure = TaskFailure(task_id="t", fn="m:f", kind="crash",
                              detail="KeyError: 'x'")
        assert failure_from_result(failure.as_result()) == failure
        assert is_failure_result(failure.as_result())
        assert not is_failure_result({"report": {}})
        assert not is_failure_result(None)

    def test_crash_record_is_the_same_at_any_job_count(self):
        from repro.exec.backend import failure_from_result, is_failure_result
        tasks = [*echo_tasks(1), crashing_task()]
        inline = list(run_tasks(tasks, jobs=1, fault_tolerant=True))
        assert list(run_tasks(tasks, jobs=2, fault_tolerant=True)) == inline
        ok, boom = inline
        assert [ok] == list(run_tasks(tasks[:1]))
        assert is_failure_result(boom)
        failure = failure_from_result(boom)
        assert (failure.task_id, failure.kind) == ("boom", "crash")
        assert "KeyError: \"unknown experiment 'E99'" in failure.detail

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fail_fast_raises_the_task_exception(self, jobs):
        with pytest.raises(KeyError, match="unknown experiment 'E99'"):
            list(run_tasks([*echo_tasks(), crashing_task()], jobs=jobs))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fail_fast_raises_the_first_failure_in_submission_order(self, jobs):
        tasks = [crashing_task("first", "E98"), crashing_task("second", "E99")]
        with pytest.raises(KeyError, match="unknown experiment 'E98'"):
            list(run_tasks(tasks, jobs=jobs))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_campaign_partial_results_with_crashed_tasks(self, jobs, monkeypatch):
        # A fault-tolerant campaign whose every task crashes still produces
        # a merged report: one structured failure per task slot, claims all
        # false, artifact round-trips.  The sweep's tasks are pointed at the
        # experiment task, which raises on a payload without "experiment".
        import repro.exec.campaign as campaign
        monkeypatch.setattr(campaign, "SCENARIO_TASK_FN",
                            "repro.exec.tasks:run_experiment_task")
        report = CampaignRunner(tiny_sweep(seed=5), jobs=jobs,
                                fault_tolerant=True).run()
        assert not report.passed
        failures = [entry["failure"] for entry in report.tasks]  # every slot has one
        assert len(failures) == 2
        for failure in failures:
            assert failure["kind"] == "crash"
            assert "KeyError: 'experiment'" in failure["detail"]
        assert set(report.claims().values()) == {False}
        round_tripped = CampaignReport.from_json(report.to_json())
        assert [entry["failure"] for entry in round_tripped.tasks] == failures

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_an_unresolvable_task_is_a_crash_record(self, jobs):
        # Resolving the task's function happens inside the task, so a bad
        # reference fails that slot alone, or raises when fail-fast.
        from repro.exec.backend import failure_from_result
        missing = TaskSpec(task_id="gone", fn="repro.exec.tasks:not_a_function")
        ok, gone = run_tasks([*echo_tasks(1), missing], jobs=jobs,
                             fault_tolerant=True)
        assert [ok] == list(run_tasks(echo_tasks(1)))
        failure = failure_from_result(gone)
        assert (failure.task_id, failure.kind) == ("gone", "crash")
        assert "does not name a callable task function" in failure.detail
        with pytest.raises(ValueError, match="callable"):
            list(run_tasks([*echo_tasks(1), missing], jobs=jobs))

    def test_crash_detail_keeps_the_traceback_tail(self):
        from repro.exec.backend import TRACEBACK_TAIL_CHARS, failure_from_result
        name = "E" + "9" * (3 * TRACEBACK_TAIL_CHARS)
        task = TaskSpec(task_id="long", fn="repro.exec.tasks:run_experiment_task",
                        payload={"experiment": name})
        [result] = run_tasks([task], fault_tolerant=True)
        detail = failure_from_result(result).detail
        assert len(detail) == TRACEBACK_TAIL_CHARS
        from repro.experiments.experiments import ALL_EXPERIMENTS
        known = ", ".join(ALL_EXPERIMENTS)
        assert detail.rstrip().endswith(f"known: {known}\"")

    def test_crash_detail_is_path_free(self):
        # Frames by file base name and function, then the exception line:
        # no checkout path, line number or caret line to differ between hosts.
        from repro.exec.backend import failure_from_result
        [result] = run_tasks([crashing_task()], fault_tolerant=True)
        detail = failure_from_result(result).detail
        assert os.sep not in detail and "line" not in detail
        lines = detail.splitlines()
        assert lines[0] == "backend.py:run_task"
        assert "tasks.py:run_experiment_task" in lines
        assert lines[-1].startswith("KeyError: \"unknown experiment 'E99'")

    def test_pool_stream_carries_the_crash_record_in_its_slot(self):
        from repro.exec.backend import failure_from_result, is_failure_result
        tasks = [*echo_tasks(1), crashing_task(), *echo_tasks(3)[1:]]
        results = list(run_tasks(tasks, jobs=2, fault_tolerant=True))
        assert [is_failure_result(r) for r in results] == [False, True, False, False]
        assert failure_from_result(results[1]).task_id == "boom"
        assert [r["echo"]["i"] for r in results if not is_failure_result(r)] == [0, 1, 2]
