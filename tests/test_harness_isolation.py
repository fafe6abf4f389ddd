"""Crash-isolated harness tests: child-process execution, timeouts,
structured failures, the retry policy and its seed-bumping retries, the
spawn fallback, and CLI exit codes."""

import multiprocessing
import time

import pytest

from repro.chaos import HangDiagnostic, SimulationHang
from repro.harness import (
    TRANSIENT_KINDS,
    CampaignCell,
    CampaignRunner,
    ExperimentFailure,
    RetryPolicy,
    run_experiment_isolated,
)
from repro.harness.dist import HANDSHAKE_RETRY, UPLOAD_RETRY
from repro.harness.results import ExperimentTable
from repro.harness.runner import ExecutionPolicy, execute_cell
from repro.serve import GpuService, ServiceCore, VirtualTimeDriver


def _table(name="ok", value=1.0):
    table = ExperimentTable(
        name=name, description="test table", columns=["v"], show_geomean=False
    )
    table.add_row("row", [value])
    return table


def _ok_experiment(**kw):
    return _table()


def _crashing_experiment(**kw):
    raise RuntimeError("kaboom")


def _sleeping_experiment(**kw):
    time.sleep(60)


def _hang_diag():
    return HangDiagnostic(
        cycle=100.0, cycle_budget=50.0, blocks_remaining=3, committed=7
    )


def _hang_unless_reseeded(seed=0, **kw):
    if seed == 0:
        raise SimulationHang(_hang_diag())
    return _table(value=float(seed))


def _always_hanging(seed=0, **kw):
    raise SimulationHang(_hang_diag())


class TestRunIsolated:
    def test_result_crosses_process_boundary(self):
        result = run_experiment_isolated("ok", _ok_experiment)
        assert isinstance(result, ExperimentTable)
        assert result.rows == {"row": [1.0]}

    def test_crash_becomes_structured_failure(self):
        outcome = run_experiment_isolated("boom", _crashing_experiment)
        assert isinstance(outcome, ExperimentFailure)
        assert outcome.kind == "RuntimeError"
        assert outcome.message == "kaboom"
        assert "kaboom" in outcome.traceback_text
        assert outcome.attempts == 1
        assert "FAILED" in outcome.render()

    def test_timeout_terminates_child(self):
        start = time.time()
        outcome = run_experiment_isolated(
            "slow", _sleeping_experiment, timeout=0.5
        )
        assert time.time() - start < 10
        assert isinstance(outcome, ExperimentFailure)
        assert outcome.kind == "Timeout"

    def test_hang_retried_with_fresh_seed(self):
        outcome = execute_cell(
            _cell("hangs-once", _hang_unless_reseeded, seed=0),
            ExecutionPolicy(retry=RetryPolicy(3, 0.0)),
        )
        assert outcome.ok
        assert outcome.table.rows == {"row": [1000.0]}
        assert outcome.ledger[0]["reseeded"] == 1000

    def test_retries_bounded(self):
        sleeps = []
        outcome = execute_cell(
            _cell("hangs-always", _always_hanging, seed=0),
            ExecutionPolicy(retry=RetryPolicy(3, 0.5),
                            sleep=sleeps.append),
        )
        assert isinstance(outcome.failure, ExperimentFailure)
        assert outcome.failure.kind == "SimulationHang"
        assert outcome.failure.attempts == 3
        assert [e.get("reseeded") for e in outcome.ledger] == [
            1000, 3000, None,
        ]
        assert sleeps == [0.5, 1.0]

    def test_other_errors_not_retried(self):
        sleeps = []
        outcome = execute_cell(
            _cell("boom", _crashing_experiment, seed=0),
            ExecutionPolicy(retry=RetryPolicy(5, 0.5),
                            sleep=sleeps.append),
        )
        assert outcome.failure.kind == "RuntimeError"
        assert outcome.failure.attempts == 1
        assert sleeps == []


def _cell(key, fn, **kwargs):
    return CampaignCell(key=key, fn=fn, kwargs=kwargs, group="g")


#: the retry policy of each owner, built from its default settings
OWNERS = {
    "campaign": lambda: CampaignRunner(
        [_cell("c", _ok_experiment)], echo=lambda _: None
    ).policy.retry,
    "serve": lambda: GpuService().retry,
    "virtual-time": lambda: VirtualTimeDriver(ServiceCore()).retry,
    "upload": lambda: UPLOAD_RETRY,
    "handshake": lambda: HANDSHAKE_RETRY,
}


class TestRetryPolicy:
    def test_transient_kinds_retry_up_to_max_attempts(self):
        policy = RetryPolicy(3, 0.5)
        for kind in TRANSIENT_KINDS:
            assert [policy.retries(kind, a) for a in (1, 2, 3)] == [
                True, True, False,
            ]
        for kind in ("RuntimeError", "InvariantViolation", "Cancelled"):
            assert not policy.retries(kind, 1)
        assert not RetryPolicy(1, 0.5).retries("Timeout", 1)
        with pytest.raises(ValueError):
            RetryPolicy(0, 0.5)

    @pytest.mark.parametrize("owner,delays", [
        ("campaign", [0.5, 1.0]),
        ("serve", [0.02, 0.04]),
        ("virtual-time", [2000.0]),
        ("upload", [0.2, 0.4]),
        ("handshake", [0.2, 0.4, 0.8, 1.6, 2.0, 2.0, 2.0]),
    ])
    def test_delay_schedule_of_each_owner(self, owner, delays):
        policy = OWNERS[owner]()
        assert [policy.delay(a) for a in range(1, policy.max_attempts)] == (
            delays
        )

    def test_only_a_hang_reseeds_and_only_an_int_seed(self):
        policy = RetryPolicy(3, 0.5)
        assert policy.next_kwargs(
            "SimulationHang", 2, {"seed": 7, "x": 1}
        ) == {"seed": 2007, "x": 1}
        for kind in ("Timeout", "ChildCrash", "RuntimeError"):
            kwargs = {"seed": 7}
            assert policy.next_kwargs(kind, 1, kwargs) is kwargs
        for kwargs in ({}, {"seed": "7"}, {"seed": 7.0}, {"seed": None}):
            assert policy.next_kwargs("SimulationHang", 1, kwargs) is kwargs

    def test_attempts_sleep_between_attempts_only(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        assert list(RetryPolicy(4, 0.1, 0.3).attempts()) == [1, 2, 3, 4]
        assert sleeps == [0.1, 0.2, 0.3]


class TestSpawnFallback:
    """Without ``fork`` the harness must fall back to ``spawn``, keeping
    timeouts enforceable (the old in-process fallback silently lost
    them)."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        import repro.harness.isolation as iso

        real = multiprocessing.get_context

        def probe(method=None):
            if method == "fork":
                raise ValueError("fork unavailable (mocked platform)")
            return real(method)

        monkeypatch.setattr(iso.multiprocessing, "get_context", probe)

    def test_falls_back_to_spawn(self, no_fork):
        from repro.harness.isolation import _exec_context

        ctx = _exec_context()
        assert ctx is not None
        assert ctx.get_start_method() == "spawn"

    def test_result_crosses_spawn_boundary(self, no_fork):
        result = run_experiment_isolated("ok", _ok_experiment)
        assert isinstance(result, ExperimentTable)
        assert result.rows == {"row": [1.0]}

    def test_timeout_still_enforced_under_spawn(self, no_fork):
        start = time.time()
        outcome = run_experiment_isolated(
            "slow", _sleeping_experiment, timeout=1.0
        )
        assert time.time() - start < 30
        assert isinstance(outcome, ExperimentFailure)
        assert outcome.kind == "Timeout"


class TestCliExitCodes:
    def test_single_experiment_success(self, capsys):
        from repro.harness.__main__ import main

        code = main(["fig10", "--workloads", "saxpy"])
        assert code == 0
        assert "fig10" in capsys.readouterr().out

    def test_failure_gives_nonzero_exit(self, monkeypatch, capsys):
        import repro.harness.__main__ as cli

        monkeypatch.setattr(
            cli, "ALL_EXPERIMENTS", {"boom": _crashing_experiment}
        )
        code = cli.main(["boom"])
        assert code == 1
        err = capsys.readouterr().err
        assert "RuntimeError" in err
        assert "1 experiment(s) failed" in err

    def test_all_keeps_going_past_failures(self, monkeypatch, capsys):
        import repro.harness.__main__ as cli

        monkeypatch.setattr(
            cli,
            "ALL_EXPERIMENTS",
            {"a-boom": _crashing_experiment, "b-ok": _ok_experiment,
             "c-boom": _crashing_experiment},
        )
        code = cli.main(["all"])
        assert code == 1
        captured = capsys.readouterr()
        # the healthy experiment between two failures still completed
        assert "test table" in captured.out
        assert "2 experiment(s) failed" in captured.err
        assert "(1 completed)" in captured.err

    def test_single_experiment_stops_by_default(self, monkeypatch, capsys):
        import repro.harness.__main__ as cli

        monkeypatch.setattr(
            cli,
            "ALL_EXPERIMENTS",
            {"a-boom": _crashing_experiment, "b-ok": _ok_experiment},
        )
        code = cli.main(["a-boom"])
        assert code == 1
        assert "test table" not in capsys.readouterr().out

    def test_keep_going_documented_in_help(self, capsys):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as exc_info:
            main(["--help"])
        assert exc_info.value.code == 0
        help_text = capsys.readouterr().out
        assert "--keep-going" in help_text
        assert "--timeout" in help_text
        assert "chaos" in help_text

    def test_timeout_flag_kills_wedged_experiment(self, monkeypatch, capsys):
        import repro.harness.__main__ as cli

        monkeypatch.setattr(
            cli, "ALL_EXPERIMENTS", {"wedge": _sleeping_experiment}
        )
        start = time.time()
        code = cli.main(["wedge", "--timeout", "0.5"])
        assert code == 1
        assert time.time() - start < 10
        assert "Timeout" in capsys.readouterr().err

    def test_chaos_subcommand_passes_on_clean_campaign(self, capsys):
        from repro.harness.__main__ import main

        code = main(
            ["chaos", "saxpy", "--seed", "5", "--schemes", "replay-queue",
             "--intensity", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "state-match" in out

    def test_chaos_subcommand_help(self, capsys):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as exc_info:
            main(["chaos", "--help"])
        assert exc_info.value.code == 0
        help_text = capsys.readouterr().out
        assert "--seed" in help_text
        assert "--max-attempts" in help_text
