"""The command line is derived from the config dataclasses.

Every field of ``SimConfig`` and ``ExecutionConfig`` is declared once
(``repro.config``); these tests walk the dataclasses themselves, so a
field added later is covered without an edit here.
"""

import contextlib
import io
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.config import ExecutionConfig, SimConfig
from repro.experiments import runner
from repro.sim.parallel import get_default_execution
from repro.util.options import from_args

REPO = Path(__file__).resolve().parent.parent

#: command-line text for the fields whose metadata carries a ``parse``:
#: their syntax is the one thing this file cannot work out.
PARSED_SAMPLES = {
    "dims": "4x4x2",
    "faults": "token-loss:start=900",
    "point_timeout": "7.5",
    "farm_hosts": "local:2",
}


def flagged(cls):
    return [f for f in fields(cls) if f.metadata.get("flag", "") is not None]


def flag_of(f) -> str:
    return f.metadata.get("flag", "--" + f.name.replace("_", "-"))


def non_default(f):
    """(argv, value the field must come back with) for a value that is
    not the field's default."""
    meta, flag = f.metadata, flag_of(f)
    if isinstance(f.default, bool):
        return [flag], not f.default
    if "parse" in meta:
        text = PARSED_SAMPLES[f.name]
        value = meta["parse"](text)
        return [flag, text], (value,) if meta.get("repeat") else value
    if "choices" in meta:
        value = next(c for c in meta["choices"] if c != f.default)
        return [flag, value], value
    if isinstance(f.default, int):
        return [flag, str(f.default + 3)], f.default + 3
    if isinstance(f.default, float):
        return [flag, repr(f.default / 2)], f.default / 2
    return [flag, f"some-{f.name}"], f"some-{f.name}"


class TestEveryFieldHasItsFlag:
    @pytest.mark.parametrize("f", flagged(SimConfig), ids=lambda f: f.name)
    def test_sim_config_field_round_trips(self, f):
        argv, value = non_default(f)
        assert value != f.default
        args = build_parser().parse_args(["run"] + argv)
        assert getattr(from_args(SimConfig, args), f.name) == value
        if f.name == "load":
            return  # a grid's loads come from --loads
        for command in (["sweep"], ["farm", "plan", "camp"]):
            args = build_parser().parse_args(command + argv)
            config = from_args(SimConfig, args, load=0.001)
            assert getattr(config, f.name) == value, command

    @pytest.mark.parametrize("f", flagged(ExecutionConfig),
                             ids=lambda f: f.name)
    def test_execution_config_field_round_trips(self, f):
        argv, value = non_default(f)
        assert value != f.default
        for command in (["sweep"], ["experiments"]):
            args = build_parser().parse_args(command + argv)
            assert getattr(from_args(ExecutionConfig, args), f.name) == value
        assert getattr(runner.parse_args(argv)[2], f.name) == value

    def test_defaults_are_the_dataclass_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert from_args(SimConfig, args, load=SimConfig.load) == SimConfig()
        assert from_args(ExecutionConfig, args) == ExecutionConfig()

    def test_per_command_defaults_are_visible_at_the_call_site(self):
        parse = build_parser().parse_args
        assert from_args(SimConfig, parse(["run"])).load == 0.008
        assert parse(["cdg-check"]).dims == (4, 4)
        farm = from_args(ExecutionConfig, parse(["farm", "run", "camp"]))
        assert farm.retries == 2 and farm.farm_hosts == "local"
        assert parse(["farm", "run", "camp"]).hang_timeout is None


class TestUsageErrors:
    """Flags that parse one by one but make no valid configuration are
    a one-line usage error with exit status 2, not a traceback."""

    @pytest.mark.parametrize("argv, why", [
        (["run", "--topology", "file"], "needs topology_file"),
        (["run", "--vcs", "0"], "num_vcs must be positive"),
        (["sweep", "--workers", "0"], "workers must be positive"),
        (["experiments", "smoke", "table3", "--point-timeout", "-1"],
         "point_timeout must be positive"),
        (["farm", "plan", "camp", "--shard-size", "0"],
         "shard_size must be positive"),
        (["farm", "run", "camp", "--hang-timeout", "0"],
         "hang_timeout must be positive"),
    ])
    def test_cli_reports_and_exits_2(self, argv, why, capsys, tmp_path,
                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        from repro.farm import CampaignSpec

        CampaignSpec((SimConfig(),), 1, 1).save("camp")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert why in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_runner_reports_and_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["smoke", "table3", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "workers must be positive" in capsys.readouterr().err


class TestOptionsReachWhatExecutes:
    def test_experiments_command_hands_its_flags_to_the_runner(
            self, monkeypatch):
        """``--point-timeout`` used to be parsed and dropped, and
        ``--hosts`` did not exist on this command."""
        seen = []

        class Probe:
            @staticmethod
            def main(scale):
                seen.append((scale, get_default_execution()))

        monkeypatch.setitem(runner.EXPERIMENTS, "table1", Probe)
        assert main(["experiments", "paper", "table1", "--point-timeout",
                     "3", "--hosts", "local:2", "--retries", "4",
                     "--no-cache"]) == 0
        [(scale, execution)] = seen
        assert scale == "paper"
        assert execution == ExecutionConfig(
            point_timeout=3.0, farm_hosts="local:2", retries=4,
            use_cache=False, progress=True)

    def test_runner_hosts_reach_the_scenarios_experiment(self, monkeypatch):
        """Every registry scenario the runner runs reaches ``run_points``
        with the hosts, timeout and retries (a bridge once passed
        ``workers`` and the cache only)."""
        from repro.service.scenarios import SCENARIOS
        from repro.sim import sweep
        from repro.sim.results import RunResult

        calls = {}  # one entry per campaign: its progress reporter

        def fake_run_points(configs, warmup, measure, **kwargs):
            calls[kwargs["reporter"]] = kwargs
            return [RunResult(
                scheme=c.scheme, pattern=c.pattern, num_vcs=c.num_vcs,
                load=c.load, cycles=measure, messages_delivered=1,
                throughput_fpc=0.1, mean_latency=1.0, latency_max=1,
                deadlocks=0, normalized_deadlocks=0.0,
                transactions_completed=1, mean_txn_latency=1.0,
            ) for c in configs]

        monkeypatch.setattr(sweep, "run_points", fake_run_points)
        assert runner.main(["smoke", *SCENARIOS, "--hosts", "local:2",
                            "--point-timeout", "30", "--retries", "3",
                            "--no-cache"]) == 0
        assert len(calls) == len(SCENARIOS)
        for kwargs in calls.values():
            [worker] = kwargs["workers"]
            assert worker.slots == 2 and worker.point_timeout == 30.0
            assert kwargs["retries"] == 3 and kwargs["timeout"] == 30.0
            assert kwargs["cache"] is None


def help_text(*command) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        if command[0] == "runner":
            runner.parse_args(["--help"])
        else:
            main([*command, "--help"])
    return out.getvalue()


#: an invocation in prose, a code block or a CI step: the command, then
#: its arguments up to the end of the (backslash-continued) line or the
#: closing backtick.
INVOCATION = re.compile(
    r"(?:repro(?:\.cli)? +(?P<sub>run|sweep|experiments|cdg-check|serve"
    r"|submit|jobs|trace|farm +(?:plan|run|resume|status))"
    r"|repro\.experiments\.(?P<runner>runner))\b"
    r"(?P<rest>(?:\\\n|[^\n`])*)"
)


def documented_invocations():
    for path in (REPO / "README.md", REPO / "EXPERIMENTS.md",
                 REPO / ".github" / "workflows" / "ci.yml"):
        for match in INVOCATION.finditer(path.read_text("utf-8")):
            command = (("runner",) if match["runner"]
                       else tuple(match["sub"].split()))
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", match["rest"]):
                yield path.name, command, flag


def test_every_documented_flag_is_still_an_option():
    documented = sorted(set(documented_invocations()))
    # the scan finds the commands the docs are known to show
    assert {c for _, c, _ in documented} >= {
        ("run",), ("sweep",), ("farm", "plan"), ("farm", "run"),
        ("cdg-check",), ("serve",), ("submit",), ("jobs",), ("runner",),
    }
    helps = {}
    for doc, command, flag in documented:
        text = helps.setdefault(command, help_text(*command))
        assert re.search(rf"(?<![\w-]){flag}(?![\w-])", text), (
            f"{doc} shows `{' '.join(command)} {flag}`,"
            " which that command does not take"
        )
