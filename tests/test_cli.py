"""Tests for the command-line interface (fast commands only; the
heavyweight verify/table1 paths are covered by the benchmarks)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.trials == 60
        assert args.seed == 2015

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_portfolio_defaults_are_the_16_scheme_grid(self):
        from repro.apps.schemes import case_study_grid_16, scheme_grid
        from repro.cli import _INVOCATION_KINDS, _READ_POLICIES

        args = build_parser().parse_args(["portfolio"])
        grid = (len(args.buffer_sizes) * len(args.periods)
                * len(args.bolus_polls) * len(args.read_policies)
                * len(args.invocation_kinds))
        assert grid == 16
        assert args.deadline == 500
        # The default CLI grid is *the* benchmarked sweep — scheme
        # names must match the committed BENCH record's rows exactly.
        from repro.apps.schemes import case_study_scheme
        cli_schemes = scheme_grid(
            case_study_scheme,
            buffer_size=args.buffer_sizes,
            period=args.periods,
            bolus_poll=args.bolus_polls,
            read_policy=[_READ_POLICIES[v]
                         for v in args.read_policies],
            invocation_kind=[_INVOCATION_KINDS[v]
                             for v in args.invocation_kinds])
        assert [s.name for s in cli_schemes] == \
            [s.name for s in case_study_grid_16()]

    def test_portfolio_grid_syntax(self):
        args = build_parser().parse_args(
            ["portfolio", "--buffer-sizes", "1", "3",
             "--periods", "100", "--read-policies", "read-one",
             "--invocation-kinds", "aperiodic"])
        assert args.buffer_sizes == [1, 3]
        assert args.periods == [100]
        assert args.read_policies == ["read-one"]
        assert args.invocation_kinds == ["aperiodic"]

    def test_portfolio_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["portfolio", "--read-policies", "sometimes"])


class TestCommands:
    def test_scheme(self, capsys):
        assert main(["scheme"]) == 0
        out = capsys.readouterr().out
        assert "MC(m_BolusReq)" in out
        assert "poll=380" in out

    def test_render_pim_summary(self, capsys):
        assert main(["render", "--model", "pim"]) == 0
        out = capsys.readouterr().out
        assert "network infusion_pim" in out
        assert "M:" in out

    def test_render_pim_dot(self, capsys):
        assert main(["render", "--model", "pim", "--format",
                     "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "m_BolusReq" in out

    def test_render_psm_blocks(self, capsys):
        assert main(["render", "--model", "psm", "--format",
                     "blocks"]) == 0
        out = capsys.readouterr().out
        assert "Input-Device" in out

    def test_render_blocks_needs_psm(self, capsys):
        assert main(["render", "--model", "pim", "--format",
                     "blocks"]) == 2

    def test_timeline_read_all(self, capsys):
        assert main(["timeline", "--policy", "read-all"]) == 0
        out = capsys.readouterr().out
        assert "invocation 4: i2, i3" in out

    def test_timeline_read_one(self, capsys):
        assert main(["timeline", "--policy", "read-one"]) == 0
        out = capsys.readouterr().out
        assert "invocation 4: i2" in out
        assert "invocation 5: i3" in out

    def test_table1_takes_the_command_config(self, monkeypatch,
                                             capsys):
        """``table1`` verifies on the engine config ``main`` resolved
        from the global flags."""
        import repro.cli as cli

        seen = {}

        class Table:
            shape_holds = True

            def render(self):
                return "table"

        def fake_run_case_study(**kwargs):
            seen.update(kwargs)
            return Table()

        monkeypatch.setattr(cli, "run_case_study", fake_run_case_study)
        assert main(["--zone-backend", "reference", "--jobs", "2",
                     "table1", "--trials", "1"]) == 0
        framework = seen["framework"]
        assert (framework.backend, framework.jobs) == ("reference", 2)
        assert framework.max_states == 2_000_000
        assert seen["trials"] == 1

    def test_simulate_small(self, capsys):
        assert main(["simulate", "--trials", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "M-C delay" in out
        assert "REQ1 violations" in out


class TestMonitorCommand:
    def test_parser_defaults(self):
        from repro.apps.infusion import REQ1_DEADLINE_MS

        args = build_parser().parse_args(["monitor"])
        assert args.files == []
        assert args.deadline == REQ1_DEADLINE_MS
        assert args.max_states == 20_000
        assert args.server is None

    def test_simulate_with_live_monitor(self, capsys):
        assert main(["simulate", "--trials", "2", "--seed", "1",
                     "--monitor"]) == 0
        out = capsys.readouterr().out
        assert "monitor: conforming" in out

    def test_simulate_monitor_takes_the_command_config(
            self, monkeypatch, capsys):
        """``simulate --monitor`` builds its monitor model on the
        engine config ``main`` resolved from the global flags."""
        from repro.monitor import MonitorModel

        seen = []
        original = MonitorModel.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            seen.append((self.backend.name, self.abstraction.name))

        monkeypatch.setattr(MonitorModel, "__init__", spy)
        assert main(["--zone-backend", "reference", "--abstraction",
                     "extra_lu", "simulate", "--trials", "1",
                     "--seed", "1", "--monitor"]) == 0
        assert seen == [("reference", "extra_lu")]
        assert "monitor: conforming" in capsys.readouterr().out

    def test_monitor_trace_files(self, tmp_path, capsys):
        """A simulated case-study run conforms; a perturbed copy is
        flagged (exit 2) with the deviation in the JSON row."""
        import dataclasses
        import json

        from repro.analysis.table1 import simulate_trials
        from repro.apps.infusion import build_infusion_pim
        from repro.apps.schemes import case_study_scheme
        from repro.monitor import events_to_jsonl

        events = []
        simulate_trials(build_infusion_pim(), case_study_scheme(),
                        trials=2, seed=1,
                        trace_listener=events.append)
        good = tmp_path / "good.jsonl"
        good.write_text(events_to_jsonl(events))
        assert main(["monitor", str(good)]) == 0
        rows = [json.loads(line) for line
                in capsys.readouterr().out.splitlines()]
        assert rows[0]["trace"] == str(good)
        assert rows[0]["conforming"] is True

        late = [dataclasses.replace(e, time_us=e.time_us + 900_000)
                if e.kind == "c" else e for e in events]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(events_to_jsonl(late))
        assert main(["monitor", str(bad)]) == 2
        row = json.loads(capsys.readouterr().out.splitlines()[0])
        assert row["conforming"] is False
        assert row["deviation"]["channel"] == "c_StartInfusion"
