import copy
import csv
import hashlib
import json
import os
from dataclasses import fields

import pytest

from hierdispatch import (ChainMismatch, compare, joint_action_count, load_config,
                         run_experiment)
from hierdispatch.harness import (ConfigError, ScenarioConfig, build_scenario,
                                  chain_for_seed, initial_state,
                                  load_failure_schedule)
from hierdispatch import cli, coordinator, lowlevel

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
INF = float("inf")


def tiny_config(tmp_path, **overrides):
    """A fast scenario: 6x6 grid, 4 depots, 3 agents, 2 regions."""
    depot_file = tmp_path / "depots.csv"
    depot_file.write_text("depot_id,gx,gy,capacity\n"
                          "0,1,1,1\n1,4,1,1\n2,1,4,1\n3,4,4,1\n")
    base = dict(grid_width=6, grid_height=6, depot_file=str(depot_file),
                num_agents=3, num_regions=2, seeds=[1, 2],
                horizon_hours=6.0, base_rate_per_hour=0.05,
                hotspots=[{"gx": 1, "gy": 1, "rate_per_hour": 0.8},
                          {"gx": 4, "gy": 4, "rate_per_hour": 0.6}],
                mcts_iterations=16, n_samples=2)
    base.update(overrides)
    cfg = ScenarioConfig(**base)
    cfg.validate()
    return cfg


class TestConfig:
    def test_loads_shipped_config(self):
        cfg = load_config(os.path.join(CONFIG_DIR, "synthetic_default.yaml"))
        assert cfg.num_agents == 8
        assert cfg.num_regions == 3

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("grid_width: 4\ngrid_height: 4\ndepot_file: d.csv\n"
                     "not_a_key: 1\n")
        with pytest.raises(ConfigError, match="not_a_key"):
            load_config(p)

    def test_missing_required_named(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("grid_width: 4\n")
        with pytest.raises(ConfigError, match="grid_height"):
            load_config(p)

    def test_validation_names_fields(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cfg.mode = "nonsense"
        with pytest.raises(ConfigError, match="mode"):
            cfg.validate()
        cfg = tiny_config(tmp_path)
        cfg.service_minutes = 0
        with pytest.raises(ConfigError, match="service_minutes"):
            cfg.validate()
        cfg = tiny_config(tmp_path)
        cfg.test_bed = "nonstationary"
        with pytest.raises(ConfigError, match="spikes"):
            cfg.validate()

    def test_spike_cell_outside_grid_named(self, tmp_path):
        # gx 7 on a 6-wide grid would wrap to cell (1, 1)
        spike = dict(cells=[[7, 0]], start_hour=1.0, end_hour=2.0, multiplier=2.0)
        with pytest.raises(ConfigError, match=r"spikes\[0\]: cell \(7,0\) outside grid"):
            tiny_config(tmp_path, spikes=[spike])

    def test_spike_region_out_of_range_named(self, tmp_path):
        ok = dict(region=1, start_hour=1.0, end_hour=2.0, multiplier=2.0)
        bad = dict(ok, region=7)
        with pytest.raises(ConfigError, match=r"spikes\[1\]: region 7"):
            tiny_config(tmp_path, spikes=[ok, bad])
        with pytest.raises(ConfigError, match=r"spikes\[0\]: region -1"):
            tiny_config(tmp_path, spikes=[dict(ok, region=-1)])

    def test_spike_start_not_before_end_named(self, tmp_path):
        spike = dict(region=0, start_hour=3.0, end_hour=3.0, multiplier=2.0)
        with pytest.raises(ConfigError, match=r"spikes\[0\]: start_hour"):
            tiny_config(tmp_path, spikes=[spike])
        with pytest.raises(ConfigError, match=r"spikes\[0\]: start_hour"):
            tiny_config(tmp_path, spikes=[dict(spike, end_hour=2.0)])

    def test_spike_multiplier_below_one_named(self, tmp_path):
        spike = dict(region=0, start_hour=1.0, end_hour=2.0, multiplier=0.5)
        with pytest.raises(ConfigError, match=r"spikes\[0\]: multiplier"):
            tiny_config(tmp_path, spikes=[spike])

    def test_spike_missing_keys_named(self, tmp_path):
        with pytest.raises(ConfigError, match=r"spikes\[0\]: needs"):
            tiny_config(tmp_path, spikes=[dict(region=0, start_hour=1.0)])
        with pytest.raises(ConfigError, match=r"spikes\[0\]: needs"):
            tiny_config(tmp_path, spikes=[dict(start_hour=1.0, end_hour=2.0,
                                               multiplier=2.0)])

    def test_hotspot_rate_not_a_number_named(self, tmp_path):
        hotspot = {"gx": 1, "gy": 1, "rate_per_hour": "busy"}
        with pytest.raises(ConfigError, match=r"hotspots\[1\]: needs"):
            tiny_config(tmp_path, hotspots=[dict(hotspot, rate_per_hour=0.8), hotspot])

    def test_hotspot_negative_rate_named(self, tmp_path):
        hotspot = {"gx": 1, "gy": 1, "rate_per_hour": -0.5}
        with pytest.raises(ConfigError, match=r"hotspots\[0\]: rate_per_hour"):
            tiny_config(tmp_path, hotspots=[hotspot])

    def test_failure_start_not_a_number_named(self, tmp_path):
        failure = {"agent_id": 1, "start_hour": "noon", "duration_hours": 2.0}
        with pytest.raises(ConfigError, match=r"failures\[0\]: needs"):
            tiny_config(tmp_path, failures=[failure])

    @pytest.mark.parametrize("hours", [0.0, -1.0])
    def test_failure_duration_not_positive_named(self, tmp_path, hours):
        failure = {"agent_id": 1, "start_hour": 1.0, "duration_hours": hours}
        with pytest.raises(ConfigError, match=r"failures\[0\]: duration_hours"):
            tiny_config(tmp_path, failures=[failure])

    @pytest.mark.parametrize("key, value", [
        ("num_regions", "2"),           # a quoted number in the YAML
        ("grid_width", 6.0),
        ("mcts_iterations", True),      # bool is an int to Python
        ("partition_seed", None),
        ("horizon_hours", "6"),
        ("discount", True),             # would pass as 1
        ("history_horizon_hours", "12"),
        ("seeds", [1, "2"]),
        ("seeds", 3),
        ("failure_file", 5),            # a TypeError from os.path
        ("spikes", 5),                  # TypeError: not iterable
    ])
    def test_value_of_wrong_type_named(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=rf"^{key}: must be"):
            tiny_config(tmp_path, **{key: value})

    @pytest.mark.parametrize("key, value", [
        ("horizon_hours", float("inf")),      # OverflowError in hours_to_ms
        ("planning_horizon_hours", float("inf")),
        ("replan_minutes", float("inf")),
        ("service_minutes", float("inf")),
        ("speed_mph", float("inf")),          # ran with mean RT 0
        ("cell_size_miles", float("inf")),
        ("history_horizon_hours", float("inf")),
        ("uct_c", float("nan")),              # no child ever selected
        ("uct_c", -0.5),
        ("base_rate_per_hour", -0.5),
        ("base_rate_per_hour", float("nan")),
        ("seeds", [1, -1]),                   # numpy: expected non-negative integer
        ("partition_seed", -1),
    ])
    def test_value_out_of_range_named(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=rf"^{key}: must be"):
            tiny_config(tmp_path, **{key: value})

    @pytest.mark.parametrize("overrides, named", [
        # numpy's "lam value too large" in a lowlevel run
        (dict(horizon_hours=1e300), "horizon_hours"),
        (dict(planning_horizon_hours=1e30, mode="lowlevel"), "planning_horizon_hours"),
        # numpy's "high is out of bounds for int64"
        (dict(horizon_hours=1e15), "horizon_hours"),
        # a bare OverflowError from hours_to_ms
        (dict(failures=[dict(agent_id=0, start_hour=1.0, duration_hours=INF)]),
         r"failures\[0\]"),
        (dict(failures=[dict(agent_id=0, start_hour=INF)]), r"failures\[0\]"),
        (dict(spikes=[dict(region=0, start_hour=1.0, end_hour=INF, multiplier=2.0)]),
         r"spikes\[0\]"),
        # "Probabilities contain NaN" and "lam value too large"
        (dict(hotspots=[dict(gx=1, gy=1, rate_per_hour=INF)]), r"hotspots\[0\]"),
        (dict(spikes=[dict(region=0, start_hour=1.0, end_hour=2.0, multiplier=INF)]),
         r"spikes\[0\]"),
        # a bare OverflowError from seconds_to_ms
        (dict(failure_file="inf_start.csv"), r"failure file \S+ row 1: start_time_s"),
        # no demand, as the second hotspot replaces the first one's rate:
        # "total weight must be positive" from partition_regions
        (dict(base_rate_per_hour=0.0, hotspots=[dict(gx=0, gy=0, rate_per_hour=1.0),
                                                dict(gx=0, gy=0, rate_per_hour=0.0)]),
         "hotspots"),
        # too many incidents expected in a chain; numpy's "lam value too
        # large" in a run of each of the next two, "array is too big" in
        # one of the third, a MemoryError ("4.16 EiB") in one of the fourth
        (dict(hotspots=[dict(gx=1, gy=1, rate_per_hour=1e300)]), r"hotspots\[0\]"),
        (dict(spikes=[dict(region=0, start_hour=1.0, end_hour=2.0, multiplier=1e300)]),
         r"spikes\[0\]"),
        (dict(spikes=[dict(region=0, start_hour=1.0, end_hour=3.0, multiplier=1e10),
                      dict(region=0, start_hour=2.0, end_hour=4.0, multiplier=1e10)]),
         r"spikes\[0\]"),
        (dict(base_rate_per_hour=1e17), "base_rate_per_hour"),
        (dict(horizon_hours=1e11), "horizon_hours"),  # ~3e11 incidents, never run
    ])
    def test_out_of_range_fails_at_load(self, tmp_path, monkeypatch, overrides, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "inf_start.csv").write_text(
            "agent_id,start_time_s,duration_s\n0,inf,60\n")
        with pytest.raises(ConfigError, match=rf"^{named}[: ]"):
            build_scenario(tiny_config(tmp_path, **overrides))

    def test_demand_bound_multiplies_only_overlapping_spikes(self, tmp_path):
        spike = dict(region=0, start_hour=1.0, end_hour=2.0, multiplier=1e4)
        build_scenario(tiny_config(tmp_path, spikes=[spike, dict(
            spike, start_hour=2.0, end_hour=3.0)]))
        with pytest.raises(ConfigError, match=r"^spikes\[0\]: a chain may hold"):
            build_scenario(tiny_config(tmp_path, spikes=[spike, dict(
                spike, start_hour=1.5, end_hour=3.0)]))

    def test_every_key_has_a_rule(self):
        for f in fields(ScenarioConfig):  # every int and float key among them
            assert "rule" in f.metadata, f"{f.name} declares no rule"

    def test_quoted_number_in_yaml_named(self, tmp_path):
        cfg = tiny_config(tmp_path)
        p = tmp_path / "quoted.yaml"
        p.write_text(f"grid_width: 6\ngrid_height: 6\ndepot_file: {cfg.depot_file}\n"
                     "base_rate_per_hour: 0.1\nnum_regions: \"2\"\n")
        with pytest.raises(ConfigError, match="num_regions: must be an integer"):
            load_config(p)

    def test_max_joint_actions_named(self, tmp_path):
        # the key is retired: every node lists at most max(2, mcts_iterations)
        # joint actions, so a config that still sets it fails at load
        p = tmp_path / "old.yaml"
        p.write_text(f"grid_width: 6\ngrid_height: 6\n"
                     f"depot_file: {tiny_config(tmp_path).depot_file}\n"
                     "base_rate_per_hour: 0.1\nmax_joint_actions: 10000\n")
        with pytest.raises(ConfigError,
                           match=r"^unknown config keys: \['max_joint_actions'\]$"):
            load_config(p)

    def test_valid_spikes_build_as_before(self, tmp_path):
        cfg = tiny_config(tmp_path, spikes=[
            dict(cells=[[1, 1], [5, 5]], start_hour=1.0, end_hour=2.5, multiplier=1.0),
            dict(region=1, start_hour=0.5, end_hour=1.0, multiplier=4.0)])
        scenario = build_scenario(cfg)
        spikes = scenario.model.spikes
        assert spikes[0].cells == {7, 35}
        assert (spikes[0].start_ms, spikes[0].end_ms) == (3_600_000, 9_000_000)
        assert spikes[1].cells == set(scenario.world.partition.cells_of(1))
        assert spikes[1].multiplier == 4.0
        for name in sorted(os.listdir(CONFIG_DIR)):
            if name.endswith(".yaml"):
                load_config(os.path.join(CONFIG_DIR, name))

    def test_agents_capped_by_depot_capacity(self, tmp_path):
        cfg = tiny_config(tmp_path, num_agents=5)
        with pytest.raises(ConfigError, match="num_agents"):
            build_scenario(cfg)


class TestScenario:
    def test_chain_independent_of_mode(self, tmp_path):
        cfg = tiny_config(tmp_path)
        sc = build_scenario(cfg)
        a = chain_for_seed(sc, 1)
        cfg2 = tiny_config(tmp_path, mode="hierarchical",
                           mcts_iterations=99, n_samples=7)
        b = chain_for_seed(build_scenario(cfg2), 1)
        assert a.incidents == b.incidents

    def test_initial_state_same_across_modes(self, tmp_path):
        sc = build_scenario(tiny_config(tmp_path))
        s1 = initial_state(sc)
        s2 = initial_state(sc)
        assert [(a.id, a.region, a.depot) for a in s1.agents] == \
               [(a.id, a.region, a.depot) for a in s2.agents]

    def test_history_file_demand(self, tmp_path):
        hist = tmp_path / "history.csv"
        rows = ["incident_id,timestamp_iso8601,gx,gy"]
        rows += [f"{i},2024-01-01T{i:02d}:00:00,1,1" for i in range(12)]
        hist.write_text("\n".join(rows) + "\n")
        cfg = tiny_config(tmp_path, base_rate_per_hour=0.0, hotspots=[],
                          history_file=str(hist), history_horizon_hours=12.0)
        sc = build_scenario(cfg)
        assert sc.model.rates[1 * 6 + 1] == pytest.approx(1.0)
        assert sc.model.rates.sum() == pytest.approx(1.0)

    def test_empty_history_file_named(self, tmp_path):
        hist = tmp_path / "history.csv"
        hist.write_text("incident_id,timestamp_iso8601,gx,gy\n")
        cfg = tiny_config(tmp_path, base_rate_per_hour=0.0, hotspots=[],
                          history_file=str(hist), history_horizon_hours=12.0)
        with pytest.raises(ConfigError,
                           match=r"^history_file: \S+history.csv holds no incident"):
            build_scenario(cfg)

    @pytest.mark.parametrize("horizon, ok", [(11.0, True), (10.5, False)])
    def test_history_longer_than_its_horizon_named(self, tmp_path, horizon, ok):
        # records from 00:00 to 11:00: 11 h fits them, 10.5 h is too short
        hist = tmp_path / "history.csv"
        rows = ["incident_id,timestamp_iso8601,gx,gy"]
        rows += [f"{i},2024-01-01T{i:02d}:00:00,1,1" for i in range(12)]
        hist.write_text("\n".join(rows) + "\n")
        cfg = tiny_config(tmp_path, base_rate_per_hour=0.0, hotspots=[],
                          history_file=str(hist), history_horizon_hours=horizon)
        if ok:
            assert build_scenario(cfg).model.rates.sum() == pytest.approx(12 / 11)
            return
        with pytest.raises(ConfigError, match=r"^history_horizon_hours: 10.5 h "
                           r"is shorter than the history, whose last record "
                           r"comes 11 h after its first$"):
            build_scenario(cfg)

    def test_history_file_requires_horizon(self, tmp_path):
        hist = tmp_path / "history.csv"
        hist.write_text("incident_id,timestamp_iso8601,gx,gy\n"
                        "0,2024-01-01T00:00:00,1,1\n")
        with pytest.raises(ConfigError, match="history_horizon_hours: required"):
            tiny_config(tmp_path, base_rate_per_hour=0.0, hotspots=[],
                        history_file=str(hist))

    @pytest.mark.parametrize("row, key", [
        ("1,4,1,x", "capacity"),        # not an integer
        ("1,4,1,0", "capacity"),        # below 1
        ("1,6,1,1", "gx"),              # outside the 6x6 grid
        ("0,4,1,1", "depot_id"),        # the id of row 1
    ])
    def test_depot_file_bad_row_named(self, tmp_path, row, key):
        cfg = tiny_config(tmp_path)
        with open(cfg.depot_file, "w") as f:
            f.write(f"depot_id,gx,gy,capacity\n0,1,1,2\n{row}\n2,1,4,1\n")
        with pytest.raises(ConfigError, match=rf"depots.csv row 2: {key}"):
            build_scenario(cfg)

    def test_more_regions_than_depots_named(self, tmp_path):
        cfg = tiny_config(tmp_path, num_regions=5)
        with pytest.raises(ConfigError, match=r"num_regions: 5 exceeds the 4 depots"):
            build_scenario(cfg)

    def test_history_rates_bounded(self, tmp_path):
        hist = tmp_path / "history.csv"
        hist.write_text("incident_id,timestamp_iso8601,gx,gy\n"
                        "0,2024-01-01T00:00:00,1,1\n")
        cfg = tiny_config(tmp_path, base_rate_per_hour=0.0, hotspots=[],
                          history_file=str(hist), history_horizon_hours=1e-300)
        with pytest.raises(ConfigError, match=r"^history_horizon_hours: a chain"):
            build_scenario(cfg)

    def test_history_horizon_must_be_positive(self, tmp_path):
        hist = tmp_path / "history.csv"
        hist.write_text("incident_id,timestamp_iso8601,gx,gy\n"
                        "0,2024-01-01T00:00:00,1,1\n")
        with pytest.raises(ConfigError, match="history_horizon_hours: must be positive"):
            tiny_config(tmp_path, base_rate_per_hour=0.0, hotspots=[],
                        history_file=str(hist), history_horizon_hours=-1)

    @pytest.mark.parametrize("row, key", [
        ("1,noon,1,1", "timestamp_iso8601"),
        ("1,2024-01-01T01:00:00,1,6", "gy"),
    ])
    def test_history_file_bad_row_named(self, tmp_path, row, key):
        hist = tmp_path / "history.csv"
        hist.write_text(f"incident_id,timestamp_iso8601,gx,gy\n"
                        f"0,2024-01-01T00:00:00,1,1\n{row}\n")
        cfg = tiny_config(tmp_path, base_rate_per_hour=0.0, hotspots=[],
                          history_file=str(hist), history_horizon_hours=12.0)
        with pytest.raises(ConfigError, match=rf"history.csv row 2: {key}"):
            build_scenario(cfg)

    @pytest.mark.parametrize("first, second", [
        ("2024-01-01T00:00:00+00:00", "2024-01-01T01:00:00"),
        ("2024-01-01T00:00:00", "2024-01-01T01:00:00+02:00"),
    ])
    def test_history_file_mixed_offsets_named(self, tmp_path, first, second):
        hist = tmp_path / "history.csv"
        hist.write_text(f"incident_id,timestamp_iso8601,gx,gy\n"
                        f"0,{first},1,1\n1,{second},1,1\n")
        cfg = tiny_config(tmp_path, base_rate_per_hour=0.0, hotspots=[],
                          history_file=str(hist), history_horizon_hours=12.0)
        with pytest.raises(ConfigError,
                           match=r"history.csv row 2: timestamp_iso8601 .* UTC offset"):
            build_scenario(cfg)

    def test_failure_agent_must_exist(self, tmp_path):
        # checked at load, naming the entry
        with pytest.raises(ConfigError, match=r"^failures\[1\]: agent_id 99 is not "
                           r"in the fleet \(num_agents=3\)$"):
            tiny_config(tmp_path, failures=[
                {"agent_id": 0, "start_hour": 1.0, "duration_hours": 8.0},
                {"agent_id": 99, "start_hour": 1.0, "duration_hours": 8.0}])

    @pytest.mark.parametrize("row, message", [
        ("3,0,60", r"row 2: agent_id 3 is not in the fleet \(num_agents=3\)$"),
        ("2,9000,60", r"row 2: agent_id 2 has overlapping windows"),
    ])
    def test_failure_file_row_named(self, tmp_path, row, message):
        # file rows are checked at build, against the inline entries too:
        # failures[0] keeps agent 2 down from 2 h to 10 h
        p = tmp_path / "failures.csv"
        p.write_text(f"agent_id,start_time_s,duration_s\n0,0,60\n{row}\n")
        cfg = tiny_config(tmp_path, failure_file=str(p), failures=[
            {"agent_id": 2, "start_hour": 2.0, "duration_hours": 8.0}])
        with pytest.raises(ConfigError, match=rf"^failure file \S+failures.csv {message}"):
            build_scenario(cfg)

    def test_failure_schedule_file(self, tmp_path):
        p = tmp_path / "failures.csv"
        p.write_text("agent_id,start_time_s,duration_s\n1,7200,28800\n")
        failures = load_failure_schedule(p)
        assert failures[0].agent_id == 1
        assert failures[0].start_ms == 7_200_000
        assert failures[0].duration_ms == 28_800_000

    def test_failure_schedule_rounds_to_nearest_ms(self, tmp_path):
        p = tmp_path / "failures.csv"
        p.write_text("agent_id,start_time_s,duration_s\n0,1.001,0.0007\n")
        failures = load_failure_schedule(p)
        assert failures[0].start_ms == 1001
        assert failures[0].duration_ms == 1

    @pytest.mark.parametrize("row, key", [
        ("1,7200,0", "duration_s"),            # zero duration
        ("1,noon,3600", "start_time_s"),       # not a number
        ("one,7200,3600", "agent_id"),         # not an integer
    ])
    def test_failure_schedule_bad_row_named(self, tmp_path, row, key):
        p = tmp_path / "failures.csv"
        p.write_text(f"agent_id,start_time_s,duration_s\n0,0,60\n{row}\n")
        cfg = tiny_config(tmp_path, failure_file=str(p))
        with pytest.raises(ConfigError, match=rf"failures.csv row 2: {key}"):
            build_scenario(cfg)

    @pytest.mark.parametrize("windows", [
        [(2.0, 8.0), (3.0, 2.0)],   # nested: (2 h, 10 h) holds (3 h, 5 h)
        [(2.0, 4.0), (4.0, 4.0), (5.0, 2.0)],  # third overlaps the second
        [(4.0, 2.0), (2.0, 4.0)],   # partly overlapping, listed out of order
    ])
    def test_overlapping_failure_windows_rejected(self, tmp_path, windows):
        # checked at load, naming the entry that starts inside another
        with pytest.raises(ConfigError,
                           match=r"^failures\[\d\]: agent_id 1 has overlapping"):
            tiny_config(tmp_path, failures=[
                {"agent_id": 1, "start_hour": start, "duration_hours": hours}
                for start, hours in windows])

    def test_touching_failure_windows_allowed(self, tmp_path):
        cfg = tiny_config(tmp_path, failures=[
            {"agent_id": 1, "start_hour": 2.0, "duration_hours": 2.0},
            {"agent_id": 1, "start_hour": 4.0, "duration_hours": 2.0},
            {"agent_id": 2, "start_hour": 3.0, "duration_hours": 2.0}])
        assert len(build_scenario(cfg).failures) == 3


class TestRunExperiment:
    def test_zero_incidents_empty_report(self, tmp_path):
        # a seed whose sampled chain is empty: tiny rate, tiny horizon
        cfg = tiny_config(tmp_path, seeds=[3], horizon_hours=0.05,
                          base_rate_per_hour=0.001, hotspots=[])
        report = run_experiment(cfg, tmp_path / "out")
        assert report.count == 0
        assert report.mean == 0.0
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[0] == "mode,mean_rt_s,q1,q3,iqr,n,planner_mean_s"

    def test_incident_file_schema(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=[1])
        run_experiment(cfg, tmp_path / "out")
        with open(tmp_path / "out" / "incidents_seed1.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows, "expected dispatched incidents"
        expected_cols = ["incident_id", "report_time_s", "cell",
                         "dispatch_time_s", "arrival_time_s",
                         "response_time_s", "agent_id", "region_id"]
        assert list(rows[0]) == expected_cols
        for row in rows:
            rt = float(row["response_time_s"])
            assert rt >= 0
            assert float(row["arrival_time_s"]) - float(row["report_time_s"]) \
                == pytest.approx(rt, abs=0.002)

    def test_deterministic_outputs(self, tmp_path):
        cfg = tiny_config(tmp_path, mode="lowlevel")
        run_experiment(copy.deepcopy(cfg), tmp_path / "a")
        run_experiment(copy.deepcopy(cfg), tmp_path / "b")
        for seed in cfg.seeds:
            fa = (tmp_path / "a" / f"incidents_seed{seed}.csv").read_bytes()
            fb = (tmp_path / "b" / f"incidents_seed{seed}.csv").read_bytes()
            assert fa == fb
        ra = json.loads((tmp_path / "a" / "report.json").read_text())
        rb = json.loads((tmp_path / "b" / "report.json").read_text())
        for rep in (ra, rb):  # wall-clock field, excluded from comparison
            rep["summary"].pop("planner_mean_s")
        assert ra == rb

    def test_pooled_mean_is_weighted_mean(self, tmp_path):
        cfg = tiny_config(tmp_path)
        report = run_experiment(cfg, tmp_path / "out")
        weighted = sum(s["mean_rt_s"] * s["n"] for s in report.per_seed.values())
        total = sum(s["n"] for s in report.per_seed.values())
        assert report.mean == pytest.approx(weighted / total, abs=1e-9)

    def test_quartile_ordering(self, tmp_path):
        cfg = tiny_config(tmp_path)
        report = run_experiment(cfg, tmp_path / "out")
        q1, q2, q3 = report.quartiles()
        assert q1 <= q2 <= q3

    def test_golden_hierarchical_outputs(self, tmp_path):
        # synthetic_nonstationary, hierarchical, seed 1 over 8 h: the first
        # rate spike (6-10 h) makes two cross-region transfers. Digests
        # recorded with numpy 2.4.6 (the chains follow numpy's Generator
        # streams) on commit c25beaf, before the search built its actions
        # lazily; a speed-up must leave both files byte-identical.
        cfg = load_config(os.path.join(CONFIG_DIR, "synthetic_nonstationary.yaml"))
        cfg.seeds, cfg.horizon_hours = [1], 8.0
        cfg.validate()
        report = run_experiment(cfg, tmp_path / "out", trace=True)
        assert report.transfers == 2
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                   for name in ("incidents_seed1.csv", "trajectory_seed1.log")}
        assert digests == {
            "incidents_seed1.csv":
                "539f6c72ef5c4a9106fb3283ab1143c7f68a47fd3edf8264a28e305f563b6fa7",
            "trajectory_seed1.log":
                "f6ba2311a84d8c0060b490137acd8cc9adaa1fba8b8cdedfb339587f964d8901",
        }

    def test_golden_capped_root_outputs(self, tmp_path, monkeypatch):
        # metro30_preset, hierarchical, seed 1 over 4 h at 128 iterations
        # and 2 chains: region 4 (14 depots, 6 agents) has P(14, 6) joint
        # actions, far above 128, and its roots list only the first 128.
        # Digests recorded with numpy 2.4.6 when every node began to list
        # at most max(2, iterations) joint actions, the per-agent search of
        # larger regions deleted; a speed-up must leave both files
        # byte-identical. No helper, so that this process runs every tree.
        capped = []
        search = lowlevel.mcts_search

        def counted(rs, chain, world, params, **kwargs):
            idle = len(rs.state.idle_agents())
            free = len(rs.depots) - (len(rs.state.agents) - idle)  # unit depots
            result = search(rs, chain, world, params, **kwargs)
            listed = len(result.root.children) + len(result.root.untried)
            capped.append((rs.region, listed == params.iterations
                           < joint_action_count(free, idle)))
            return result
        monkeypatch.setattr(lowlevel, "mcts_search", counted)
        monkeypatch.setattr(coordinator, "helper_count", lambda _n: 0)
        cfg = load_config(os.path.join(CONFIG_DIR, "metro30_preset.yaml"))
        cfg.seeds, cfg.horizon_hours = [1], 4.0
        cfg.mcts_iterations, cfg.n_samples = 128, 2
        cfg.validate()
        run_experiment(cfg, tmp_path / "out", trace=True)
        assert (4, True) in capped
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                   for name in ("incidents_seed1.csv", "trajectory_seed1.log")}
        assert digests == {
            "incidents_seed1.csv":
                "19e53dfa2ad49a1a21f4c5f150d275f2bb2aa2838a4d05f6e369bf7da315bbc9",
            "trajectory_seed1.log":
                "372b678a7cb8c758b993d24f15cfe04ad8ebd764040c6068a28fd2850020044c",
        }

    def test_trace_log_schema(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=[1])
        run_experiment(cfg, tmp_path / "out", trace=True)
        lines = (tmp_path / "out" / "trajectory_seed1.log").read_text().splitlines()
        assert lines[0] == "time_s,kind,agent_id,incident_id,detail"
        assert len(lines) > 1


class TestCompare:
    def test_paired_deltas(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run_experiment(copy.deepcopy(cfg), tmp_path / "base")
        lo = copy.deepcopy(cfg)
        lo.mode = "lowlevel"
        run_experiment(lo, tmp_path / "low")
        rows = compare([tmp_path / "base" / "report.json",
                        tmp_path / "low" / "report.json"],
                       tmp_path / "comparison.csv")
        assert rows[0]["delta_mean_s"] == 0.0
        assert rows[1]["mode"] == "lowlevel"
        with open(tmp_path / "comparison.csv") as f:
            parsed = list(csv.DictReader(f))
        assert len(parsed) == 2

    def test_chain_mismatch(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run_experiment(copy.deepcopy(cfg), tmp_path / "a")
        other = tiny_config(tmp_path, seeds=[7, 8])
        run_experiment(other, tmp_path / "b")
        with pytest.raises(ChainMismatch):
            compare([tmp_path / "a" / "report.json",
                     tmp_path / "b" / "report.json"])


class TestCLI:
    def _write_config(self, tmp_path):
        depot_file = tmp_path / "depots.csv"
        depot_file.write_text("depot_id,gx,gy,capacity\n"
                              "0,1,1,1\n1,4,1,1\n2,1,4,1\n3,4,4,1\n")
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(
            "grid_width: 6\ngrid_height: 6\ndepot_file: depots.csv\n"
            "num_agents: 3\nnum_regions: 2\nseeds: [1]\nhorizon_hours: 4.0\n"
            "base_rate_per_hour: 0.3\nmcts_iterations: 8\nn_samples: 1\n")
        return cfg

    def test_run_and_compare(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "base")]) == 0
        assert cli.main(["run", "--config", str(cfg), "--mode", "lowlevel",
                         "--out", str(tmp_path / "low")]) == 0
        assert cli.main(["compare", "--out", str(tmp_path / "cmp"),
                         str(tmp_path / "base" / "report.json"),
                         str(tmp_path / "low" / "report.json")]) == 0
        out = capsys.readouterr().out
        assert "delta_mean_s" in out
        assert os.path.exists(tmp_path / "cmp" / "comparison.csv")

    def test_seed_override_and_trace(self, tmp_path):
        cfg = self._write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg), "--seed", "9",
                         "--trace", "--out", str(tmp_path / "s9")]) == 0
        assert os.path.exists(tmp_path / "s9" / "incidents_seed9.csv")
        assert os.path.exists(tmp_path / "s9" / "trajectory_seed9.log")

    def test_compare_one_report_fails_in_one_line(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "base")]) == 0
        capsys.readouterr()
        assert cli.main(["compare", str(tmp_path / "base" / "report.json")]) == 2
        assert capsys.readouterr().err == \
            "hierdispatch: error: need at least two reports to compare\n"

    def test_compare_other_chains_fails_in_one_line(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        for seed in ("1", "2"):
            assert cli.main(["run", "--config", str(cfg), "--seed", seed,
                             "--out", str(tmp_path / seed)]) == 0
        capsys.readouterr()
        assert cli.main(["compare", str(tmp_path / "1" / "report.json"),
                         str(tmp_path / "2" / "report.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hierdispatch: error: ") and err.count("\n") == 1
        assert "different chains" in err

    def test_run_bad_config_fails_in_one_line(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        cfg.write_text(cfg.read_text() + "not_a_key: 1\n")
        assert cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("hierdispatch: error: unknown config keys: "
                                "['not_a_key']\n")

    def test_run_infinite_failure_fails_in_one_line(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        cfg.write_text(cfg.read_text() + "failures:\n"
                       "  - {agent_id: 0, start_hour: 1.0, duration_hours: .inf}\n")
        assert cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("hierdispatch: error: failures[0]: needs agent_id, "
                                "finite start_hour and duration_hours\n")

    def test_run_empty_history_fails_in_one_line(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        (tmp_path / "history.csv").write_text("incident_id,timestamp_iso8601,gx,gy\n")
        cfg.write_text(cfg.read_text().replace("base_rate_per_hour: 0.3\n", "")
                       + "history_file: history.csv\nhistory_horizon_hours: 24\n")
        assert cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"hierdispatch: error: history_file: "
                                f"{tmp_path / 'history.csv'} holds no incident "
                                "records\n")

    def test_run_missing_config_fails_in_one_line(self, tmp_path, capsys):
        missing = tmp_path / "nope.yaml"
        assert cli.main(["run", "--config", str(missing), "--out",
                         str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hierdispatch: error: ")
        assert captured.err.count("\n") == 1 and str(missing) in captured.err

    def test_compare_missing_report_fails_in_one_line(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["compare", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hierdispatch: error: ")
        assert captured.err.count("\n") == 1 and str(a) in captured.err

    def test_partition_dump(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli.main(["partition", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "cell_id,gx,gy,region"
        assert len(out) == 37  # header + 36 cells
