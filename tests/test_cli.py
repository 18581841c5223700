"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import main, parse_fault
from repro.faults import (
    AMFault,
    MapWaveFault,
    NodeFault,
    PartitionFault,
    RackFault,
    SlowNodeFault,
    TaskFault,
)
from repro.mapreduce.tasks import TaskType


class TestParseFault:
    def test_reduce_spec(self):
        f = parse_fault("reduce@0.5")
        assert isinstance(f, TaskFault)
        assert f.task_type is TaskType.REDUCE
        assert f.at_progress == 0.5

    def test_map_spec_with_index(self):
        f = parse_fault("map@0.3:7")
        assert f.task_type is TaskType.MAP
        assert f.task_index == 7

    def test_node_specs(self):
        f = parse_fault("node@0.4:map-only")
        assert isinstance(f, NodeFault)
        assert f.at_progress == 0.4
        assert f.target == "map-only"
        f2 = parse_fault("nodetime@30:2")
        assert f2.at_time == 30 and f2.target == 2

    def test_maps_spec(self):
        f = parse_fault("maps@10:50")
        assert isinstance(f, MapWaveFault)
        assert f.count == 50 and f.at_time == 10

    def test_slow_spec(self):
        f = parse_fault("slow@5:1:0.25")
        assert isinstance(f, SlowNodeFault)
        assert f.disk_factor == 0.25

    @pytest.mark.parametrize("spec,expected", [
        ("reduce@0.5", TaskFault(TaskType.REDUCE, 0, 0.5)),
        ("reduce@0.5:2", TaskFault(TaskType.REDUCE, 2, 0.5)),
        ("map@0.3", TaskFault(TaskType.MAP, 0, 0.3)),
        ("map@0.3:7", TaskFault(TaskType.MAP, 7, 0.3)),
        ("node@0.4", NodeFault(target="reducer", at_progress=0.4)),
        ("node@0.4:3", NodeFault(target=3, at_progress=0.4)),
        ("nodetime@30", NodeFault(target="reducer", at_time=30.0)),
        ("nodetime@30:map-only", NodeFault(target="map-only", at_time=30.0)),
        ("maps@10:50", MapWaveFault(count=50, at_time=10.0)),
        ("slow@5", SlowNodeFault(node_index=0, at_time=5.0)),
        ("slow@5:1", SlowNodeFault(node_index=1, at_time=5.0)),
        ("slow@5:1:0.25", SlowNodeFault(node_index=1, at_time=5.0, disk_factor=0.25)),
        ("partition@10:3", PartitionFault(node_indices=(3,), at_time=10.0,
                                          duration=30.0)),
        ("partition@10:1,2:45", PartitionFault(node_indices=(1, 2), at_time=10.0,
                                               duration=45.0)),
        ("am@0.5", AMFault(at_progress=0.5)),
        ("am@0.5:2", AMFault(at_progress=0.5, repeat=2)),
        ("amtime@40", AMFault(at_time=40.0)),
        ("rack@20", RackFault(rack_index=0, at_time=20.0, mode="crash")),
        ("rack@20:1", RackFault(rack_index=1, at_time=20.0, mode="crash")),
        ("rack@20:1:network", RackFault(rack_index=1, at_time=20.0, mode="network")),
    ])
    def test_every_form_builds_its_injector(self, spec, expected):
        assert parse_fault(spec) == expected

    def test_bad_specs_rejected(self):
        for bad in ("meteor@1", "reduce", "node@x", "maps@1"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_fault(bad)


class TestRunCommand:
    def test_run_small_job(self, capsys):
        rc = main(["run", "wordcount", "--size-gb", "1", "--nodes", "6",
                   "--policy", "alm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SUCCESS" in out
        assert "committed_reduces" in out

    def test_run_with_fault_and_report(self, capsys):
        rc = main(["run", "wordcount", "--size-gb", "1", "--nodes", "6",
                   "--fault", "reduce@0.8", "--report"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "failure timeline" in out
        assert "fault_injected" in out

    def test_run_export_json(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        rc = main(["run", "wordcount", "--size-gb", "1", "--nodes", "6",
                   "--export", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["summary"]["success"] is True

    def test_run_iss_policy(self, capsys):
        rc = main(["run", "wordcount", "--size-gb", "1", "--nodes", "6",
                   "--policy", "iss"])
        assert rc == 0

    def test_run_reducers_override(self, capsys):
        rc = main(["run", "terasort", "--size-gb", "2", "--nodes", "6",
                   "--reducers", "3"])
        assert rc == 0


class TestOtherCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "terasort" in out and "alm" in out and "fig08" in out

    def test_experiment_fig03_small(self, capsys):
        assert main(["experiment", "fig03", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "crash=" in out

    def test_experiment_table2_small(self, capsys):
        assert main(["experiment", "table2", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
