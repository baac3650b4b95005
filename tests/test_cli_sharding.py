"""CLI coverage for the sharded execution tier."""

import pytest

from repro.cli import main


def test_fleet_sharded_run_reports_shard_routing(capsys):
    assert main(["fleet", "--clients", "4", "--queries", "6", "--objects",
                 "500", "--shards", "3"]) == 0
    output = capsys.readouterr().out
    assert "3 shard(s) [grid partitioner]" in output
    assert "Shard routing" in output
    assert "queries_routed" in output
    assert "shards_pruned" in output
    assert "pages_read" in output


def test_fleet_shards_one_reports_single_shard(capsys):
    assert main(["fleet", "--clients", "3", "--queries", "5", "--objects",
                 "400", "--shards", "1", "--partitioner", "kd"]) == 0
    output = capsys.readouterr().out
    assert "1 shard(s) [kd partitioner]" in output
    assert "Shard routing" in output


def test_fleet_rejects_invalid_shard_count():
    with pytest.raises(SystemExit):
        main(["fleet", "--clients", "3", "--queries", "5", "--objects",
              "400", "--shards", "0"])


def test_fleet_rejects_shards_with_workers():
    with pytest.raises(SystemExit):
        main(["fleet", "--clients", "4", "--queries", "5", "--objects",
              "400", "--shards", "2", "--workers", "2"])


def test_fleet_rejects_shards_with_resume(tmp_path):
    with pytest.raises(SystemExit):
        main(["fleet", "--resume", str(tmp_path), "--shards", "2"])


def test_fleet_rejects_shards_with_halt(tmp_path):
    with pytest.raises(SystemExit):
        main(["fleet", "--clients", "3", "--queries", "5", "--objects",
              "400", "--shards", "2", "--halt-after", "3",
              "--session-dir", str(tmp_path)])


def test_fleet_rejects_non_proactive_sharded_group():
    with pytest.raises(SystemExit):
        main(["fleet", "--group", "pagers:3:RAN:PAG", "--queries", "5",
              "--objects", "400", "--shards", "2"])


def test_fleet_dynamic_sharded_run(capsys):
    assert main(["fleet", "--clients", "3", "--queries", "6", "--objects",
                 "500", "--shards", "2", "--update-rate", "0.05",
                 "--consistency", "versioned"]) == 0
    output = capsys.readouterr().out
    assert "2 shard(s)" in output
    assert "server updates:" in output


def test_persist_save_shards_then_fleet_from_store(tmp_path, capsys):
    store = str(tmp_path / "shards")
    assert main(["persist", "save-shards", "--out", store, "--shards", "2",
                 "--objects", "500", "--queries", "5"]) == 0
    assert "saved 2 shard store(s)" in capsys.readouterr().out
    assert main(["fleet", "--clients", "3", "--queries", "5", "--objects",
                 "500", "--shards", "2", "--store", store]) == 0
    assert "tree served from" in capsys.readouterr().out


def test_fleet_rejects_mismatched_shard_store(tmp_path, capsys):
    store = str(tmp_path / "shards")
    assert main(["persist", "save-shards", "--out", store, "--shards", "2",
                 "--objects", "500", "--queries", "5"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["fleet", "--clients", "3", "--queries", "5", "--objects",
              "600", "--shards", "2", "--store", store])


def test_persist_save_shards_rejects_bad_partitioner():
    with pytest.raises(SystemExit):
        main(["persist", "save-shards", "--out", "x", "--shards", "2",
              "--partitioner", "voronoi"])
