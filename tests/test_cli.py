"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, config_from_args, main


def test_parser_requires_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_config_from_args_scaled():
    parser = build_parser()
    args = parser.parse_args(["compare", "--queries", "12", "--objects", "300",
                              "--mobility", "DIR", "--cache", "0.02",
                              "--replacement", "LRU", "--dataset", "RD"])
    config = config_from_args(args)
    assert config.query_count == 12
    assert config.object_count == 300
    assert config.mobility_model == "DIR"
    assert config.cache_fraction == 0.02
    assert config.replacement_policy == "LRU"
    assert config.dataset_name == "RD"


def test_config_from_args_paper_scale():
    parser = build_parser()
    args = parser.parse_args(["params", "--paper-scale"])
    config = config_from_args(args)
    assert config.object_count == 123_593


def test_params_command_prints_table(capsys):
    assert main(["params", "--queries", "10", "--objects", "200"]) == 0
    output = capsys.readouterr().out
    assert "Area_wnd" in output
    assert "paper (Table 6.1)" in output


def test_compare_command_runs_tiny_simulation(capsys):
    assert main(["compare", "--queries", "8", "--objects", "200",
                 "--models", "PAG,APRO"]) == 0
    output = capsys.readouterr().out
    assert "cache_hit_rate" in output
    assert "PAG" in output and "APRO" in output


def test_figure_table61_command(capsys):
    assert main(["figure", "table61", "--queries", "5", "--objects", "150"]) == 0
    assert "Table 6.1" in capsys.readouterr().out


def test_figure_6_command_tiny(capsys):
    assert main(["figure", "6", "--queries", "8", "--objects", "200"]) == 0
    assert "Figure 6" in capsys.readouterr().out


#: The figures no other test here runs through ``main()``, with a line each
#: prints (``6`` and ``table61`` have their own tests above).
FIGURE_TITLES = {"7": "Figure 7(a)", "8": "Figure 8", "9": "Figure 9",
                 "10": "Figure 10", "11": "Figure 11(a)",
                 "overheads": "Section 6.4"}


@pytest.mark.parametrize("figure", sorted(FIGURE_TITLES))
def test_every_figure_command_tiny(figure, capsys):
    assert main(["figure", figure, "--queries", "8", "--objects", "200"]) == 0
    assert FIGURE_TITLES[figure] in capsys.readouterr().out


def test_figure_11_default_output_is_unchanged(capsys):
    """``repro figure 11`` at its defaults (250 queries, 4 000 objects, the
    scaled configuration under Figure 11's fixed fields) prints a recorded
    output, byte for byte."""
    import hashlib
    assert main(["figure", "11"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ("093cd636c9add3bcfb9db6d6d0db7895"
                      "3ed2e794ab4c2abb22a544d4d48d1973")


def test_figure_11_refuses_paper_scale():
    """At Table 6.1 scale Figure 11 would keep only the query and object
    counts; it is refused instead of run as that hybrid."""
    with pytest.raises(SystemExit, match="repro figure: error: figure 11 "
                                         "refuses --paper-scale"):
        main(["figure", "11", "--paper-scale"])


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "42"])


# --------------------------------------------------------------------------- #
# persistence: repro persist / --store / --halt-after / --resume
# --------------------------------------------------------------------------- #
TINY = ["--queries", "8", "--objects", "200"]


def test_persist_save_info_verify_roundtrip(tmp_path, capsys):
    store = str(tmp_path / "server.rpro")
    assert main(["persist", "save-tree", "--out", store] + TINY) == 0
    assert "node pages" in capsys.readouterr().out

    assert main(["persist", "info", store]) == 0
    output = capsys.readouterr().out
    assert "rtree page store" in output and "meta.dataset: NE" in output

    assert main(["persist", "verify", store] + TINY) == 0
    output = capsys.readouterr().out
    assert output.startswith("OK") and "physical file reads" in output


def test_persist_info_rejects_garbage(tmp_path):
    path = tmp_path / "junk.rpro"
    path.write_bytes(b"nope")
    with pytest.raises(SystemExit, match="persist"):
        main(["persist", "info", str(path)])


def test_compare_with_store_matches_memory(tmp_path, capsys):
    store = str(tmp_path / "server.rpro")
    assert main(["persist", "save-tree", "--out", store] + TINY) == 0
    capsys.readouterr()
    assert main(["compare", "--models", "APRO"] + TINY) == 0
    memory_output = capsys.readouterr().out
    assert main(["compare", "--models", "APRO", "--store", store] + TINY) == 0
    store_output = capsys.readouterr().out

    def deterministic_rows(text):
        # Drop the wall-clock CPU row; everything else is seed-deterministic.
        return [line for line in text.splitlines() if "cpu" not in line]

    assert deterministic_rows(store_output) == deterministic_rows(memory_output)


def test_fleet_halt_and_resume(tmp_path, capsys):
    session_dir = str(tmp_path / "session")
    fleet_args = ["fleet", "--clients", "3", "--queries", "4",
                  "--objects", "200"]
    assert main(fleet_args + ["--halt-after", "5",
                              "--session-dir", session_dir]) == 0
    output = capsys.readouterr().out
    assert "halted after 5" in output
    assert main(["fleet", "--resume", session_dir]) == 0
    resumed_output = capsys.readouterr().out
    assert "resumed from" in resumed_output

    # The combined metrics equal an uninterrupted run's.
    assert main(fleet_args) == 0
    uninterrupted_output = capsys.readouterr().out
    for line in ("uplink_bytes", "downlink_bytes", "cache_hit_rate"):
        resumed_line = next(l for l in resumed_output.splitlines()
                            if l.startswith(line))
        plain_line = next(l for l in uninterrupted_output.splitlines()
                          if l.startswith(line))
        assert resumed_line == plain_line


def test_fleet_halt_requires_session_dir():
    with pytest.raises(SystemExit, match="session-dir"):
        main(["fleet", "--clients", "2", "--queries", "2", "--objects", "150",
              "--halt-after", "3"])


def test_fleet_resume_bad_directory(tmp_path):
    with pytest.raises(SystemExit, match="resume"):
        main(["fleet", "--resume", str(tmp_path / "missing")])


def test_help_epilogs_show_examples(capsys):
    for command in ("compare", "fleet", "persist"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "examples:" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# error paths: corrupted stores, missing sessions, bad flags
# --------------------------------------------------------------------------- #
def test_persist_verify_rejects_garbage_file(tmp_path):
    path = tmp_path / "junk.rpro"
    path.write_bytes(b"not a page store at all")
    with pytest.raises(SystemExit, match="repro persist: error"):
        main(["persist", "verify", str(path)] + TINY)


def test_persist_verify_rejects_truncated_store(tmp_path, capsys):
    store = tmp_path / "server.rpro"
    assert main(["persist", "save-tree", "--out", str(store)] + TINY) == 0
    capsys.readouterr()
    data = store.read_bytes()
    store.write_bytes(data[:len(data) // 2])
    with pytest.raises(SystemExit, match="corrupt or truncated"):
        main(["persist", "verify", str(store)] + TINY)


def test_persist_verify_rejects_corrupted_page(tmp_path, capsys):
    store = tmp_path / "server.rpro"
    assert main(["persist", "save-tree", "--out", str(store)] + TINY) == 0
    capsys.readouterr()
    from repro.storage import read_header
    page_size = read_header(str(store))["page_size"]
    data = bytearray(store.read_bytes())
    # Overwrite the head of the last object page: its record now decodes
    # to an id that contradicts the directory.
    start = len(data) - page_size
    data[start:start + 16] = b"\xff" * 16
    store.write_bytes(bytes(data))
    with pytest.raises(SystemExit, match="repro persist: error"):
        main(["persist", "verify", str(store)] + TINY)


def test_fleet_resume_missing_session_dir(tmp_path):
    missing = tmp_path / "no-such-session"
    with pytest.raises(SystemExit, match="cannot resume"):
        main(["fleet", "--resume", str(missing)])


def test_fleet_resume_corrupt_session_file(tmp_path):
    session_dir = tmp_path / "session"
    session_dir.mkdir()
    (session_dir / "session.json").write_text("{\"kind\": \"something-else\"}")
    with pytest.raises(SystemExit, match="cannot resume"):
        main(["fleet", "--resume", str(session_dir)])


def test_fleet_rejects_unknown_consistency_value(capsys):
    with pytest.raises(SystemExit):
        main(["fleet", "--clients", "2", "--consistency", "eventually"])
    assert "invalid choice" in capsys.readouterr().err


def test_fleet_rejects_workers_with_updates():
    with pytest.raises(SystemExit, match="dynamic fleet shares one mutating "
                                         "server"):
        main(["fleet", "--clients", "2", "--queries", "2", "--objects", "150",
              "--update-rate", "0.5", "--workers", "2"])


def test_fleet_rejects_resume_with_update_flags(tmp_path):
    with pytest.raises(SystemExit, match="--resume"):
        main(["fleet", "--resume", str(tmp_path), "--update-rate", "0.5"])
    with pytest.raises(SystemExit, match="--resume"):
        main(["fleet", "--resume", str(tmp_path), "--consistency", "ttl"])
    with pytest.raises(SystemExit, match="--durable"):
        main(["fleet", "--resume", str(tmp_path), "--durable"])


def test_fleet_halt_and_resume_dynamic(tmp_path, capsys):
    """Halting mid-run now works for updating fleets too."""
    session_dir = str(tmp_path / "session")
    assert main(["fleet", "--clients", "2", "--queries", "4", "--objects",
                 "200", "--update-rate", "0.3", "--consistency", "versioned",
                 "--halt-after", "4", "--session-dir", session_dir]) == 0
    assert "halted after 4" in capsys.readouterr().out
    assert main(["fleet", "--resume", session_dir]) == 0
    output = capsys.readouterr().out
    assert "resumed from" in output
    assert "server updates:" in output


def test_fleet_update_run_reports_server_updates(capsys):
    assert main(["fleet", "--clients", "3", "--queries", "4", "--objects",
                 "200", "--update-rate", "0.2", "--consistency",
                 "versioned"]) == 0
    output = capsys.readouterr().out
    assert "versioned consistency" in output
    assert "server updates:" in output


# --------------------------------------------------------------------------- #
# durability: --durable, persist recover / pack, WAL verify paths
# --------------------------------------------------------------------------- #
DYNAMIC = ["--clients", "2", "--queries", "4", "--objects", "200",
           "--update-rate", "0.3", "--consistency", "versioned"]


def _durable_store(tmp_path, capsys):
    """A store a durable CLI fleet has written WAL commits into."""
    store = str(tmp_path / "server.rpro")
    assert main(["persist", "save-tree", "--out", store] + TINY) == 0
    assert main(["fleet", "--store", store, "--durable"] + DYNAMIC) == 0
    output = capsys.readouterr().out
    assert "durable WAL" in output and "WAL commits" in output
    return store


def test_fleet_durable_requires_dynamic_fleet_and_store(tmp_path):
    store = str(tmp_path / "server.rpro")
    with pytest.raises(SystemExit, match="dynamic"):
        main(["fleet", "--clients", "2", "--queries", "2", "--objects", "150",
              "--store", store, "--durable"])
    with pytest.raises(SystemExit, match="disk store"):
        main(["fleet", "--durable"] + DYNAMIC)


def test_durable_fleet_then_info_verify_pack(tmp_path, capsys):
    store = _durable_store(tmp_path, capsys)
    assert main(["persist", "info", store]) == 0
    output = capsys.readouterr().out
    assert "wal:" in output and "committed record(s)" in output

    assert main(["persist", "verify", store] + TINY) == 0
    output = capsys.readouterr().out
    assert output.startswith("OK") and "WAL clean" in output

    assert main(["persist", "pack", store]) == 0
    output = capsys.readouterr().out
    assert "folded" in output
    assert main(["persist", "info", store]) == 0
    assert "wal: none" in capsys.readouterr().out


def test_persist_recover_truncates_torn_tail(tmp_path, capsys):
    import os
    from repro.storage.wal import wal_path

    store = _durable_store(tmp_path, capsys)
    log = wal_path(store)
    size = os.path.getsize(log)
    with open(log, "r+b") as handle:
        handle.truncate(size - 3)

    assert main(["persist", "verify", store] + TINY) == 0
    output = capsys.readouterr().out
    assert output.startswith("RECOVERABLE") and "torn tail" in output

    assert main(["persist", "recover", store]) == 0
    output = capsys.readouterr().out
    assert "truncated" in output
    assert main(["persist", "verify", store] + TINY) == 0
    assert capsys.readouterr().out.startswith("OK")


def test_persist_recover_corrupt_tail_needs_force(tmp_path, capsys):
    from tests.storage.faults import corrupt_byte
    from repro.storage.wal import scan_wal, wal_path

    store = _durable_store(tmp_path, capsys)
    log = wal_path(store)
    corrupt_byte(log, scan_wal(log).record_ends[0] + 25)

    with pytest.raises(SystemExit, match="VERIFY FAILED"):
        main(["persist", "verify", store] + TINY)
    with pytest.raises(SystemExit, match="force"):
        main(["persist", "recover", store])
    assert main(["persist", "recover", store, "--force"]) == 0
    assert "(forced)" in capsys.readouterr().out


def test_persist_recover_damaged_final_record_needs_no_force(tmp_path, capsys):
    """The twin: the same damage in the newest record is a torn tail."""
    from tests.storage.faults import corrupt_byte
    from repro.storage.wal import scan_wal, wal_path

    store = _durable_store(tmp_path, capsys)
    log = wal_path(store)
    ends = scan_wal(log).record_ends
    corrupt_byte(log, ends[-2] + 25)

    assert main(["persist", "verify", store] + TINY) == 0
    output = capsys.readouterr().out
    assert output.startswith("RECOVERABLE") and "torn tail" in output
    assert main(["persist", "recover", store]) == 0
    output = capsys.readouterr().out
    assert "truncated" in output and "(forced)" not in output
    assert len(scan_wal(log).records) == len(ends) - 1
    assert main(["persist", "verify", store] + TINY) == 0
    assert capsys.readouterr().out.startswith("OK")


def test_persist_recover_nothing_to_do(tmp_path, capsys):
    store = str(tmp_path / "server.rpro")
    assert main(["persist", "save-tree", "--out", store] + TINY) == 0
    capsys.readouterr()
    assert main(["persist", "recover", store]) == 0
    assert "nothing to recover" in capsys.readouterr().out


def test_persist_pack_without_wal_is_a_noop_rewrite(tmp_path, capsys):
    store = str(tmp_path / "server.rpro")
    assert main(["persist", "save-tree", "--out", store] + TINY) == 0
    capsys.readouterr()
    assert main(["persist", "pack", store]) == 0
    output = capsys.readouterr().out
    assert "0 WAL record(s)" in output
