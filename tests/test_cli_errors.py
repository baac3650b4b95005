"""Error-path sweep: no ``repro`` subcommand ends in a traceback.

One failing invocation per subcommand that can fail on its input (three
for ``serve``: each listener it can fail to bind), each run as a real
process from an empty directory: the exit code is non-zero, stderr carries
one ``repro <command>: error: ...`` line and no ``Traceback``, and nothing
is left behind.
"""

import os
import pathlib
import socket
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
TINY = ["--queries", "5", "--objects", "200"]

# Relative paths resolve inside an empty temporary directory; {busy} is a
# TCP port another socket is already listening on.
FAILING = {
    "compare": ["compare", "--store", "missing.rpro"] + TINY,
    "fleet": ["fleet", "--clients", "2", "--store", "missing.rpro"] + TINY,
    "serve-uds": ["serve", "--transport", "uds", "--path", "nodir/s.sock",
                  "--objects", "200"],
    "serve-tcp": ["serve", "--port", "{busy}", "--objects", "200"],
    "serve-status": ["serve", "--status-port", "{busy}", "--objects", "200"],
    "trace": ["trace", "--clients", "2", "--queries", "2", "--objects", "200",
              "--jsonl", "nodir/trace.jsonl"],
    "persist save-tree": ["persist", "save-tree", "--out", "nodir/x.rpro"] + TINY,
    "persist save-shards": ["persist", "save-shards", "--out", "shards",
                            "--shards", "0"] + TINY,
    "persist info": ["persist", "info", "missing.rpro"],
    "persist verify": ["persist", "verify", "missing.rpro"] + TINY,
    "persist recover": ["persist", "recover", "missing.rpro"],
    "persist pack": ["persist", "pack", "missing.rpro"],
    "lint": ["lint", "nodir/missing.py"],
    # --paper-scale fixes the dataset and the trace: a flag it would
    # override is refused, not silently dropped.
    "params --paper-scale": ["params", "--paper-scale", "--queries", "10"],
    # A configuration value the library refuses is an error line, not a
    # traceback, and a negative cache size is refused, not run.
    "trace --clients 0": ["trace", "--clients", "0"] + TINY,
    "trace --shards 0": ["trace", "--clients", "2", "--shards", "0"] + TINY,
    "trace --update-rate -1": ["trace", "--clients", "2",
                               "--update-rate", "-1"] + TINY,
    "compare --models": ["compare", "--models", "XYZ"] + TINY,
    "compare --replacement": ["compare", "--replacement", "NOPE"] + TINY,
    "compare --objects 0": ["compare", "--queries", "5", "--objects", "0"],
    "compare --cache": ["compare", "--cache", "-0.5"] + TINY,
    "figure --replacement": ["figure", "6", "--replacement", "NOPE"] + TINY,
    "figure --objects 0": ["figure", "6", "--queries", "5", "--objects", "0"],
    # A figure refuses a flag it sweeps or fixes itself, one case per
    # family of refusals, instead of printing the same figure without it.
    "figure 7 --mobility": ["figure", "7", "--mobility", "DIR"] + TINY,
    "figure 8 --cache": ["figure", "8", "--cache", "0.3"] + TINY,
    "figure 9 --mobility": ["figure", "9", "--mobility", "DIR"] + TINY,
    "figure 10 --replacement": ["figure", "10", "--replacement", "MRU"] + TINY,
    "figure 11 --cache": ["figure", "11", "--cache", "0.5"] + TINY,
    "fleet --cache": ["fleet", "--clients", "2", "--cache", "-0.5"] + TINY,
}


@pytest.mark.parametrize("case", FAILING)
def test_failing_invocation_exits_with_one_error_line(case, tmp_path):
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        busy = str(listener.getsockname()[1])
        outcome = subprocess.run(
            [sys.executable, "-m", "repro.cli"]
            + [arg.replace("{busy}", busy) for arg in FAILING[case]],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120)
    assert outcome.returncode != 0
    assert f"repro {FAILING[case][0]}: error: " in outcome.stderr
    assert "Traceback" not in outcome.stderr
    assert list(tmp_path.iterdir()) == []
