"""``repro serve`` as a real process: SIGTERM and SIGINT both shut it down.

Either signal closes the listeners and the store, prints ``server stopped``,
exits 0 and leaves no UNIX socket file behind.  That holds for SIGINT also
when the server inherits it ignored, as a shell's background job does.
"""

import os
import pathlib
import select
import signal
import subprocess
import sys
import time

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _serve_until_listening(socket_path, preexec_fn=None, timeout=60.0):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--transport", "uds",
         "--path", str(socket_path), "--objects", "200"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), preexec_fn=preexec_fn,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + timeout
    line = ""
    while not line.startswith("serving"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([process.stdout], [], [],
                                               remaining)[0]:
            process.kill()
            process.communicate()
            pytest.fail("repro serve did not start listening")
        line = process.stdout.readline()
        if not line and process.poll() is not None:
            pytest.fail(f"repro serve exited early: "
                        f"{process.stderr.read()}")
    return process


@pytest.mark.parametrize("signum,preexec_fn", [
    (signal.SIGTERM, None),
    (signal.SIGINT, None),
    (signal.SIGINT, _ignore_sigint),
], ids=["SIGTERM", "SIGINT", "SIGINT-inherited-ignored"])
def test_signal_stops_the_server_cleanly(signum, preexec_fn, tmp_path):
    socket_path = tmp_path / "s.sock"
    process = _serve_until_listening(socket_path, preexec_fn)
    assert socket_path.exists()
    process.send_signal(signum)
    try:
        stdout, stderr = process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    assert process.returncode == 0, stderr
    assert "server stopped" in stdout
    assert "Traceback" not in stderr
    assert not socket_path.exists()
