"""How a CLI process ends: ``python -m schurlab.cli`` prints what ``cli.main``
prints and exits with its code, skipping interpreter teardown, and a stream
that fails or is closed is reported as it was before teardown was skipped."""

import contextlib
import fcntl
import io as _io
import os
import struct
import subprocess
import sys
import termios
import time
from pathlib import Path

import pytest

import schurlab
from schurlab import cli

from test_cli_transcript import INPUTS

SRC = str(Path(schurlab.__file__).resolve().parents[1])
# the entry point as it was before: the interpreter's own teardown
OLD_ENTRYPOINT = "import sys\nfrom schurlab.cli import main\nsys.exit(main())\n"


def environment(buffered: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run(args, cwd, buffered=True, code=None, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python -m schurlab.cli args`` in a fresh process, or ``python -c code args``."""
    head = ["-m", "schurlab.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *args], cwd=cwd, env=environment(buffered),
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)


def run_with_stdout_closed(argv, cwd, buffered=True) -> subprocess.CompletedProcess:
    """``python -m schurlab.cli argv >&-``"""
    return subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "schurlab.cli", *argv],
                          cwd=cwd, env=environment(buffered), capture_output=True, timeout=120)


@pytest.fixture
def inputs(tmp_path):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    return tmp_path


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,code", [
    (["factor", "real.json"], 0),
    (["check", "unit.json", "--star", "--json"], 0),
    (["check", "offdiag.json"], 1),
    (["check", "malformed.json"], 2),
    (["enumerate", "x"], 2),
    (["complete", "split.json"], 3),
])
def test_a_process_prints_what_main_prints(inputs, monkeypatch, argv, code, buffered):
    monkeypatch.chdir(inputs)
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(argv) == code
    res = run(argv, inputs, buffered)
    assert (res.returncode, res.stdout, res.stderr) == (code, out.getvalue().encode(), err.getvalue().encode())


def test_an_atexit_handler_still_runs(inputs):
    """Registered before ``entrypoint``, it runs, and what it prints is flushed."""
    code = ("import atexit, sys\n"
            "atexit.register(print, 'handler ran')\n"
            "from schurlab.cli import entrypoint\n"
            "sys.argv[0] = 'schurlab'\n"
            "entrypoint()\n")
    res = run(["factor", "real.json"], inputs, code=code)
    assert res.returncode == 0
    assert res.stdout.decode().endswith("S_A(B) = diag(f) B diag(f)^{-1}\nhandler ran\n")
    assert res.stderr == b""


@pytest.mark.parametrize("argv", [["enumerate", "14"], ["enumerate", "14", "--format", "array"]])
def test_a_broken_pipe_exits_two_with_one_line(inputs, argv):
    """``schurlab enumerate 14 | head -c 10``"""
    proc = subprocess.Popen([sys.executable, "-m", "schurlab.cli", *argv], cwd=inputs,
                            env=environment(True), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    assert err == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv", [["enumerate", "14"], ["enumerate", "14", "--format", "array"]])
def test_a_reader_closing_a_full_pipe_exits_two_with_one_line(inputs, argv):
    """The reader closes only once the pipe has stopped filling, so the write
    under way is cut short and stdout still holds bytes it can never write:
    they are dropped, not retried at the final flush (which ended in exit 120)."""
    proc = subprocess.Popen([sys.executable, "-m", "schurlab.cli", *argv], cwd=inputs,
                            env=environment(True), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    seen, still, deadline = -1, 0, time.monotonic() + 60
    while still < 5 and time.monotonic() < deadline:
        time.sleep(0.02)
        now = pending(proc.stdout)
        still = still + 1 if now == seen and now > 0 else 0
        seen = now
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    assert err == b"error: [Errno 32] Broken pipe\n"


def pending(stream) -> int:
    """The bytes waiting in a pipe's read end."""
    return struct.unpack("i", fcntl.ioctl(stream, termios.FIONREAD, b"\0\0\0\0"))[0]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_full_disk_exits_two_with_one_line(inputs, buffered):
    with open("/dev/full", "wb") as full:
        res = run(["enumerate", "10"], inputs, buffered, stdout=full)
    assert res.returncode == 2
    assert res.stderr == b"error: [Errno 28] No space left on device\n"


def closed_pipe() -> int:
    """The write end of a pipe whose read end is closed: every write fails with EPIPE."""
    r, w = os.pipe()
    os.close(r)
    return w


@pytest.mark.parametrize("target", ["/dev/full", "closed pipe"])
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["factor", "real.json"], ["check", "offdiag.json"],
                                  ["enumerate", "10"], ["complete", "split.json"]])
def test_a_failing_stdout_ends_as_with_teardown(inputs, argv, buffered, target):
    """Where ``main`` returns with output still buffered, the flush that fails
    hands over to ``sys.exit``: the exit status and stderr are the old
    entry point's, byte for byte."""
    if target == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    results = []
    for code in (None, OLD_ENTRYPOINT):
        fd = closed_pipe() if target == "closed pipe" else os.open("/dev/full", os.O_WRONLY)
        try:
            res = run(argv, inputs, buffered, code=code, stdout=fd)
        finally:
            os.close(fd)
        results.append((res.returncode, res.stderr))
    assert results[0] == results[1]


@pytest.mark.parametrize("argv", [["check", "unit.json"], ["check", "unit.json", "--json"],
                                  ["enumerate", "3"], ["complete", "chain.json"],
                                  ["witness", "4", "--gen", "toeplitz:0,1"]])
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_two_with_one_line(inputs, argv, buffered):
    """``schurlab check unit.json >&-``: no traceback, one ``error:`` line."""
    res = run_with_stdout_closed(argv, inputs, buffered)
    assert res.returncode == 2
    assert res.stderr == b"error: [Errno 9] standard output is closed\n"


def test_a_closed_stdout_keeps_a_malformed_inputs_message(inputs):
    res = run_with_stdout_closed(["check", "malformed.json"], inputs)
    assert res.returncode == 2
    assert res.stderr.startswith(b"error: invalid JSON: ") and res.stderr.count(b"\n") == 1


def test_the_process_skips_teardown(inputs):
    """An object alive at exit is not finalized: the process leaves by ``os._exit``.
    Under the old entry point, teardown finalizes it."""
    code = ("import sys\n"
            "class Alive:\n"
            "    def __del__(self):\n"
            "        sys.stderr.write('finalized\\n')\n"
            "alive = Alive()\n"
            "sys.argv[0] = 'schurlab'\n"
            "from schurlab.cli import entrypoint, main\n"
            "entrypoint() if sys.argv[1] == 'factor' else sys.exit(main(sys.argv[2:]))\n")
    res = run(["factor", "real.json"], inputs, code=code)
    assert (res.returncode, res.stderr) == (0, b"")
    res = run(["old", "factor", "real.json"], inputs, code=code)
    assert (res.returncode, res.stderr) == (0, b"finalized\n")


@pytest.mark.parametrize("argv,code", [
    (["check", "missing.json"], 2),
    (["factor", "real.json", "--tol", "-1"], 2),
    (["factor", "real.json", "--tol", "x"], 2),
    (["factor", "offdiag.json"], 1),
])
def test_a_closed_stderr_leaves_stdout_empty(inputs, monkeypatch, capsys, argv, code):
    """``schurlab check missing.json 2>&-``: with fd 2 closed at start-up,
    ``sys.stderr`` is None, and the diagnostic is dropped, not written to stdout."""
    monkeypatch.chdir(inputs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stderr", None)
        assert cli.main(argv) == code
    assert capsys.readouterr().out == ""


def test_too_many_trials_exit_two_with_one_line(tmp_path):
    """``check --trials 1000000000000`` on a rejected matrix: its draws do not
    fit in memory, which is one ``error:`` line, not a traceback."""
    (tmp_path / "perturbed.json").write_text(
        '{"rows":3,"cols":3,"data":[[[1,0],[0.5,0],[0.3,0]],[[2,0],[1,0],[0.5,0]],[[4,0],[2,0],[1,0]]]}'
    )
    res = run(["check", "perturbed.json", "--trials", "1000000000000"], tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith(b"error: ") and res.stderr.count(b"\n") == 1
    assert b"Traceback" not in res.stderr
