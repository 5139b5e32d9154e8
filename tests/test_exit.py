"""How a slitlab process ends: exit statuses, SIGTERM, and the heap frozen at exit.

Each check of the process's exit runs ``python`` in a subprocess, with this
checkout's ``src`` first on its path.
"""

import errno
import hashlib
import signal
import subprocess
import sys
import time

import pytest

import slitlab.cli as cli
from slitlab.cli import main

# Prints, from an exit hook registered before anything else, the freeze count
# and whether SIGTERM has its default handler.  Exit hooks run last-in
# first-out, so this one runs after every hook registered later.
OBSERVER = (
    "import atexit, gc, signal\n"
    "atexit.register(lambda: print(gc.get_freeze_count(),"
    " signal.getsignal(signal.SIGTERM) is signal.SIG_DFL))\n"
)


@pytest.fixture
def python(subprocess_env):
    def run(*args, **kwargs):
        return subprocess.run([sys.executable, *args], env=subprocess_env, capture_output=True,
                              text=True, timeout=120, **kwargs)
    return run


def digests(out):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("density.csv", "samples.csv", "summary.json")}


def test_import_alone_changes_nothing(python):
    proc = python("-c", OBSERVER + "import slitlab.cli\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True"]


def test_orjson_is_imported_by_the_first_csv_block_only(python):
    code = ("import sys, numpy, slitlab.cli as cli\n"
            "print('orjson' in sys.modules)\n"
            "cli._float_rows([numpy.array([0.5])])\n"
            "print('orjson' in sys.modules)\n")
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_a_run_never_imports_multiprocessing(tmp_path, python):
    code = ("import sys, slitlab.cli as cli\n"
            f"out = {str(tmp_path)!r}\n"
            "assert cli.main(['g2', '--n', '20000', '--out', out + '/a']) == 0\n"
            "assert cli.main(['shelving', '--total-time', '1', '--out', out + '/b']) == 0\n"
            "print('multiprocessing' in sys.modules)\n")
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_main_freezes_the_heap_at_exit_once_and_restores_sigterm(tmp_path, python):
    code = OBSERVER + (
        "registered = []\n"
        "atexit_register = atexit.register\n"
        "def register(func, *args, **kwargs):\n"
        "    registered.append(func)\n"
        "    return atexit_register(func, *args, **kwargs)\n"
        "atexit.register = register\n"
        "def handler(signum, frame):\n"
        "    pass\n"
        "signal.signal(signal.SIGTERM, handler)\n"
        "import slitlab.cli as cli\n"
        f"out = {str(tmp_path)!r}\n"
        "codes = [cli.main(['g1', '--n', '10', '--out', out + '/a']),\n"
        "         cli.main(['g9', '--out', out + '/b']),\n"
        "         cli.main(['shelving', '--total-time', '0.1', '--out', out + '/c'])]\n"
        "assert codes == [0, 1, 0], codes\n"
        "assert registered.count(gc.freeze) == 1, registered\n"
        "assert signal.getsignal(signal.SIGTERM) is handler\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    freeze_count, _ = proc.stdout.split()
    assert int(freeze_count) > 0  # seen by a hook registered before main


def test_module_run_writes_what_main_writes(tmp_path, python):
    proc = python("-m", "slitlab", "g1", "--n", "20000", "--seed", "7",
                  "--out", str(tmp_path / "module"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert main(["g1", "--n", "20000", "--seed", "7", "--out", str(tmp_path / "main")]) == 0
    assert digests(tmp_path / "module") == digests(tmp_path / "main")


@pytest.mark.parametrize("case", ["config", "io"])
def test_module_run_errors_keep_their_status_and_one_line(tmp_path, case, python):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    if case == "config":
        argv, status, message = ["g9", "--out", str(tmp_path / "run")], 1, "invalid config"
    else:
        argv, status, message = ["g1", "--n", "100", "--out", str(blocker / "run")], 3, "io failure"
    proc = python("-m", "slitlab", *argv)
    assert proc.returncode == status
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}: "), proc.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == ["blocker"]


# Each resource limit below is set by the child process on itself, after
# its imports; the test process and its other children keep their own limits.
@pytest.mark.skipif(sys.platform != "linux", reason="reads VmSize from /proc/self/status")
def test_running_out_of_memory_exits_3_with_one_error_line(tmp_path, python):
    # The address space is capped 15 MiB above the child's size after import.
    # A million-second record has about 667,000 dwells, and its trajectory's
    # lengths, starts and ends (5 MiB each) and their temporaries do not fit.
    # The child's disk is taken to hold the record's 6 TB of photons.csv, so
    # that memory, not room, stops the run.
    code = ("import os, resource, sys\n"
            "import slitlab.cli as cli\n"
            "roomy = os.statvfs_result((1, 1, 0, 0, 2**62, 0, 0, 0, 0, 255))\n"
            "cli.os.statvfs = lambda path: roomy\n"
            "with open('/proc/self/status') as fh:\n"
            "    size = next(int(line.split()[1]) for line in fh if line.startswith('VmSize:'))\n"
            "limit = size * 1024 + 15 * 2**20\n"
            "resource.setrlimit(resource.RLIMIT_AS,"
            " (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = python("-c", code, "shelving", "--total-time", "1e6", "--out", str(tmp_path / "run"))
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: "), proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_a_file_size_limit_exits_3_and_leaves_nothing(tmp_path, python):
    # photons.csv of a 100 s record takes about 60 MB, past the 10 MB limit;
    # with SIGXFSZ ignored the write fails with EFBIG instead of killing the child.
    code = ("import resource, signal, sys\n"
            "import slitlab.cli as cli\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (10_000_000, 10_000_000))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = python("-c", code, "shelving", "--total-time", "100", "--out", str(tmp_path / "run"))
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: io failure: "), proc.stderr
    assert f"[Errno {errno.EFBIG}]" in lines[0]
    assert list(tmp_path.iterdir()) == []


def test_a_file_that_cannot_fit_under_the_size_limit_is_rejected(tmp_path, python):
    # photons.csv of a 1,000 s record would take about 600 MB; a tenth of
    # that is past the 10 MB limit, so the run is refused before any work.
    code = ("import resource, signal, sys\n"
            "import slitlab.cli as cli\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (10_000_000, 10_000_000))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = python("-c", code, "shelving", "--total-time", "1000", "--out", str(tmp_path / "run"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ("error: invalid config: photons.csv would take about 6e+08 bytes, "
                           "and a tenth of that is more than the file size limit of "
                           "10000000 bytes\n")
    assert list(tmp_path.iterdir()) == []


def test_sigterm_removes_the_staging_directory(tmp_path, subprocess_env):
    # 10 million electrons would take seconds and 200 MB; the signal comes
    # once samples.csv is open, a few blocks in at most.
    out = tmp_path / "run"
    proc = subprocess.Popen([sys.executable, "-m", "slitlab", "g1", "--n", "10000000",
                             "--out", str(out)], env=subprocess_env, stderr=subprocess.PIPE,
                            text=True)
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob(".run.*/samples.csv")):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, "samples.csv never appeared"
            time.sleep(0.005)
        proc.send_signal(signal.SIGTERM)
        status = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert status == 128 + signal.SIGTERM
    assert list(tmp_path.iterdir()) == []


def test_main_puts_back_the_callers_sigterm_handler(tmp_path, monkeypatch):
    seen = []

    def record(config):
        seen.append(signal.getsignal(signal.SIGTERM))

    def handler(signum, frame):
        pass

    monkeypatch.setattr(cli, "run", record)
    previous = signal.signal(signal.SIGTERM, handler)
    try:
        assert main(["g1", "--out", str(tmp_path / "a")]) == 0
        assert signal.getsignal(signal.SIGTERM) is handler
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        assert main(["g1", "--out", str(tmp_path / "b")]) == 0
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_IGN
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert seen == [cli._exit_on_sigterm, signal.SIG_IGN]
