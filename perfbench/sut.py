"""Starting, timing, measuring and stopping system-under-test processes."""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def sut_env(trace_dir: str | None = None) -> dict:
    """The child environment: ``src`` importable, temporary files (the
    shard pool's IPC socket) kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    tmp = work_dir("tmp")
    # AF_UNIX paths are limited to ~107 bytes; fall back to a relative
    # temp dir (resolved against the child's cwd, which is ``tmp``).
    env["TMPDIR"] = tmp if len(tmp) < 60 else "."
    env.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir:
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    return env


def placement() -> tuple[set[int], set[int]]:
    """``(sut, load)`` cores: the system under test (and the host-speed
    probe) get the last usable core, the load generator the others, so
    the two never take turns on one core; a 1-core host shares it."""
    usable = sorted(os.sched_getaffinity(0))
    sut = {usable[-1]}
    return sut, set(usable[:-1]) or sut


def cpu_seconds(pids) -> float:
    """CPU seconds used so far by every thread of each process, live or
    ended (the kernel's per-process CPU clock, nanosecond resolution)."""
    total = 0.0
    for pid in pids:
        try:
            total += time.clock_gettime(((~pid) << 3) | 2)  # CPUCLOCK_SCHED of pid
        except OSError:
            continue  # already gone
    return total


#: Every child started and not yet stopped, for :func:`stop_all`.
_RUNNING: list["Process"] = []


def stop_all() -> None:
    """Stop (and reap) every child still running, e.g. after an error."""
    while _RUNNING:
        _RUNNING[-1].stop(signal.SIGKILL, timeout=10.0)


class Process:
    """One child process whose stdout is read line by line, pinned to
    ``cores`` (with every process it starts) from its first instruction."""

    def __init__(self, args: list[str], env: dict, log_name: str, cores: set[int]) -> None:
        self.log_path = os.path.join(work_dir("logs"), log_name)
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=work_dir("tmp"),
            start_new_session=True,
            preexec_fn=lambda: os.sched_setaffinity(0, cores),
        )
        _RUNNING.append(self)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)
        self._buf = b""

    @property
    def pid(self) -> int:
        return self.proc.pid

    def readline(self, timeout: float) -> str:
        """Next stdout line; raises on timeout or exit."""
        deadline = time.perf_counter() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not self._sel.select(left):
                raise TimeoutError(f"no output from pid {self.pid} in {timeout} s")
            data = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not data:
                raise RuntimeError(
                    f"pid {self.pid} exited ({self.proc.wait()}); see {self.log_path}"
                )
            self._buf += data
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def wait_for(self, prefix: str, timeout: float) -> tuple[str, float]:
        """Read until a line starts with ``prefix``; returns it and the
        seconds since the process was started."""
        while True:
            line = self.readline(timeout)
            if line.startswith(prefix):
                return line, time.perf_counter() - self.started

    def stop(self, sig: int = signal.SIGTERM, timeout: float = 30.0) -> int:
        """Signal, wait, and kill the whole process group if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            code = self.proc.wait(10)
        reap_group(self.proc.pid)
        if self in _RUNNING:
            _RUNNING.remove(self)
        self._sel.close()
        self.proc.stdout.close()
        self._log.close()
        return code

    def finish(self, timeout: float) -> str:
        """Wait for a self-terminating child; returns its last stdout line."""
        lines = []
        try:
            while True:
                lines.append(self.readline(timeout))
        except RuntimeError:
            pass
        self.stop(timeout=timeout)
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError(f"pid {self.pid} failed; see {self.log_path}")
        return lines[-1]

    def stderr_lines(self) -> list[str]:
        with open(self.log_path, encoding="utf-8", errors="replace") as fh:
            return fh.read().splitlines()


def reap_group(pgid: int, timeout: float = 10.0) -> None:
    """Wait until no process of group ``pgid`` is left, killing stragglers."""
    deadline = time.perf_counter() + timeout
    while group_pids(pgid):
        if time.perf_counter() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.perf_counter() + timeout
        time.sleep(0.05)


def group_pids(pgid: int) -> list[int]:
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        # fields[0] is the state; zombies are already gone for our purpose.
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(name))
    return pids


def child_pids(pid: int) -> list[int]:
    """Every descendant of ``pid``."""
    out, todo = [], [pid]
    while todo:
        current = todo.pop()
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children", encoding="ascii") as fh:
                    kids = [int(k) for k in fh.read().split()]
                out += kids
                todo += kids
        except OSError:
            continue
    return out


def peak_rss_mb(pids) -> float:
    """Sum of every process's peak resident set (VmHWM)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total / 1024.0


def import_times(stderr_lines) -> dict:
    """``repro`` and ``scipy`` cumulative import seconds from the
    ``-X importtime`` report of one process (its first ``repro`` import;
    every outermost ``scipy*`` import, wherever it happened)."""
    rows = []
    for line in stderr_lines:
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        try:
            us = int(cumulative.strip())
        except ValueError:
            continue  # the header row
        rows.append((len(name) - len(name.lstrip()), name.strip(), us))
        if name.strip() == "repro":
            break  # later rows belong to other processes sharing stderr
    repro_s = next((us / 1e6 for _, n, us in rows if n == "repro"), 0.0)
    scipy_s = 0.0
    for i, (level, name, us) in enumerate(rows):
        if not name.startswith("scipy"):
            continue
        # The enclosing import is the next row at a shallower level.
        parent = next((n for lv, n, _ in rows[i + 1:] if lv < level), "")
        if not parent.startswith("scipy"):
            scipy_s += us / 1e6
    return {"import_s": repro_s, "import_scipy_s": scipy_s}
