"""Ray session lifetime and process accounting for the benchmark.

Every timed job runs in its own local Ray session (see README.md), so
this module owns ``ray.init``/``ray.shutdown`` and the wait for every
Ray process to end. CPU time and peak RSS are read from ``/proc``
because psutil is not available.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time

_CLK_TCK = os.sysconf("SC_CLK_TCK")
# Ray places AF_UNIX sockets at <temp>/session_<date>_<pid>/sockets/<name>;
# Linux caps such paths at 107 bytes, which leaves about 45 for <temp>.
_MAX_RAY_TEMP_LEN = 45


def nproc() -> int:
    """CPU count as ``nproc`` reports it (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             check=True, timeout=10).stdout
        return int(out.strip())
    except (OSError, subprocess.SubprocessError, ValueError):
        return len(os.sched_getaffinity(0))


def loadavg1() -> float:
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def host_cpu_ticks() -> tuple[int, int]:
    """(busy, steal) clock ticks of all CPUs since boot, from /proc/stat.
    Busy is user+nice+system+irq+softirq time; steal is time the
    hypervisor gave this VM's runnable vCPUs to someone else."""
    with open("/proc/stat") as f:
        t = [int(x) for x in f.readline().split()[1:9]]
    return t[0] + t[1] + t[2] + t[5] + t[6], t[7]


def stolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the CPU time this VM's tasks were ready to use between two
    ``host_cpu_ticks()`` readings that the hypervisor withheld."""
    busy, steal = after[0] - before[0], after[1] - before[1]
    return steal / (busy + steal) if busy + steal > 0 else 0.0


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the ``(comm)`` field, or None if
    the process is gone. Index 0 is the state, 1 the ppid, 11/12 the
    utime/stime in clock ticks."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    return raw[raw.rfind(")") + 2:].split()


def descendants(root: int | None = None) -> list[int]:
    """Live (non-zombie) descendants of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None or fields[0] == "Z":
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


def tree_cpu_s() -> float:
    """utime+stime of this process and all its live descendants (Ray
    workers, raylet, gcs), in seconds."""
    total = 0
    for pid in [os.getpid()] + descendants():
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total / _CLK_TCK


def reset_peak_rss() -> None:
    """Reset this process's VmHWM so the next reading covers only what
    follows (Linux >= 4.0)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def reap_children() -> None:
    """Collect exit statuses of this process's ended children."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def wait_gone(pids: list[int], keep: set[int] = frozenset(),
              timeout_s: float = 30.0) -> None:
    """Block until every process in ``pids`` and every descendant not in
    ``keep`` has ended; SIGKILL whatever is still alive after
    ``timeout_s``. The ``pids`` snapshot also covers workers that were
    re-parented when their raylet exited first."""
    deadline = time.monotonic() + timeout_s
    while True:
        reap_children()
        left = [p for p in pids if _alive(p)]
        left += [p for p in descendants() if p not in keep and p not in left]
        if not left:
            return
        if time.monotonic() > deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.05)


class RaySession:
    """One local Ray session per timed job: ``start()`` then ``stop()``.

    ``temp_root`` keeps Ray's session files inside the benchmark's
    working tree when the path is short enough for Ray's sockets."""

    def __init__(self, num_cpus: int, temp_root: str) -> None:
        self.num_cpus = num_cpus
        self.temp_dir = temp_root if len(temp_root) <= _MAX_RAY_TEMP_LEN else None
        if self.temp_dir is None:
            print(f"[bench] {temp_root} is too long for Ray's socket paths; "
                  "Ray keeps its session files in its default temp dir",
                  file=sys.stderr)

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        self._before = set(descendants())
        kwargs = {}
        if self.temp_dir is not None:
            os.makedirs(self.temp_dir, exist_ok=True)
            kwargs["_temp_dir"] = self.temp_dir
        ray.init(address="local", num_cpus=self.num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, object_store_memory=512 * 1024 ** 2,
                 **kwargs)
        DataContext.get_current().enable_progress_bars = False

    def stop(self) -> None:
        import ray

        ray_pids = [p for p in descendants() if p not in self._before]
        ray.shutdown()
        wait_gone(ray_pids, keep=self._before)

    def cleanup(self) -> None:
        if self.temp_dir is not None:
            shutil.rmtree(self.temp_dir, ignore_errors=True)
