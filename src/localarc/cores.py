"""Work split across CPU cores by children forked from the caller.

sample_verify and exact_max each cut their work between the calling
process and children forked from it, one per other CPU of the affinity
mask.  In both the caller never waits on a child: a child reports what it
has done through a pipe, the caller takes a report only where it is what
the caller would have computed itself, and does the rest itself, so the
result is the same at every CPU count.

cpus lists the CPUs to use; Forks starts the children and is the one
place that ends them.  Each child is pinned to its own CPU of the mask:
on a 2-vCPU virtual machine Linux left a forked child on its parent's CPU
while the other idled (two 0.24 s loops took 0.48 s together unpinned,
0.27 s pinned).  Nothing is pickled, and multiprocessing,
concurrent.futures and pickle are not imported.
"""

from __future__ import annotations

import os
import threading

__all__ = ["cpus", "Forks"]

# POSIX's number, so that the signal module and its enums are not imported
_SIGKILL = 9


def cpus(most: int | None = None) -> list[int | None]:
    """The first `most` CPUs of the affinity mask (at least one, all of
    them by default), one per process that may work at once, the caller's
    first; [None] where no child may be forked: os.fork or
    sched_getaffinity is missing, or another thread runs, which a fork
    would copy half-way, locks it holds held for good."""
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1):
        mask = sorted(os.sched_getaffinity(0))
        return mask if most is None else mask[:max(1, most)]
    return [None]


def _pin(cpu: int) -> None:
    """Run this process on one CPU only; where the CPU cannot be set, the
    scheduler places the process."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass


class Forks:
    """Children forked from this process onto the CPUs of a cpus() list,
    each joined to it by a pipe each way.

    A context manager: on exit, by return or raise, it closes the caller's
    pipe ends, kills (SIGKILL) and reaps every child and gives the caller
    back the CPU mask it had before the first fork.  A child must leave
    through os._exit and never reach that exit.  The caller also holds
    the read end of each pipe to a child, so that writing to a child that
    has ended fills the pipe instead of raising SIGPIPE, which kills the
    caller where a program has restored that signal's default action.
    """

    def __init__(self, cpus: list[int | None]):
        self.cpus = cpus
        # (pid, read end from the child, write end to it) per child
        self.children: list[tuple[int, int, int]] = []
        self._held: list[int] = []
        self._mask: set[int] | None = None

    def __enter__(self) -> Forks:
        return self

    def fork(self) -> tuple[int, int, int] | None:
        """Fork a child onto the next CPU of the list, pinning the caller
        to the first one at the first fork.  Returns the caller's
        (pid, read end, write end), which never block; in the child,
        (0, read end from the caller, write end to it), the read end not
        blocking; None, in the caller only, where no child can start."""
        cpu = self.cpus[len(self.children) + 1]
        if self._mask is None:
            self._mask = os.sched_getaffinity(0)
            _pin(self.cpus[0])
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return None
        up_r, up_w, down_r, down_w = fds
        if pid == 0:
            os.close(up_r)
            os.close(down_w)
            os.set_blocking(down_r, False)
            _pin(cpu)
            return 0, down_r, up_w
        os.close(up_w)
        os.set_blocking(up_r, False)
        os.set_blocking(down_w, False)
        self.children.append((pid, up_r, down_w))
        self._held.append(down_r)
        return pid, up_r, down_w

    def __exit__(self, *exc) -> None:
        for (pid, r, w), held in zip(self.children, self._held):
            os.close(r)
            os.close(w)
            os.close(held)
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
        if self._mask is not None:
            os.sched_setaffinity(0, self._mask)
