"""Work spread over forked processes, with the results of a serial run.

The global interpreter lock keeps threads from computing side by side, so
items that share no state go to processes made with a plain ``os.fork``.
This is the only module that forks, and only the subcommands that fork,
portrait and reproduce, import it, which keeps it out of the import of every
other subcommand.
"""

from __future__ import annotations

import os
import sys
from typing import Callable


def workers(n_items: int) -> int:
    """How many processes share ``n_items`` items: one per CPU that this
    process may run on, but one alone where the CPUs cannot be counted or
    other threads run, as a fork copies only the calling thread."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    return min(n_items, cpus)


def in_order(n: int, item: Callable[[int], bytes], use: Callable[[bytes], None]) -> None:
    """Call ``use(item(i))`` for ``i in range(n)``, in order.

    With ``w = workers(n)``, item ``i`` goes to worker ``i % w``.  Worker 0
    is this process, and each other worker a child made with ``os.fork``.  A
    child sends each item as it makes it down its own pipe, as the item's
    length in 8 bytes and then the bytes, stops at its first exception and
    leaves through ``os._exit``.  This process hands every item to ``use`` in
    turn, its own or a child's, so each process holds one item at a time.
    An item whose record is missing or short is made here, as is every later
    item of that child: the first item that fails raises its own exception
    after the items before it are used.  Where a pipe or a process cannot be
    made, the items left are made here.  Every child is reaped before this
    returns or raises, and killed first if this process raises.  With one
    worker nothing is forked.
    """
    w = workers(n)
    pipes = [None] * w  # per worker, the pipe its records arrive on; None: made here
    children = []
    try:
        for k in range(1, w):
            fds = ()
            try:
                fds = r, wfd = os.pipe()
                pid = os.fork()
            except OSError:  # no descriptor or process to spare
                for fd in fds:
                    os.close(fd)
                break
            if pid == 0:
                try:
                    for i in range(k, n, w):
                        data = item(i)
                        record = memoryview(len(data).to_bytes(8, "little") + data)
                        while record:  # a write to a pipe may take part of it
                            record = record[os.write(wfd, record):]
                finally:
                    os._exit(0)
            os.close(wfd)
            pipes[k] = open(r, "rb")
            children.append((pid, pipes[k]))
        for i in range(n):
            pipe = pipes[i % w]
            if pipe is not None:
                head = pipe.read(8)
                if len(head) == 8:
                    size = int.from_bytes(head, "little")
                    data = pipe.read(size)
                    if len(data) == size:
                        use(data)
                        continue
                # the child stopped: its pipe is at its end, and this item
                # and every later one of the child are made here
            use(item(i))
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
