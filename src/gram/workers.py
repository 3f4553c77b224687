"""Forked worker processes: the one fork, pipe, error-report and reap
implementation that training's shard child and the sampler's attention
helper share.

Worker(name, work, *args) forks a child that runs work(worker, *args) and
then ends.  The child sees the parent's objects as they were at the fork
(copy-on-write); arrays that must flow back go through shared memory that
the parent maps before the fork.  The two processes exchange messages over
one pipe each way, each message a pickled object behind its 8-byte length:
put(obj) sends one and get() takes the next.

A child whose work raises sends the error as its last message, and the
parent's get() raises it as RuntimeError carrying the message.  A child
that ends without a message (killed, or interrupted) makes the parent's
get() or put() raise RuntimeError naming its exit status.  In the child,
get() at the end of the parent's pipe ends the child quietly.  close()
kills and reaps a child that is still there, so code that closes its
worker in a `finally` leaves no process behind, whatever it raised.
"""
from __future__ import annotations

import os
import pickle
import signal
import struct

_LENGTH = struct.Struct("<Q")


class _ParentGone(Exception):
    """The parent closed its end of the pipe: the child ends quietly."""


class Worker:
    """A forked child running work(self, *args), and both ends of its
    message pipes.  Raises OSError when the fork fails, with no process
    started."""

    def __init__(self, name: str, work, *args):
        self.name = name
        self.pid = None
        fds = []
        try:
            fds += os.pipe()  # parent -> child
            fds += os.pipe()  # child -> parent
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        down_read, down_write, up_read, up_write = fds
        if pid == 0:
            self._run(down_read, up_write, (down_write, up_read), work, args)
        os.close(down_read)
        os.close(up_write)
        self.pid = pid
        self._reader, self._writer = os.fdopen(up_read, "rb"), down_write

    def _run(self, read, write, unused, work, args):
        status = 1  # an interrupt or a lost parent ends the child with no message
        try:
            for fd in unused:
                os.close(fd)
            self._reader, self._writer = os.fdopen(read, "rb"), write
            try:
                work(self, *args)
            except _ParentGone:
                pass
            except Exception as exc:  # noqa: BLE001 - reported to the parent, which raises
                self._send((True, f"{type(exc).__name__}: {exc}"))
            status = 0
        finally:
            os._exit(status)

    def _send(self, message):
        data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        view = memoryview(_LENGTH.pack(len(data)) + data)
        while view:
            view = view[os.write(self._writer, view):]

    def _receive(self):
        """(failed, object) of the next message; EOFError at the end of the
        pipe."""
        head = self._reader.read(_LENGTH.size)
        if len(head) == _LENGTH.size:
            size = _LENGTH.unpack(head)[0]
            data = self._reader.read(size)
            if len(data) == size:
                return pickle.loads(data)
        raise EOFError

    def put(self, obj):
        """Send obj to the other process."""
        try:
            self._send((False, obj))
        except BrokenPipeError:
            if self.pid is None:  # in the child
                raise _ParentGone from None
            raise self._ended() from None

    def get(self):
        """The next object the other process sent.  In the parent, raises
        RuntimeError when the child failed or ended without a message."""
        try:
            failed, obj = self._receive()
        except EOFError:
            if self.pid is None:  # in the child
                raise _ParentGone from None
            raise self._ended() from None
        if failed:
            raise RuntimeError(f"{self.name} failed in the child process: {obj}")
        return obj

    def _ended(self) -> RuntimeError:
        """Reap the child that closed its pipe; the error that says how it
        ended."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        return RuntimeError(f"{self.name}: the child process ended without a result ({how})")

    def close(self):
        """Close the pipes, and kill and reap the child if it is still
        there.  Called once, in the parent."""
        self._reader.close()
        os.close(self._writer)
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
