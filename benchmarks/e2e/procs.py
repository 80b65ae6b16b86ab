"""Child processes of the benchmark: a line pipe with deadlines, and
one way to stop them."""

from __future__ import annotations

import json
import os
import select
import subprocess
import time
from typing import List


class LinePipe:
    """A child spoken to in lines: commands down its stdin, answers up
    its stdout, every wait bounded."""

    def __init__(self, argv: List[str]) -> None:
        self.argv = argv
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._buffer = b""

    def send(self, line: str) -> None:
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def line(self, timeout: float) -> str:
        """The child's next line; raises if it dies or stays silent."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            data = os.read(fd, 1 << 16) if ready else b""
            if not data:
                raise RuntimeError(f"no answer from child: {' '.join(self.argv[1:5])} ...")
            self._buffer += data
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode()

    def ask(self, command: str, timeout: float) -> dict:
        self.send(command)
        return json.loads(self.line(timeout))

    def stop(self, polite: bool) -> None:
        """With *polite*, end of stdin first asks the child to leave;
        then terminate, wait, and kill if it still lingers."""
        proc = self.proc
        if not proc.stdin.closed:
            proc.stdin.close()
        for signal_it in ([None] if polite else []) + [proc.terminate, proc.kill]:
            if signal_it is not None and proc.poll() is None:
                signal_it()
            try:
                proc.wait(timeout=20)
                break
            except subprocess.TimeoutExpired:
                continue
        proc.stdout.close()
