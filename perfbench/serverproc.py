"""Runs the program's ``ScriptedCorpusServer`` in a child process.

The server's handler threads then neither share the crawler's interpreter
lock nor count towards the crawler's wall time.  The child is this file run
as a script; the parent talks to it in JSON lines over its standard input
and output: apply the fault script afresh, read and reset the request log,
stop.  ``stop`` waits until the child has ended.
"""
from __future__ import annotations

import json
import select
import subprocess
import sys
from pathlib import Path


def _serve(root: str, src: str) -> None:
    sys.path.insert(0, src)
    from anthology_harvest.mockserver import ScriptedCorpusServer

    server = ScriptedCorpusServer(Path(root)).start()
    try:
        print(json.dumps(server.base_url), flush=True)
        for line in sys.stdin:
            cmd, arg = json.loads(line)
            if cmd == "script":
                for path, statuses in arg.items():
                    server.script(path, statuses)
                server.reset_log()
                reply = None
            elif cmd == "requests":
                reply = [entry.path for entry in server.request_log()]
            else:
                break
            print(json.dumps(reply), flush=True)
    finally:
        server.stop()


class MockServerProcess:
    """Owns one mock-server child process; ``stop`` ends it."""

    def __init__(self, root: Path, src: Path):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(root), str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([self._proc.stdout], [], [], 60)
            if not ready:
                raise RuntimeError("mock server did not start")
            self.base_url: str = self._reply()
        except BaseException:
            self.stop()
            raise

    def _reply(self):
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"mock server exited with {self._proc.poll()}")
        return json.loads(line)

    def _call(self, cmd: str, arg=None):
        self._proc.stdin.write(json.dumps([cmd, arg]) + "\n")
        self._proc.stdin.flush()
        return self._reply()

    def arm(self, script: dict[str, list[int]]) -> None:
        """Apply the fault script afresh and clear the request log."""
        self._call("script", script)

    def requests(self) -> list[str]:
        """Paths requested since the last ``arm``, in arrival order."""
        return self._call("requests")

    def stop(self) -> None:
        """End the child (closing its input ends its loop) and wait for it."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    _serve(sys.argv[1], sys.argv[2])
