"""Streaming JSONL export of observability events.

:class:`JsonlSink` takes the tracer's records — each already the flat
schema event dict (:mod:`repro.sim.trace`) — and writes one canonical
JSON object per line as they arrive.  Nothing is buffered beyond the OS
file buffer, so arbitrarily long runs export in O(1) memory.  Canonical
serialisation (``sort_keys=True``, compact separators) makes same-seed
exports byte-identical, which the determinism tests rely on.  The
offline reader is :func:`repro.obs.report.load_events`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Optional, Union

__all__ = ["JsonlSink", "dumps_event"]


def dumps_event(event: Dict[str, Any]) -> str:
    """Canonical single-line JSON for an event dict."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


class JsonlSink:
    """Stream accepted events to a JSONL file (or file-like object)."""

    def __init__(self, path_or_file: Union[str, IO[str]]) -> None:
        if hasattr(path_or_file, "write"):
            self._file: IO[str] = path_or_file  # type: ignore[assignment]
            self._owns = False
            self.path: Optional[str] = getattr(path_or_file, "name", None)
        else:
            self._file = open(path_or_file, "w", encoding="utf-8")
            self._owns = True
            self.path = str(path_or_file)
        self.count = 0

    def accept(self, event: Dict[str, Any]) -> None:
        self._file.write(dumps_event(event))
        self._file.write("\n")
        self.count += 1

    def close(self) -> None:
        if self._owns and not self._file.closed:
            self._file.close()
        elif not self._file.closed:
            self._file.flush()
