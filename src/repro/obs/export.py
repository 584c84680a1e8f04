"""Chrome trace-event export: spans -> a Perfetto-loadable timeline.

The output is the `trace-event JSON format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
object form: ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` where
every span becomes one complete event (``"ph": "X"``) with microsecond
``ts``/``dur``.  Span ``pid``/``tid`` map straight onto the trace-event
process/thread lanes, so pool-side supervisor spans, worker kernel spans
and daemon request phases land on separate tracks of one shared
CLOCK_MONOTONIC timeline.

Open an exported file at https://ui.perfetto.dev (or
``chrome://tracing``): drag the JSON in, and each request's admission ->
queue -> attempt -> kernel chain reads left to right.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Union


def _span_payloads(spans_or_recorder) -> List[Mapping]:
    """Normalise a recorder / ``Span`` list / payload list to payload dicts."""
    if hasattr(spans_or_recorder, "to_payload"):
        return spans_or_recorder.to_payload()
    payloads = []
    for span in spans_or_recorder:
        payloads.append(span.to_payload() if hasattr(span, "to_payload") else span)
    return payloads


def chrome_trace_events(spans_or_recorder) -> Dict[str, object]:
    """Render spans as a Chrome trace-event JSON object.

    Accepts a :class:`~repro.obs.trace.TraceRecorder`, a sequence of
    :class:`~repro.obs.trace.Span` objects, or a sequence of span
    payload dicts.  Events are sorted by start time; zero-length spans
    get a 1 microsecond floor so they stay visible in the viewer.
    """
    events = []
    for payload in _span_payloads(spans_or_recorder):
        start = float(payload.get("start", 0.0))
        end = float(payload.get("end", start))
        args = dict(payload.get("args") or {})
        trace_id = payload.get("trace")
        if trace_id is not None:
            args.setdefault("trace", trace_id)
        events.append(
            {
                "name": str(payload.get("name", "?")),
                "cat": str(payload.get("cat", "exec")),
                "ph": "X",
                "ts": int(start * 1e6),
                "dur": max(int((end - start) * 1e6), 1),
                "pid": int(payload.get("pid", 0)),
                "tid": int(payload.get("tid", 0)),
                "args": args,
            }
        )
    events.sort(key=lambda event: (event["ts"], event["pid"], event["tid"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans_or_recorder) -> int:
    """Write the Chrome trace JSON to ``path``; returns the event count."""
    document = chrome_trace_events(spans_or_recorder)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return len(document["traceEvents"])


_REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")


def validate_chrome_trace(document: Union[str, bytes, Mapping]) -> List[Mapping]:
    """Check that ``document`` (JSON text or a parsed object) is valid
    trace-event JSON; returns the event list.  Raises :class:`ValueError`
    on any malformation -- the smoke tests' parser."""
    if isinstance(document, (str, bytes)):
        document = json.loads(document)
    if not isinstance(document, Mapping):
        raise ValueError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document is missing a traceEvents list")
    for index, event in enumerate(events):
        if not isinstance(event, Mapping):
            raise ValueError(f"traceEvents[{index}] is not an object")
        for key in _REQUIRED_EVENT_KEYS:
            if key not in event:
                raise ValueError(f"traceEvents[{index}] is missing {key!r}")
        if event["ph"] == "X" and "dur" not in event:
            raise ValueError(f"traceEvents[{index}] is a complete event without dur")
        if not isinstance(event["ts"], int) or event["ts"] < 0:
            raise ValueError(f"traceEvents[{index}] has a bad ts: {event['ts']!r}")
    return events


__all__ = ["chrome_trace_events", "validate_chrome_trace", "write_chrome_trace"]
