"""Deterministic fault injection for the serving plane.

Fault tolerance is only trustworthy if its paths are *testable on
purpose*: "a worker process dies mid-request" must be a scriptable input,
not something the OS does for you at the right moment if you are lucky.
A :class:`FaultPlan` is a JSON-safe list of rules like ``{"kind":
"worker_exit", "request_index": 3, "worker_id": 1}``, given to
``ServingPool(fault_plan=...)`` or -- inline JSON or a file path -- through
``REPRO_SERVE_FAULTS``.  It has two disjoint seams.

**Worker seam** (:meth:`FaultPlan.apply`, consulted by the worker loop
right before :func:`~repro.db.serving.execute_payload_encoded`):

* ``"worker_exit"`` -- ``os._exit(exit_code)`` mid-request (no cleanup, no
  response: the moral equivalent of a SIGKILL);
* ``"raise"`` -- raise :class:`FaultInjected` (a per-request ``"error"``
  response; the pool must keep serving);
* ``"delay"`` -- sleep ``seconds`` before executing (deadlines, retries,
  late responses).

**Client seam** (:meth:`FaultPlan.connection_action`, consulted by
:class:`~repro.db.daemon.DaemonClient` before each execute; the client
acts the rule out on the wire):

* ``"client_disconnect"`` -- write the whole request, then hard-close
  without reading the response;
* ``"partial_frame"`` -- write half a frame and go silent;
* ``"stalled_reader"`` -- stall ``seconds`` mid-frame, then finish.

**Determinism.**  Worker rules match on the pool-assigned request id (the
global submission index -- stable whatever the worker scheduling),
optionally a ``worker_id`` slot, and the attempt number; connection rules
on the 0-based index of the execute *on that connection* and optionally a
``connection_id`` the scripted client states.  A rule matches attempt 1
*only* by default: a crash-lost request that the pool retries must not
crash its replacement worker again (``"attempt": null`` opts into
every-attempt matching deliberately).  Each rule fires at most ``times``
times (default once) per process applying the plan -- every worker builds
its own instance, so fire counts reset on respawn.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.exceptions import DatabaseError

#: Environment variable consulted by :meth:`FaultPlan.from_env`: inline
#: JSON (a list of rules, or ``{"faults": [...]}``) or a path to a JSON
#: file holding the same.
FAULTS_ENV = "REPRO_SERVE_FAULTS"

#: The fault kinds fired at the worker seam (pre-execution, inside the
#: worker process).
FAULT_KINDS = ("worker_exit", "raise", "delay")

#: The fault kinds fired at the client seam (the daemon transport).
CONNECTION_FAULT_KINDS = ("client_disconnect", "partial_frame", "stalled_reader")

#: Every kind a plan may script.
ALL_FAULT_KINDS = FAULT_KINDS + CONNECTION_FAULT_KINDS

#: Exit code of an injected ``worker_exit`` (nonzero, distinctive in the
#: supervisor's death report).
DEFAULT_EXIT_CODE = 23

#: Seconds an injected ``delay`` sleeps when the rule does not say.
DEFAULT_DELAY_SECONDS = 0.05


class FaultInjected(DatabaseError):
    """The error an injected ``"raise"`` fault throws inside a worker.
    It surfaces as a normal per-request ``"error"`` response."""


def _optional_int(value, field: str, minimum: int) -> Optional[int]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise DatabaseError(f"fault rule field {field!r} must be an integer")
    if value < minimum:
        raise DatabaseError(f"fault rule field {field!r} must be >= {minimum}")
    return int(value)


class FaultRule:
    """One scripted fault: what happens, where, and when it fires."""

    __slots__ = (
        "kind",
        "request_id",
        "worker_id",
        "connection_id",
        "attempt",
        "times",
        "seconds",
        "exit_code",
        "remaining",
    )

    def __init__(
        self,
        kind: str,
        *,
        request_id: Optional[int] = None,
        worker_id: Optional[int] = None,
        connection_id: Optional[int] = None,
        attempt: Optional[int] = 1,
        times: int = 1,
        seconds: float = DEFAULT_DELAY_SECONDS,
        exit_code: int = DEFAULT_EXIT_CODE,
    ) -> None:
        if kind not in ALL_FAULT_KINDS:
            raise DatabaseError(
                f"unknown fault kind {kind!r}; expected one of "
                f"{', '.join(ALL_FAULT_KINDS)}"
            )
        self.kind = kind
        self.request_id = _optional_int(request_id, "request_id", 0)
        self.worker_id = _optional_int(worker_id, "worker_id", 0)
        self.connection_id = _optional_int(connection_id, "connection_id", 0)
        if self.kind in CONNECTION_FAULT_KINDS and self.worker_id is not None:
            raise DatabaseError(
                f"connection fault {kind!r} cannot be keyed on 'worker_id' "
                "(use 'connection_id')"
            )
        if self.kind in FAULT_KINDS and self.connection_id is not None:
            raise DatabaseError(
                f"worker fault {kind!r} cannot be keyed on 'connection_id' "
                "(use 'worker_id')"
            )
        self.attempt = _optional_int(attempt, "attempt", 1)
        self.times = _optional_int(times, "times", 1)
        if not isinstance(seconds, (int, float)) or isinstance(seconds, bool):
            raise DatabaseError("fault rule field 'seconds' must be a number")
        # NaN, infinities and ints past the float range all fail here:
        # time.sleep would raise them inside the worker.
        if not 0 <= seconds <= sys.float_info.max:
            raise DatabaseError("fault rule field 'seconds' must be finite and >= 0")
        self.seconds = float(seconds)
        exit_code = _optional_int(exit_code, "exit_code", 1)
        if exit_code is not None and exit_code > 255:
            # os._exit takes an exit status: larger values wrap (256 exits 0)
            # or raise OverflowError instead of ending the worker.
            raise DatabaseError("fault rule field 'exit_code' must be <= 255")
        self.exit_code = DEFAULT_EXIT_CODE if exit_code is None else exit_code
        self.remaining = self.times

    @classmethod
    def from_payload(cls, payload: Mapping) -> "FaultRule":
        if not isinstance(payload, Mapping):
            raise DatabaseError(f"fault rule must be a mapping, got {payload!r}")
        known = {
            "kind",
            "request_id",
            "request_index",
            "worker_id",
            "connection_id",
            "attempt",
            "times",
            "seconds",
            "exit_code",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise DatabaseError(f"unknown fault rule fields: {unknown}")
        if "request_id" in payload and "request_index" in payload:
            raise DatabaseError(
                "fault rule sets both 'request_id' and 'request_index' "
                "(they are synonyms; pick one)"
            )
        request_id = payload.get("request_id", payload.get("request_index"))
        kwargs: Dict[str, Any] = {"request_id": request_id}
        for field in ("worker_id", "connection_id", "times", "seconds", "exit_code"):
            if field in payload:
                kwargs[field] = payload[field]
        if "attempt" in payload:
            kwargs["attempt"] = payload["attempt"]  # may be None: any attempt
        return cls(str(payload.get("kind")), **kwargs)

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.worker_id is not None:
            payload["worker_id"] = self.worker_id
        if self.connection_id is not None:
            payload["connection_id"] = self.connection_id
        payload["attempt"] = self.attempt
        payload["times"] = self.times
        if self.kind in ("delay", "stalled_reader"):
            payload["seconds"] = self.seconds
        if self.kind == "worker_exit":
            payload["exit_code"] = self.exit_code
        return payload

    def matches(self, worker_id: int, request_id: int, attempt: int) -> bool:
        if self.kind not in FAULT_KINDS:
            return False  # connection rules never fire at the worker seam
        if self.remaining is not None and self.remaining <= 0:
            return False
        if self.request_id is not None and request_id != self.request_id:
            return False
        if self.worker_id is not None and worker_id != self.worker_id:
            return False
        if self.attempt is not None and attempt != self.attempt:
            return False
        return True

    def matches_connection(
        self, connection_id: int, request_index: int, attempt: int
    ) -> bool:
        if self.kind not in CONNECTION_FAULT_KINDS:
            return False  # worker rules never fire at the client seam
        if self.remaining is not None and self.remaining <= 0:
            return False
        if self.request_id is not None and request_index != self.request_id:
            return False
        if self.connection_id is not None and connection_id != self.connection_id:
            return False
        if self.attempt is not None and attempt != self.attempt:
            return False
        return True

    def __repr__(self) -> str:
        return f"FaultRule({self.to_payload()!r})"


class FaultPlan:
    """An ordered list of :class:`FaultRule`\\ s, applied at the worker
    loop's pre-execution seam.  Rule state (remaining fire counts) lives
    in the process applying the plan -- every worker owns its own copy."""

    def __init__(self, rules: Sequence[FaultRule]) -> None:
        self.rules = list(rules)
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise DatabaseError(f"not a FaultRule: {rule!r}")

    @classmethod
    def from_payload(cls, payload) -> "FaultPlan":
        """Build a plan from JSON data: a list of rule mappings, or a
        mapping ``{"faults": [...]}``."""
        if isinstance(payload, FaultPlan):
            return payload
        if isinstance(payload, Mapping):
            payload = payload.get("faults")
        if not isinstance(payload, Sequence) or isinstance(payload, (str, bytes)):
            raise DatabaseError(
                "fault plan must be a list of rules or {'faults': [...]}, "
                f"got {payload!r}"
            )
        return cls([FaultRule.from_payload(rule) for rule in payload])

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan scripted in ``REPRO_SERVE_FAULTS`` (inline JSON or a
        path to a JSON file), or ``None`` when the variable is unset or
        empty.  Malformed values raise -- a scripted fault plan that
        silently does not load would make a chaos test pass vacuously."""
        raw = os.environ.get(FAULTS_ENV, "").strip()
        if not raw:
            return None
        if not raw.lstrip().startswith(("[", "{")):
            try:
                with open(raw, "r", encoding="utf-8") as handle:
                    raw = handle.read()
            except OSError as exc:
                raise DatabaseError(
                    f"{FAULTS_ENV} names an unreadable fault-plan file: {exc}"
                ) from exc
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise DatabaseError(
                f"{FAULTS_ENV} does not hold valid JSON: {exc}"
            ) from exc
        return cls.from_payload(payload)

    def to_payload(self) -> List[Dict[str, Any]]:
        return [rule.to_payload() for rule in self.rules]

    def apply(self, *, worker_id: int, request_id: int, attempt: int) -> None:
        """Fire every matching rule for this (worker, request, attempt).

        ``delay`` sleeps and keeps scanning (so a delay can compose with a
        later exit/raise); ``raise`` throws :class:`FaultInjected`;
        ``worker_exit`` terminates the process on the spot.
        """
        for rule in self.rules:
            if not rule.matches(worker_id, request_id, attempt):
                continue
            if rule.remaining is not None:
                rule.remaining -= 1
            if rule.kind == "delay":
                time.sleep(rule.seconds)
                continue
            if rule.kind == "raise":
                raise FaultInjected(
                    f"injected fault: worker {worker_id} raised on request "
                    f"{request_id} (attempt {attempt})"
                )
            # worker_exit: no cleanup, no response -- a crash, not an exit.
            os._exit(rule.exit_code)

    def connection_action(
        self, *, connection_id: int, request_index: int, attempt: int = 1
    ) -> Optional[FaultRule]:
        """The first connection-level rule matching this (connection,
        request, attempt), with its fire budget decremented -- or ``None``.
        The *caller* (:class:`~repro.db.daemon.DaemonClient`) performs the
        transport action the rule names; this method only does the
        deterministic matching, mirroring how :meth:`apply` anchors the
        worker seam.  Worker-kind rules never fire here."""
        for rule in self.rules:
            if not rule.matches_connection(connection_id, request_index, attempt):
                continue
            if rule.remaining is not None:
                rule.remaining -= 1
            return rule
        return None

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return f"FaultPlan({self.to_payload()!r})"


def resolve_fault_plan(fault_plan=None) -> Optional[FaultPlan]:
    """Normalise the ``ServingPool(fault_plan=)`` knob: a plan passes
    through, JSON data parses, ``None`` defers to ``REPRO_SERVE_FAULTS``."""
    if fault_plan is None:
        return FaultPlan.from_env()
    if isinstance(fault_plan, FaultPlan):
        return fault_plan
    return FaultPlan.from_payload(fault_plan)
