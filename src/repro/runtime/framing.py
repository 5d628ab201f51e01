"""Datagram framing for the asyncio transport.

One UDP datagram carries exactly one :class:`Frame`.  The wire format is
a 4-byte magic/version tag followed by one canonical JSON object — small
enough for loopback MTUs, deterministic enough to hash, and dependency-
free (the container ships no msgpack/protobuf).

Protocol payloads are dataclasses registered in :data:`PAYLOAD_TYPES`
(the session wire vocabulary: advertise, subscribe, search, search
reply, payload — plus the ops introspection pair).  Every registered
type is *flat* (ints, floats, strings and tuples of those — checked at
import), so encoding reads the fields straight off a per-type
``(wire name, field names)`` table built once, with no reflection per
frame, and one module-level JSON encoder/decoder pair serves every
frame.  Decoding rebuilds the registered type, coercing JSON arrays
back to tuples (recursively — ops replies nest tuples) — every
registered payload uses tuples for its sequence fields, so
``decode(encode(x)) == x`` holds exactly (property-tested in
``tests/test_runtime_framing.py``).  Whatever bytes arrive,
:func:`decode_frame` either returns a :class:`Frame` or raises
:class:`~repro.errors.FramingError` (fuzzed in the same suite).

Frames optionally carry a causal span header ``"c"``: the
``(trace_id, span_id, parent_id)`` triple of the
:class:`~repro.obs.tracer.SpanContext` minted at the sender, so a live
episode's cross-datagram causality reconstructs into the same
:class:`~repro.obs.causality.SpanForest` a sim run produces.  The
header is omitted for span-less frames — wire bytes are unchanged when
span capture is off, and frames encoded before this header existed
still decode (``span=None``).  The sender's *incarnation* already
rides the frame ``nonce``, completing the span context triple plus
incarnation the live tracing needs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Mapping, Optional, get_type_hints

from ..errors import FramingError
from ..groupcast.session import (
    Advertise,
    Payload,
    Search,
    SearchReply,
    Subscribe,
)
from ..obs.tracer import SpanContext
from ..overlay.messages import MessageKind
from .ops import OpsReply, OpsRequest

#: Wire magic + codec version.  Bump on any incompatible layout change.
MAGIC = b"RPR1"

#: Hard datagram budget; loopback MTUs are ~64 KiB, stay well under.
MAX_FRAME_BYTES = 32_768

#: Frame types.
DATA = "data"
ACK = "ack"

#: Registered protocol payload dataclasses, by wire name.
PAYLOAD_TYPES: Mapping[str, type] = {
    "advertise": Advertise,
    "subscribe": Subscribe,
    "search": Search,
    "search_reply": SearchReply,
    "payload": Payload,
    "ops_request": OpsRequest,
    "ops_reply": OpsReply,
}

#: Per-type ``(wire name, field names)``, read by :func:`encode_payload`.
_CODECS = {cls: (name, tuple(f.name for f in dataclasses.fields(cls)))
           for name, cls in PAYLOAD_TYPES.items()}
assert not any(dataclasses.is_dataclass(hint) for cls in _CODECS
               for hint in get_type_hints(cls).values()), \
    "wire payloads are flat: no field may itself be a dataclass"

_KINDS = frozenset({""} | {kind.value for kind in MessageKind})

# One canonical (sorted keys, compact) encoder / decoder pair, built once.
_to_json = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode
_from_json = json.JSONDecoder().decode


@dataclass(frozen=True)
class Frame:
    """One datagram: either a payload carrier or an acknowledgement.

    ``seq`` numbers are per ``(sender, recipient)`` direction and drive
    both retransmission (sender side) and duplicate suppression
    (receiver side); an ``ack`` frame echoes the acknowledged ``seq``.
    ``nonce`` identifies the sender's *incarnation*: a restarted peer
    gets a fresh nonce, so its from-zero sequence numbers are not
    swallowed by dedup state remembered from its previous life, and
    stale acks from an old incarnation cannot clear new frames.
    """

    frame_type: str
    sender: int
    recipient: int
    seq: int
    kind: str = ""
    sent_at_ms: float = 0.0
    payload: object | None = None
    nonce: int = 0
    span: Optional[SpanContext] = None

    def message_kind(self) -> MessageKind | None:
        """The :class:`MessageKind` this frame carries, if any."""
        return MessageKind(self.kind) if self.kind else None


def encode_payload(payload: object) -> dict:
    """Encode a registered payload dataclass to a JSON-safe dict."""
    codec = _CODECS.get(type(payload))
    if codec is None:
        raise FramingError(
            f"unregistered payload type {type(payload).__name__!r}")
    name, fields = codec
    return {"t": name, "f": {field: getattr(payload, field)
                             for field in fields}}


def _coerce(value: object) -> object:
    """JSON arrays back to tuples, recursively (ops rows nest)."""
    if isinstance(value, list):
        return tuple(_coerce(item) for item in value)
    return value


def decode_payload(obj: dict) -> object:
    """Rebuild a registered payload dataclass from its wire dict."""
    try:
        cls = PAYLOAD_TYPES[obj["t"]]
        return cls(**{key: _coerce(value)
                      for key, value in obj["f"].items()})
    except (KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise FramingError(f"malformed payload object: {exc!r}") from exc


def encode_frame(frame: Frame) -> bytes:
    """Serialize one frame to a datagram."""
    if frame.frame_type not in (DATA, ACK):
        raise FramingError(f"unknown frame type {frame.frame_type!r}")
    body: dict = {
        "y": frame.frame_type,
        "a": frame.sender,
        "b": frame.recipient,
        "q": frame.seq,
        "k": frame.kind,
        "s": frame.sent_at_ms,
        "n": frame.nonce,
    }
    if frame.payload is not None:
        body["p"] = encode_payload(frame.payload)
    if frame.span is not None:
        # Causal span header: omitted when absent so span-less frames
        # keep the exact pre-header wire bytes (back-compat is pinned
        # by the framing property suite).
        body["c"] = [frame.span.trace_id, frame.span.span_id,
                     frame.span.parent_id]
    encoded = MAGIC + _to_json(body).encode("utf-8")
    if len(encoded) > MAX_FRAME_BYTES:
        raise FramingError(
            f"frame of {len(encoded)} bytes exceeds {MAX_FRAME_BYTES}")
    return encoded


def decode_frame(datagram: bytes) -> Frame:
    """Parse one datagram back into a :class:`Frame`."""
    if len(datagram) < len(MAGIC) or datagram[: len(MAGIC)] != MAGIC:
        raise FramingError("datagram does not start with the frame magic")
    try:
        body = _from_json(datagram[len(MAGIC):].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON
        raise FramingError(f"undecodable frame body: {exc}") from exc
    if not isinstance(body, dict):
        raise FramingError("frame body must be a JSON object")
    try:
        frame_type = body["y"]
        if frame_type not in (DATA, ACK):
            raise FramingError(f"unknown frame type {frame_type!r}")
        kind = body.get("k", "")
        if kind not in _KINDS:
            raise FramingError(f"unknown message kind {kind!r}")
        span = None
        if "c" in body:
            triple = body["c"]
            if not isinstance(triple, list) or len(triple) != 3:
                raise FramingError(f"malformed span header: {triple!r}")
            span = SpanContext(int(triple[0]), int(triple[1]),
                               int(triple[2]))
        sent_at_ms = float(body.get("s", 0.0))
        if not math.isfinite(sent_at_ms):
            raise FramingError(f"non-finite send time {sent_at_ms!r}")
        return Frame(
            frame_type=frame_type,
            sender=int(body["a"]),
            recipient=int(body["b"]),
            seq=int(body["q"]),
            kind=kind,
            sent_at_ms=sent_at_ms,
            payload=decode_payload(body["p"]) if "p" in body else None,
            nonce=int(body.get("n", 0)),
            span=span,
        )
    except KeyError as exc:
        raise FramingError(f"frame missing field {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise FramingError(f"frame field of the wrong type: {exc}") from exc
