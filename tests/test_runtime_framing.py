"""Property tests for datagram framing and the sans-IO ARQ layer.

Hypothesis drives four families of invariants:

* **Round trip** — ``decode(encode(frame)) == frame`` for every frame
  type and every registered payload dataclass, with and without the
  optional causal span header, and decode never accepts garbage
  silently (it raises :class:`FramingError`).  Span-less frames must
  produce the exact pre-header wire bytes (back-compat: peers that
  never heard of spans interoperate).
* **Hostile input** — arbitrary bytes, and valid frames with bytes
  edited or JSON values substituted, make ``decode_frame`` raise
  :class:`FramingError` and nothing else; the transport counts each
  under ``runtime.malformed``.  The wire bytes themselves are pinned
  by golden frames recorded before the codec was rewritten.
* **Idempotent delivery** — a duplicated DATA frame is re-acked but
  delivered at most once, no matter how often it arrives, from dedup
  state that stays O(1) for an in-order stream.
* **Retransmit-until-ack** — over a seeded lossy channel built from
  the PR-3 fault vocabulary (:class:`FaultWindow` drop/duplicate/
  reorder schedules interpreted by
  :class:`~repro.runtime.faulty.FaultyTransport`), every packaged
  payload is delivered **exactly once** as long as the loss window
  ends before the retry budget runs out.  The whole exchange runs on a
  virtual clock — no sockets, no sleeps, fully deterministic per seed.
"""

import asyncio
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FramingError, TopologyError, TransportError
from repro.faults.plan import FaultPlan, FaultWindow
from repro.groupcast.session import (
    Advertise,
    Payload,
    Search,
    SearchReply,
    Subscribe,
)
from repro.obs import SpanContext
from repro.overlay.messages import MessageKind
from repro.runtime.faulty import FaultyTransport
from repro.runtime.ops import OpsReply, OpsRequest
from repro.runtime.framing import (
    ACK,
    DATA,
    MAX_FRAME_BYTES,
    Frame,
    decode_frame,
    encode_frame,
)
from repro.runtime import AsyncioTransport
from repro.runtime.reliability import (
    REORDER_WINDOW,
    ReliableEndpoint,
    RetryPolicy,
)
from repro.sim.random import spawn_rng

ids = st.integers(min_value=0, max_value=2**31 - 1)
paths = st.lists(ids, min_size=1, max_size=6).map(tuple)
finite_ms = st.floats(min_value=0.0, max_value=1e12,
                      allow_nan=False, allow_infinity=False)

group_rows = st.lists(
    st.tuples(ids, st.one_of(st.just(-1), ids), st.integers(0, 1),
              st.integers(0, 1), st.integers(0, 64)),
    max_size=4).map(tuple)
ages = st.lists(st.tuples(ids, finite_ms), max_size=4).map(tuple)

payloads = st.one_of(
    st.builds(Advertise, group_id=ids, rendezvous=ids, path=paths,
              ttl=st.integers(1, 12),
              scheme=st.sampled_from(["ssa", "nssa"])),
    st.builds(Subscribe, group_id=ids, subscriber=ids),
    st.builds(Search, group_id=ids, origin=ids,
              ttl=st.integers(0, 12)),
    st.builds(SearchReply, group_id=ids, informed_peer=ids),
    st.builds(Payload, group_id=ids, payload_id=ids, source=ids),
    st.builds(OpsRequest, probe_id=ids),
    st.builds(OpsReply, peer_id=ids, probe_id=ids,
              incarnation=st.integers(-1, 2**31 - 1), at_ms=finite_ms,
              unacked=st.integers(0, 2**31 - 1), groups=group_rows,
              last_seen=ages),
)

spans = st.one_of(
    st.none(),
    st.builds(SpanContext, trace_id=ids, span_id=ids,
              parent_id=st.one_of(st.just(-1), ids)),
)

data_frames = st.builds(
    Frame,
    frame_type=st.just(DATA),
    sender=ids,
    recipient=ids,
    seq=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(
        [k.value for k in MessageKind] + [""]),
    sent_at_ms=finite_ms,
    payload=payloads,
    span=spans,
)

ack_frames = st.builds(
    Frame,
    frame_type=st.just(ACK),
    sender=ids,
    recipient=ids,
    seq=st.integers(0, 2**31 - 1),
    sent_at_ms=finite_ms,
    span=spans,
)


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
@given(frame=st.one_of(data_frames, ack_frames))
@settings(max_examples=200, deadline=None)
def test_frame_round_trip(frame):
    assert decode_frame(encode_frame(frame)) == frame


@given(payload=payloads)
@settings(max_examples=100, deadline=None)
def test_every_registered_payload_survives_the_wire(payload):
    frame = Frame(DATA, 1, 2, 0, "", 0.0, payload)
    decoded = decode_frame(encode_frame(frame))
    assert decoded.payload == payload
    assert type(decoded.payload) is type(payload)


@given(garbage=st.binary(max_size=64))
@settings(max_examples=100, deadline=None)
def test_decode_rejects_garbage(garbage):
    try:
        frame = decode_frame(garbage)
    except FramingError:
        return
    # Only a datagram that *is* a valid encoding may decode.
    assert encode_frame(frame) == garbage


@given(frame=st.one_of(data_frames, ack_frames))
@settings(max_examples=100, deadline=None)
def test_spanless_wire_bytes_carry_no_span_header(frame):
    """Frames without a span encode to the exact pre-header format: no
    ``"c"`` key on the wire, so historical captures and span-unaware
    peers round-trip unchanged."""
    import dataclasses
    import json

    bare = dataclasses.replace(frame, span=None)
    body = json.loads(encode_frame(bare)[len(b"GC1\x00"):])
    assert "c" not in body
    decoded = decode_frame(encode_frame(bare))
    assert decoded.span is None
    assert decoded == bare


def test_headerless_datagram_decodes_with_no_span():
    """A datagram hand-built without the span header (the pre-span wire
    format) still decodes — back-compat is a hard wire contract."""
    frame = Frame(DATA, 1, 2, 9, "payload", 41.5, Payload(1, 3, 1))
    datagram = encode_frame(frame)
    assert b'"c"' not in datagram
    decoded = decode_frame(datagram)
    assert decoded == frame
    assert decoded.span is None


def test_span_header_round_trips():
    span = SpanContext(trace_id=5, span_id=17, parent_id=4)
    frame = Frame(DATA, 1, 2, 0, "payload", 0.0, Payload(1, 3, 1),
                  span=span)
    datagram = encode_frame(frame)
    assert b'"c":[5,17,4]' in datagram
    assert decode_frame(datagram).span == span


def test_malformed_span_header_rejected():
    span = SpanContext(1, 2, 3)
    good = encode_frame(Frame(DATA, 1, 2, 0, "", 0.0, span=span))
    bad = good.replace(b'"c":[1,2,3]', b'"c":[1,2]')
    with pytest.raises(FramingError):
        decode_frame(bad)


def test_unregistered_payload_rejected():
    with pytest.raises(FramingError):
        encode_frame(Frame(DATA, 1, 2, 0, "", 0.0, payload=object()))


def test_oversize_frame_rejected():
    huge = Advertise(1, 2, tuple(range(20_000)), 5, "ssa")
    with pytest.raises(FramingError):
        encode_frame(Frame(DATA, 1, 2, 0, "", 0.0, huge))
    assert MAX_FRAME_BYTES == 32_768


# ----------------------------------------------------------------------
# Golden wire bytes
# ----------------------------------------------------------------------
#: ``encode_frame`` output recorded at the commit *before* the codec
#: stopped reflecting over dataclasses (one frame per registered payload
#: type, an ACK, a DATA frame with a span header).  The wire format is
#: frozen: a codec change that moves one byte here needs a ``MAGIC`` bump.
GOLDEN_FRAMES = [
    (Frame(DATA, 3, 9, 0, "advertisement", 12.5,
           Advertise(1, 3, (3, 17, 4), 6, "ssa")),
     b'RPR1{"a":3,"b":9,"k":"advertisement","n":0,"p":{"f":{"group_id":1,'
     b'"path":[3,17,4],"rendezvous":3,"scheme":"ssa","ttl":6},'
     b'"t":"advertise"},"q":0,"s":12.5,"y":"data"}'),
    (Frame(DATA, 9, 3, 1, "subscription", 40.25, Subscribe(1, 9), nonce=2),
     b'RPR1{"a":9,"b":3,"k":"subscription","n":2,"p":{"f":{"group_id":1,'
     b'"subscriber":9},"t":"subscribe"},"q":1,"s":40.25,"y":"data"}'),
    (Frame(DATA, 5, 8, 2, "subscription_search", 0.0, Search(2, 5, 3)),
     b'RPR1{"a":5,"b":8,"k":"subscription_search","n":0,"p":{"f":{"group_id":2,'
     b'"origin":5,"ttl":3},"t":"search"},"q":2,"s":0.0,"y":"data"}'),
    (Frame(DATA, 8, 5, 3, "search_response", 1e3, SearchReply(2, 8),
           nonce=1),
     b'RPR1{"a":8,"b":5,"k":"search_response","n":1,"p":{"f":{"group_id":2,'
     b'"informed_peer":8},"t":"search_reply"},"q":3,"s":1000.0,'
     b'"y":"data"}'),
    (Frame(DATA, 1, 2, 41, "payload", 1234.5678, Payload(1, 77, 1)),
     b'RPR1{"a":1,"b":2,"k":"payload","n":0,"p":{"f":{"group_id":1,'
     b'"payload_id":77,"source":1},"t":"payload"},"q":41,"s":1234.5678,'
     b'"y":"data"}'),
    (Frame(DATA, 0, 6, 5, "ops", 99.0, OpsRequest(4)),
     b'RPR1{"a":0,"b":6,"k":"ops","n":0,"p":{"f":{"probe_id":4},'
     b'"t":"ops_request"},"q":5,"s":99.0,"y":"data"}'),
    (Frame(DATA, 6, 0, 6, "ops_reply", 100.125,
           OpsReply(6, 4, 1, 100.0, 2,
                    ((1, -1, 1, 0, 3), (2, 5, 0, 1, 0)),
                    ((5, 12.5), (7, 0.0))), nonce=1),
     b'RPR1{"a":6,"b":0,"k":"ops_reply","n":1,"p":{"f":{"at_ms":100.0,'
     b'"groups":[[1,-1,1,0,3],[2,5,0,1,0]],"incarnation":1,'
     b'"last_seen":[[5,12.5],[7,0.0]],"peer_id":6,"probe_id":4,'
     b'"unacked":2},"t":"ops_reply"},"q":6,"s":100.125,"y":"data"}'),
    (Frame(ACK, 2, 1, 41, "", 1240.0),
     b'RPR1{"a":2,"b":1,"k":"","n":0,"q":41,"s":1240.0,"y":"ack"}'),
    (Frame(DATA, 1, 2, 42, "payload", 7.0, Payload(1, 78, 1), nonce=3,
           span=SpanContext(5, 17, 4)),
     b'RPR1{"a":1,"b":2,"c":[5,17,4],"k":"payload","n":3,"p":{"f":'
     b'{"group_id":1,"payload_id":78,"source":1},"t":"payload"},"q":42,'
     b'"s":7.0,"y":"data"}'),
]


def test_golden_frames_cover_every_registered_payload_type():
    from repro.runtime.framing import PAYLOAD_TYPES

    covered = {type(frame.payload) for frame, _ in GOLDEN_FRAMES}
    assert covered >= set(PAYLOAD_TYPES.values())


@pytest.mark.parametrize(
    "frame, wire", GOLDEN_FRAMES,
    ids=[type(f.payload).__name__ + ("+span" if f.span else "")
         for f, _ in GOLDEN_FRAMES])
def test_wire_bytes_match_the_recorded_golden_frames(frame, wire):
    assert encode_frame(frame) == wire
    assert decode_frame(wire) == frame


# ----------------------------------------------------------------------
# Hostile input
# ----------------------------------------------------------------------
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**40, 2**40),
              st.floats(allow_nan=True, allow_infinity=True),
              st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=6)


@st.composite
def mangled_datagrams(draw):
    """A valid frame's datagram, hurt one of three ways: random byte
    edits, one JSON value (header or payload level) swapped for an
    arbitrary one, or one key removed."""
    datagram = encode_frame(draw(st.one_of(data_frames, ack_frames)))
    how = draw(st.sampled_from(["bytes", "value", "drop"]))
    if how == "bytes":
        edited = bytearray(datagram)
        for _ in range(draw(st.integers(1, 4))):
            edited[draw(st.integers(0, len(edited) - 1))] = draw(
                st.integers(0, 255))
        return bytes(edited)
    body = json.loads(datagram[4:])
    target = body
    if "p" in body and draw(st.booleans()):
        target = draw(st.sampled_from([body["p"], body["p"]["f"]]))
    key = draw(st.sampled_from(sorted(target)))
    if how == "drop":
        del target[key]
    else:
        target[key] = draw(json_values)
    return datagram[:4] + json.dumps(body).encode("utf-8")


def _decodes(datagram: bytes) -> bool:
    """True if the datagram decodes; only FramingError may say no."""
    try:
        frame = decode_frame(datagram)
    except FramingError:
        return False
    # What decodes is a frame the rest of the runtime can handle.
    frame.message_kind()
    assert isinstance(frame.seq, int) and isinstance(frame.nonce, int)
    return True


@given(datagram=st.one_of(
    st.binary(max_size=96),
    st.binary(max_size=96).map(lambda tail: b"RPR1" + tail),
    mangled_datagrams()))
@settings(max_examples=400, deadline=None)
def test_decode_raises_only_framing_error(datagram):
    _decodes(datagram)


@pytest.mark.parametrize("datagram", [
    b'RPR1{"y":"data","a":"x","b":2,"q":0}',            # int("x")
    b'RPR1{"y":"data","a":1,"b":2,"q":[]}',              # int([])
    b'RPR1{"y":"data","a":1,"b":2,"q":0,"s":{}}',        # float({})
    b'RPR1{"y":"data","a":1e999,"b":2,"q":0}',           # int(inf)
    b'RPR1{"y":"data","a":1,"b":2,"q":0,"k":"bogus"}',   # unknown kind
    b'RPR1{"y":"data","a":1,"b":2,"q":0,"k":[]}',        # unhashable kind
    b'RPR1{"y":"data","a":1,"b":2,"q":0,"c":[1,"x",3]}',
    b'RPR1{"y":"data","a":1,"b":2,"q":0,"p":{"t":"payload","f":[1]}}',
    b'RPR1{"y":"data","a":1,"b":2,"q":0,"p":{"t":[],"f":{}}}',
    b'RPR1{"y":"data","a":1,"b":2,"q":0,"p":"payload"}',
    b'RPR1{"y":["data"],"a":1,"b":2,"q":0}',
    b"RPR1" + b"[" * 20_000,                             # RecursionError
    b'RPR1{"y":"data","a":' + b"9" * 5_000 + b',"b":2,"q":0}',
])
def test_wrongly_typed_fields_raise_framing_error(datagram):
    with pytest.raises(FramingError):
        decode_frame(datagram)


@pytest.mark.parametrize("stamp", [b"Infinity", b"-Infinity", b"NaN",
                                   b"1e999"])
def test_non_finite_send_time_raises_framing_error(stamp):
    """A non-finite ``"s"`` would hold a paced delivery for ever."""
    with pytest.raises(FramingError, match="non-finite"):
        decode_frame(b'RPR1{"y":"data","a":1,"b":2,"q":0,"s":' + stamp
                     + b'}')


@pytest.mark.parametrize("depth", [100, 300, 450, 600, 900, 950, 990,
                                   1500])
def test_deeply_nested_payload_field_raises_only_framing_error(depth):
    """A ~2 KB datagram nesting ~900 lists in one payload field passes
    the C JSON scanner and overflows the Python-recursive tuple
    coercion; which depth tips over depends on the caller's own stack,
    so a ladder of depths is pinned, not one."""
    datagram = (b'RPR1{"y":"data","a":1,"b":2,"q":0,"p":{"t":"payload",'
                b'"f":{"group_id":' + b"[" * depth + b"]" * depth
                + b',"payload_id":1,"source":1}}}')
    assert len(datagram) < 4096
    _decodes(datagram)
    # From a shallow stack too (the socket callback's situation).
    outcome = []
    worker = threading.Thread(
        target=lambda: outcome.append(_decodes(datagram)))
    worker.start()
    worker.join()
    assert len(outcome) == 1  # no exception killed the thread


def test_transport_counts_every_malformed_datagram():
    """Through the socket callback: whatever arrives, nothing escapes
    ``_on_datagram``, and ``runtime.malformed`` moves by one exactly
    when the datagram does not decode."""
    loop = asyncio.new_event_loop()
    transport = AsyncioTransport()
    received = []
    try:
        loop.run_until_complete(transport.start())
        loop.run_until_complete(transport.start_peer(2, received.append))
        malformed = transport.registry.counter("runtime.malformed")

        @given(datagram=st.one_of(st.binary(max_size=64),
                                  mangled_datagrams()))
        @settings(max_examples=300, deadline=None)
        def feed(datagram):
            before = malformed.value
            transport._on_datagram(2, datagram)
            assert malformed.value - before == int(not _decodes(datagram))

        feed()
        assert malformed.value > 0
    finally:
        loop.run_until_complete(transport.close())
        loop.close()


def test_wait_quiescent_answers_at_once_when_idle_and_false_on_timeout():
    async def episode():
        transport = AsyncioTransport()
        await transport.start()
        await transport.start_peer(1)
        assert await transport.wait_quiescent(0.0)  # idle: no wait at all
        transport.send(1, 2, Payload(1, 1, 1))  # no route yet: unacked
        assert not await transport.wait_quiescent(0.0)
        assert not await transport.wait_quiescent(0.02)
        received = []
        await transport.start_peer(2, received.append)
        assert await transport.wait_quiescent(5.0)  # first retransmit
        assert [envelope.payload for envelope in received] == \
            [Payload(1, 1, 1)]
        await transport.close()

    asyncio.run(episode())


def test_frame_from_a_peer_outside_the_underlay_is_delivered_unpaced():
    """``Deployment.peer_distance_ms`` — what ``serve(pace_latencies=
    True)`` paces with — raises ``TopologyError`` for an unattached
    peer; its frames (already acked) are delivered unpaced, not lost in
    the socket callback."""
    def latency(a, b):
        if 9 in (a, b):
            raise TopologyError("peer 9 is not attached")
        return 1.0

    async def episode():
        transport = AsyncioTransport(latency_fn=latency)
        await transport.start()
        received = []
        await transport.start_peer(2, received.append)
        await transport.start_peer(1)
        await transport.start_peer(9)
        transport.send(1, 2, Payload(1, 1, 1))
        transport.send(9, 2, Payload(1, 2, 9))
        assert await transport.wait_quiescent(5.0)
        assert sorted(e.payload.payload_id for e in received) == [1, 2]
        await transport.close()

    asyncio.run(episode())


# ----------------------------------------------------------------------
# Idempotent delivery
# ----------------------------------------------------------------------
@given(payload=payloads, copies=st.integers(2, 6))
@settings(max_examples=50, deadline=None)
def test_duplicate_data_frames_deliver_once(payload, copies):
    sender = ReliableEndpoint(1)
    receiver = ReliableEndpoint(2)
    frame = sender.package(2, payload, None, 0.0)
    delivered = 0
    acks = 0
    duplicates = 0
    for attempt in range(copies):
        result = receiver.on_frame(frame, float(attempt))
        assert result.ack is not None  # every copy is re-acked
        acks += 1
        delivered += int(result.deliver)
        duplicates += int(result.duplicate)
    assert delivered == 1
    assert acks == copies
    assert duplicates == copies - 1


def _dedup_cells(endpoint: ReliableEndpoint) -> int:
    """Sequence numbers the receiver is holding on to."""
    return sum(len(seen.ahead) for seen in endpoint._seen.values())


def test_in_order_stream_leaves_constant_dedup_state():
    """10^5 in-order frames from one sender: the watermark advances and
    nothing accumulates (the old per-sender set grew by one per frame)."""
    sender = ReliableEndpoint(1)
    receiver = ReliableEndpoint(2)
    payload = Payload(1, 1, 1)
    for index in range(100_000):
        frame = sender.package(2, payload, None, float(index))
        result = receiver.on_frame(frame, float(index))
        assert result.deliver
        assert sender.on_frame(result.ack, float(index)).acked
    assert len(receiver._seen) == 1
    assert _dedup_cells(receiver) == 0
    assert receiver._seen[(1, 0)].low == 100_000
    assert sender.unacked() == 0


def test_duplicate_below_the_watermark_is_reacked_not_redelivered():
    sender = ReliableEndpoint(1)
    receiver = ReliableEndpoint(2)
    frames = [sender.package(2, Payload(1, i, 1), None, 0.0)
              for i in range(5)]
    for frame in frames:
        assert receiver.on_frame(frame, 0.0).deliver
    assert _dedup_cells(receiver) == 0  # all folded into the watermark
    again = receiver.on_frame(frames[1], 1.0)
    assert again.ack is not None and again.ack.seq == 1
    assert not again.deliver and again.duplicate
    assert receiver.registry.counter(
        "runtime.duplicates_suppressed").value == 1


def test_out_of_order_arrivals_fold_into_the_watermark():
    sender = ReliableEndpoint(1)
    receiver = ReliableEndpoint(2)
    frames = [sender.package(2, Payload(1, i, 1), None, 0.0)
              for i in range(6)]
    for index in (3, 1, 5):
        assert receiver.on_frame(frames[index], 0.0).deliver
    assert _dedup_cells(receiver) == 3
    assert receiver.on_frame(frames[3], 0.0).duplicate
    assert receiver.on_frame(frames[0], 0.0).deliver   # low: 0 -> 2
    assert receiver._seen[(1, 0)].low == 2
    assert receiver.on_frame(frames[2], 0.0).deliver   # low: 2 -> 4
    assert receiver.on_frame(frames[4], 0.0).deliver   # low: 4 -> 6
    assert receiver._seen[(1, 0)].low == 6
    assert _dedup_cells(receiver) == 0


def test_gap_the_sender_gave_up_on_stalls_the_pair_for_one_budget_only():
    """Seq 0 expires unseen (route published late), then a steady
    stream of 8 windows follows.  The receiver refuses what is beyond
    the window until seq 0 cannot be coming any more, then moves past
    it: every frame is delivered exactly once or reported expired (none
    acked undelivered), only frames packaged within one max backoff of
    the first refusal are lost to the stall, and the stream ends up
    delivered on first transmission again."""
    policy = RetryPolicy(timeout_ms=20.0, backoff=2.0,
                         max_timeout_ms=300.0, max_retries=8)
    give_up_ms = sum(policy.delay_ms(n) for n in range(9))
    sender = ReliableEndpoint(1, policy)
    receiver = ReliableEndpoint(2, policy)
    delivered, expired, first_try = [], [], set()

    def offer(frame, now_ms):
        result = receiver.on_frame(frame, now_ms)
        if result.ack is not None:
            assert sender.on_frame(result.ack, now_ms).acked \
                or result.duplicate
        if result.deliver:
            delivered.append(frame.seq)
        return result.deliver

    now_ms = 0.0
    sender.package(2, Payload(1, 0, 1), None, now_ms)  # never arrives
    while sender.unacked():
        now_ms += 1.0
        sender.due_retransmits(now_ms)
    assert [frame.seq for frame in sender.take_expired()] == [0]
    assert now_ms == give_up_ms

    total = 8 * REORDER_WINDOW
    stalled_at = None
    while sender._next_seq[2] <= total or sender.unacked():
        now_ms += 1.0  # one frame per ms: > REORDER_WINDOW per budget
        for frame in sender.due_retransmits(now_ms):
            offer(frame, now_ms)
        expired.extend(frame.seq for frame in sender.take_expired())
        if sender._next_seq[2] <= total:
            frame = sender.package(2, Payload(1, 1, 1), None, now_ms)
            if offer(frame, now_ms):
                first_try.add(frame.seq)
            elif stalled_at is None:
                stalled_at = (frame.seq, now_ms)
        assert _dedup_cells(receiver) < REORDER_WINDOW
        assert len(receiver._seen[(1, 0)].refused) <= 17

    assert stalled_at == (REORDER_WINDOW, give_up_ms + REORDER_WINDOW)
    assert len(delivered) == len(set(delivered))
    assert not set(delivered) & set(expired)
    assert sorted(delivered + expired) == list(range(1, total + 1))
    # Lost to the stall: what was packaged within one max backoff of
    # the first refusal (its last transmission came before the budget
    # ran out).  Nothing else.
    assert sorted(expired) == list(range(
        REORDER_WINDOW, REORDER_WINDOW + int(policy.max_timeout_ms)))
    assert first_try >= set(range(total - 500, total + 1))
    assert receiver._seen[(1, 0)].low == total + 1
    assert _dedup_cells(receiver) == 0


def test_late_copy_of_a_refused_frame_is_not_acked_undelivered():
    """While the gap may still close the window does not slide: a frame
    two windows ahead is refused however often it is offered, so the
    retransmission of the missing frame is still a first delivery."""
    sender = ReliableEndpoint(1)
    receiver = ReliableEndpoint(2)
    frames = [sender.package(2, Payload(1, i, 1), None, 0.0)
              for i in range(2 * REORDER_WINDOW + 1)]
    for now_ms in (0.0, 200.0, 600.0, 1400.0):
        assert receiver.on_frame(frames[-1], now_ms).ack is None
    late = receiver.on_frame(frames[0], 1500.0)
    assert late.deliver and not late.duplicate


def test_frame_beyond_the_reorder_window_waits_for_the_gap_to_close():
    """A frame ``REORDER_WINDOW`` or more ahead of the watermark is
    neither acked nor delivered — the sender's ARQ offers it again — so
    the out-of-order set cannot outgrow the window."""
    policy = RetryPolicy(timeout_ms=10.0, backoff=1.0, max_timeout_ms=10.0)
    sender = ReliableEndpoint(1, policy)
    receiver = ReliableEndpoint(2)
    frames = [sender.package(2, Payload(1, i, 1), None, 0.0)
              for i in range(REORDER_WINDOW + 2)]
    delivered = []
    # Frame 0 is lost; everything else arrives.
    for frame in frames[1:]:
        result = receiver.on_frame(frame, 1.0)
        if result.ack is not None:
            sender.on_frame(result.ack, 1.0)
        if result.deliver:
            delivered.append(frame.seq)
    assert delivered == list(range(1, REORDER_WINDOW))
    assert _dedup_cells(receiver) == REORDER_WINDOW - 1
    assert receiver.registry.counter("runtime.acks_sent").value == \
        REORDER_WINDOW - 1
    assert sender.unacked() == 3  # 0 and the two refused frames
    # The retransmit timer re-offers all three; now the gap closes.
    for frame in sender.due_retransmits(20.0):
        result = receiver.on_frame(frame, 20.0)
        assert result.deliver
        sender.on_frame(result.ack, 20.0)
        delivered.append(frame.seq)
    assert sorted(delivered) == list(range(REORDER_WINDOW + 2))
    assert len(delivered) == len(set(delivered))
    assert sender.unacked() == 0
    assert _dedup_cells(receiver) == 0


@given(payload=payloads)
@settings(max_examples=25, deadline=None)
def test_stray_frames_are_dropped_silently(payload):
    receiver = ReliableEndpoint(7)
    stray = Frame(DATA, 1, 2, 0, "", 0.0, payload)  # not addressed to 7
    result = receiver.on_frame(stray, 0.0)
    assert result.ack is None
    assert not result.deliver


# ----------------------------------------------------------------------
# Retransmit-until-ack over a seeded lossy channel
# ----------------------------------------------------------------------
def _run_lossy_exchange(seed: int, plan: FaultPlan, message_count: int,
                        horizon_ms: float = 60_000.0) -> list[int]:
    """Drive sender -> channel -> receiver on a virtual clock.

    Both directions (DATA and ACK) traverse the same faulty channel.
    Returns the payload ids delivered at the receiver, in order.
    """
    policy = RetryPolicy(timeout_ms=25.0, backoff=1.5,
                         max_timeout_ms=400.0, max_retries=60)
    sender = ReliableEndpoint(1, policy)
    receiver = ReliableEndpoint(2, policy)
    channel = FaultyTransport(plan, spawn_rng(seed, "lossy-channel"))
    wire: list[tuple[float, int, Frame]] = []  # (at_ms, tiebreak, frame)
    tiebreak = 0
    now = 0.0
    delivered: list[int] = []

    def transmit(frame: Frame, at_ms: float) -> None:
        nonlocal tiebreak
        for deliver_at, copy in channel.transmit(frame, at_ms):
            wire.append((deliver_at, tiebreak, copy))
            tiebreak += 1

    for payload_id in range(message_count):
        transmit(sender.package(
            2, Payload(1, payload_id, 1), MessageKind.PAYLOAD, now), now)

    while now < horizon_ms and (wire or sender.unacked()):
        next_wire = min((at for at, _, _ in wire), default=None)
        next_retry = sender.next_due_ms()
        candidates = [t for t in (next_wire, next_retry) if t is not None]
        if not candidates:
            break
        now = max(now, min(candidates))
        arrived = sorted(
            [entry for entry in wire if entry[0] <= now])
        wire[:] = [entry for entry in wire if entry[0] > now]
        for _, _, frame in arrived:
            if frame.recipient == 2:
                result = receiver.on_frame(frame, now)
                if result.deliver:
                    delivered.append(frame.payload.payload_id)
                if result.ack is not None:
                    transmit(result.ack, now)
            else:
                sender.on_frame(frame, now)
        for frame in sender.due_retransmits(now):
            transmit(frame, now)
    return delivered


@given(seed=st.integers(0, 2**31 - 1),
       drop_probability=st.floats(0.05, 0.9),
       message_count=st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_every_payload_delivered_exactly_once_despite_drops(
        seed, drop_probability, message_count):
    plan = FaultPlan(windows=(
        FaultWindow("drop", 0.0, 4_000.0, drop_probability),
    ))
    delivered = _run_lossy_exchange(seed, plan, message_count)
    assert sorted(delivered) == list(range(message_count))


@given(seed=st.integers(0, 2**31 - 1), message_count=st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_exactly_once_under_adversarial_duplication_and_reorder(
        seed, message_count):
    plan = FaultPlan(windows=(
        FaultWindow("drop", 0.0, 2_000.0, 0.3),
        FaultWindow("duplicate", 0.0, 3_000.0, 0.5, 40.0),
        FaultWindow("reorder", 0.0, 3_000.0, 0.5, 60.0),
    ))
    delivered = _run_lossy_exchange(seed, plan, message_count)
    assert sorted(delivered) == list(range(message_count))


def test_expired_frames_surface_after_budget_exhaustion():
    """A permanently dead link expires the frame instead of retrying
    forever; the expiry is reported exactly once."""
    policy = RetryPolicy(timeout_ms=10.0, backoff=1.0,
                         max_timeout_ms=10.0, max_retries=3)
    sender = ReliableEndpoint(1, policy)
    sender.package(2, Payload(1, 0, 1), MessageKind.PAYLOAD, 0.0)
    retransmits = 0
    now = 0.0
    for _ in range(10):
        now += 10.0
        retransmits += len(sender.due_retransmits(now))
    assert retransmits == policy.max_retries
    expired = sender.take_expired()
    assert len(expired) == 1
    assert sender.take_expired() == []
    assert sender.unacked() == 0
    assert sender.registry.counter("runtime.expired").value == 1


def test_retry_policy_validation():
    with pytest.raises(TransportError):
        RetryPolicy(timeout_ms=0.0)
    with pytest.raises(TransportError):
        RetryPolicy(backoff=0.5)
    with pytest.raises(TransportError):
        RetryPolicy(max_timeout_ms=1.0, timeout_ms=2.0)
    policy = RetryPolicy(timeout_ms=100.0, backoff=2.0,
                         max_timeout_ms=350.0)
    assert policy.delay_ms(0) == 100.0
    assert policy.delay_ms(1) == 200.0
    assert policy.delay_ms(2) == 350.0  # capped
