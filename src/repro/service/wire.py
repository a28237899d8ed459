"""Wire codecs for the placement service: NDJSON and binary frames.

Two interchangeable codecs share one request/response model. The server
sniffs the first byte of each connection (:data:`BIN_MAGIC` vs anything
else) and speaks whichever protocol the client opened with, so old JSON
clients and new binary clients coexist on one port.

**NDJSON** (protocol 1, the compat codec): one request or response per
line. Every request carries an ``op`` and a client-chosen ``id`` that
the response echoes, so clients may pipeline.

Transactions travel in a compact array form::

    [txid, [[parent_txid, output_index], ...], n_outputs]

``n_outputs`` may instead be a list of ``[value, address]`` pairs
(``encode_tx(..., full_outputs=True)``) when output *content* matters -
placement itself only reads the output count, but hash-based strategies
(``omniledger``) fold output values into the transaction digest, so
replaying through the wire with bare counts would change their
placements. OptChain and the capped baselines are count-only.

Requests::

    {"op": "place",      "id": 1, "txs": [...]}        -> {"id": 1, "ok": true, "shards": [...]}
    {"op": "stats",      "id": 2}                      -> {"id": 2, "ok": true, "stats": {...}}
    {"op": "checkpoint", "id": 3, "path": "x.snap"?}   -> {"id": 3, "ok": true, "path": ..., "bytes": n}
    {"op": "ping",       "id": 4}                      -> {"id": 4, "ok": true, "n_placed": n}
    {"op": "shutdown",   "id": 5}                      -> {"id": 5, "ok": true}  (then drain + close)

Errors: ``{"id": ..., "ok": false, "error": "...", "code": "protocol" |
"engine" | "shutdown"}``. Protocol errors are the client's fault (bad
JSON, unknown op, oversized batch); engine errors are serving-contract
violations (out-of-order txids, double spends) - both leave the server
serving.

**Binary frames** (protocol 2, the fast codec). The JSON socket path is
codec-bound (~31k placements/s against ~105k in-process - see
PERFORMANCE.md "Serving"): every transaction pays ``json.loads`` plus
per-element type checks. The binary codec moves the bulk payload into
packed typed arrays decoded at C speed, and puts the routing facts (op,
request id, first txid, batch length) at fixed offsets so a front-end
can route a ``place`` request **without decoding its payload at all**
(:func:`peek_place_header` - how the sharded coordinator stays thin).

Frame layout (everything little-endian)::

    1 byte   magic 0xF5
    1 byte   kind (request op, or response status with bit 7 set)
    8 bytes  request id u64 (echoed by the response)
    4 bytes  payload length u32
    N bytes  payload

``place`` payload::

    13 bytes  first_txid u64, n_txs u32, flags u8 (bit 0: full outputs)
    array u32[n_txs]    inputs per transaction
    array u32[n_txs]    outputs per transaction
    (full outputs only)
    array i64[sum outs] output values
    array i64[sum outs] output addresses
    array u64[sum ins]  parent txids, concatenated
    array u32[sum ins]  output indexes, concatenated

Txids inside one request are implicitly dense (``first_txid + i``), so
contiguity - which :func:`decode_batch` must check entry by entry on
the JSON path - holds by construction. Control ops (``stats``,
``checkpoint``, ``ping``, ``shutdown``) carry a small JSON object (or
nothing); they are not hot. Responses: a ``shards`` payload is one
packed i32 array, a JSON payload is the response object minus the
``id`` (which travels in the header), an error payload is the UTF-8
message with the code in the kind byte. Both codecs surface the same
response dict shape, so client error mapping is shared.
"""

from __future__ import annotations

import json
import struct
import sys
import warnings
from array import array
from typing import Any, Sequence

from repro.errors import ProtocolError, ValidationError
from repro.utxo.transaction import OutPoint, Transaction, TxOutput

#: Wire-format/protocol revision, echoed by ``ping``. 2 = binary frames
#: available (NDJSON remains accepted on the same port).
PROTOCOL_VERSION = 2

#: Output-count ceiling per transaction: far above any real workload
#: (the generator's exchange payouts top out at 40) while keeping a
#: hostile count from ballooning the decoded tuple and the engine's
#: per-output spend bitmask.
MAX_OUTPUTS_PER_TX = 65_536

OPS = ("place", "stats", "checkpoint", "ping", "shutdown")


def encode_tx(tx: Transaction, full_outputs: bool = False) -> list[Any]:
    """Compact array form of one transaction."""
    outputs: Any
    if full_outputs:
        outputs = [[out.value, out.address] for out in tx.outputs]
    else:
        outputs = len(tx.outputs)
    return [
        tx.txid,
        [[op.txid, op.index] for op in tx.inputs],
        outputs,
    ]


def decode_tx(obj: Any) -> Transaction:
    """Rebuild a :class:`Transaction` from the wire form.

    Raises :class:`~repro.errors.ProtocolError` on malformed input; the
    message is safe to echo back to the client.
    """
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise ProtocolError(
            "transaction must be [txid, inputs, outputs], got "
            f"{type(obj).__name__}"
        )
    txid, inputs, outputs = obj
    if not isinstance(txid, int) or isinstance(txid, bool) or txid < 0:
        raise ProtocolError(f"txid must be a non-negative int, got {txid!r}")
    if not isinstance(inputs, (list, tuple)):
        raise ProtocolError("inputs must be a list of [txid, index] pairs")
    decoded_inputs = []
    for entry in inputs:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not isinstance(entry[0], int)
            or not isinstance(entry[1], int)
            or isinstance(entry[0], bool)
            or isinstance(entry[1], bool)
            or entry[0] < 0
            or entry[1] < 0
        ):
            raise ProtocolError(
                f"input must be [parent_txid, output_index], got {entry!r}"
            )
        decoded_inputs.append(OutPoint(entry[0], entry[1]))
    if isinstance(outputs, int) and not isinstance(outputs, bool):
        if not 0 <= outputs <= MAX_OUTPUTS_PER_TX:
            raise ProtocolError(
                f"n_outputs must be in [0, {MAX_OUTPUTS_PER_TX}], "
                f"got {outputs}"
            )
        decoded_outputs = zero_outputs(outputs)
    elif isinstance(outputs, (list, tuple)):
        if len(outputs) > MAX_OUTPUTS_PER_TX:
            raise ProtocolError(
                f"transaction has {len(outputs)} outputs; the limit "
                f"is {MAX_OUTPUTS_PER_TX}"
            )
        decoded = []
        for entry in outputs:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not isinstance(entry[0], int)
                or not isinstance(entry[1], int)
            ):
                raise ProtocolError(
                    f"output must be [value, address], got {entry!r}"
                )
            decoded.append(TxOutput(value=entry[0], address=entry[1]))
        decoded_outputs = tuple(decoded)
    else:
        raise ProtocolError(
            "outputs must be an int count or a list of [value, address]"
        )
    return Transaction(
        txid=txid, inputs=tuple(decoded_inputs), outputs=decoded_outputs
    )


def decode_batch(objs: Any) -> list[Transaction]:
    """Decode a ``place`` payload; enforces a contiguous txid run.

    The server's reorder buffer keys each request by its first txid and
    merges contiguous runs, so a request with internal gaps could never
    be dispatched - rejected here with a precise message instead.
    """
    if not isinstance(objs, (list, tuple)):
        raise ProtocolError("txs must be a list")
    if not objs:
        raise ProtocolError("txs must not be empty")
    batch = [decode_tx(entry) for entry in objs]
    first = batch[0].txid
    for index, tx in enumerate(batch):
        if tx.txid != first + index:
            raise ProtocolError(
                f"txs must form a contiguous txid run: position {index} "
                f"has txid {tx.txid}, expected {first + index}"
            )
    return batch


def encode_batch(
    txs: Sequence[Transaction], full_outputs: bool = False
) -> list[list[Any]]:
    """Encode a batch for a ``place`` request."""
    return [encode_tx(tx, full_outputs) for tx in txs]


# -- binary frames ---------------------------------------------------------

#: First byte of every binary frame. NDJSON requests start with a
#: printable character (``{``), so one sniffed byte routes a connection.
BIN_MAGIC = 0xF5

#: Frame header: magic u8, kind u8, request id u64, payload length u32.
_HEADER = struct.Struct("<BBQI")
FRAME_HEADER_BYTES = _HEADER.size

#: ``place`` payload prefix: first_txid u64, n_txs u32, flags u8.
_PLACE_HEADER = struct.Struct("<QIB")
PLACE_HEADER_BYTES = _PLACE_HEADER.size

#: Hard ceiling on one frame's payload (matches the NDJSON line limit).
MAX_FRAME_BYTES = 8 * 1024 * 1024

# Request kinds (the op byte). Kinds >= 0x10 are reserved for the
# inter-worker channel of the sharded service (see service.coordinator).
KIND_PLACE = 0x01
KIND_STATS = 0x02
KIND_CHECKPOINT = 0x03
KIND_PING = 0x04
KIND_SHUTDOWN = 0x05

_KIND_TO_OP = {
    KIND_PLACE: "place",
    KIND_STATS: "stats",
    KIND_CHECKPOINT: "checkpoint",
    KIND_PING: "ping",
    KIND_SHUTDOWN: "shutdown",
}
_OP_TO_KIND = {op: kind for kind, op in _KIND_TO_OP.items()}

#: Bit 7 marks a response frame; low bits carry the status.
RESPONSE_FLAG = 0x80
STATUS_SHARDS = 0x01
STATUS_JSON = 0x02
STATUS_ERROR_PROTOCOL = 0x03
STATUS_ERROR_ENGINE = 0x04
STATUS_ERROR_SHUTDOWN = 0x05
STATUS_ERROR_RETRY = 0x06
STATUS_ERROR_OVERLOAD = 0x07

_STATUS_TO_CODE = {
    STATUS_ERROR_PROTOCOL: "protocol",
    STATUS_ERROR_ENGINE: "engine",
    STATUS_ERROR_SHUTDOWN: "shutdown",
    STATUS_ERROR_RETRY: "retry",
    STATUS_ERROR_OVERLOAD: "overload",
}
_CODE_TO_STATUS = {code: status for status, code in _STATUS_TO_CODE.items()}

_LITTLE_ENDIAN = sys.byteorder == "little"


def _packed(typecode: str, values) -> bytes:
    """Little-endian bytes of one typed array (byteswapped on BE hosts)."""
    data = array(typecode, values)
    if not _LITTLE_ENDIAN:  # pragma: no cover - no BE host in CI
        data.byteswap()
    return data.tobytes()


class _ArrayReader:
    """Sequential typed-array sections out of one payload buffer."""

    __slots__ = ("_buf", "_offset")

    def __init__(self, buf: bytes, offset: int) -> None:
        self._buf = buf
        self._offset = offset

    def take(self, typecode: str, count: int) -> array:
        data = array(typecode)
        nbytes = count * data.itemsize
        end = self._offset + nbytes
        chunk = self._buf[self._offset : end]
        if len(chunk) != nbytes:
            raise ProtocolError(
                f"place payload truncated: wanted {nbytes} bytes for "
                f"{count} '{typecode}' entries, had {len(chunk)}"
            )
        data.frombytes(chunk)
        if not _LITTLE_ENDIAN:  # pragma: no cover - no BE host in CI
            data.byteswap()
        self._offset = end
        return data

    def done(self) -> None:
        if self._offset != len(self._buf):
            raise ProtocolError(
                f"place payload has {len(self._buf) - self._offset} "
                "trailing bytes"
            )


def encode_frame(kind: int, request_id: int, payload: bytes = b"") -> bytes:
    """One complete binary frame."""
    return _HEADER.pack(BIN_MAGIC, kind, request_id, len(payload)) + payload


def decode_frame_header(header: bytes) -> tuple[int, int, int]:
    """``(kind, request_id, payload_length)`` of one frame header.

    Raises :class:`~repro.errors.ProtocolError` on a bad magic byte or
    an oversized payload - the framing is unrecoverable either way.
    """
    magic, kind, request_id, length = _HEADER.unpack(header)
    if magic != BIN_MAGIC:
        raise ProtocolError(
            f"bad frame magic 0x{magic:02x} (expected 0x{BIN_MAGIC:02x})"
        )
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {length} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return kind, request_id, length


async def read_frame(reader, *, first_byte: bytes = b""):
    """Read one frame from an asyncio stream.

    Returns ``(kind, request_id, payload)``, or ``None`` on clean EOF at
    a frame boundary. ``first_byte`` re-injects the protocol-sniffing
    byte the connection handler already consumed.
    """
    header = first_byte
    try:
        header += await reader.readexactly(
            FRAME_HEADER_BYTES - len(header)
        )
    except EOFError as exc:
        # asyncio raises IncompleteReadError (an EOFError) with the
        # partial read attached; mid-header EOF is a protocol error,
        # boundary EOF (nothing of the frame read at all) is a clean
        # close.
        if not first_byte and not getattr(exc, "partial", b""):
            return None
        raise ProtocolError("connection closed inside a frame header")
    kind, request_id, length = decode_frame_header(header)
    try:
        payload = await reader.readexactly(length) if length else b""
    except EOFError:
        raise ProtocolError("connection closed inside a frame payload")
    return kind, request_id, payload


def op_of_kind(kind: int) -> str:
    """Request-op name of a kind byte (raises on unknown/response kinds)."""
    try:
        return _KIND_TO_OP[kind]
    except KeyError:
        raise ProtocolError(f"unknown frame kind 0x{kind:02x}")


def encode_place_request(
    request_id: int, txs: Sequence[Transaction], full_outputs: bool = False
) -> bytes:
    """A complete ``place`` frame for a contiguous batch."""
    if not txs:
        raise ProtocolError("txs must not be empty")
    first = txs[0].txid
    n_inputs = array("I")
    n_outputs = array("I")
    parents = array("Q")
    indexes = array("I")
    for tx in txs:
        n_inputs.append(len(tx.inputs))
        n_outputs.append(len(tx.outputs))
        for outpoint in tx.inputs:
            parents.append(outpoint.txid)
            indexes.append(outpoint.index)
    sections = [
        _PLACE_HEADER.pack(first, len(txs), 1 if full_outputs else 0),
        _packed("I", n_inputs),
        _packed("I", n_outputs),
    ]
    if full_outputs:
        try:
            sections.append(
                _packed(
                    "q", (out.value for tx in txs for out in tx.outputs)
                )
            )
            sections.append(
                _packed(
                    "q", (out.address for tx in txs for out in tx.outputs)
                )
            )
        except OverflowError:
            raise ProtocolError(
                "output value/address exceeds the binary codec's i64 "
                "range; use the JSON protocol for this stream"
            )
    sections.append(_packed("Q", parents))
    sections.append(_packed("I", indexes))
    payload = b"".join(sections)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"place payload of {len(payload)} bytes exceeds "
            f"{MAX_FRAME_BYTES}; split the batch"
        )
    return encode_frame(KIND_PLACE, request_id, payload)


def peek_place_header(payload: bytes) -> tuple[int, int]:
    """``(first_txid, n_txs)`` without decoding the payload.

    This is the whole point of the fixed prefix: a routing front-end
    sequences and forwards ``place`` requests by their txid range while
    the owning worker pays the actual decode.
    """
    if len(payload) < PLACE_HEADER_BYTES:
        raise ProtocolError(
            f"place payload of {len(payload)} bytes is shorter than "
            f"its {PLACE_HEADER_BYTES}-byte header"
        )
    first, n_txs, _flags = _PLACE_HEADER.unpack_from(payload)
    if n_txs == 0:
        raise ProtocolError("txs must not be empty")
    return first, n_txs


# Count-only outputs carry no content, and TxOutput is immutable, so
# every decoded transaction with n zero-value outputs can share one
# tuple. Saves ~2 object constructions per transaction on the serving
# hot path; bounded by MAX_OUTPUTS_PER_TX. Grown one step at a time on
# demand (real workloads top out at a few dozen outputs).
_ZERO_OUTPUT = TxOutput(0)
_ZERO_OUTPUT_TUPLES: list[tuple[TxOutput, ...]] = [()]


def zero_outputs(count: int) -> tuple[TxOutput, ...]:
    """Shared tuple of ``count`` zero-value outputs (both codecs)."""
    cache = _ZERO_OUTPUT_TUPLES
    while len(cache) <= count:
        cache.append(cache[-1] + (_ZERO_OUTPUT,))
    return cache[count]


def decode_place_payload(payload: bytes) -> list[Transaction]:
    """Rebuild the transaction batch of one ``place`` payload.

    Txids are assigned densely from the header's ``first_txid``;
    contiguity therefore holds by construction (the property
    :func:`decode_batch` checks pairwise on the JSON path). This is the
    server's per-transaction decode path, written for C-level bulk
    operations: one ``map`` constructs every outpoint, inputs come out
    as list slices, and count-only outputs are shared tuples - the
    Python-level loop runs once per *transaction*, not per element.
    """
    if len(payload) < PLACE_HEADER_BYTES:
        raise ProtocolError(
            f"place payload of {len(payload)} bytes is shorter than "
            f"its {PLACE_HEADER_BYTES}-byte header"
        )
    first, n_txs, flags = _PLACE_HEADER.unpack_from(payload)
    if n_txs == 0:
        raise ProtocolError("txs must not be empty")
    if n_txs > MAX_FRAME_BYTES // 8:
        raise ProtocolError(
            f"place batch of {n_txs} transactions cannot fit a "
            f"{MAX_FRAME_BYTES}-byte frame"
        )
    reader = _ArrayReader(payload, PLACE_HEADER_BYTES)
    n_inputs = reader.take("I", n_txs)
    n_outputs = reader.take("I", n_txs)
    if n_outputs and max(n_outputs) > MAX_OUTPUTS_PER_TX:
        raise ProtocolError(
            f"n_outputs must be in [0, {MAX_OUTPUTS_PER_TX}], "
            f"got {max(n_outputs)}"
        )
    total_outputs = sum(n_outputs)
    full_outputs = bool(flags & 1)
    if full_outputs:
        values = reader.take("q", total_outputs)
        addresses = reader.take("q", total_outputs)
    total_inputs = sum(n_inputs)
    parents = reader.take("Q", total_inputs)
    indexes = reader.take("I", total_inputs)
    reader.done()

    txs: list[Transaction] = []
    append = txs.append
    in_cursor = 0
    out_cursor = 0
    txid = first
    try:
        # All outpoints in one C-level pass (u64/u32 entries are never
        # negative, so OutPoint's own validation cannot fire).
        outpoints = list(map(OutPoint, parents, indexes))
        if full_outputs:
            for count_in, count_out in zip(n_inputs, n_outputs):
                in_end = in_cursor + count_in
                out_end = out_cursor + count_out
                append(
                    Transaction(
                        txid,
                        tuple(outpoints[in_cursor:in_end]),
                        tuple(
                            map(
                                TxOutput,
                                values[out_cursor:out_end],
                                addresses[out_cursor:out_end],
                            )
                        ),
                    )
                )
                in_cursor = in_end
                out_cursor = out_end
                txid += 1
        else:
            shared = _ZERO_OUTPUT_TUPLES
            for count_in, count_out in zip(n_inputs, n_outputs):
                in_end = in_cursor + count_in
                append(
                    Transaction(
                        txid,
                        tuple(outpoints[in_cursor:in_end]),
                        shared[count_out]
                        if count_out < len(shared)
                        else zero_outputs(count_out),
                    )
                )
                in_cursor = in_end
                txid += 1
    except ValidationError as exc:
        # Corrupt content bytes (e.g. a negative i64 value) surface as
        # model validation errors; to the wire they are malformed input.
        raise ProtocolError(f"malformed transaction in payload: {exc}")
    return txs


class WireBatch:
    """Zero-copy typed-array view of one (or several coalesced)
    ``place`` payloads.

    The kernel serving path: ``parents``/``indexes`` are numpy views
    straight over the payload bytes with the wire's unsigned integers
    reinterpreted as signed (the validation kernel ranges-checks them,
    reporting out-of-range values exactly as the object path would).
    ``payloads`` keeps the raw payload bytes for the WAL journal and
    for materializing :class:`Transaction` objects when a fallback
    needs them.
    """

    __slots__ = (
        "first_txid",
        "n_txs",
        "n_inputs",
        "n_outputs",
        "parents",
        "indexes",
        "in_off",
        "payloads",
    )

    def __init__(
        self,
        first_txid: int,
        n_txs: int,
        n_inputs,
        n_outputs,
        parents,
        indexes,
        in_off,
        payloads: "tuple[bytes, ...]",
    ) -> None:
        self.first_txid = first_txid
        self.n_txs = n_txs
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.parents = parents
        self.indexes = indexes
        self.in_off = in_off
        self.payloads = payloads

    def __len__(self) -> int:
        return self.n_txs


def decode_place_arrays(payload: bytes) -> "WireBatch | None":
    """Typed-array decode of one ``place`` payload (the kernel path).

    Returns ``None`` when the payload needs the object decoder (the
    full-outputs flag - content-hashing strategies never run the
    kernel). Malformed payloads raise :class:`ProtocolError` with the
    exact messages of :func:`decode_place_payload`, checked in the same
    order, so both decode paths produce byte-identical error replies.
    Requires numpy (callers gate on the kernel being active).
    """
    import numpy as np

    if len(payload) < PLACE_HEADER_BYTES:
        raise ProtocolError(
            f"place payload of {len(payload)} bytes is shorter than "
            f"its {PLACE_HEADER_BYTES}-byte header"
        )
    first, n_txs, flags = _PLACE_HEADER.unpack_from(payload)
    if n_txs == 0:
        raise ProtocolError("txs must not be empty")
    if n_txs > MAX_FRAME_BYTES // 8:
        raise ProtocolError(
            f"place batch of {n_txs} transactions cannot fit a "
            f"{MAX_FRAME_BYTES}-byte frame"
        )
    if flags & 1:
        return None

    offset = PLACE_HEADER_BYTES

    def take(dtype: str, itemsize: int, typecode: str, count: int):
        nonlocal offset
        nbytes = count * itemsize
        end = offset + nbytes
        if end > len(payload):
            raise ProtocolError(
                f"place payload truncated: wanted {nbytes} bytes for "
                f"{count} '{typecode}' entries, had {len(payload) - offset}"
            )
        section = np.frombuffer(payload, dtype=dtype, count=count,
                                offset=offset)
        offset = end
        return section

    n_inputs_u = take("<u4", 4, "I", n_txs)
    n_outputs_u = take("<u4", 4, "I", n_txs)
    max_out = int(n_outputs_u.max()) if n_txs else 0
    if max_out > MAX_OUTPUTS_PER_TX:
        raise ProtocolError(
            f"n_outputs must be in [0, {MAX_OUTPUTS_PER_TX}], "
            f"got {max_out}"
        )
    total_inputs = int(n_inputs_u.sum(dtype=np.int64))
    parents = take("<u8", 8, "Q", total_inputs).view(np.int64)
    indexes = take("<u4", 4, "I", total_inputs).view(np.int32)
    if offset != len(payload):
        raise ProtocolError(
            f"place payload has {len(payload) - offset} trailing bytes"
        )
    in_off = np.zeros(n_txs + 1, dtype=np.int64)
    np.cumsum(n_inputs_u, out=in_off[1:])
    return WireBatch(
        first,
        n_txs,
        n_inputs_u.view(np.int32),
        n_outputs_u.view(np.int32),
        parents,
        indexes,
        in_off,
        (payload,),
    )


def concat_wire_batches(batches: "Sequence[WireBatch]") -> WireBatch:
    """Merge txid-contiguous wire batches (the worker's coalescer
    guarantees adjacency) into one, concatenating the array sections."""
    import numpy as np

    if len(batches) == 1:
        return batches[0]
    n_txs = sum(b.n_txs for b in batches)
    n_inputs = np.concatenate([b.n_inputs for b in batches])
    n_outputs = np.concatenate([b.n_outputs for b in batches])
    parents = np.concatenate([b.parents for b in batches])
    indexes = np.concatenate([b.indexes for b in batches])
    in_off = np.zeros(n_txs + 1, dtype=np.int64)
    np.cumsum(n_inputs, out=in_off[1:])
    return WireBatch(
        batches[0].first_txid,
        n_txs,
        n_inputs,
        n_outputs,
        parents,
        indexes,
        in_off,
        tuple(p for b in batches for p in b.payloads),
    )


def wire_arrays_enabled(engine: Any, role: str) -> bool:
    """Whether ``role`` (``"server"``/``"worker"``) may decode binary
    ``place`` frames to :class:`WireBatch` views for ``engine``
    (:attr:`~repro.service.engine.PlacementEngine.wire_arrays`).

    A vectorized-backend engine without the compiled kernel (no
    compiler, ``REPRO_KERNEL_DISABLE``, or a kernel-incompatible
    configuration) warns with a :class:`RuntimeWarning`: it still
    serves, bit-identically, through the object decoder. A drift
    monitor forces the object path by design and does not warn.
    """
    if engine.wire_arrays:
        return True
    if engine.drift_monitor is None and hasattr(
        engine.placer, "validation_driver"
    ):
        from repro.core.backends.ckernel import kernel_unavailable_reason

        reason = (
            kernel_unavailable_reason()
            or "kernel-incompatible strategy configuration"
        )
        warnings.warn(
            "vectorized backend without the compiled kernel "
            f"({reason}): the {role} wire fast path is disabled; "
            "requests decode through the Python object path",
            RuntimeWarning,
            stacklevel=3,
        )
    return False


def wire_path_label(arrays: bool) -> str:
    """The ``wire_path`` observability label: which decoder feeds the
    engine binary ``place`` frames."""
    return "arrays" if arrays else "objects"


def decode_place(
    payload: bytes, arrays: bool
) -> "list[Transaction] | WireBatch":
    """One ``place`` payload for the engine: a :class:`WireBatch` when
    ``arrays`` is on and the encoding allows it, else Transaction
    objects (full-output frames, or the object path)."""
    if arrays:
        batch = decode_place_arrays(payload)
        if batch is not None:
            return batch
    return decode_place_payload(payload)


def first_txid_of(batch: "list[Transaction] | WireBatch") -> int:
    """First txid of a decoded, non-empty ``place`` batch of either kind."""
    if isinstance(batch, WireBatch):
        return batch.first_txid
    return batch[0].txid


def merge_place_batches(
    members: "Sequence[list[Transaction] | WireBatch]",
) -> "list[Transaction] | WireBatch":
    """Fuse a txid-contiguous run of queued requests into one engine
    batch (the coalescer of the server and the worker).

    All-array members concatenate without touching a Transaction
    object; a mixed run (an object-path frame - e.g. full-output
    encoding - coalesced with array frames) falls back to one object
    list, since the engine takes a batch of exactly one kind.
    """
    if len(members) == 1:
        return members[0]
    if all(isinstance(member, WireBatch) for member in members):
        return concat_wire_batches(members)
    batch: list[Transaction] = []
    for member in members:
        batch.extend(
            wire_transactions(member)
            if isinstance(member, WireBatch)
            else member
        )
    return batch


def wire_transactions(wire_batch: WireBatch) -> list[Transaction]:
    """Materialize a :class:`WireBatch` as Transaction objects (the
    object-path fallback; decodes each raw payload)."""
    batch: list[Transaction] = []
    for payload in wire_batch.payloads:
        batch.extend(decode_place_payload(payload))
    return batch


def encode_control_request(
    request_id: int, op: str, obj: "dict[str, Any] | None" = None
) -> bytes:
    """A non-``place`` request frame (JSON payload, tiny, not hot)."""
    try:
        kind = _OP_TO_KIND[op]
    except KeyError:
        raise ProtocolError(f"unknown op {op!r}")
    if kind == KIND_PLACE:
        raise ProtocolError("place requests use encode_place_request")
    payload = (
        json.dumps(obj, separators=(",", ":")).encode() if obj else b""
    )
    return encode_frame(kind, request_id, payload)


def encode_shards_response(request_id: int, shards: Sequence[int]) -> bytes:
    """The hot response: one packed i32 array of shard assignments."""
    return encode_frame(
        RESPONSE_FLAG | STATUS_SHARDS, request_id, _packed("i", shards)
    )


def encode_json_response(request_id: int, obj: dict[str, Any]) -> bytes:
    """A control-op response (the dict minus ``id``/``ok``)."""
    payload = json.dumps(obj, separators=(",", ":")).encode()
    return encode_frame(RESPONSE_FLAG | STATUS_JSON, request_id, payload)


def encode_error_response(
    request_id: int, code: str, message: str
) -> bytes:
    """An error response; unknown codes collapse to ``protocol``."""
    status = _CODE_TO_STATUS.get(code, STATUS_ERROR_PROTOCOL)
    return encode_frame(
        RESPONSE_FLAG | status, request_id, message.encode()
    )


def encode_response_for(request_id: int, response: dict[str, Any]) -> bytes:
    """Binary frame for one server-side response dict.

    ``{"ok": True, "shards": [...]}`` becomes a packed shards frame,
    other successes a JSON frame, failures an error frame - the inverse
    of :func:`decode_response`.
    """
    if response.get("ok"):
        shards = response.get("shards")
        if shards is not None and len(response) == 2:
            return encode_shards_response(request_id, shards)
        body = {
            key: value
            for key, value in response.items()
            if key not in ("ok", "id")
        }
        return encode_json_response(request_id, body)
    return encode_error_response(
        request_id,
        response.get("code", "protocol"),
        response.get("error", "unknown server error"),
    )


def decode_response(kind: int, payload: bytes) -> dict[str, Any]:
    """Response dict of one binary response frame.

    The shape matches the NDJSON protocol (minus ``id``, which travels
    in the frame header), so both clients share their error mapping.
    """
    if not kind & RESPONSE_FLAG:
        raise ProtocolError(
            f"expected a response frame, got request kind 0x{kind:02x}"
        )
    status = kind & ~RESPONSE_FLAG
    if status == STATUS_SHARDS:
        shards = array("i")
        if len(payload) % shards.itemsize:
            raise ProtocolError(
                f"shards payload of {len(payload)} bytes is not a "
                f"whole number of {shards.itemsize}-byte entries"
            )
        shards.frombytes(payload)
        if not _LITTLE_ENDIAN:  # pragma: no cover - no BE host in CI
            shards.byteswap()
        return {"ok": True, "shards": shards.tolist()}
    if status == STATUS_JSON:
        try:
            body = json.loads(payload) if payload else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"malformed JSON response payload: {exc}")
        if not isinstance(body, dict):
            raise ProtocolError("JSON response payload must be an object")
        body["ok"] = True
        return body
    code = _STATUS_TO_CODE.get(status)
    if code is None:
        raise ProtocolError(f"unknown response status 0x{status:02x}")
    return {
        "ok": False,
        "code": code,
        "error": payload.decode("utf-8", "replace"),
    }
