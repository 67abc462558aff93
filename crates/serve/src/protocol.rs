//! Length-prefixed binary wire protocol for `fvae-serve`.
//!
//! Every frame is `[u32 len (LE)][kind u8][body]` where `len` counts the
//! kind byte plus the body. Integers are little-endian, floats are IEEE-754
//! bit patterns. The codec is defensive end to end: length prefixes are
//! capped at [`MAX_FRAME_LEN`] *before* any allocation, every element count
//! inside a body is validated against the bytes actually remaining before a
//! vector is reserved, and malformed input surfaces as a typed
//! [`ProtoError`] — never a panic, never an attacker-sized allocation.
//!
//! [`read_frame`] assembles a frame from however many `read()` calls the
//! transport needs (partial reads are the norm on TCP) and distinguishes a
//! clean end-of-stream between frames (`Ok(None)`) from a stream that dies
//! mid-frame ([`ProtoError::Truncated`]).

use std::fmt;
use std::io::{self, Read, Write};

use fvae_sparse::serial::{DecodeError, Reader};

/// Hard cap on the post-prefix frame size (16 MiB). A length prefix above
/// this is rejected before any buffer is grown.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Hard cap on the field count of one embed request.
pub const MAX_FIELDS: usize = 1024;

/// Hard cap on the `k` of one nearest-neighbour request.
pub const MAX_NEAREST_K: usize = 1024;

/// Hard cap on the query dimensionality of one nearest-neighbour request.
pub const MAX_NEAREST_DIM: usize = 4096;

/// One sparse field row: parallel feature ids and weights.
pub type FieldRow = (Vec<u64>, Vec<f32>);

/// Error codes carried by [`Message::ErrorReply`].
pub mod error_code {
    /// The request was syntactically valid but violated the model contract
    /// (e.g. wrong field count).
    pub const BAD_REQUEST: u16 = 1;
    /// The server could not parse a frame on this connection.
    pub const PROTOCOL: u16 = 2;
    /// The server is shutting down and no longer accepts work.
    pub const SHUTTING_DOWN: u16 = 3;
    /// The request waited on the batch queue past the server's patience.
    pub const TIMEOUT: u16 = 4;
    /// Checkpoint reload failed (detail in the message text).
    pub const RELOAD: u16 = 5;
    /// The server (or, behind a router, every shard) could not service the
    /// request: connection-thread spawn failed, or no healthy shard was
    /// reachable after failover. Retryable.
    pub const UNAVAILABLE: u16 = 6;
}

const KIND_EMBED_REQUEST: u8 = 0x01;
const KIND_EMBED_REPLY: u8 = 0x02;
const KIND_OVERLOADED: u8 = 0x03;
const KIND_ERROR_REPLY: u8 = 0x04;
const KIND_PING: u8 = 0x05;
const KIND_PONG: u8 = 0x06;
const KIND_METRICS_REQUEST: u8 = 0x07;
const KIND_METRICS_REPLY: u8 = 0x08;
const KIND_RELOAD_REQUEST: u8 = 0x09;
const KIND_RELOAD_REPLY: u8 = 0x0a;
const KIND_SHUTDOWN: u8 = 0x0b;
const KIND_SHUTDOWN_ACK: u8 = 0x0c;
const KIND_TRACE_REQUEST: u8 = 0x0d;
const KIND_TRACE_REPLY: u8 = 0x0e;
const KIND_INFO_REQUEST: u8 = 0x0f;
const KIND_INFO_REPLY: u8 = 0x10;
const KIND_RELOAD_TO_REQUEST: u8 = 0x11;
const KIND_NEAREST_REQUEST: u8 = 0x12;
const KIND_NEAREST_REPLY: u8 = 0x13;

/// Everything that can travel over a serve connection, in both directions.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Client → server: embed one user given raw per-field rows.
    EmbedRequest {
        /// Client-chosen correlation id, echoed in the reply.
        req_id: u64,
        /// One `(ids, weights)` row per model field, in field order.
        fields: Vec<FieldRow>,
    },
    /// Server → client: the embedding for `req_id`.
    EmbedReply {
        /// Echo of the request id.
        req_id: u64,
        /// Identity of the checkpoint that produced the embedding.
        ckpt_id: u64,
        /// The `latent_dim` posterior mean `μ`.
        embedding: Vec<f32>,
    },
    /// Server → client: the batch queue was full; the request was dropped
    /// without being served. Clients may retry.
    Overloaded {
        /// Echo of the request id (0 when the request id was unparseable).
        req_id: u64,
    },
    /// Server → client: the request failed; see [`error_code`].
    ErrorReply {
        /// Echo of the request id (0 when unknown).
        req_id: u64,
        /// Machine-readable failure class from [`error_code`].
        code: u16,
        /// Human-readable detail.
        msg: String,
    },
    /// Liveness probe.
    Ping {
        /// Opaque token echoed by [`Message::Pong`].
        token: u64,
    },
    /// Reply to [`Message::Ping`].
    Pong {
        /// Echo of the ping token.
        token: u64,
    },
    /// Ask the server to render its metrics registry.
    MetricsRequest,
    /// Prometheus text exposition of the server's metrics.
    MetricsReply {
        /// The rendered registry.
        text: String,
    },
    /// Ask the server to reload the newest checkpoint from its directory.
    ReloadRequest,
    /// Ask the server to load the snapshot with this exact identity
    /// (normalized-bytes hash) from its checkpoint directory — the commit /
    /// rollback primitive of the router's coordinated reload. A no-op when
    /// already serving it; an error (old model keeps serving) when no
    /// snapshot in the directory has that identity.
    ReloadToRequest {
        /// Identity of the snapshot to activate.
        ckpt_id: u64,
    },
    /// Outcome of a reload.
    ReloadReply {
        /// Whether a usable snapshot was found (old model keeps serving
        /// when `false`).
        ok: bool,
        /// Whether the serving model actually changed (`false` for a no-op
        /// reload of the already-active snapshot).
        changed: bool,
        /// Identity of the now-active checkpoint.
        ckpt_id: u64,
        /// Human-readable detail (error text when `ok` is false).
        detail: String,
    },
    /// Ask the server to stop accepting work and exit.
    Shutdown,
    /// Acknowledgement that shutdown has begun.
    ShutdownAck,
    /// Ask the server to export its trace ring as Chrome `trace_event`
    /// JSON (a snapshot of the most recent spans; the ring is not
    /// cleared).
    TraceRequest,
    /// The exported trace.
    TraceReply {
        /// Chrome `trace_event` JSON — loadable in `chrome://tracing` /
        /// Perfetto.
        json: String,
    },
    /// Client → server: the top-`k` users nearest a query embedding, from
    /// the ANN index over the server's loaded embedding store.
    NearestRequest {
        /// Client-chosen correlation id, echoed in the reply.
        req_id: u64,
        /// How many neighbours to return (capped at [`MAX_NEAREST_K`]).
        k: u32,
        /// The query embedding; must match the store's dimensionality.
        query: Vec<f32>,
    },
    /// Server → client: the neighbours for `req_id`, best first, ties by
    /// ascending user id.
    NearestReply {
        /// Echo of the request id.
        req_id: u64,
        /// Identity of the index that answered (hash of the embedding-store
        /// bytes it was built from) — the reload-atomicity witness: every
        /// id/score in this reply came from the *one* index with this
        /// identity.
        index_id: u64,
        /// Neighbour user ids, best first.
        ids: Vec<u64>,
        /// Parallel scores (−‖query − embedding‖², higher is closer).
        scores: Vec<f32>,
    },
    /// Ask the server to describe the model it is serving (so clients —
    /// `fvae loadgen` in particular — can shape valid requests without
    /// out-of-band knowledge).
    InfoRequest,
    /// The serving contract.
    InfoReply {
        /// Field count embed requests must supply.
        n_fields: u32,
        /// Dimensionality of replied embeddings.
        latent_dim: u32,
        /// Identity of the active checkpoint.
        ckpt_id: u64,
        /// Whether the int8 quantized encoder is serving.
        quantized: bool,
    },
}

/// Typed decode/encode failure. Carrying no payload bytes, it is cheap to
/// construct on hostile input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The declared length.
        len: usize,
    },
    /// The stream ended (or the body ran out) before `context` was read.
    Truncated {
        /// What the decoder was in the middle of reading.
        context: &'static str,
    },
    /// The kind byte is not a known message.
    UnknownKind(u8),
    /// Structurally invalid content (zero-length frame, count over limit,
    /// non-UTF-8 text, mismatched row lengths…).
    Malformed(&'static str),
    /// The body was longer than its message needed.
    TrailingBytes {
        /// How many bytes were left unread.
        extra: usize,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            ProtoError::Truncated { context } => write!(f, "truncated while reading {context}"),
            ProtoError::UnknownKind(k) => write!(f, "unknown message kind {k:#04x}"),
            ProtoError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtoError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes after message"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Failure of [`read_frame`]: either the transport failed or the bytes did.
#[derive(Debug)]
pub enum RecvError {
    /// The underlying `read()` failed.
    Io(io::Error),
    /// The bytes arrived but did not form a valid frame.
    Proto(ProtoError),
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "io error: {e}"),
            RecvError::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

impl From<io::Error> for RecvError {
    fn from(e: io::Error) -> Self {
        RecvError::Io(e)
    }
}

impl From<ProtoError> for RecvError {
    fn from(e: ProtoError) -> Self {
        RecvError::Proto(e)
    }
}

// ---------------------------------------------------------------------------
// Bounds-checked reads
// ---------------------------------------------------------------------------

/// Names what a [`Reader`] read was for: a short body surfaces as
/// [`ProtoError::Truncated`] carrying that context.
trait Context<T> {
    fn ctx(self, context: &'static str) -> Result<T, ProtoError>;
}

impl<T> Context<T> for Result<T, DecodeError> {
    fn ctx(self, context: &'static str) -> Result<T, ProtoError> {
        self.map_err(|_| ProtoError::Truncated { context })
    }
}

fn string(rd: &mut Reader<'_>, context: &'static str) -> Result<String, ProtoError> {
    let n = rd.u32().ctx(context)? as usize;
    let bytes = rd.bytes(n).ctx(context)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::Malformed("non-UTF-8 text"))
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

/// Decodes one frame payload (`kind` byte plus body, the part after the
/// length prefix).
pub fn decode_message(payload: &[u8]) -> Result<Message, ProtoError> {
    let mut rd = Reader::new(payload);
    let kind = rd.u8().ctx("kind byte")?;
    let msg = match kind {
        KIND_EMBED_REQUEST => {
            let req_id = rd.u64().ctx("request id")?;
            let n_fields = rd.u16().ctx("field count")? as usize;
            if n_fields > MAX_FIELDS {
                return Err(ProtoError::Malformed("field count over limit"));
            }
            let mut fields = Vec::with_capacity(rd.fits(n_fields, 4).ctx("row length")?);
            for _ in 0..n_fields {
                let n = rd.u32().ctx("row length")? as usize;
                // One combined check so neither vector is reserved unless
                // both fit in the remaining body.
                rd.fits(n, 12).ctx("field row")?;
                let ids = rd.u64s(n).ctx("field ids")?;
                let vals = rd.f32s(n).ctx("field weights")?;
                fields.push((ids, vals));
            }
            Message::EmbedRequest { req_id, fields }
        }
        KIND_EMBED_REPLY => {
            let req_id = rd.u64().ctx("request id")?;
            let ckpt_id = rd.u64().ctx("checkpoint id")?;
            let dim = rd.u32().ctx("embedding length")? as usize;
            let embedding = rd.f32s(dim).ctx("embedding")?;
            Message::EmbedReply { req_id, ckpt_id, embedding }
        }
        KIND_OVERLOADED => Message::Overloaded { req_id: rd.u64().ctx("request id")? },
        KIND_ERROR_REPLY => {
            let req_id = rd.u64().ctx("request id")?;
            let code = rd.u16().ctx("error code")?;
            let msg = string(&mut rd, "error text")?;
            Message::ErrorReply { req_id, code, msg }
        }
        KIND_PING => Message::Ping { token: rd.u64().ctx("ping token")? },
        KIND_PONG => Message::Pong { token: rd.u64().ctx("pong token")? },
        KIND_METRICS_REQUEST => Message::MetricsRequest,
        KIND_METRICS_REPLY => Message::MetricsReply { text: string(&mut rd, "metrics text")? },
        KIND_RELOAD_REQUEST => Message::ReloadRequest,
        KIND_RELOAD_REPLY => {
            let flags = rd.u8().ctx("reload flags")?;
            if flags > 3 {
                return Err(ProtoError::Malformed("reload flags"));
            }
            let ckpt_id = rd.u64().ctx("checkpoint id")?;
            let detail = string(&mut rd, "reload detail")?;
            Message::ReloadReply {
                ok: flags & 1 != 0,
                changed: flags & 2 != 0,
                ckpt_id,
                detail,
            }
        }
        KIND_RELOAD_TO_REQUEST => {
            Message::ReloadToRequest { ckpt_id: rd.u64().ctx("target checkpoint id")? }
        }
        KIND_NEAREST_REQUEST => {
            let req_id = rd.u64().ctx("request id")?;
            let k = rd.u32().ctx("neighbour count")?;
            if k as usize > MAX_NEAREST_K {
                return Err(ProtoError::Malformed("k over limit"));
            }
            let dim = rd.u32().ctx("query dim")? as usize;
            if dim > MAX_NEAREST_DIM {
                return Err(ProtoError::Malformed("query dim over limit"));
            }
            let query = rd.f32s(dim).ctx("query embedding")?;
            Message::NearestRequest { req_id, k, query }
        }
        KIND_NEAREST_REPLY => {
            let req_id = rd.u64().ctx("request id")?;
            let index_id = rd.u64().ctx("index id")?;
            let n = rd.u32().ctx("neighbour count")? as usize;
            if n > MAX_NEAREST_K {
                return Err(ProtoError::Malformed("neighbour count over limit"));
            }
            // One combined check so neither vector is reserved unless both
            // fit in the remaining body.
            rd.fits(n, 12).ctx("neighbour rows")?;
            let ids = rd.u64s(n).ctx("neighbour ids")?;
            let scores = rd.f32s(n).ctx("neighbour scores")?;
            Message::NearestReply { req_id, index_id, ids, scores }
        }
        KIND_SHUTDOWN => Message::Shutdown,
        KIND_SHUTDOWN_ACK => Message::ShutdownAck,
        KIND_TRACE_REQUEST => Message::TraceRequest,
        KIND_TRACE_REPLY => Message::TraceReply { json: string(&mut rd, "trace json")? },
        KIND_INFO_REQUEST => Message::InfoRequest,
        KIND_INFO_REPLY => {
            let n_fields = rd.u32().ctx("field count")?;
            let latent_dim = rd.u32().ctx("latent dim")?;
            let ckpt_id = rd.u64().ctx("checkpoint id")?;
            let quantized = match rd.u8().ctx("quantized flag")? {
                0 => false,
                1 => true,
                _ => return Err(ProtoError::Malformed("quantized flag")),
            };
            Message::InfoReply { n_fields, latent_dim, ckpt_id, quantized }
        }
        other => return Err(ProtoError::UnknownKind(other)),
    };
    match rd.remaining() {
        0 => Ok(msg),
        extra => Err(ProtoError::TrailingBytes { extra }),
    }
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

fn put_string(out: &mut Vec<u8>, s: &str) -> Result<(), ProtoError> {
    let len = u32::try_from(s.len()).map_err(|_| ProtoError::Malformed("text too long"))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Encodes `msg` as a complete frame (length prefix included) into `out`,
/// clearing it first. The buffer is reusable across calls; steady-state
/// encoding of same-shaped messages does not allocate.
pub fn encode_frame(msg: &Message, out: &mut Vec<u8>) -> Result<(), ProtoError> {
    out.clear();
    out.extend_from_slice(&[0u8; 4]); // length prefix, patched below
    match msg {
        Message::EmbedRequest { req_id, fields } => {
            out.push(KIND_EMBED_REQUEST);
            out.extend_from_slice(&req_id.to_le_bytes());
            let n_fields =
                u16::try_from(fields.len()).map_err(|_| ProtoError::Malformed("field count over limit"))?;
            if fields.len() > MAX_FIELDS {
                return Err(ProtoError::Malformed("field count over limit"));
            }
            out.extend_from_slice(&n_fields.to_le_bytes());
            for (ids, vals) in fields {
                if ids.len() != vals.len() {
                    return Err(ProtoError::Malformed("ids/weights length mismatch"));
                }
                let n = u32::try_from(ids.len()).map_err(|_| ProtoError::Malformed("row too long"))?;
                out.extend_from_slice(&n.to_le_bytes());
                for id in ids {
                    out.extend_from_slice(&id.to_le_bytes());
                }
                for v in vals {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        Message::EmbedReply { req_id, ckpt_id, embedding } => {
            out.push(KIND_EMBED_REPLY);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&ckpt_id.to_le_bytes());
            let dim = u32::try_from(embedding.len()).map_err(|_| ProtoError::Malformed("embedding too long"))?;
            out.extend_from_slice(&dim.to_le_bytes());
            for v in embedding {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Message::Overloaded { req_id } => {
            out.push(KIND_OVERLOADED);
            out.extend_from_slice(&req_id.to_le_bytes());
        }
        Message::ErrorReply { req_id, code, msg } => {
            out.push(KIND_ERROR_REPLY);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&code.to_le_bytes());
            put_string(out, msg)?;
        }
        Message::Ping { token } => {
            out.push(KIND_PING);
            out.extend_from_slice(&token.to_le_bytes());
        }
        Message::Pong { token } => {
            out.push(KIND_PONG);
            out.extend_from_slice(&token.to_le_bytes());
        }
        Message::MetricsRequest => out.push(KIND_METRICS_REQUEST),
        Message::MetricsReply { text } => {
            out.push(KIND_METRICS_REPLY);
            put_string(out, text)?;
        }
        Message::ReloadRequest => out.push(KIND_RELOAD_REQUEST),
        Message::ReloadReply { ok, changed, ckpt_id, detail } => {
            out.push(KIND_RELOAD_REPLY);
            out.push(u8::from(*ok) | (u8::from(*changed) << 1));
            out.extend_from_slice(&ckpt_id.to_le_bytes());
            put_string(out, detail)?;
        }
        Message::ReloadToRequest { ckpt_id } => {
            out.push(KIND_RELOAD_TO_REQUEST);
            out.extend_from_slice(&ckpt_id.to_le_bytes());
        }
        Message::NearestRequest { req_id, k, query } => {
            out.push(KIND_NEAREST_REQUEST);
            out.extend_from_slice(&req_id.to_le_bytes());
            if *k as usize > MAX_NEAREST_K {
                return Err(ProtoError::Malformed("k over limit"));
            }
            out.extend_from_slice(&k.to_le_bytes());
            if query.len() > MAX_NEAREST_DIM {
                return Err(ProtoError::Malformed("query dim over limit"));
            }
            let dim = u32::try_from(query.len()).expect("fits: capped at MAX_NEAREST_DIM");
            out.extend_from_slice(&dim.to_le_bytes());
            for v in query {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Message::NearestReply { req_id, index_id, ids, scores } => {
            out.push(KIND_NEAREST_REPLY);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&index_id.to_le_bytes());
            if ids.len() != scores.len() {
                return Err(ProtoError::Malformed("ids/scores length mismatch"));
            }
            if ids.len() > MAX_NEAREST_K {
                return Err(ProtoError::Malformed("neighbour count over limit"));
            }
            let n = u32::try_from(ids.len()).expect("fits: capped at MAX_NEAREST_K");
            out.extend_from_slice(&n.to_le_bytes());
            for id in ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
            for s in scores {
                out.extend_from_slice(&s.to_le_bytes());
            }
        }
        Message::Shutdown => out.push(KIND_SHUTDOWN),
        Message::ShutdownAck => out.push(KIND_SHUTDOWN_ACK),
        Message::TraceRequest => out.push(KIND_TRACE_REQUEST),
        Message::TraceReply { json } => {
            out.push(KIND_TRACE_REPLY);
            put_string(out, json)?;
        }
        Message::InfoRequest => out.push(KIND_INFO_REQUEST),
        Message::InfoReply { n_fields, latent_dim, ckpt_id, quantized } => {
            out.push(KIND_INFO_REPLY);
            out.extend_from_slice(&n_fields.to_le_bytes());
            out.extend_from_slice(&latent_dim.to_le_bytes());
            out.extend_from_slice(&ckpt_id.to_le_bytes());
            out.push(u8::from(*quantized));
        }
    }
    let payload_len = out.len() - 4;
    if payload_len > MAX_FRAME_LEN {
        return Err(ProtoError::FrameTooLarge { len: payload_len });
    }
    let prefix = u32::try_from(payload_len).expect("fits: capped at MAX_FRAME_LEN");
    out[..4].copy_from_slice(&prefix.to_le_bytes());
    Ok(())
}

// ---------------------------------------------------------------------------
// Framed transport
// ---------------------------------------------------------------------------

/// Reads one complete frame *payload* (kind byte + body) into `scratch`,
/// assembling it across as many partial `read()` calls as the transport
/// takes, and returns the payload length. Returns `Ok(None)` on a clean
/// end of stream (EOF exactly on a frame boundary); EOF anywhere inside a
/// frame is [`ProtoError::Truncated`]. `scratch` only ever grows to the
/// largest accepted frame, never past [`MAX_FRAME_LEN`].
///
/// Split out from [`read_frame`] so a caller can time [`decode_message`]
/// separately from the network wait — the serve path records the decode as
/// its own trace stage.
pub fn read_payload(r: &mut impl Read, scratch: &mut Vec<u8>) -> Result<Option<usize>, RecvError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut prefix[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(ProtoError::Truncated { context: "length prefix" }.into());
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 {
        return Err(ProtoError::Malformed("zero-length frame").into());
    }
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::FrameTooLarge { len }.into());
    }
    scratch.resize(len, 0);
    if let Err(e) = r.read_exact(&mut scratch[..len]) {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            return Err(ProtoError::Truncated { context: "frame body" }.into());
        }
        return Err(e.into());
    }
    Ok(Some(len))
}

/// Reads and decodes one complete frame ([`read_payload`] +
/// [`decode_message`]).
pub fn read_frame(r: &mut impl Read, scratch: &mut Vec<u8>) -> Result<Option<Message>, RecvError> {
    match read_payload(r, scratch)? {
        None => Ok(None),
        Some(len) => Ok(Some(decode_message(&scratch[..len])?)),
    }
}

/// Encodes `msg` into `scratch` and writes the whole frame.
pub fn write_frame(w: &mut impl Write, msg: &Message, scratch: &mut Vec<u8>) -> Result<(), RecvError> {
    encode_frame(msg, scratch)?;
    w.write_all(scratch)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(msg: &Message) -> Message {
        let mut buf = Vec::new();
        encode_frame(msg, &mut buf).expect("encode");
        let mut scratch = Vec::new();
        read_frame(&mut Cursor::new(&buf), &mut scratch)
            .expect("read")
            .expect("one frame")
    }

    #[test]
    fn all_message_kinds_roundtrip() {
        let msgs = vec![
            Message::EmbedRequest {
                req_id: 7,
                fields: vec![(vec![1, 99], vec![0.5, -2.0]), (vec![], vec![])],
            },
            Message::EmbedReply { req_id: 7, ckpt_id: 0xdead, embedding: vec![1.0, f32::MIN_POSITIVE] },
            Message::Overloaded { req_id: 3 },
            Message::ErrorReply { req_id: 9, code: error_code::BAD_REQUEST, msg: "nope".into() },
            Message::Ping { token: 42 },
            Message::Pong { token: 42 },
            Message::MetricsRequest,
            Message::MetricsReply { text: "# HELP x\nx 1\n".into() },
            Message::ReloadRequest,
            Message::ReloadToRequest { ckpt_id: 0x0123_4567_89ab_cdef },
            Message::ReloadReply { ok: true, changed: false, ckpt_id: 5, detail: "no-op".into() },
            Message::Shutdown,
            Message::ShutdownAck,
            Message::TraceRequest,
            Message::TraceReply { json: "{\"traceEvents\":[]}".into() },
            Message::InfoRequest,
            Message::InfoReply { n_fields: 2, latent_dim: 8, ckpt_id: 0xbeef, quantized: true },
            Message::NearestRequest { req_id: 11, k: 10, query: vec![0.25, -1.5, f32::MAX] },
            Message::NearestRequest { req_id: 12, k: 0, query: vec![] },
            Message::NearestReply {
                req_id: 11,
                index_id: 0xfeed_f00d,
                ids: vec![3, 9, u64::MAX],
                scores: vec![-0.0, -1.25, f32::NEG_INFINITY],
            },
        ];
        for msg in &msgs {
            assert_eq!(&roundtrip(msg), msg);
        }
    }

    #[test]
    fn eof_between_frames_is_clean_none() {
        let mut scratch = Vec::new();
        let got = read_frame(&mut Cursor::new(&[]), &mut scratch).expect("clean eof");
        assert!(got.is_none());
    }

    #[test]
    fn oversized_prefix_rejected_before_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        buf.push(KIND_PING);
        let mut scratch = Vec::new();
        match read_frame(&mut Cursor::new(&buf), &mut scratch) {
            Err(RecvError::Proto(ProtoError::FrameTooLarge { len })) => {
                assert_eq!(len, MAX_FRAME_LEN + 1);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert_eq!(scratch.capacity(), 0, "rejected before any body allocation");
    }

    #[test]
    fn hostile_count_rejected_before_allocating() {
        // An embed request declaring u32::MAX row entries inside a tiny
        // frame must fail on the remaining-bytes check, not by reserving
        // 48 GiB.
        let mut body = vec![KIND_EMBED_REQUEST];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_message(&body),
            Err(ProtoError::Truncated { context: "field row" })
        );
    }

    #[test]
    fn hostile_nearest_counts_rejected_before_allocating() {
        // A nearest reply declaring u32::MAX neighbours inside a tiny frame
        // must fail on the k cap (or the combined remaining check), never by
        // reserving gigabytes.
        let mut body = vec![KIND_NEAREST_REPLY];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&2u64.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_message(&body),
            Err(ProtoError::Malformed("neighbour count over limit"))
        );
        // Same for a request's query dim.
        let mut body = vec![KIND_NEAREST_REQUEST];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_message(&body),
            Err(ProtoError::Malformed("query dim over limit"))
        );
    }

    #[test]
    fn nearest_encode_enforces_caps_and_pairing() {
        let mut buf = Vec::new();
        let msg = Message::NearestReply { req_id: 1, index_id: 2, ids: vec![1], scores: vec![] };
        assert_eq!(
            encode_frame(&msg, &mut buf),
            Err(ProtoError::Malformed("ids/scores length mismatch"))
        );
        let msg = Message::NearestRequest {
            req_id: 1,
            k: (MAX_NEAREST_K + 1) as u32,
            query: vec![0.0],
        };
        assert_eq!(encode_frame(&msg, &mut buf), Err(ProtoError::Malformed("k over limit")));
        let msg = Message::NearestRequest {
            req_id: 1,
            k: 1,
            query: vec![0.0; MAX_NEAREST_DIM + 1],
        };
        assert_eq!(
            encode_frame(&msg, &mut buf),
            Err(ProtoError::Malformed("query dim over limit"))
        );
    }

    #[test]
    fn mismatched_row_lengths_fail_encode() {
        let msg = Message::EmbedRequest { req_id: 1, fields: vec![(vec![1], vec![])] };
        let mut buf = Vec::new();
        assert_eq!(
            encode_frame(&msg, &mut buf),
            Err(ProtoError::Malformed("ids/weights length mismatch"))
        );
    }

    /// A reader that hands out one byte per `read()` call — the worst-case
    /// TCP segmentation.
    struct OneByte<'a>(&'a [u8]);
    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    #[test]
    fn frame_split_across_many_reads_reassembles() {
        // Regression: the length prefix itself can arrive one byte at a
        // time; read_frame must keep assembling rather than restart.
        let msg = Message::EmbedRequest {
            req_id: 0x0102_0304_0506_0708,
            fields: vec![(vec![5, 6, 7], vec![0.1, 0.2, 0.3])],
        };
        let mut buf = Vec::new();
        encode_frame(&msg, &mut buf).expect("encode");
        let mut scratch = Vec::new();
        let got = read_frame(&mut OneByte(&buf), &mut scratch).expect("read").expect("frame");
        assert_eq!(got, msg);
        // Two frames back-to-back, still one byte at a time.
        let mut two = buf.clone();
        two.extend_from_slice(&buf);
        let mut rd = OneByte(&two);
        for _ in 0..2 {
            assert_eq!(read_frame(&mut rd, &mut scratch).expect("read").expect("frame"), msg);
        }
        assert!(read_frame(&mut rd, &mut scratch).expect("clean eof").is_none());
    }
}
