//! Binary wire codec for OLSR messages.
//!
//! A compact little-endian layout in the spirit of RFC 3626's packet
//! format. Encoding is exercised on every simulated transmission, which
//! also yields the *control-traffic byte counts* that motivate the paper:
//! a smaller advertised neighbor set means smaller TC messages.
//!
//! Layout (`u16`/`u64` little-endian):
//!
//! ```text
//! message   := kind:u8 originator:u32 seq:u16 ttl:u8 hop_count:u8 body
//! hello     := count:u16 { id:u32 state:u8 qos }*
//! tc        := ansn:u16 count:u16 { id:u32 qos }*
//! data      := dest:u32 flow:u16 injected_us:u64 payload_len:u16 filler*
//! qos       := bandwidth:u64 delay:u64 energy:u64
//! ```
//!
//! Data frames carry `payload_len` bytes of zero filler after the header:
//! the simulation only needs payload *size* for byte accounting, but the
//! filler keeps on-air frame lengths honest so PHY corruption and byte
//! counters see realistic data frames. Like TCs, a data frame is relayed
//! via [`forward`] — two header bytes patched, no re-encode.

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use qolsr_graph::NodeId;
use qolsr_metrics::{Bandwidth, Delay, Energy, LinkQos};

use crate::messages::{Body, DataBody, Hello, HelloNeighbor, LinkState, Message, Tc};

const KIND_HELLO: u8 = 1;
const KIND_TC: u8 = 2;
const KIND_DATA: u8 = 3;

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the message was complete.
    Truncated,
    /// Unknown message kind byte.
    UnknownKind(u8),
    /// Unknown link-state byte in a HELLO entry.
    UnknownLinkState(u8),
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::UnknownLinkState(s) => write!(f, "unknown link state {s}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a message to bytes.
pub fn encode(msg: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(msg));
    let kind = match msg.body {
        Body::Hello(_) => KIND_HELLO,
        Body::Tc(_) => KIND_TC,
        Body::Data(_) => KIND_DATA,
    };
    buf.put_u8(kind);
    buf.put_u32_le(msg.originator.0);
    buf.put_u16_le(msg.seq);
    buf.put_u8(msg.ttl);
    buf.put_u8(msg.hop_count);
    match &msg.body {
        Body::Hello(h) => {
            buf.put_u16_le(h.neighbors.len() as u16);
            for n in &h.neighbors {
                buf.put_u32_le(n.id.0);
                buf.put_u8(match n.state {
                    LinkState::Asymmetric => 0,
                    LinkState::Symmetric => 1,
                    LinkState::Mpr => 2,
                });
                put_qos(&mut buf, &n.qos);
            }
        }
        Body::Tc(t) => {
            buf.put_u16_le(t.ansn);
            buf.put_u16_le(t.advertised.len() as u16);
            for (id, qos) in &t.advertised {
                buf.put_u32_le(id.0);
                put_qos(&mut buf, qos);
            }
        }
        Body::Data(d) => {
            buf.put_u32_le(d.dest.0);
            buf.put_u16_le(d.flow);
            buf.put_u64_le(d.injected_us);
            buf.put_u16_le(d.payload_len);
            buf.put_bytes(0, d.payload_len as usize);
        }
    }
    buf.freeze()
}

/// Exact encoded size in bytes (used for control-overhead accounting
/// without materializing the buffer).
pub fn encoded_len(msg: &Message) -> usize {
    const HEADER: usize = 1 + 4 + 2 + 1 + 1;
    const QOS: usize = 24;
    match &msg.body {
        Body::Hello(h) => HEADER + 2 + h.neighbors.len() * (4 + 1 + QOS),
        Body::Tc(t) => HEADER + 2 + 2 + t.advertised.len() * (4 + QOS),
        Body::Data(d) => HEADER + DATA_HEADER + d.payload_len as usize,
    }
}

/// Byte offset of `ttl` in the fixed header (`kind + originator + seq`).
const TTL_OFFSET: usize = 1 + 4 + 2;
/// Byte offset of `hop_count` (directly after `ttl`).
const HOP_OFFSET: usize = TTL_OFFSET + 1;

/// Produces the forwarded copy of an already-encoded message: one buffer
/// copy with `ttl` decremented and `hop_count` incremented in place.
///
/// This is the flooding hot path: an MPR retransmits the *same* body it
/// received, so re-encoding the whole message (the old path:
/// decode → clone body → encode) is pure waste — only two header bytes
/// change. Returns `None` when the TTL is exhausted (`ttl <= 1`) or the
/// buffer is too short to be a message.
pub fn forward(bytes: &Bytes) -> Option<Bytes> {
    if bytes.len() <= HOP_OFFSET {
        return None;
    }
    let ttl = bytes[TTL_OFFSET];
    if ttl <= 1 {
        return None;
    }
    let mut copy = BytesMut::from(bytes.as_ref());
    copy[TTL_OFFSET] = ttl - 1;
    copy[HOP_OFFSET] = copy[HOP_OFFSET].saturating_add(1);
    Some(copy.freeze())
}

/// TC header fields readable without decoding the advertised list: what
/// the duplicate table ([`crate::tables::DuplicateSet`]) and the ANSN
/// record ([`crate::store::SharedTopology::accepts_ansn`]) need to
/// decide whether the body is worth parsing at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcPeek {
    /// The node that created the message.
    pub originator: NodeId,
    /// Per-originator message sequence number.
    pub seq: u16,
    /// Remaining hops the message may travel.
    pub ttl: u8,
    /// Hops travelled so far.
    pub hop_count: u8,
    /// Advertised-neighbor sequence number of the carried TC.
    pub ansn: u16,
}

/// Data-frame header fields readable without decoding — everything a
/// relay or destination needs: where the packet is going, which flow it
/// belongs to, and when it left the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataPeek {
    /// The source that injected the packet.
    pub originator: NodeId,
    /// Per-flow packet sequence number.
    pub seq: u16,
    /// Remaining hop budget.
    pub ttl: u8,
    /// Hops travelled so far.
    pub hop_count: u8,
    /// Final destination.
    pub dest: NodeId,
    /// Flow identifier.
    pub flow: u16,
    /// Injection timestamp at the source, simulated microseconds.
    pub injected_us: u64,
    /// Opaque payload length in bytes.
    pub payload_len: u16,
}

/// Outcome of [`peek`]: the message kind, with the TC header fields when
/// the message is a TC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peek {
    /// A HELLO message. Only the kind is peeked — HELLOs are processed
    /// on every delivery, so they always go through the full decoder.
    Hello,
    /// A TC message with its fully length-validated header fields.
    Tc(TcPeek),
    /// A data frame with its fully length-validated header fields.
    Data(DataPeek),
}

/// Byte offset of the TC body (`ansn`) after the fixed message header.
const TC_BODY_OFFSET: usize = HOP_OFFSET + 1;
/// Data body header: dest:u32 flow:u16 injected_us:u64 payload_len:u16.
const DATA_HEADER: usize = 4 + 2 + 8 + 2;

/// Returns `true` when an encoded buffer carries a data frame — the
/// engine-side classifier behind `Actor::is_data`. Pure and cheap (one
/// byte), valid on any buffer including corrupted or truncated ones.
pub fn is_data_frame(bytes: &[u8]) -> bool {
    bytes.first() == Some(&KIND_DATA)
}

/// Incrementally reads the message kind — and, for TCs, the
/// originator/seq/TTL/ANSN header — from an encoded buffer without
/// materializing the body.
///
/// This is the duplicate-heavy flooding fast path: an MPR flood delivers
/// every TC to every radio neighbor of every forwarder, so most
/// deliveries are duplicates whose fate (drop, or re-forward the raw
/// buffer via [`forward`]) is decided entirely by header fields. `peek`
/// lets the receive path consult its duplicate table *before* full
/// decode; the body is only parsed when the message is fresh.
///
/// For TC messages the buffer length is validated exactly against the
/// advertised count, so a successful TC peek guarantees [`decode`]
/// succeeds (the TC body has no invalid bit patterns) — and a failed one
/// returns the same [`WireError`] `decode` would.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, an unknown kind byte, or (for
/// TCs) trailing bytes.
pub fn peek(bytes: &Bytes) -> Result<Peek, WireError> {
    if bytes.len() < TC_BODY_OFFSET {
        return Err(WireError::Truncated);
    }
    match bytes[0] {
        KIND_HELLO => Ok(Peek::Hello),
        KIND_TC => {
            if bytes.len() < TC_BODY_OFFSET + 4 {
                return Err(WireError::Truncated);
            }
            let u16_at =
                |i: usize| u16::from_le_bytes(bytes[i..i + 2].try_into().expect("2 bytes"));
            let count = u16_at(TC_BODY_OFFSET + 2) as usize;
            let expected = TC_BODY_OFFSET + 4 + count * (4 + 24);
            if bytes.len() < expected {
                return Err(WireError::Truncated);
            }
            if bytes.len() > expected {
                return Err(WireError::TrailingBytes(bytes.len() - expected));
            }
            Ok(Peek::Tc(TcPeek {
                originator: NodeId(u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes"))),
                seq: u16_at(5),
                ttl: bytes[TTL_OFFSET],
                hop_count: bytes[HOP_OFFSET],
                ansn: u16_at(TC_BODY_OFFSET),
            }))
        }
        KIND_DATA => {
            if bytes.len() < TC_BODY_OFFSET + DATA_HEADER {
                return Err(WireError::Truncated);
            }
            let u16_at =
                |i: usize| u16::from_le_bytes(bytes[i..i + 2].try_into().expect("2 bytes"));
            let u32_at =
                |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
            let payload_len = u16_at(TC_BODY_OFFSET + 14);
            let expected = TC_BODY_OFFSET + DATA_HEADER + payload_len as usize;
            if bytes.len() < expected {
                return Err(WireError::Truncated);
            }
            if bytes.len() > expected {
                return Err(WireError::TrailingBytes(bytes.len() - expected));
            }
            Ok(Peek::Data(DataPeek {
                originator: NodeId(u32_at(1)),
                seq: u16_at(5),
                ttl: bytes[TTL_OFFSET],
                hop_count: bytes[HOP_OFFSET],
                dest: NodeId(u32_at(TC_BODY_OFFSET)),
                flow: u16_at(TC_BODY_OFFSET + 4),
                injected_us: u64::from_le_bytes(
                    bytes[TC_BODY_OFFSET + 6..TC_BODY_OFFSET + 14]
                        .try_into()
                        .expect("8 bytes"),
                ),
                payload_len,
            }))
        }
        other => Err(WireError::UnknownKind(other)),
    }
}

/// Decodes a message from bytes.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, unknown discriminants, or
/// trailing bytes.
pub fn decode(mut bytes: Bytes) -> Result<Message, WireError> {
    let msg = decode_inner(&mut bytes)?;
    if bytes.has_remaining() {
        return Err(WireError::TrailingBytes(bytes.remaining()));
    }
    Ok(msg)
}

fn decode_inner(buf: &mut Bytes) -> Result<Message, WireError> {
    if buf.remaining() < 9 {
        return Err(WireError::Truncated);
    }
    let kind = buf.get_u8();
    let originator = NodeId(buf.get_u32_le());
    let seq = buf.get_u16_le();
    let ttl = buf.get_u8();
    let hop_count = buf.get_u8();
    let body = match kind {
        KIND_HELLO => {
            if buf.remaining() < 2 {
                return Err(WireError::Truncated);
            }
            let count = buf.get_u16_le() as usize;
            let mut neighbors = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                if buf.remaining() < 4 + 1 + 24 {
                    return Err(WireError::Truncated);
                }
                let id = NodeId(buf.get_u32_le());
                let state = match buf.get_u8() {
                    0 => LinkState::Asymmetric,
                    1 => LinkState::Symmetric,
                    2 => LinkState::Mpr,
                    other => return Err(WireError::UnknownLinkState(other)),
                };
                let qos = get_qos(buf);
                neighbors.push(HelloNeighbor { id, state, qos });
            }
            Body::Hello(Hello { neighbors })
        }
        KIND_TC => {
            if buf.remaining() < 4 {
                return Err(WireError::Truncated);
            }
            let ansn = buf.get_u16_le();
            let count = buf.get_u16_le() as usize;
            let mut advertised = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                if buf.remaining() < 4 + 24 {
                    return Err(WireError::Truncated);
                }
                let id = NodeId(buf.get_u32_le());
                let qos = get_qos(buf);
                advertised.push((id, qos));
            }
            Body::Tc(Tc { ansn, advertised })
        }
        KIND_DATA => {
            if buf.remaining() < DATA_HEADER {
                return Err(WireError::Truncated);
            }
            let dest = NodeId(buf.get_u32_le());
            let flow = buf.get_u16_le();
            let injected_us = buf.get_u64_le();
            let payload_len = buf.get_u16_le();
            if buf.remaining() < payload_len as usize {
                return Err(WireError::Truncated);
            }
            buf.advance(payload_len as usize);
            Body::Data(DataBody {
                dest,
                flow,
                injected_us,
                payload_len,
            })
        }
        other => return Err(WireError::UnknownKind(other)),
    };
    Ok(Message {
        originator,
        seq,
        ttl,
        hop_count,
        body,
    })
}

fn put_qos(buf: &mut BytesMut, qos: &LinkQos) {
    buf.put_u64_le(qos.bandwidth.value());
    buf.put_u64_le(qos.delay.value());
    buf.put_u64_le(qos.energy.value());
}

fn get_qos(buf: &mut Bytes) -> LinkQos {
    LinkQos::with_energy(
        Bandwidth(buf.get_u64_le()),
        Delay(buf.get_u64_le()),
        Energy(buf.get_u64_le()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_hello() -> Message {
        Message::hello(
            NodeId(7),
            42,
            Hello {
                neighbors: vec![
                    HelloNeighbor {
                        id: NodeId(1),
                        state: LinkState::Symmetric,
                        qos: LinkQos::uniform(5),
                    },
                    HelloNeighbor {
                        id: NodeId(2),
                        state: LinkState::Mpr,
                        qos: LinkQos::uniform(9),
                    },
                ],
            },
        )
    }

    fn sample_tc() -> Message {
        Message::tc(
            NodeId(3),
            11,
            Tc {
                ansn: 99,
                advertised: vec![(NodeId(4), LinkQos::uniform(2))],
            },
        )
    }

    #[test]
    fn hello_roundtrip() {
        let msg = sample_hello();
        let bytes = encode(&msg);
        assert_eq!(bytes.len(), encoded_len(&msg));
        assert_eq!(decode(bytes).unwrap(), msg);
    }

    #[test]
    fn tc_roundtrip() {
        let msg = sample_tc();
        let bytes = encode(&msg);
        assert_eq!(bytes.len(), encoded_len(&msg));
        assert_eq!(decode(bytes).unwrap(), msg);
    }

    #[test]
    fn forward_patches_only_ttl_and_hops() {
        let msg = sample_tc();
        let bytes = encode(&msg);
        let fwd = forward(&bytes).expect("ttl 255 is forwardable");
        let decoded = decode(fwd).unwrap();
        assert_eq!(decoded.ttl, msg.ttl - 1);
        assert_eq!(decoded.hop_count, msg.hop_count + 1);
        assert_eq!(decoded.originator, msg.originator);
        assert_eq!(decoded.seq, msg.seq);
        assert_eq!(decoded.body, msg.body);
        // Matches the slow path exactly.
        let slow = Message {
            ttl: msg.ttl - 1,
            hop_count: msg.hop_count + 1,
            body: msg.body.clone(),
            ..msg
        };
        assert_eq!(forward(&bytes).unwrap(), encode(&slow));
    }

    #[test]
    fn forward_stops_at_ttl_one() {
        let mut msg = sample_tc();
        msg.ttl = 1;
        assert_eq!(forward(&encode(&msg)), None);
        assert_eq!(forward(&Bytes::from(&[1u8, 2][..])), None);
    }

    #[test]
    fn forward_drops_ttl_zero() {
        // A TTL of 0 should never be on the wire (originators start ≥ 1
        // and forwarding stops at 1), but a hostile or buggy buffer must
        // still be dropped, not wrapped around to 255.
        let mut msg = sample_tc();
        msg.ttl = 0;
        assert_eq!(forward(&encode(&msg)), None);
    }

    #[test]
    fn forward_exhausts_any_starting_ttl() {
        // Repeated forwarding must consume the TTL down to exhaustion in
        // exactly ttl-1 hops, for scoped (small-TTL) and full floods.
        for start in [2u8, 5, 255] {
            let mut msg = sample_tc();
            msg.ttl = start;
            let mut bytes = encode(&msg);
            let mut hops = 0u32;
            while let Some(fwd) = forward(&bytes) {
                bytes = fwd;
                hops += 1;
            }
            assert_eq!(hops, u32::from(start) - 1, "start ttl {start}");
            let last = decode(bytes).unwrap();
            assert_eq!(last.ttl, 1);
        }
    }

    #[test]
    fn forward_saturates_hop_count() {
        // hop_count is diagnostic; at 255 it must saturate, not wrap.
        let mut msg = sample_tc();
        msg.ttl = 200;
        msg.hop_count = 255;
        let fwd = forward(&encode(&msg)).expect("ttl 200 forwards");
        let decoded = decode(fwd).unwrap();
        assert_eq!(decoded.hop_count, 255, "hop count saturates");
        assert_eq!(decoded.ttl, 199);
    }

    fn sample_data() -> Message {
        Message::data(
            NodeId(5),
            120,
            32,
            DataBody {
                dest: NodeId(9),
                flow: 3,
                injected_us: 1_234_567,
                payload_len: 48,
            },
        )
    }

    #[test]
    fn data_roundtrip() {
        let msg = sample_data();
        let bytes = encode(&msg);
        assert_eq!(bytes.len(), encoded_len(&msg));
        assert_eq!(bytes.len(), 9 + 16 + 48);
        assert_eq!(decode(bytes).unwrap(), msg);
    }

    #[test]
    fn data_frames_forward_like_control_frames() {
        // The whole point of reusing the header layout: relays patch two
        // bytes instead of re-encoding the payload at every hop.
        let msg = sample_data();
        let bytes = encode(&msg);
        let fwd = forward(&bytes).expect("ttl 32 forwards");
        let decoded = decode(fwd).unwrap();
        assert_eq!(decoded.ttl, msg.ttl - 1);
        assert_eq!(decoded.hop_count, msg.hop_count + 1);
        assert_eq!(decoded.body, msg.body, "payload untouched by forward");
    }

    #[test]
    fn peek_reads_data_header_without_decoding() {
        let msg = sample_data();
        let Ok(Peek::Data(p)) = peek(&encode(&msg)) else {
            panic!("expected a data peek");
        };
        assert_eq!(p.originator, msg.originator);
        assert_eq!(p.seq, msg.seq);
        assert_eq!(p.ttl, msg.ttl);
        assert_eq!(p.hop_count, msg.hop_count);
        let Body::Data(d) = &msg.body else {
            unreachable!()
        };
        assert_eq!(p.dest, d.dest);
        assert_eq!(p.flow, d.flow);
        assert_eq!(p.injected_us, d.injected_us);
        assert_eq!(p.payload_len, d.payload_len);
    }

    #[test]
    fn peek_errors_match_decode_errors_on_data_buffers() {
        let bytes = encode(&sample_data());
        for cut in 0..bytes.len() {
            let truncated = bytes.slice(..cut);
            assert_eq!(
                peek(&truncated).err(),
                decode(truncated.clone()).err(),
                "cut at {cut}"
            );
            assert!(peek(&truncated).is_err());
        }
        let mut trailing = BytesMut::from(bytes.as_ref());
        trailing.put_u8(0xAB);
        let trailing = trailing.freeze();
        assert_eq!(peek(&trailing), Err(WireError::TrailingBytes(1)));
        assert_eq!(peek(&trailing).err(), decode(trailing).err());
    }

    #[test]
    fn is_data_frame_classifies_by_kind_byte() {
        assert!(is_data_frame(&encode(&sample_data())));
        assert!(!is_data_frame(&encode(&sample_tc())));
        assert!(!is_data_frame(&encode(&sample_hello())));
        assert!(!is_data_frame(&[]));
        // Classification survives forwarding (same first byte).
        assert!(is_data_frame(&forward(&encode(&sample_data())).unwrap()));
    }

    #[test]
    fn zero_payload_data_frame_is_header_only() {
        let mut msg = sample_data();
        let Body::Data(d) = &mut msg.body else {
            unreachable!()
        };
        d.payload_len = 0;
        let bytes = encode(&msg);
        assert_eq!(bytes.len(), 9 + 16);
        assert_eq!(decode(bytes).unwrap(), msg);
    }

    #[test]
    fn peek_reads_tc_header_without_decoding() {
        let msg = sample_tc();
        let bytes = encode(&msg);
        let Ok(Peek::Tc(p)) = peek(&bytes) else {
            panic!("expected a TC peek");
        };
        assert_eq!(p.originator, msg.originator);
        assert_eq!(p.seq, msg.seq);
        assert_eq!(p.ttl, msg.ttl);
        assert_eq!(p.hop_count, msg.hop_count);
        let Body::Tc(tc) = &msg.body else {
            unreachable!()
        };
        assert_eq!(p.ansn, tc.ansn);
    }

    #[test]
    fn peek_classifies_hello() {
        assert_eq!(peek(&encode(&sample_hello())), Ok(Peek::Hello));
    }

    #[test]
    fn peek_errors_match_decode_errors_on_tc_buffers() {
        let bytes = encode(&sample_tc());
        for cut in 0..bytes.len() {
            let truncated = bytes.slice(..cut);
            assert_eq!(
                peek(&truncated).err(),
                decode(truncated.clone()).err(),
                "cut at {cut}"
            );
            assert!(peek(&truncated).is_err());
        }
        let mut trailing = BytesMut::from(bytes.as_ref());
        trailing.put_u8(0xAB);
        let trailing = trailing.freeze();
        assert_eq!(peek(&trailing), Err(WireError::TrailingBytes(1)));
        assert_eq!(peek(&trailing).err(), decode(trailing).err());
    }

    #[test]
    fn peek_rejects_unknown_kind() {
        let mut raw = BytesMut::new();
        raw.put_u8(42);
        raw.put_slice(&[0; 12]);
        assert_eq!(peek(&raw.freeze()), Err(WireError::UnknownKind(42)));
    }

    #[test]
    fn peek_survives_forwarding() {
        // forward() patches ttl/hops in place; peek must see the patched
        // values on the forwarded buffer.
        let bytes = encode(&sample_tc());
        let fwd = forward(&bytes).unwrap();
        let (Ok(Peek::Tc(before)), Ok(Peek::Tc(after))) = (peek(&bytes), peek(&fwd)) else {
            panic!("both peeks must succeed");
        };
        assert_eq!(after.ttl, before.ttl - 1);
        assert_eq!(after.hop_count, before.hop_count + 1);
        assert_eq!(after.originator, before.originator);
        assert_eq!(after.seq, before.seq);
        assert_eq!(after.ansn, before.ansn);
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode(&sample_tc());
        for cut in 0..bytes.len() {
            let r = decode(bytes.slice(..cut));
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u8(99);
        raw.put_slice(&[0; 8]);
        assert_eq!(decode(raw.freeze()), Err(WireError::UnknownKind(99)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut raw = BytesMut::from(encode(&sample_hello()).as_ref());
        raw.put_u8(0);
        assert!(matches!(
            decode(raw.freeze()),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn tc_size_grows_with_advertised_set() {
        let small = Message::tc(
            NodeId(1),
            0,
            Tc {
                ansn: 0,
                advertised: vec![],
            },
        );
        let mut adv = Vec::new();
        for i in 0..10 {
            adv.push((NodeId(i), LinkQos::uniform(1)));
        }
        let big = Message::tc(
            NodeId(1),
            0,
            Tc {
                ansn: 0,
                advertised: adv,
            },
        );
        assert!(encoded_len(&big) > encoded_len(&small));
        assert_eq!(encoded_len(&big) - encoded_len(&small), 10 * 28);
    }

    #[test]
    fn error_display() {
        assert_eq!(WireError::Truncated.to_string(), "truncated message");
        assert!(WireError::UnknownLinkState(7).to_string().contains('7'));
    }
}
