//! The record codec: [`WalRecord`] and its wire form, the frame envelope
//! (`[len][crc][payload]`), and the byte-level helpers both share with the
//! node snapshot files.

/// Frame header: payload length + payload CRC.
pub(super) const FRAME_HEADER_LEN: u64 = 8;
/// Upper bound on a single frame payload; anything larger is treated as
/// corruption rather than allocated.
pub(super) const MAX_FRAME_LEN: u32 = 64 << 20;

/// One durable log record. Queue names and payloads are owned strings —
/// the WAL is the cold path; the hot path shares allocations up to the
/// encode buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A message copy admitted to `queue` under delivery tag `tag`.
    Enqueue {
        /// Queue the copy was admitted to.
        queue: String,
        /// Per-queue monotonic delivery tag — the durable message id.
        tag: u64,
        /// Exchange (publisher app) the copy arrived through.
        exchange: String,
        /// Marshalled message payload.
        payload: String,
        /// Publisher origin stamp riding the envelope (0 = unstamped).
        origin_nanos: u64,
    },
    /// Tags consumed by acks on `queue` (batch-capable).
    Ack {
        /// Queue the acks apply to.
        queue: String,
        /// Acked delivery tags.
        tags: Vec<u64>,
    },
    /// An unacked delivery routed to `queue`'s dead-letter store.
    DeadLetter {
        /// Queue the delivery belonged to.
        queue: String,
        /// The dead-lettered delivery tag.
        tag: u64,
    },
    /// `queue` was decommissioned; its backlog was discarded.
    QueueKilled {
        /// The decommissioned queue.
        queue: String,
    },
    /// `queue` was reinstated empty after a decommission.
    QueueReinstated {
        /// The reinstated queue.
        queue: String,
    },
    /// Point-in-time state of one queue; replay *replaces* the queue's
    /// pending/dead state with it (older entries are absorbed).
    Checkpoint {
        /// The checkpointed queue.
        queue: String,
        /// Whether the queue was decommissioned at checkpoint time.
        decommissioned: bool,
        /// Next delivery tag to assign.
        next_tag: u64,
        /// Pending (ready + unacked) deliveries:
        /// `(tag, exchange, payload, origin_nanos, redelivered)`.
        pending: Vec<(u64, String, String, u64, bool)>,
        /// Dead-lettered deliveries: `(tag, exchange, payload, origin_nanos)`.
        dead: Vec<(u64, String, String, u64)>,
    },
}

const TAG_ENQUEUE: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_DEAD_LETTER: u8 = 3;
const TAG_QUEUE_KILLED: u8 = 4;
const TAG_QUEUE_REINSTATED: u8 = 5;
const TAG_CHECKPOINT: u8 = 6;
// 7 is retired: an earlier log format used it, so it is never reassigned.

impl WalRecord {
    /// Appends the record's wire encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Enqueue {
                queue,
                tag,
                exchange,
                payload,
                origin_nanos,
            } => {
                out.push(TAG_ENQUEUE);
                put_str(out, queue);
                put_u64(out, *tag);
                put_str(out, exchange);
                put_str(out, payload);
                put_u64(out, *origin_nanos);
            }
            WalRecord::Ack { queue, tags } => {
                out.push(TAG_ACK);
                put_str(out, queue);
                put_u32(out, tags.len() as u32);
                for t in tags {
                    put_u64(out, *t);
                }
            }
            WalRecord::DeadLetter { queue, tag } => {
                out.push(TAG_DEAD_LETTER);
                put_str(out, queue);
                put_u64(out, *tag);
            }
            WalRecord::QueueKilled { queue } => {
                out.push(TAG_QUEUE_KILLED);
                put_str(out, queue);
            }
            WalRecord::QueueReinstated { queue } => {
                out.push(TAG_QUEUE_REINSTATED);
                put_str(out, queue);
            }
            WalRecord::Checkpoint {
                queue,
                decommissioned,
                next_tag,
                pending,
                dead,
            } => {
                out.push(TAG_CHECKPOINT);
                put_str(out, queue);
                out.push(u8::from(*decommissioned));
                put_u64(out, *next_tag);
                put_u32(out, pending.len() as u32);
                for (tag, exchange, payload, origin, redelivered) in pending {
                    put_u64(out, *tag);
                    put_str(out, exchange);
                    put_str(out, payload);
                    put_u64(out, *origin);
                    out.push(u8::from(*redelivered));
                }
                put_u32(out, dead.len() as u32);
                for (tag, exchange, payload, origin) in dead {
                    put_u64(out, *tag);
                    put_str(out, exchange);
                    put_str(out, payload);
                    put_u64(out, *origin);
                }
            }
        }
    }

    /// The record's wire encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Decodes one record from `bytes`; `None` on any malformation. Fully
    /// bounds-checked — arbitrary input never panics (the torn-tail
    /// property relies on this).
    pub fn decode(bytes: &[u8]) -> Option<WalRecord> {
        let mut r = ByteReader::new(bytes);
        let record = match r.take_u8()? {
            TAG_ENQUEUE => WalRecord::Enqueue {
                queue: r.take_str()?,
                tag: r.take_u64()?,
                exchange: r.take_str()?,
                payload: r.take_str()?,
                origin_nanos: r.take_u64()?,
            },
            TAG_ACK => {
                let queue = r.take_str()?;
                let n = r.take_u32()? as usize;
                // Cap before allocating: a corrupt count must not OOM.
                if n > bytes.len() {
                    return None;
                }
                let mut tags = Vec::with_capacity(n);
                for _ in 0..n {
                    tags.push(r.take_u64()?);
                }
                WalRecord::Ack { queue, tags }
            }
            TAG_DEAD_LETTER => WalRecord::DeadLetter {
                queue: r.take_str()?,
                tag: r.take_u64()?,
            },
            TAG_QUEUE_KILLED => WalRecord::QueueKilled {
                queue: r.take_str()?,
            },
            TAG_QUEUE_REINSTATED => WalRecord::QueueReinstated {
                queue: r.take_str()?,
            },
            TAG_CHECKPOINT => {
                let queue = r.take_str()?;
                let decommissioned = r.take_u8()? != 0;
                let next_tag = r.take_u64()?;
                let n_pending = r.take_u32()? as usize;
                if n_pending > bytes.len() {
                    return None;
                }
                let mut pending = Vec::with_capacity(n_pending);
                for _ in 0..n_pending {
                    pending.push((
                        r.take_u64()?,
                        r.take_str()?,
                        r.take_str()?,
                        r.take_u64()?,
                        r.take_u8()? != 0,
                    ));
                }
                let n_dead = r.take_u32()? as usize;
                if n_dead > bytes.len() {
                    return None;
                }
                let mut dead = Vec::with_capacity(n_dead);
                for _ in 0..n_dead {
                    dead.push((r.take_u64()?, r.take_str()?, r.take_str()?, r.take_u64()?));
                }
                WalRecord::Checkpoint {
                    queue,
                    decommissioned,
                    next_tag,
                    pending,
                    dead,
                }
            }
            _ => return None,
        };
        // Trailing garbage means the frame length lied about the payload.
        if r.remaining() != 0 {
            return None;
        }
        Some(record)
    }
}

/// Little-endian `u32` append.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Little-endian `u64` append.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Length-prefixed UTF-8 string append.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends one complete frame (`[len][crc][payload]`) for `record`.
/// Framing happens wherever the caller is — no WAL lock is involved.
pub fn frame_record_into(out: &mut Vec<u8>, record: &WalRecord) {
    let start = begin_frame(out);
    record.encode_into(out);
    finish_frame(out, start);
}

/// Appends an `Enqueue` frame straight from borrowed fields — the
/// hot-path equivalent of [`frame_record_into`] that skips materializing
/// owned strings for a [`WalRecord`].
pub fn frame_enqueue_into(
    out: &mut Vec<u8>,
    queue: &str,
    tag: u64,
    exchange: &str,
    payload: &str,
    origin_nanos: u64,
) {
    let start = begin_frame(out);
    out.push(TAG_ENQUEUE);
    put_str(out, queue);
    put_u64(out, tag);
    put_str(out, exchange);
    put_str(out, payload);
    put_u64(out, origin_nanos);
    finish_frame(out, start);
}

/// Reserves a frame header at the end of `out`; returns its offset for
/// [`finish_frame`].
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN as usize]);
    start
}

/// Backfills the length + CRC header of the frame opened at `frame_start`.
fn finish_frame(out: &mut [u8], frame_start: usize) {
    let payload_start = frame_start + FRAME_HEADER_LEN as usize;
    let len = (out.len() - payload_start) as u32;
    let crc = crc32(&out[payload_start..]);
    out[frame_start..frame_start + 4].copy_from_slice(&len.to_le_bytes());
    out[frame_start + 4..frame_start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Bounds-checked sequential reader over a byte slice; every `take_*`
/// returns `None` instead of panicking on underrun.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        let bytes = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let bytes = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Option<String> {
        let len = self.take_u32()? as usize;
        let end = self.pos.checked_add(len)?;
        let bytes = self.bytes.get(self.pos..end)?;
        self.pos = end;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// Slicing-by-8 lookup tables, built at compile time: `CRC_TABLES[0]` is
/// the classic bytewise table, and `CRC_TABLES[s][b]` is the CRC state
/// after byte `b` followed by `s` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut s = 1;
        while s < 8 {
            let prev = tables[s - 1][i];
            tables[s][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            s += 1;
        }
        i += 1;
    }
    tables
};

/// IEEE CRC-32 (the Ethernet/zlib polynomial), slicing-by-8: eight table
/// lookups fold eight bytes per step, and the tail takes one lookup per
/// byte. Every value equals the bytewise table-driven form.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let word = crc as u64 ^ u64::from_le_bytes(w.try_into().expect("an 8-byte chunk"));
        // Byte `i` of the word has `7 - i` bytes after it in the chunk.
        crc = (0..8).fold(0, |acc, i| acc ^ t[7 - i][(word >> (8 * i)) as u8 as usize]);
    }
    for b in words.remainder() {
        crc = t[0][((crc ^ *b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}
