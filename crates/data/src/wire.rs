//! Binary page wire codec — version 2.
//!
//! The one encoding boundary of the engine: [`Page::encode`] /
//! [`Page::decode`] (defined on [`Page`], implemented here) turn a data
//! page into a single contiguous buffer and back, so a cross-process
//! exchange transfer is one buffer write instead of a deep clone. The
//! transport adds its own outer length prefix; this module defines
//! everything inside it. An end page has no wire form — a node's share of
//! an edge ends with a FINISH frame — so it encodes to no bytes, which
//! every decoder refuses.
//!
//! ## Frame layout
//!
//! ```text
//! byte 0        WIRE_VERSION (currently 2)
//! bytes 1..5    row count     u32 LE
//! bytes 5..9    column count  u32 LE
//! per column:
//!   tag           u8   (0 Int64, 1 Float64, 2 Bool, 3 Date32, 4 Utf8)
//!   has_validity  u8   (0 absent = all rows valid, 1 bitmap follows)
//!   [validity]    ceil(rows/64) × u64 LE bitmap words
//!   data          Int64/Float64: rows × 8 B LE (floats via `to_bits`, so
//!                 NaN payloads and −0.0 survive bit-exactly)
//!                 Date32: rows × 4 B LE · Bool: rows × 1 B
//!                 Utf8: (rows+1) × u32 LE offsets, then the byte arena
//! trailer       checksum u64 LE over bytes [1, len−8)
//! ```
//!
//! ## Versioning rule
//!
//! A frame opens with its version byte; decoders reject versions they do
//! not speak with a typed [`AccordionError::Wire`] — never a panic — so a
//! mixed-version fleet fails queries loudly instead of misreading buffers.
//! Any layout change bumps `WIRE_VERSION`.
//!
//! ## Size bound
//!
//! `encoded_len ≤ DataPage::byte_size() + FRAME_OVERHEAD +
//! PER_COLUMN_OVERHEAD × num_columns` — the codec adds framing, never
//! inflates data. The property suite in `tests/wire_roundtrip.rs` pins
//! this bound.

use std::sync::Arc;

use accordion_common::{AccordionError, Result};

use crate::column::{Column, Utf8Column, Validity};
use crate::hash::{finalize, mix, SEED};
use crate::page::{DataPage, Page};
use crate::types::DataType;

/// Current frame version; bumped on any layout change.
pub const WIRE_VERSION: u8 = 2;

/// Fixed framing bytes of a data frame: version + row count + column
/// count + checksum.
pub const FRAME_OVERHEAD: usize = 1 + 4 + 4 + 8;

/// Worst-case per-column overhead beyond [`DataPage::byte_size`]: type tag
/// and validity flag (2), bitmap word padding (≤ 8), and the Utf8 offsets
/// slot a degenerate empty column never accounted for (≤ 4).
pub const PER_COLUMN_OVERHEAD: usize = 2 + 8 + 4;

fn type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Bool => 2,
        DataType::Date32 => 3,
        DataType::Utf8 => 4,
    }
}

fn tag_type(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int64,
        1 => DataType::Float64,
        2 => DataType::Bool,
        3 => DataType::Date32,
        4 => DataType::Utf8,
        other => return Err(err(format!("unknown column type tag {other}"))),
    })
}

fn err(msg: impl Into<String>) -> AccordionError {
    AccordionError::Wire(msg.into())
}

/// Checksum over the frame payload, chunked into 8-byte LE words (the tail
/// chunk zero-padded), seeded with the payload length so truncation to a
/// chunk boundary still fails.
fn checksum(payload: &[u8]) -> u64 {
    let mut h = mix(SEED, payload.len() as u64);
    for chunk in payload.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(word));
    }
    finalize(h)
}

pub(crate) fn encode_page(page: &Page) -> Vec<u8> {
    match page {
        Page::End(_) => Vec::new(),
        Page::Data(data) => encode_data_page(data),
    }
}

fn encode_data_page(page: &DataPage) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        page.byte_size() + FRAME_OVERHEAD + PER_COLUMN_OVERHEAD * page.num_columns(),
    );
    buf.push(WIRE_VERSION);
    buf.extend_from_slice(&(page.row_count() as u32).to_le_bytes());
    buf.extend_from_slice(&(page.num_columns() as u32).to_le_bytes());
    for col in page.columns() {
        buf.push(type_tag(col.data_type()));
        match col.validity() {
            Some(v) => {
                buf.push(1);
                for word in v.words() {
                    buf.extend_from_slice(&word.to_le_bytes());
                }
            }
            None => buf.push(0),
        }
        match col {
            Column::Int64(v, _) => {
                for x in v.iter() {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            Column::Float64(v, _) => {
                for x in v.iter() {
                    buf.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            Column::Bool(v, _) => buf.extend(v.iter().map(|&b| u8::from(b))),
            Column::Date32(v, _) => {
                for x in v.iter() {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            Column::Utf8(v, _) => {
                let offsets = v.offsets();
                if offsets.is_empty() {
                    // Degenerate never-pushed column: canonical `[0]`.
                    buf.extend_from_slice(&0u32.to_le_bytes());
                } else {
                    for o in offsets {
                        buf.extend_from_slice(&o.to_le_bytes());
                    }
                }
                buf.extend_from_slice(v.data_bytes());
            }
        }
    }
    let sum = checksum(&buf[1..]);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Bounds-checked little-endian reader over bytes that came off a socket:
/// the page codec's frame bodies here, and the payload fields of every
/// node-to-node frame (`accordion_net::frame`). Reading past the end is a
/// typed [`AccordionError::Wire`] — never a panic or a slice index.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(err(format!(
                "truncated frame: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A presence flag: one byte, `0` or `1`.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(err(format!("invalid flag byte {other}"))),
        }
    }

    /// A `u32`-length-prefixed UTF-8 string, as [`Payload::str`] wrote it. The
    /// length is checked against the bytes present before anything is
    /// copied, so it is never an allocation size.
    pub fn str(&mut self) -> Result<&'a str> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|e| err(format!("string field: {e}")))
    }

    /// Everything not yet read — a payload's variable-length tail.
    pub fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Ends the read: bytes nobody asked for are as malformed as missing
    /// ones.
    pub fn finish(self) -> Result<()> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(err(format!("trailing bytes: {n} unread"))),
        }
    }
}

/// Builds what [`Cursor`] reads: a payload of little-endian fields.
#[derive(Default)]
pub struct Payload(pub Vec<u8>);

impl Payload {
    pub fn u32(mut self, v: u32) -> Payload {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u64(mut self, v: u64) -> Payload {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// A `u32`-length-prefixed UTF-8 string ([`Cursor::str`]).
    pub fn str(self, s: &str) -> Payload {
        let mut p = self.u32(s.len() as u32);
        p.0.extend_from_slice(s.as_bytes());
        p
    }
}

/// The data page [`Page::encode`] wrote into `bytes`; truncated, corrupt
/// or version-mismatched input — the empty encoding of an end page
/// included — is a typed [`AccordionError::Wire`]. [`Page::decode`] is
/// this wrapped in a page.
pub fn decode_data(bytes: &[u8]) -> Result<Arc<DataPage>> {
    let version = Cursor::new(bytes).u8()?;
    if version != WIRE_VERSION {
        return Err(err(format!(
            "unsupported wire version {version} (this build speaks {WIRE_VERSION})"
        )));
    }
    if bytes.len() < FRAME_OVERHEAD {
        return Err(err(format!(
            "truncated frame: {} bytes is below the {FRAME_OVERHEAD}-byte minimum",
            bytes.len()
        )));
    }
    // Verify the trailer before interpreting anything inside the payload —
    // corruption surfaces as one uniform error instead of a parse artifact.
    let body_end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
    let actual = checksum(&bytes[1..body_end]);
    if stored != actual {
        return Err(err(format!(
            "checksum mismatch: frame carries {stored:#018x}, payload hashes to {actual:#018x}"
        )));
    }
    let mut c = Cursor {
        buf: &bytes[..body_end],
        pos: 1,
    };
    let rows = c.u32()? as usize;
    let ncols = c.u32()? as usize;
    let mut columns = Vec::with_capacity(ncols.min(1024));
    for _ in 0..ncols {
        let dt = tag_type(c.u8()?)?;
        let validity = if c.bool()? {
            let words = c
                .take(rows.div_ceil(64) * 8)?
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
                .collect();
            Some(Arc::new(Validity::from_words(words, rows).map_err(err)?))
        } else {
            None
        };
        let column = match dt {
            DataType::Int64 => Column::Int64(
                Arc::new(
                    c.take(rows * 8)?
                        .chunks_exact(8)
                        .map(|w| i64::from_le_bytes(w.try_into().unwrap()))
                        .collect(),
                ),
                validity,
            ),
            DataType::Float64 => Column::Float64(
                Arc::new(
                    c.take(rows * 8)?
                        .chunks_exact(8)
                        .map(|w| f64::from_bits(u64::from_le_bytes(w.try_into().unwrap())))
                        .collect(),
                ),
                validity,
            ),
            DataType::Bool => Column::Bool(
                Arc::new(c.take(rows)?.iter().map(|&b| b != 0).collect()),
                validity,
            ),
            DataType::Date32 => Column::Date32(
                Arc::new(
                    c.take(rows * 4)?
                        .chunks_exact(4)
                        .map(|w| i32::from_le_bytes(w.try_into().unwrap()))
                        .collect(),
                ),
                validity,
            ),
            DataType::Utf8 => {
                let offsets: Vec<u32> = c
                    .take((rows + 1) * 4)?
                    .chunks_exact(4)
                    .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
                    .collect();
                let arena_len = *offsets.last().unwrap() as usize;
                let data = c.take(arena_len)?.to_vec();
                Column::Utf8(
                    Arc::new(Utf8Column::from_raw(data, offsets).map_err(err)?),
                    validity,
                )
            }
        };
        columns.push(column);
    }
    c.finish()?;
    let page = if columns.is_empty() {
        DataPage::row_count_only(rows)
    } else {
        if columns.iter().any(|col| col.len() != rows) {
            return Err(err("column length does not match frame row count"));
        }
        DataPage::new(columns)
    };
    Ok(Arc::new(page))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_end_page_has_no_wire_form() {
        use crate::page::EndReason;
        for reason in [
            EndReason::ScanExhausted,
            EndReason::UpstreamFinished,
            EndReason::EndSignal,
        ] {
            let buf = Page::end(reason).encode();
            assert!(buf.is_empty(), "{reason:?}");
            let err = Page::decode(&buf).unwrap_err();
            assert!(matches!(err, AccordionError::Wire(_)), "{err}");
        }
    }

    #[test]
    fn a_version_1_frame_is_refused_by_its_version() {
        // Version 1's end page: kind 1 and a reason byte.
        for reason in [0, 3, 9] {
            let err = Page::decode(&[1, 1, reason]).unwrap_err();
            assert!(matches!(err, AccordionError::Wire(_)), "{err}");
            assert!(
                err.to_string().contains("unsupported wire version 1"),
                "{err}"
            );
        }
    }

    #[test]
    fn version_gate() {
        let page = DataPage::new(vec![Column::from_i64(vec![1, 2])]);
        let mut buf = Page::data(page).encode();
        buf[0] = WIRE_VERSION + 1;
        let err = Page::decode(&buf).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn the_header_is_version_rows_then_columns() {
        // Pinned so that moving a header field fails here until
        // WIRE_VERSION is bumped with it.
        assert_eq!(WIRE_VERSION, 2);
        assert_eq!(FRAME_OVERHEAD, 17);
        let page = DataPage::new(vec![
            Column::from_i64(vec![1, 2, 3]),
            Column::from_i64(vec![4, 5, 6]),
        ]);
        let buf = Page::data(page).encode();
        assert_eq!(buf[0], WIRE_VERSION);
        assert_eq!(u32::from_le_bytes(buf[1..5].try_into().unwrap()), 3);
        assert_eq!(u32::from_le_bytes(buf[5..9].try_into().unwrap()), 2);
        // Tag and validity flag of the first column follow the header.
        assert_eq!(&buf[9..11], &[0, 0]);
        let empty = Page::data(DataPage::row_count_only(5)).encode();
        assert_eq!(empty.len(), FRAME_OVERHEAD);
    }
}
