//! Bounds-checked sequential decoding of a section payload.
//!
//! Every read is validated against the bytes that remain; element
//! counts pass through [`Cursor::checked_len`] *before* any
//! allocation, so a corrupted length field yields a structured
//! [`SnapshotError`] instead of an OOM-sized `Vec::with_capacity`.

use crate::error::SnapshotError;

/// A forward-only reader over one section's payload bytes.
pub struct Cursor<'a> {
    section: &'static str,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps `buf`, attributing all failures to `section`.
    pub fn new(section: &'static str, buf: &'a [u8]) -> Self {
        Self {
            section,
            buf,
            pos: 0,
        }
    }

    /// The section name failures are attributed to.
    pub fn section(&self) -> &'static str {
        self.section
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes or fails with `Truncated`.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(SnapshotError::Truncated {
                section: self.section,
                needed: n as u64,
                available: self.remaining() as u64,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool` stored as a single `0`/`1` byte.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed {
                section: self.section,
                detail: format!("boolean byte must be 0 or 1, found {other}"),
            }),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` that must fit a `usize`.
    pub fn usize64(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::LengthOverflow {
            section: self.section,
            claimed: v,
            limit: usize::MAX as u64,
        })
    }

    /// Reads an `f64` from its IEEE-754 bit pattern (bitwise exact).
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an `f32` from its IEEE-754 bit pattern (bitwise exact).
    pub fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a `u64` element count and proves `count * elem_bytes`
    /// fits in the remaining payload before returning it. This is the
    /// only sanctioned source of allocation sizes when decoding: a
    /// hostile length field is rejected here, with no allocation.
    pub fn checked_len(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let claimed = self.u64()?;
        let limit = if elem_bytes == 0 {
            u64::MAX
        } else {
            self.remaining() as u64 / elem_bytes as u64
        };
        if claimed > limit {
            return Err(SnapshotError::LengthOverflow {
                section: self.section,
                claimed,
                limit,
            });
        }
        Ok(claimed as usize)
    }

    /// Reads a length-prefixed byte string written by `put_bytes`.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let checked_n = self.checked_len(1)?;
        self.take(checked_n)
    }

    /// Reads a length-prefixed `Vec<u32>`.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let checked_n = self.checked_len(4)?;
        let raw = self.take(checked_n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Reads a length-prefixed `Vec<u64>`.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let checked_n = self.checked_len(8)?;
        let raw = self.take(checked_n * 8)?;
        Ok(raw.chunks_exact(8).map(le_u64).collect())
    }

    /// Reads a length-prefixed `Vec<usize>` stored as `u64`s.
    pub fn usize_vec(&mut self) -> Result<Vec<usize>, SnapshotError> {
        let checked_n = self.checked_len(8)?;
        let raw = self.take(checked_n * 8)?;
        let mut out = Vec::with_capacity(checked_n);
        for c in raw.chunks_exact(8) {
            let v = le_u64(c);
            out.push(
                usize::try_from(v).map_err(|_| SnapshotError::LengthOverflow {
                    section: self.section,
                    claimed: v,
                    limit: usize::MAX as u64,
                })?,
            );
        }
        Ok(out)
    }

    /// Reads a length-prefixed `Vec<f64>` (bitwise exact).
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let checked_n = self.checked_len(8)?;
        let raw = self.take(checked_n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(le_u64(c)))
            .collect())
    }

    /// Fails with `Malformed` unless every byte was consumed — trailing
    /// garbage means the payload and decoder disagree on the layout.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed {
                section: self.section,
                detail: format!("{} unconsumed trailing bytes", self.remaining()),
            });
        }
        Ok(())
    }
}

fn le_u64(c: &[u8]) -> u64 {
    u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
}

/// Writes a length-prefixed slice of fixed-width records: the count as
/// a `u64`, then `encode(v)` for each value. The buffer is resized once
/// and filled in one pass.
pub fn put_records<T, const N: usize>(
    buf: &mut Vec<u8>,
    vals: &[T],
    encode: impl Fn(&T) -> [u8; N],
) {
    crate::writer::put_usize(buf, vals.len());
    let start = buf.len();
    buf.resize(start + vals.len() * N, 0);
    for (dst, v) in buf[start..].chunks_exact_mut(N).zip(vals) {
        dst.copy_from_slice(&encode(v));
    }
}

/// Writes a length-prefixed `u32` slice (counterpart of
/// [`Cursor::u32_vec`]).
pub fn put_u32_slice(buf: &mut Vec<u8>, vals: &[u32]) {
    put_records(buf, vals, |v| v.to_le_bytes());
}

/// Writes a length-prefixed `usize` slice as `u64`s (counterpart of
/// [`Cursor::usize_vec`]).
pub fn put_usize_slice(buf: &mut Vec<u8>, vals: &[usize]) {
    put_records(buf, vals, |&v| (v as u64).to_le_bytes());
}

/// Writes a length-prefixed `f64` slice bitwise (counterpart of
/// [`Cursor::f64_vec`]).
pub fn put_f64_slice(buf: &mut Vec<u8>, vals: &[f64]) {
    put_records(buf, vals, |v| v.to_bits().to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{put_bytes, put_f64, put_u32, put_u64};

    #[test]
    fn round_trips_scalars() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX);
        put_f64(&mut buf, -0.0);
        put_bytes(&mut buf, b"xy");
        let mut c = Cursor::new("t", &buf);
        assert_eq!(c.u32().unwrap(), 7);
        assert_eq!(c.u64().unwrap(), u64::MAX);
        assert_eq!(c.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(c.bytes().unwrap(), b"xy");
        c.finish().unwrap();
    }

    #[test]
    fn hostile_length_is_rejected_without_allocation() {
        // A 1 GiB element count backed by 8 actual bytes.
        let mut buf = Vec::new();
        put_u64(&mut buf, 1 << 30);
        put_u64(&mut buf, 0);
        let mut c = Cursor::new("t", &buf);
        match c.f64_vec() {
            Err(SnapshotError::LengthOverflow {
                section, claimed, ..
            }) => {
                assert_eq!(section, "t");
                assert_eq!(claimed, 1 << 30);
            }
            other => panic!("expected LengthOverflow, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_structured() {
        let mut c = Cursor::new("t", &[1, 2]);
        assert!(matches!(
            c.u32(),
            Err(SnapshotError::Truncated { section: "t", .. })
        ));
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let c = Cursor::new("t", &[0]);
        assert!(matches!(
            c.finish(),
            Err(SnapshotError::Malformed { section: "t", .. })
        ));
    }

    #[test]
    fn bad_bool_byte_is_malformed() {
        let mut c = Cursor::new("t", &[2]);
        assert!(matches!(c.bool(), Err(SnapshotError::Malformed { .. })));
    }

    #[test]
    fn slice_round_trips() {
        let mut buf = Vec::new();
        put_u32_slice(&mut buf, &[1, 2, 3]);
        put_usize_slice(&mut buf, &[0, usize::MAX]);
        put_f64_slice(&mut buf, &[f64::NAN, 1.5]);
        let mut c = Cursor::new("t", &buf);
        assert_eq!(c.u32_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(c.usize_vec().unwrap(), vec![0, usize::MAX]);
        let f = c.f64_vec().unwrap();
        assert!(f[0].is_nan());
        assert_eq!(f[1], 1.5);
        c.finish().unwrap();
    }
}
