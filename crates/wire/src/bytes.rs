//! Checked, panic-free byte access for decoders.
//!
//! Every internalization path in this crate parses attacker-controlled
//! bytes, and the workspace invariant (`rx_panic`: clippy's panic lints
//! denied crate-wide) is that such code *cannot* abort the station: any
//! malformed input must surface as a [`WireError`], never a panic. Raw
//! slice indexing (`buf[0]`, `&buf[a..b]`) panics on a bad offset, and
//! whether a given index is guarded by an earlier length check is
//! invisible to both the reader and the linter. This module removes the
//! question: a [`ByteReader`] is a cursor whose every access is
//! bounds-checked and returns `Result`, so decoders written against it
//! are total by construction.

use crate::WireError;

/// A checked forward cursor over a byte slice.
///
/// All accessors return [`WireError::Truncated`] (tagged with the
/// reader's `what` label) instead of panicking when the input is too
/// short. Reads advance the cursor; `peek_*`/[`ByteReader::rest`] do
/// not.
pub struct ByteReader<'a> {
    what: &'static str,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, labelling truncation errors with `what`.
    pub fn new(what: &'static str, buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { what, buf, pos: 0 }
    }

    /// The truncation error for an access needing `n` more bytes.
    fn short(&self, n: usize) -> WireError {
        WireError::Truncated { what: self.what, need: self.pos.saturating_add(n), have: self.buf.len() }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Current cursor position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The unconsumed tail of the input.
    pub fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or(&[])
    }

    /// Consumes and returns the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.short(n))?;
        let out = self.buf.get(self.pos..end).ok_or_else(|| self.short(n))?;
        self.pos = end;
        Ok(out)
    }

    /// Consumes `n` bytes without returning them.
    pub fn skip(&mut self, n: usize) -> Result<(), WireError> {
        self.bytes(n).map(|_| ())
    }

    /// Consumes a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    /// Consumes a big-endian `u16`.
    pub fn u16_be(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.array::<2>()?))
    }

    /// Consumes a big-endian `u32`.
    pub fn u32_be(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.array::<4>()?))
    }
}

/// The checked form of `&buf[..end]`: the prefix of `buf` up to `end`,
/// or [`WireError::Truncated`] if the input is shorter.
pub fn prefix<'a>(what: &'static str, buf: &'a [u8], end: usize) -> Result<&'a [u8], WireError> {
    buf.get(..end).ok_or(WireError::Truncated { what, need: end, have: buf.len() })
}

/// The checked form of `&buf[start..end]`.
pub fn range<'a>(what: &'static str, buf: &'a [u8], start: usize, end: usize) -> Result<&'a [u8], WireError> {
    if start > end {
        return Err(WireError::Malformed(what));
    }
    buf.get(start..end).ok_or(WireError::Truncated { what, need: end, have: buf.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_reads_and_truncation() {
        let data = [1u8, 2, 3, 4, 5, 6, 7];
        let mut r = ByteReader::new("test", &data);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u16_be().unwrap(), 0x0203);
        assert_eq!(r.u32_be().unwrap(), 0x0405_0607);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(WireError::Truncated { what: "test", need: 8, have: 7 }));
    }

    #[test]
    fn arrays_skip_and_rest() {
        let data = [9u8, 8, 7, 6, 5];
        let mut r = ByteReader::new("test", &data);
        assert_eq!(r.array::<2>().unwrap(), [9, 8]);
        r.skip(1).unwrap();
        assert_eq!(r.pos(), 3);
        assert_eq!(r.rest(), &[6, 5]);
        assert!(r.array::<3>().is_err());
        // A failed read does not advance the cursor.
        assert_eq!(r.bytes(2).unwrap(), &[6, 5]);
    }

    #[test]
    fn prefix_and_range_are_checked() {
        let data = [1u8, 2, 3];
        assert_eq!(prefix("p", &data, 2).unwrap(), &[1, 2]);
        assert!(prefix("p", &data, 4).is_err());
        assert_eq!(range("r", &data, 1, 3).unwrap(), &[2, 3]);
        assert!(range("r", &data, 1, 4).is_err());
        assert!(range("r", &data, 3, 1).is_err());
    }
}
