//! Safe byte arrays with 1/2/4-byte access — the Rust rendering of the
//! Fox Project's language extensions.
//!
//! The paper (§2) extends SML with "1-byte, 2-byte, and 4-byte unsigned
//! integer types, and in-lined byte arrays", used to build packets and
//! talk to the outside world while staying type- and memory-safe. Rust
//! has the integer types natively; [`WordArray`] supplies the byte-array
//! half: a growable byte buffer with *big-endian* (network order)
//! multi-byte accessors mirroring the `Byte2.sub`/`Byte4.sub` and update
//! operations the paper's Fig. 10 checksum loop uses.
//!
//! All accesses are bounds-checked, exactly like the SML original — the
//! paper's performance discussion (§5) attributes the copy-loop slowness
//! to precisely these checks, which is what the `copy` benchmarks
//! measure.

use std::fmt;

/// Error returned by the checked (`try_*`) accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Offset that was asked for.
    pub offset: usize,
    /// Width of the access in bytes.
    pub width: usize,
    /// Length of the array.
    pub len: usize,
}

impl fmt::Display for Bounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wordarray access of {} bytes at offset {} exceeds length {}",
            self.width, self.offset, self.len
        )
    }
}

impl std::error::Error for Bounds {}

/// A byte array with network-order word accessors.
#[derive(Clone, PartialEq, Eq)]
pub struct WordArray {
    bytes: Vec<u8>,
}

impl WordArray {
    /// A zero-filled array of `len` bytes.
    pub fn new(len: usize) -> Self {
        WordArray { bytes: vec![0; len] }
    }

    /// Wraps an existing byte vector.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        WordArray { bytes }
    }

    /// Copies a slice.
    pub fn from_slice(bytes: &[u8]) -> Self {
        WordArray { bytes: bytes.to_vec() }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The underlying bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// The underlying bytes, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Consumes the array, yielding its bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.bytes
    }

    fn check(&self, offset: usize, width: usize) -> Result<(), Bounds> {
        if offset.checked_add(width).is_none_or(|end| end > self.bytes.len()) {
            Err(Bounds { offset, width, len: self.bytes.len() })
        } else {
            Ok(())
        }
    }

    /// `Byte1.sub`: reads the byte at `offset`.
    pub fn sub1(&self, offset: usize) -> u8 {
        self.try_sub1(offset).unwrap_or_else(|e| panic!("{e}"))
    }

    /// `Byte2.sub`: reads a big-endian 16-bit word at `offset`.
    pub fn sub2(&self, offset: usize) -> u16 {
        self.try_sub2(offset).unwrap_or_else(|e| panic!("{e}"))
    }

    /// `Byte4.sub`: reads a big-endian 32-bit word at `offset`.
    pub fn sub4(&self, offset: usize) -> u32 {
        self.try_sub4(offset).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked variant of [`sub1`](Self::sub1).
    pub fn try_sub1(&self, offset: usize) -> Result<u8, Bounds> {
        self.check(offset, 1)?;
        Ok(self.bytes[offset])
    }

    /// Checked variant of [`sub2`](Self::sub2).
    pub fn try_sub2(&self, offset: usize) -> Result<u16, Bounds> {
        self.check(offset, 2)?;
        Ok(u16::from_be_bytes([self.bytes[offset], self.bytes[offset + 1]]))
    }

    /// Checked variant of [`sub4`](Self::sub4).
    pub fn try_sub4(&self, offset: usize) -> Result<u32, Bounds> {
        self.check(offset, 4)?;
        Ok(u32::from_be_bytes([
            self.bytes[offset],
            self.bytes[offset + 1],
            self.bytes[offset + 2],
            self.bytes[offset + 3],
        ]))
    }

    /// `Byte1.update`: writes the byte at `offset`.
    pub fn update1(&mut self, offset: usize, value: u8) {
        self.try_update1(offset, value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// `Byte2.update`: writes a big-endian 16-bit word at `offset`.
    pub fn update2(&mut self, offset: usize, value: u16) {
        self.try_update2(offset, value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// `Byte4.update`: writes a big-endian 32-bit word at `offset`.
    pub fn update4(&mut self, offset: usize, value: u32) {
        self.try_update4(offset, value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked variant of [`update1`](Self::update1).
    pub fn try_update1(&mut self, offset: usize, value: u8) -> Result<(), Bounds> {
        self.check(offset, 1)?;
        self.bytes[offset] = value;
        Ok(())
    }

    /// Checked variant of [`update2`](Self::update2).
    pub fn try_update2(&mut self, offset: usize, value: u16) -> Result<(), Bounds> {
        self.check(offset, 2)?;
        self.bytes[offset..offset + 2].copy_from_slice(&value.to_be_bytes());
        Ok(())
    }

    /// Checked variant of [`update4`](Self::update4).
    pub fn try_update4(&mut self, offset: usize, value: u32) -> Result<(), Bounds> {
        self.check(offset, 4)?;
        self.bytes[offset..offset + 4].copy_from_slice(&value.to_be_bytes());
        Ok(())
    }

    /// Copies `src` into the array starting at `offset`.
    pub fn write_slice(&mut self, offset: usize, src: &[u8]) -> Result<(), Bounds> {
        self.check(offset, src.len())?;
        self.bytes[offset..offset + src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Borrows `len` bytes starting at `offset`.
    pub fn read_slice(&self, offset: usize, len: usize) -> Result<&[u8], Bounds> {
        self.check(offset, len)?;
        Ok(&self.bytes[offset..offset + len])
    }

    /// Hexadecimal dump, 16 bytes per line, for diagnostics.
    pub fn hexdump(&self) -> String {
        let mut out = String::new();
        for (i, chunk) in self.bytes.chunks(16).enumerate() {
            out.push_str(&format!("{:04x}:", i * 16));
            for b in chunk {
                out.push_str(&format!(" {b:02x}"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Debug for WordArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WordArray[{} bytes]", self.bytes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_words() {
        let mut a = WordArray::new(8);
        a.update1(0, 0xab);
        a.update2(2, 0x1234);
        a.update4(4, 0xdeadbeef);
        assert_eq!(a.sub1(0), 0xab);
        assert_eq!(a.sub2(2), 0x1234);
        assert_eq!(a.sub4(4), 0xdeadbeef);
    }

    #[test]
    fn big_endian_layout() {
        let mut a = WordArray::new(4);
        a.update4(0, 0x0102_0304);
        assert_eq!(a.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(a.sub2(0), 0x0102);
        assert_eq!(a.sub2(2), 0x0304);
    }

    #[test]
    fn bounds_errors() {
        let a = WordArray::new(3);
        assert!(a.try_sub4(0).is_err());
        assert!(a.try_sub2(2).is_err());
        assert_eq!(a.try_sub1(2), Ok(0));
        let err = a.try_sub2(2).unwrap_err();
        assert_eq!(err, Bounds { offset: 2, width: 2, len: 3 });
        assert!(err.to_string().contains("offset 2"));
    }

    #[test]
    fn overflowing_offset_is_error_not_panic() {
        let a = WordArray::new(3);
        assert!(a.try_sub4(usize::MAX - 1).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds length")]
    fn unchecked_access_panics() {
        let a = WordArray::new(1);
        let _ = a.sub4(0);
    }

    #[test]
    fn slices() {
        let mut a = WordArray::new(6);
        a.write_slice(2, b"abcd").unwrap();
        assert_eq!(a.read_slice(2, 4).unwrap(), b"abcd");
        assert!(a.write_slice(4, b"xyz").is_err());
        assert!(a.read_slice(5, 2).is_err());
    }

    #[test]
    fn hexdump_format() {
        let a = WordArray::from_slice(&[0u8; 17]);
        let dump = a.hexdump();
        assert!(dump.starts_with("0000:"));
        assert!(dump.contains("0010:"));
        assert_eq!(dump.lines().count(), 2);
    }
}
