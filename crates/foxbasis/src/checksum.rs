//! The Internet checksum (RFC 1071), including a direct Rust rendering of
//! the paper's Fig. 10 `word_check` loop.
//!
//! The paper's checksum is "optimized using the techniques described by
//! Braden, Borman, and Partridge" (RFC 1071): it loads 32 bits at a time,
//! adds the two 16-bit halves into a 32-bit accumulator, and **defers
//! carry propagation** — up to 16 bits of overflow accumulate in the top
//! half of the 4-byte sum, and the result is re-normalized once at the
//! end. Code outside the loop ensures no more than 2^16 16-bit quantities
//! are summed between normalizations. At 343 µs/KB it beat the x-kernel's
//! byte-oriented routine (375 µs/KB) despite SML's bounds checks.
//!
//! This module provides:
//! * [`ones_complement_sum`] — the production kernel every protocol
//!   checksum goes through: native-endian wide loads into a 64-bit
//!   accumulator, one fold and one byte swap at the end (RFC 1071 §2(B));
//! * [`word_check`] — the Fig. 10 algorithm, rendered line for line (a
//!   §5 exhibit and a test reference; no protocol code calls it);
//! * [`byte_check`] — the "slower algorithm" the x-kernel used, summing
//!   16 bits at a time with immediate carry folding (the baseline for the
//!   §5 checksum comparison; likewise an exhibit only);
//! * [`ChecksumAccum`] — a streaming accumulator so pseudo-header, header
//!   and payload can be summed without concatenation;
//! * [`incremental_update`] — RFC 1624 incremental checksum adjustment;
//! * [`crc32`] — the IEEE 802.3 CRC-32 an Ethernet frame check sequence
//!   is, slice-by-16 over `const`-built tables (a sealed
//!   [`crate::buf::PacketBuf`] runs it only when its trailer is read).
//!
//! All the ones-complement functions compute the same mathematical value
//! (verified by property tests): the 16-bit ones-complement sum of the
//! data taken as big-endian 16-bit words, with a trailing odd byte padded
//! with zero.

/// Number of 32-bit iterations the Fig. 10 loop may run before the
/// deferred carries in the top half of the accumulator could overflow.
///
/// Each iteration adds at most `2 * 0xffff < 2^17`; a `u32` therefore
/// safely absorbs `2^32 / 2^17 = 2^15` iterations between
/// normalizations. The paper states the outer code ensures "no more than
/// 2^16 2-byte quantities are summed", i.e. 2^15 words — the same bound.
const NORMALIZE_EVERY: usize = 1 << 15;

/// Folds the deferred carries of a 32-bit ones-complement accumulator
/// down to 16 bits ("the result is re-normalized at the end of the
/// loop").
#[inline]
fn fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// The ones-complement sum of `data` (not inverted), using the paper's
/// Fig. 10 algorithm: 32-bit loads, deferred carries, one normalization
/// per `NORMALIZE_EVERY` words.
///
/// Odd-length data is treated as if padded with a trailing zero byte, as
/// RFC 1071 specifies ("code outside the loop ... checks odd bytes").
pub fn word_check(data: &[u8]) -> u16 {
    let mut accumulator: u32 = 0;
    let mut n = 0;
    // The paper's caller guarantees n mod 4 = 0 and limit mod 4 = 0; here
    // `limit` is the largest 4-byte-aligned prefix and the tail is
    // handled by the "check odd bytes, renormalize" epilogue.
    let limit = data.len() & !3;
    let mut since_normalize = 0;
    while n < limit {
        // val byte4 = Byte4.sub (b, n)
        let byte4 = u32::from_be_bytes([data[n], data[n + 1], data[n + 2], data[n + 3]]);
        // val low  = Byte4.& (byte4, 4uxffff)
        let low = byte4 & 0xffff;
        // val high = Byte4.>> (byte4, 16)
        let high = byte4 >> 16;
        // val res1 = Byte4.+ (high, low); val sum = Byte4.+ (res1, partial)
        accumulator = accumulator.wrapping_add(high + low);
        n += 4;
        since_normalize += 1;
        if since_normalize == NORMALIZE_EVERY {
            accumulator = u32::from(fold(accumulator));
            since_normalize = 0;
        }
    }
    // Epilogue: 2-byte and odd-byte tails.
    if data.len() - n >= 2 {
        accumulator = accumulator.wrapping_add(u32::from(u16::from_be_bytes([data[n], data[n + 1]])));
        n += 2;
    }
    if n < data.len() {
        accumulator = accumulator.wrapping_add(u32::from(data[n]) << 8);
    }
    fold(accumulator)
}

/// The ones-complement sum of `data` using the x-kernel's "slower
/// algorithm": one 16-bit word per step with immediate carry folding.
pub fn byte_check(data: &[u8]) -> u16 {
    let mut sum: u16 = 0;
    let mut chunks = data.chunks_exact(2);
    for pair in &mut chunks {
        let word = u16::from_be_bytes([pair[0], pair[1]]);
        let (s, carry) = sum.overflowing_add(word);
        sum = s + u16::from(carry);
    }
    if let [odd] = chunks.remainder() {
        let (s, carry) = sum.overflowing_add(u16::from(*odd) << 8);
        sum = s + u16::from(carry);
    }
    sum
}

/// The ones-complement sum of `data` (not inverted): the production
/// kernel behind every checksum the stack computes.
///
/// RFC 1071 §2(B): the sum is byte-order independent, so the loop adds
/// native-endian 32-bit loads into a 64-bit accumulator — no per-word
/// byte swap, no carry handling (the top half absorbs 2^32 loads, 16 GiB,
/// before it could overflow) — and the result is folded to 16 bits and
/// byte-swapped once at the end. A tail shorter than a word is
/// zero-padded, which is exactly RFC 1071's odd-byte rule.
pub fn ones_complement_sum(data: &[u8]) -> u16 {
    let mut words = data.chunks_exact(4);
    let mut acc: u64 = 0;
    for w in &mut words {
        acc += u64::from(u32::from_ne_bytes([w[0], w[1], w[2], w[3]]));
    }
    let tail = words.remainder();
    let mut last = [0u8; 4];
    last[..tail.len()].copy_from_slice(tail);
    acc += u64::from(u32::from_ne_bytes(last));
    acc = (acc & 0xffff_ffff) + (acc >> 32);
    acc = (acc & 0xffff_ffff) + (acc >> 32);
    // The 16-bit lanes were summed in memory order; `from_be` puts the
    // network-order value in the native register.
    u16::from_be(fold(acc as u32))
}

/// The Internet checksum of `data`: the ones-complement of the
/// ones-complement sum. This is the value stored in a header checksum
/// field.
///
/// ```
/// use foxbasis::checksum::{checksum, ones_complement_sum};
/// let mut packet = vec![0x45, 0x00, 0x00, 0x1c];
/// let c = checksum(&packet);
/// packet.extend_from_slice(&c.to_be_bytes());
/// // A packet with its checksum in place sums to negative zero:
/// assert_eq!(ones_complement_sum(&packet), 0xffff);
/// ```
pub fn checksum(data: &[u8]) -> u16 {
    !ones_complement_sum(data)
}

/// Adds two folded ones-complement partial sums.
pub fn add_sums(a: u16, b: u16) -> u16 {
    fold(u32::from(a) + u32::from(b))
}

/// RFC 1624 incremental update: given the old checksum *field* value and
/// a 16-bit field change `old_word -> new_word`, returns the new checksum
/// field value without re-summing the packet.
pub fn incremental_update(old_check: u16, old_word: u16, new_word: u16) -> u16 {
    // HC' = ~(C + (-m) + m') computed in ones-complement arithmetic:
    // HC' = ~(~HC + ~m + m')
    !fold(u32::from(!old_check) + u32::from(!old_word) + u32::from(new_word))
}

/// A streaming ones-complement summer.
///
/// TCP and UDP checksums cover a pseudo-header, the transport header, and
/// the payload; `ChecksumAccum` lets the Action module sum them in place
/// (the paper copies data only once — summing must not force another
/// copy). Handles odd-length chunks at any position by tracking byte
/// parity.
#[derive(Debug, Clone, Default)]
pub struct ChecksumAccum {
    sum: u32,
    /// True if an odd number of bytes has been absorbed so far, i.e. the
    /// next byte is the low half of a 16-bit word.
    half: bool,
}

impl ChecksumAccum {
    /// An empty accumulator.
    pub fn new() -> Self {
        ChecksumAccum::default()
    }

    /// Absorbs `data`.
    pub fn add_bytes(&mut self, data: &[u8]) -> &mut Self {
        let sum = ones_complement_sum(data);
        // A chunk that starts at an odd offset has every byte in the
        // opposite half of its 16-bit word: swap its sum's halves.
        let sum = if self.half { sum.swap_bytes() } else { sum };
        self.sum = u32::from(fold(self.sum + u32::from(sum)));
        self.half ^= data.len() % 2 == 1;
        self
    }

    /// Absorbs a 16-bit word (e.g. a pseudo-header length field).
    ///
    /// # Panics
    /// Panics if called at an odd byte offset — pseudo-header fields are
    /// always word-aligned, so this indicates a protocol bug.
    pub fn add_word(&mut self, word: u16) -> &mut Self {
        assert!(!self.half, "add_word at odd byte offset");
        self.sum += u32::from(word);
        self
    }

    /// The folded, non-inverted ones-complement sum so far.
    pub fn sum(&self) -> u16 {
        fold(self.sum)
    }

    /// The checksum field value (inverted sum).
    pub fn finish(&self) -> u16 {
        !self.sum()
    }
}

/// The reflected IEEE 802.3 generator polynomial.
const CRC32_POLY: u32 = 0xedb8_8320;

/// Slice-by-16 lookup tables: `CRC32_TABLES[k][b]` is the CRC state
/// after byte `b` followed by `k` zero bytes, so sixteen input bytes fold
/// into the state with sixteen independent lookups instead of 128
/// shifts.
static CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ CRC32_POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xffff_ffff;
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        // The running state only touches the first four bytes; the other
        // twelve lookups do not wait for it.
        let head = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[15][(head & 0xff) as usize]
            ^ t[14][(head >> 8 & 0xff) as usize]
            ^ t[13][(head >> 16 & 0xff) as usize]
            ^ t[12][(head >> 24) as usize];
        for (k, &b) in c.iter().enumerate().skip(4) {
            crc ^= t[15 - k][usize::from(b)];
        }
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference implementation straight from RFC 1071's definition.
    fn reference_sum(data: &[u8]) -> u16 {
        let mut sum: u64 = 0;
        let mut i = 0;
        while i + 1 < data.len() {
            sum += u64::from(u16::from_be_bytes([data[i], data[i + 1]]));
            i += 2;
        }
        if i < data.len() {
            sum += u64::from(data[i]) << 8;
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        sum as u16
    }

    /// The CRC-32 definition, one bit at a time: the oracle the table
    /// kernel is held to.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xffff_ffff;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ CRC32_POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_definition_at_every_length_and_alignment() {
        // Lengths through four 16-byte strides plus every tail length,
        // at every offset into one allocation.
        let backing: Vec<u8> = (0..83u32).map(|i| (i * 151 + 3) as u8).collect();
        for align in 0..16 {
            for len in 0..=67 {
                let data = &backing[align..align + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "align {align} len {len}");
            }
        }
    }

    #[test]
    fn rfc1071_worked_example() {
        // The classic example: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2
        // before inversion.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(word_check(&data), 0xddf2);
        assert_eq!(byte_check(&data), 0xddf2);
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(word_check(&[]), 0);
        assert_eq!(word_check(&[0xff]), 0xff00);
        assert_eq!(word_check(&[0x12, 0x34]), 0x1234);
        assert_eq!(word_check(&[0x12, 0x34, 0x56]), 0x1234 + 0x5600);
    }

    #[test]
    fn verifying_a_checksummed_packet_yields_ffff() {
        // Inserting the checksum into the data makes the total sum 0xffff
        // (ones-complement negative zero) — how receivers validate.
        let mut packet = vec![0x45, 0x00, 0x00, 0x1c, 0xab, 0xcd, 0x00, 0x00, 0x40, 0x11];
        let c = checksum(&packet);
        packet.extend_from_slice(&c.to_be_bytes());
        assert_eq!(word_check(&packet), 0xffff);
    }

    #[test]
    fn deferred_carry_normalization_on_large_input() {
        // All-0xff data maximizes carries; exceed NORMALIZE_EVERY words
        // to exercise the mid-loop renormalization.
        let data = vec![0xffu8; (NORMALIZE_EVERY + 100) * 4];
        assert_eq!(word_check(&data), reference_sum(&data));
    }

    #[test]
    fn every_kernel_matches_the_reference_at_every_length_and_alignment() {
        // Carry-heavy bytes; offsets 0..8 into one allocation reach every
        // alignment a 64-bit load can see.
        let backing: Vec<u8> = (0..138u32).map(|i| if i % 3 == 0 { 0xff } else { (i * 167) as u8 }).collect();
        for align in 0..8 {
            for len in 0..=130 {
                let data = &backing[align..align + len];
                let want = reference_sum(data);
                assert_eq!(ones_complement_sum(data), want, "production kernel, align {align} len {len}");
                assert_eq!(word_check(data), want, "word_check, align {align} len {len}");
                assert_eq!(byte_check(data), want, "byte_check, align {align} len {len}");
                // Split everywhere: odd cuts leave the second chunk at an
                // odd offset.
                for cut in 0..=len {
                    let mut acc = ChecksumAccum::new();
                    acc.add_bytes(&data[..cut]).add_bytes(&data[cut..]);
                    assert_eq!(acc.sum(), want, "accumulator, align {align} len {len} cut {cut}");
                }
            }
        }
    }

    #[test]
    fn deferred_carries_survive_the_largest_segment() {
        // 64 KB of 0xff: the most carries an IP datagram can produce.
        let data = vec![0xffu8; 65536];
        let want = reference_sum(&data);
        assert_eq!(want, 0xffff);
        assert_eq!(ones_complement_sum(&data), want);
        assert_eq!(word_check(&data), want);
        assert_eq!(byte_check(&data), want);
        let mut acc = ChecksumAccum::new();
        for chunk in data.chunks(7) {
            acc.add_bytes(chunk);
        }
        assert_eq!(acc.sum(), want);
    }

    #[test]
    fn incremental_update_matches_recompute() {
        let mut packet = vec![0x45, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06];
        let old_check = checksum(&packet);
        let old_word = u16::from_be_bytes([packet[2], packet[3]]);
        let new_word: u16 = 0xbeef;
        packet[2..4].copy_from_slice(&new_word.to_be_bytes());
        assert_eq!(incremental_update(old_check, old_word, new_word), checksum(&packet));
    }

    #[test]
    fn accumulator_matches_whole_buffer() {
        let data: Vec<u8> = (0..255u8).collect();
        let mut acc = ChecksumAccum::new();
        acc.add_bytes(&data[..10]).add_bytes(&data[10..11]).add_bytes(&data[11..100]).add_bytes(&data[100..]);
        assert_eq!(acc.sum(), word_check(&data));
        assert_eq!(acc.finish(), checksum(&data));
    }

    #[test]
    fn accumulator_words() {
        let mut acc = ChecksumAccum::new();
        acc.add_word(0x0102).add_word(0x0304);
        assert_eq!(acc.sum(), word_check(&[1, 2, 3, 4]));
    }

    #[test]
    #[should_panic(expected = "odd byte offset")]
    fn accumulator_word_at_odd_offset_panics() {
        let mut acc = ChecksumAccum::new();
        acc.add_bytes(&[1]).add_word(0x0102);
    }

    #[test]
    fn add_sums_combines_partials() {
        let a = [1u8, 2, 3, 4];
        let b = [5u8, 6, 7, 8];
        let whole: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(add_sums(word_check(&a), word_check(&b)), word_check(&whole));
    }

    proptest! {
        #[test]
        fn crc32_matches_the_bitwise_definition_on_full_frames(
            frame in proptest::collection::vec(any::<u8>(), 1514),
        ) {
            prop_assert_eq!(crc32(&frame), crc32_bitwise(&frame));
        }

        #[test]
        fn algorithms_agree(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let r = reference_sum(&data);
            prop_assert_eq!(ones_complement_sum(&data), r);
            prop_assert_eq!(word_check(&data), r);
            prop_assert_eq!(byte_check(&data), r);
        }

        #[test]
        fn accumulator_agrees_under_arbitrary_splits(
            data in proptest::collection::vec(any::<u8>(), 0..1024),
            splits in proptest::collection::vec(0usize..1024, 0..8),
        ) {
            let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
            cuts.push(0);
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut acc = ChecksumAccum::new();
            for w in cuts.windows(2) {
                acc.add_bytes(&data[w[0]..w[1]]);
            }
            prop_assert_eq!(acc.sum(), reference_sum(&data));
        }

        #[test]
        fn checksummed_data_validates(data in proptest::collection::vec(any::<u8>(), 2..512)) {
            // Append the checksum (even-aligned) and confirm validation.
            let mut data = data;
            if data.len() % 2 == 1 { data.push(0); }
            let c = checksum(&data);
            data.extend_from_slice(&c.to_be_bytes());
            prop_assert_eq!(word_check(&data), 0xffff);
        }

        #[test]
        fn incremental_update_is_correct(
            data in proptest::collection::vec(any::<u8>(), 4..256),
            at in 0usize..126,
            new_word: u16,
        ) {
            let mut data = data;
            if data.len() % 2 == 1 { data.push(0); }
            let at = (at * 2) % data.len();
            let old_check = checksum(&data);
            let old_word = u16::from_be_bytes([data[at], data[at+1]]);
            data[at..at+2].copy_from_slice(&new_word.to_be_bytes());
            prop_assert_eq!(incremental_update(old_check, old_word, new_word), checksum(&data));
        }
    }
}
