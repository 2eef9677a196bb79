//! Seeded payload bytes and the rolling checksum that proves they
//! arrived: everything the benchmark sends comes out of a [`Pool`]
//! derived from `--seed`, and every byte an application sends or
//! receives runs through a [`Rolling`] sum, so "delivered byte-exactly"
//! is one comparison of (length, checksum) per direction per rep.

/// SplitMix64: the benchmark's only source of randomness, so inputs are
/// a pure function of `--seed` whatever the vendored `rand` does.
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n` > 0; the modulo bias at these
    /// sizes is far below anything the benchmark could resolve).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// The longest run [`Pool::slice`] hands out at once.
pub const MAX_CHUNK: usize = 64 * 1024;

/// A cyclic stream of seeded bytes, addressable by stream position
/// without copying. The period is odd and not a multiple of the MSS, so
/// segment boundaries drift through it instead of repeating.
pub struct Pool {
    bytes: Vec<u8>,
}

const PERIOD: usize = 1_000_003;

impl Pool {
    /// The byte stream for `seed`.
    pub fn new(seed: u64) -> Pool {
        let mut rng = SplitMix(seed ^ 0x7061_796c_6f61_6421);
        let mut bytes = Vec::with_capacity(PERIOD + MAX_CHUNK + 8);
        while bytes.len() < PERIOD {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        bytes.truncate(PERIOD);
        // A copy of the head after the tail lets a slice run across the
        // wrap without being assembled.
        bytes.extend_from_within(..MAX_CHUNK);
        Pool { bytes }
    }

    /// Up to `len` (at most [`MAX_CHUNK`]) bytes of the stream starting
    /// at stream position `pos`.
    pub fn slice(&self, pos: u64, len: usize) -> &[u8] {
        let off = (pos % PERIOD as u64) as usize;
        &self.bytes[off..off + len.min(MAX_CHUNK)]
    }

    /// One period of the stream (for microbenchmarks that want bytes).
    pub fn period(&self) -> &[u8] {
        &self.bytes[..PERIOD]
    }
}

/// An order-sensitive streaming checksum over 64-bit words (Fletcher's
/// construction: a running sum and a sum of sums). The result depends
/// only on the byte stream, not on how it was cut into `update` calls,
/// which is the point: TCP re-segments.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Rolling {
    a: u64,
    b: u64,
    word: u64,
    fill: u32,
    len: u64,
}

impl Rolling {
    fn push_word(&mut self, w: u64) {
        self.a = self.a.wrapping_add(w);
        self.b = self.b.wrapping_add(self.a);
    }

    /// Feeds the next bytes of the stream.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        while self.fill != 0 && !data.is_empty() {
            self.word |= u64::from(data[0]) << (8 * self.fill);
            self.fill += 1;
            data = &data[1..];
            if self.fill == 8 {
                let w = self.word;
                self.push_word(w);
                self.word = 0;
                self.fill = 0;
            }
        }
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            self.push_word(u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")));
        }
        for &byte in words.remainder() {
            self.word |= u64::from(byte) << (8 * self.fill);
            self.fill += 1;
        }
    }

    /// Bytes fed so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// (length, checksum) of the stream so far.
    pub fn digest(&self) -> (u64, u64, u64) {
        let mut done = *self;
        if done.fill != 0 {
            let w = done.word;
            done.push_word(w);
        }
        (done.len, done.a, done.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_ignores_chunking_but_not_order() {
        let pool = Pool::new(9);
        let data = pool.slice(0, 5000);
        let mut whole = Rolling::default();
        whole.update(data);
        let mut rng = SplitMix(1);
        let mut cut = Rolling::default();
        let mut at = 0;
        while at < data.len() {
            let n = (1 + rng.below(23)).min(data.len() - at);
            cut.update(&data[at..at + n]);
            at += n;
        }
        assert_eq!(whole.digest(), cut.digest());
        let mut swapped = data.to_vec();
        swapped.swap(100, 1900);
        let mut other = Rolling::default();
        other.update(&swapped);
        assert_ne!(whole.digest(), other.digest());
        let mut short = Rolling::default();
        short.update(&data[..4999]);
        assert_ne!(whole.digest(), short.digest());
    }

    #[test]
    fn pool_is_a_function_of_the_seed_and_wraps_seamlessly() {
        let a = Pool::new(5);
        assert_eq!(a.slice(0, 64), Pool::new(5).slice(0, 64));
        assert_ne!(a.slice(0, 64), Pool::new(6).slice(0, 64));
        let across = a.slice(PERIOD as u64 - 10, 30).to_vec();
        assert_eq!(&across[..10], a.slice(PERIOD as u64 - 10, 10));
        assert_eq!(&across[10..], a.slice(PERIOD as u64, 20));
        assert_eq!(a.slice(PERIOD as u64, 20), a.slice(0, 20));
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let p = SplitMix(3).permutation(100);
        assert_eq!(p, SplitMix(3).permutation(100));
        assert_ne!(p, SplitMix(4).permutation(100));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
