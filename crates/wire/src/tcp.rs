//! The TCP header (RFC 793 §3.1) — segment externalization and
//! internalization, the job of the paper's Action module.

use crate::bytes::{prefix, range, ByteReader};
use crate::ipv4::{IpProtocol, Ipv4Addr};
use crate::{need, pseudo, WireError};
use foxbasis::buf::PacketBuf;
use foxbasis::seq::Seq;
use std::fmt;
use std::ops::Deref;

/// Length of the option-free TCP header.
pub const HEADER_LEN: usize = 20;
/// The longest header the 4-bit data-offset field can describe.
pub const MAX_HEADER_LEN: usize = 60;

/// The largest window-scale shift RFC 7323 §2.3 permits.
pub const MAX_WSCALE: u8 = 14;

/// Derives the MSS a host should advertise for a link with the given
/// MTU: RFC 879's rule, MTU minus 20 bytes of IP header and 20 bytes of
/// TCP header. Saturating (a pathological simnet MTU below 40 yields
/// the floor rather than wrapping), with a floor of 1 so even such a
/// link makes byte-at-a-time progress — RFC 1122's 536-byte default is
/// for *unknown* paths, and here the MTU is known, so clamping up to
/// 536 would manufacture segments the link cannot carry. Both TCP
/// stacks derive their advertised MSS through this one helper.
pub fn mss_for_mtu(mtu: u32) -> u32 {
    mtu.saturating_sub(40).max(1)
}

/// Wire cost of the timestamps option on a data segment: 10 option
/// bytes rounded up to the 32-bit header boundary. The MSS never
/// accounts for options (RFC 6691 §3), so a sender with timestamps on
/// must subtract this when sizing segments — otherwise every "full"
/// segment overflows the link MTU by exactly these 12 bytes and
/// fragments. Both stacks' segmentation loops subtract it via their
/// `eff_mss` accessors.
pub const TIMESTAMPS_SEGMENT_OVERHEAD: u32 = 12;

/// The 16-bit window field of a TCP header. Its only constructors are
/// [`wire_window`] and the decoder, so every window a stack stores in a
/// header has been narrowed by the one rule that applies the scale and
/// the cap; reading it back widens it losslessly (`u32::from`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct WireWindow(u16);

impl From<WireWindow> for u32 {
    fn from(w: WireWindow) -> u32 {
        u32::from(w.0)
    }
}

/// Encodes a receive window for the 16-bit header field under a
/// window-scale shift (RFC 7323 §2.2): the true window is shifted
/// right, and anything that still exceeds 16 bits is capped. With
/// `shift == 0` this is the classic RFC 793 65 535 cap, and the identity
/// on any value that already fits 16 bits. This is the **only** place a
/// window is narrowed to 16 bits: it is the one public constructor of
/// [`WireWindow`], the type of [`TcpHeader::window`].
pub fn wire_window(wnd: u32, shift: u8) -> WireWindow {
    WireWindow((wnd >> shift).min(0xffff) as u16)
}

/// The smallest window-scale shift under which a receive buffer of
/// `capacity` bytes fits the 16-bit window field, clamped to
/// [`MAX_WSCALE`]. What a host should offer in its SYN's WindowScale
/// option (RFC 7323 §2.3); both stacks derive their offer through this
/// one helper.
pub fn wscale_for(capacity: usize) -> u8 {
    let mut shift = 0u8;
    while shift < MAX_WSCALE && (capacity >> shift) > 0xffff {
        shift += 1;
    }
    shift
}

/// The TCP control flags.
#[derive(Copy, Clone, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Urgent pointer significant.
    pub urg: bool,
    /// Acknowledgment field significant.
    pub ack: bool,
    /// Push function.
    pub psh: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Synchronize sequence numbers.
    pub syn: bool,
    /// No more data from sender.
    pub fin: bool,
}

impl TcpFlags {
    /// A pure ACK.
    pub const ACK: TcpFlags =
        TcpFlags { urg: false, ack: true, psh: false, rst: false, syn: false, fin: false };
    /// A SYN.
    pub const SYN: TcpFlags =
        TcpFlags { urg: false, ack: false, psh: false, rst: false, syn: true, fin: false };
    /// A SYN+ACK.
    pub const SYN_ACK: TcpFlags =
        TcpFlags { urg: false, ack: true, psh: false, rst: false, syn: true, fin: false };
    /// An RST.
    pub const RST: TcpFlags =
        TcpFlags { urg: false, ack: false, psh: false, rst: true, syn: false, fin: false };
    /// An RST+ACK.
    pub const RST_ACK: TcpFlags =
        TcpFlags { urg: false, ack: true, psh: false, rst: true, syn: false, fin: false };
    /// A FIN+ACK.
    pub const FIN_ACK: TcpFlags =
        TcpFlags { urg: false, ack: true, psh: false, rst: false, syn: false, fin: true };

    /// Wire encoding (low 6 bits of byte 13).
    pub fn to_u8(self) -> u8 {
        u8::from(self.fin)
            | u8::from(self.syn) << 1
            | u8::from(self.rst) << 2
            | u8::from(self.psh) << 3
            | u8::from(self.ack) << 4
            | u8::from(self.urg) << 5
    }

    /// From the wire byte.
    pub fn from_u8(v: u8) -> TcpFlags {
        TcpFlags {
            fin: v & 0x01 != 0,
            syn: v & 0x02 != 0,
            rst: v & 0x04 != 0,
            psh: v & 0x08 != 0,
            ack: v & 0x10 != 0,
            urg: v & 0x20 != 0,
        }
    }
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        if self.syn {
            names.push("SYN");
        }
        if self.fin {
            names.push("FIN");
        }
        if self.rst {
            names.push("RST");
        }
        if self.psh {
            names.push("PSH");
        }
        if self.ack {
            names.push("ACK");
        }
        if self.urg {
            names.push("URG");
        }
        if names.is_empty() {
            write!(f, "<none>")
        } else {
            write!(f, "{}", names.join("+"))
        }
    }
}

/// The option space behind the fixed header: what the 4-bit data
/// offset leaves.
pub const MAX_OPTIONS_LEN: usize = MAX_HEADER_LEN - HEADER_LEN;

/// The most SACK blocks one option can carry: 2 + 8 · 4 = 34 of the 40
/// option bytes (RFC 2018 §3).
pub const MAX_SACK_BLOCKS: usize = 4;

/// What a push past [`MAX_OPTIONS_LEN`] is refused with.
const TOO_LONG: WireError = WireError::Malformed("tcp options too long");

/// Up to [`MAX_SACK_BLOCKS`] SACK blocks, each `[left, right)` in
/// sequence space, held inline and read as a slice.
#[derive(Copy, Clone, Default)]
pub struct SackBlocks {
    blocks: [(Seq, Seq); MAX_SACK_BLOCKS],
    len: u8,
}

impl Deref for SackBlocks {
    type Target = [(Seq, Seq)];

    fn deref(&self) -> &[(Seq, Seq)] {
        &self.blocks[..usize::from(self.len)]
    }
}

impl FromIterator<(Seq, Seq)> for SackBlocks {
    /// The first [`MAX_SACK_BLOCKS`] of `blocks`: no more fit one option.
    fn from_iter<I: IntoIterator<Item = (Seq, Seq)>>(blocks: I) -> SackBlocks {
        let mut out = SackBlocks::default();
        for (slot, block) in out.blocks.iter_mut().zip(blocks) {
            *slot = block;
            out.len += 1;
        }
        out
    }
}

impl PartialEq for SackBlocks {
    fn eq(&self, other: &SackBlocks) -> bool {
        **self == **other
    }
}

impl Eq for SackBlocks {}

impl fmt::Debug for SackBlocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// TCP options the stack understands: what a sender pushes onto a
/// header's [`TcpOptions`], and what the accessors read back. Any other
/// option is pushed as raw bytes ([`TcpOptions::push_raw`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TcpOption {
    /// Kind 2: maximum segment size (only legal on SYN segments).
    MaxSegmentSize(u16),
    /// Kind 1: no-operation padding.
    NoOp,
    /// Kind 3: window scale shift count (RFC 7323 §2; only legal on SYN
    /// segments).
    WindowScale(u8),
    /// Kind 4: SACK permitted (RFC 2018 §2; only legal on SYN segments).
    SackPermitted,
    /// Kind 5: SACK blocks (RFC 2018 §3).
    Sack(SackBlocks),
    /// Kind 8: timestamps (RFC 7323 §3): (TSval, TSecr).
    Timestamps(u32, u32),
}

impl TcpOption {
    /// The option a `(kind, body)` pair encodes, when the kind is one
    /// above and the body has the length its RFC gives it.
    #[deny(clippy::indexing_slicing)]
    fn parse(kind: u8, body: &[u8]) -> Option<TcpOption> {
        let mut r = ByteReader::new("tcp option", body);
        let option = match (kind, body.len()) {
            (1, 0) => TcpOption::NoOp,
            (2, 2) => TcpOption::MaxSegmentSize(r.u16_be().ok()?),
            (3, 1) => TcpOption::WindowScale(r.u8().ok()?),
            (4, 0) => TcpOption::SackPermitted,
            (5, n) if n % 8 == 0 && (1..=MAX_SACK_BLOCKS).contains(&(n / 8)) => TcpOption::Sack(
                std::iter::from_fn(|| Some((Seq(r.u32_be().ok()?), Seq(r.u32_be().ok()?)))).collect(),
            ),
            (8, 8) => TcpOption::Timestamps(r.u32_be().ok()?, r.u32_be().ok()?),
            _ => return None,
        };
        Some(option)
    }
}

/// A header's options, held inline in wire form: the option bytes as
/// they go on the wire, End-of-List padding excluded. Encoding is one
/// copy, a decode/encode round trip keeps NOPs, unknown kinds and order
/// byte for byte, and a header costs no heap. The accessors on
/// [`TcpHeader`] parse on read.
#[derive(Copy, Clone)]
pub struct TcpOptions {
    len: u8,
    bytes: [u8; MAX_OPTIONS_LEN],
}

impl TcpOptions {
    /// No options.
    pub const fn new() -> TcpOptions {
        TcpOptions { len: 0, bytes: [0; MAX_OPTIONS_LEN] }
    }

    /// The option bytes, unpadded.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }

    /// Appends `option` in wire form, or refuses — leaving the options
    /// as they were — if it would pass the 40-byte option space.
    pub fn push(&mut self, option: TcpOption) -> Result<(), WireError> {
        let mut wire = [0u8; 2 + 8 * MAX_SACK_BLOCKS];
        let mut n = 0;
        let mut put = |bytes: &[u8]| {
            wire[n..n + bytes.len()].copy_from_slice(bytes);
            n += bytes.len();
        };
        match option {
            TcpOption::MaxSegmentSize(v) => {
                put(&[2, 4]);
                put(&v.to_be_bytes());
            }
            TcpOption::NoOp => put(&[1]),
            TcpOption::WindowScale(s) => put(&[3, 3, s]),
            TcpOption::SackPermitted => put(&[4, 2]),
            TcpOption::Sack(blocks) => {
                put(&[5, (2 + 8 * blocks.len()) as u8]);
                for (left, right) in blocks.iter() {
                    put(&left.raw().to_be_bytes());
                    put(&right.raw().to_be_bytes());
                }
            }
            TcpOption::Timestamps(tsval, tsecr) => {
                put(&[8, 10]);
                put(&tsval.to_be_bytes());
                put(&tsecr.to_be_bytes());
            }
        }
        self.extend(&wire[..n])
    }

    /// Appends an option as its raw `kind`, a length byte of `2 +
    /// body.len()` and `body` — one this crate does not know, or one
    /// made malformed on purpose — or refuses as [`TcpOptions::push`]
    /// does.
    pub fn push_raw(&mut self, kind: u8, body: &[u8]) -> Result<(), WireError> {
        if usize::from(self.len) + 2 + body.len() > MAX_OPTIONS_LEN {
            return Err(TOO_LONG);
        }
        self.extend(&[kind, (2 + body.len()) as u8])?;
        self.extend(body)
    }

    /// Lowers every MSS option above `mss` to `mss`, rewriting its bytes
    /// in place — what an MSS-clamping middlebox does. True if any
    /// changed.
    pub fn clamp_mss(&mut self, mss: u16) -> bool {
        let mut changed = false;
        let mut at = 0;
        while let Some((kind, body, next)) = entry_at(self.as_bytes(), at) {
            if matches!(TcpOption::parse(kind, body), Some(TcpOption::MaxSegmentSize(v)) if v > mss) {
                self.bytes[at + 2..at + 4].copy_from_slice(&mss.to_be_bytes());
                changed = true;
            }
            at = next;
        }
        changed
    }

    /// Appends `bytes`, or refuses — leaving the options as they were —
    /// if they would pass the option space.
    fn extend(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let at = usize::from(self.len);
        let room = self.bytes.get_mut(at..at + bytes.len()).ok_or(TOO_LONG)?;
        room.copy_from_slice(bytes);
        self.len += bytes.len() as u8; // at most MAX_OPTIONS_LEN
        Ok(())
    }

    /// The options as `(kind, body)` pairs in wire order, a NOP as `(1,
    /// [])`.
    fn entries(&self) -> impl Iterator<Item = (u8, &[u8])> {
        let mut at = 0;
        std::iter::from_fn(move || {
            let (kind, body, next) = entry_at(self.as_bytes(), at)?;
            at = next;
            Some((kind, body))
        })
    }

    /// The options the stack understands, parsed; raw and malformed ones
    /// are passed over.
    fn iter(&self) -> impl Iterator<Item = TcpOption> + '_ {
        self.entries().filter_map(|(kind, body)| TcpOption::parse(kind, body))
    }
}

/// The option that starts `at` bytes into `bytes`: its kind, its body and
/// where the next one starts.
fn entry_at(bytes: &[u8], at: usize) -> Option<(u8, &[u8], usize)> {
    let kind = *bytes.get(at)?;
    if kind == 1 {
        return Some((1, &[], at + 1));
    }
    let len = usize::from(*bytes.get(at + 1)?);
    Some((kind, bytes.get(at + 2..at + len)?, at + len))
}

impl Default for TcpOptions {
    fn default() -> TcpOptions {
        TcpOptions::new()
    }
}

impl PartialEq for TcpOptions {
    fn eq(&self, other: &TcpOptions) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for TcpOptions {}

impl fmt::Debug for TcpOptions {
    /// A list of the options: each one the stack understands as its
    /// [`TcpOption`], any other as `Unknown(kind, body)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Entry<'a>(u8, &'a [u8]);
        impl fmt::Debug for Entry<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match TcpOption::parse(self.0, self.1) {
                    Some(option) => option.fmt(f),
                    None => f.debug_tuple("Unknown").field(&self.0).field(&self.1).finish(),
                }
            }
        }
        f.debug_list().entries(self.entries().map(|(kind, body)| Entry(kind, body))).finish()
    }
}

/// A decoded TCP header.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: Seq,
    /// Acknowledgment number (valid iff `flags.ack`).
    pub ack: Seq,
    /// Control flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: WireWindow,
    /// Urgent pointer (valid iff `flags.urg`).
    pub urgent: u16,
    /// Options.
    pub options: TcpOptions,
}

impl TcpHeader {
    /// A header with the given ports and everything else zeroed.
    pub fn new(src_port: u16, dst_port: u16) -> TcpHeader {
        TcpHeader {
            src_port,
            dst_port,
            seq: Seq(0),
            ack: Seq(0),
            flags: TcpFlags::default(),
            window: WireWindow(0),
            urgent: 0,
            options: TcpOptions::new(),
        }
    }

    /// The MSS advertised in the options, if any.
    pub fn mss(&self) -> Option<u16> {
        self.options.iter().find_map(|o| match o {
            TcpOption::MaxSegmentSize(v) => Some(v),
            _ => None,
        })
    }

    /// The window-scale shift offered in the options, if any, clamped
    /// to [`MAX_WSCALE`] as RFC 7323 §2.3 requires of the receiver.
    pub fn wscale(&self) -> Option<u8> {
        self.options.iter().find_map(|o| match o {
            TcpOption::WindowScale(s) => Some(s.min(MAX_WSCALE)),
            _ => None,
        })
    }

    /// Whether the options include SACK-permitted.
    pub fn sack_permitted(&self) -> bool {
        self.options.iter().any(|o| matches!(o, TcpOption::SackPermitted))
    }

    /// The SACK blocks carried in the options (empty if none).
    pub fn sack_blocks(&self) -> SackBlocks {
        self.options
            .iter()
            .find_map(|o| match o {
                TcpOption::Sack(blocks) => Some(blocks),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// The timestamps option as (TSval, TSecr), if present.
    pub fn timestamps(&self) -> Option<(u32, u32)> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Timestamps(tsval, tsecr) => Some((tsval, tsecr)),
            _ => None,
        })
    }

    /// Header length in bytes, including options and padding to a
    /// 32-bit boundary.
    pub fn header_len(&self) -> usize {
        HEADER_LEN + ((self.options.as_bytes().len() + 3) & !3)
    }
}

/// A TCP segment: header plus payload. This is the `Send_Packet.T` /
/// incoming-message currency between TCP and IP. The payload is a
/// [`PacketBuf`] view: the same storage the send buffer was read into
/// (tx) or the wire delivered (rx), never a per-layer copy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TcpSegment {
    /// The header.
    pub header: TcpHeader,
    /// The payload.
    pub payload: PacketBuf,
}

impl TcpSegment {
    /// Bytes of sequence space this segment occupies (payload plus one
    /// for SYN and one for FIN).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + u32::from(self.header.flags.syn) + u32::from(self.header.flags.fin)
    }

    /// Externalizes the segment **in place**: the header (with the
    /// checksum already computed) is prepended into the payload buffer's
    /// headroom, and the same storage continues down the stack — the
    /// segment is consumed, so the buffer it was given is the buffer it
    /// returns and nothing is left holding it. The payload's
    /// ones-complement sum comes from the buffer's memo (set by the
    /// combined copy+checksum pass that filled it), so the payload
    /// bytes are not re-read here.
    ///
    /// `pseudo_sum`, if present, is the folded ones-complement partial
    /// sum of the pseudo-header *including the transport length* — the
    /// value the paper's `IP_AUX.check` supplies — and the checksum is
    /// computed over it plus the segment. With `None` the checksum field
    /// is left zero (the paper's `compute_checksums = false`
    /// configuration for `Special_Tcp`).
    pub fn encode_buf(self, pseudo_sum: Option<u16>) -> Result<PacketBuf, WireError> {
        let mut header = [0u8; MAX_HEADER_LEN];
        let n = self.encode_header(&mut header)?;
        let header = &mut header[..n];
        if let Some(pseudo) = pseudo_sum {
            let mut acc = foxbasis::checksum::ChecksumAccum::new();
            acc.add_word(pseudo).add_bytes(header).add_word(self.payload.ones_sum());
            let csum = acc.finish();
            header[16..18].copy_from_slice(&csum.to_be_bytes());
        }
        let mut buf = self.payload;
        buf.prepend_header(header);
        Ok(buf)
    }

    /// Serializes the header (checksum field zero) into the front of
    /// `out` and returns its length; the option bytes end in
    /// End-of-List padding up to a 32-bit boundary.
    fn encode_header(&self, out: &mut [u8; MAX_HEADER_LEN]) -> Result<usize, WireError> {
        let h = &self.header;
        let len = h.header_len();
        if len + self.payload.len() > 65535 {
            return Err(WireError::Malformed("tcp segment too long"));
        }
        out[0..2].copy_from_slice(&h.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&h.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&h.seq.raw().to_be_bytes());
        out[8..12].copy_from_slice(&h.ack.raw().to_be_bytes());
        out[12] = ((len / 4) as u8) << 4;
        out[13] = h.flags.to_u8();
        out[14..16].copy_from_slice(&h.window.0.to_be_bytes());
        out[16..18].fill(0); // checksum placeholder
        out[18..20].copy_from_slice(&h.urgent.to_be_bytes());
        let (options, padding) = out[HEADER_LEN..len].split_at_mut(h.options.as_bytes().len());
        options.copy_from_slice(h.options.as_bytes());
        padding.fill(0); // End-of-List
        Ok(len)
    }

    /// [`encode_buf`](Self::encode_buf) with the standard IPv4
    /// pseudo-header.
    pub fn encode_v4(self, checksum_over: Option<(Ipv4Addr, Ipv4Addr)>) -> Result<PacketBuf, WireError> {
        let pseudo = checksum_over
            .map(|(src, dst)| pseudo::v4_sum(src, dst, IpProtocol::Tcp, self.header_len_plus_payload()));
        self.encode_buf(pseudo)
    }

    fn header_len_plus_payload(&self) -> usize {
        self.header.header_len() + self.payload.len()
    }

    /// Internalizes a segment from a [`PacketBuf`] view, slicing the
    /// payload out of the same storage (zero-copy). With `pseudo_sum =
    /// Some(..)` (the partial sum over the pseudo-header including
    /// length, e.g. [`pseudo::v4_sum`]) the checksum is verified first —
    /// the only pass over the bytes; with `None` the checksum field is
    /// ignored.
    #[deny(clippy::indexing_slicing)]
    pub fn decode_buf(buf: &PacketBuf, pseudo_sum: Option<u16>) -> Result<TcpSegment, WireError> {
        let (header, data_offset) = TcpSegment::parse_header(&buf.bytes(), pseudo_sum)?;
        Ok(TcpSegment { header, payload: buf.slice(data_offset, buf.len()) })
    }

    /// Parses and validates the header. All byte access is through the
    /// checked [`ByteReader`]/[`range`] helpers: malformed or truncated
    /// input (including adversarial option lengths) is an error, never
    /// a panic.
    #[deny(clippy::indexing_slicing)]
    fn parse_header(buf: &[u8], pseudo_sum: Option<u16>) -> Result<(TcpHeader, usize), WireError> {
        need("tcp header", buf, HEADER_LEN)?;
        if let Some(pseudo) = pseudo_sum {
            let mut acc = foxbasis::checksum::ChecksumAccum::new();
            acc.add_word(pseudo).add_bytes(buf);
            if acc.sum() != 0xffff {
                return Err(WireError::BadChecksum("tcp"));
            }
        }
        let mut r = ByteReader::new("tcp header", buf);
        let src_port = r.u16_be()?;
        let dst_port = r.u16_be()?;
        let seq = Seq(r.u32_be()?);
        let ack = Seq(r.u32_be()?);
        let data_offset = usize::from(r.u8()? >> 4) * 4;
        if data_offset < HEADER_LEN {
            return Err(WireError::Malformed("tcp data offset"));
        }
        need("tcp options", buf, data_offset)?;
        let flags = TcpFlags::from_u8(r.u8()?);
        let window = WireWindow(r.u16_be()?);
        r.skip(2)?; // checksum field, verified above when requested
        let urgent = r.u16_be()?;
        // The option bytes are kept as they came, up to End-of-List,
        // once every option in them has passed the checks below.
        let area = range("tcp options", buf, HEADER_LEN, data_offset)?;
        let mut opts = ByteReader::new("tcp options", area);
        let mut kept = 0;
        while opts.remaining() > 0 {
            match opts.u8()? {
                0 => break, // end of option list
                1 => {}
                kind => {
                    let len =
                        usize::from(opts.u8().map_err(|_| WireError::Malformed("tcp option truncated"))?);
                    if len < 2 {
                        return Err(WireError::Malformed("tcp option length"));
                    }
                    let body = opts.bytes(len - 2).map_err(|_| WireError::Malformed("tcp option length"))?;
                    // RFC 1122 4.2.2.5: unknown options are skipped by
                    // their length and otherwise ignored; a known one must
                    // have its RFC's length (SACK: 1 to 4 blocks of 8
                    // bytes, RFC 2018 §3).
                    let misfit = match kind {
                        2 => Some("tcp MSS option length"),
                        3 => Some("tcp wscale option length"),
                        4 => Some("tcp SACK-permitted length"),
                        5 => Some("tcp SACK option length"),
                        8 => Some("tcp timestamps option length"),
                        _ => None,
                    };
                    if let Some(what) = misfit {
                        if TcpOption::parse(kind, body).is_none() {
                            return Err(WireError::Malformed(what));
                        }
                    }
                }
            }
            kept = opts.pos();
        }
        let mut options = TcpOptions::new();
        options.extend(prefix("tcp options", area, kept)?)?;
        let header = TcpHeader { src_port, dst_port, seq, ack, flags, window, urgent, options };
        Ok((header, data_offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Test shorthand: a copy of `s`'s wire bytes, checksummed over the
    /// pseudo-header from `A` to `B`, leaving `s` intact.
    fn wire_v4(s: &TcpSegment) -> Vec<u8> {
        s.clone().encode_v4(Some((A, B))).unwrap().to_vec()
    }

    /// Test shorthand: `s`'s wire bytes with the checksum left zero.
    fn wire(s: &TcpSegment) -> Vec<u8> {
        s.clone().encode_buf(None).unwrap().to_vec()
    }

    /// Test shorthand: `bytes` decoded, the checksum verified over the
    /// pseudo-header from `A` to `to`.
    fn read_v4(bytes: &[u8], to: Ipv4Addr) -> Result<TcpSegment, WireError> {
        let sum = pseudo::v4_sum(A, to, IpProtocol::Tcp, bytes.len());
        TcpSegment::decode_buf(&PacketBuf::from_vec(bytes.to_vec()), Some(sum))
    }

    /// Test shorthand: `bytes` decoded, the checksum field ignored.
    fn read(bytes: &[u8]) -> Result<TcpSegment, WireError> {
        TcpSegment::decode_buf(&PacketBuf::from_vec(bytes.to_vec()), None)
    }

    /// Test shorthand: `list` pushed in order.
    fn options(list: &[TcpOption]) -> TcpOptions {
        let mut out = TcpOptions::new();
        for o in list {
            out.push(*o).unwrap();
        }
        out
    }

    /// Test shorthand: SACK blocks from raw sequence numbers.
    fn blocks(list: &[(u32, u32)]) -> SackBlocks {
        list.iter().map(|&(l, r)| (Seq(l), Seq(r))).collect()
    }

    fn syn_segment() -> TcpSegment {
        let mut h = TcpHeader::new(4000, 80);
        h.seq = Seq(12345);
        h.flags = TcpFlags::SYN;
        h.window = wire_window(4096, 0);
        h.options = options(&[TcpOption::MaxSegmentSize(1460)]);
        TcpSegment { header: h, payload: PacketBuf::new() }
    }

    #[test]
    fn roundtrip_with_checksum() {
        let s = syn_segment();
        let bytes = wire_v4(&s);
        let t = read_v4(&bytes, B).unwrap();
        assert_eq!(t, s);
        assert_eq!(t.header.mss(), Some(1460));
    }

    #[test]
    fn roundtrip_without_checksum() {
        let mut s = syn_segment();
        s.payload = b"data".to_vec().into();
        let bytes = wire(&s);
        assert_eq!(&bytes[16..18], &[0, 0]); // checksum left zero
        let t = read(&bytes).unwrap();
        assert_eq!(t, s);
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let mut s = syn_segment();
        s.payload = b"important".to_vec().into();
        let mut bytes = wire_v4(&s);
        *bytes.last_mut().unwrap() ^= 0xff;
        assert_eq!(read_v4(&bytes, B), Err(WireError::BadChecksum("tcp")));
    }

    #[test]
    fn checksum_covers_pseudo_header() {
        // The same bytes validated against the wrong addresses must fail:
        // that's the point of the pseudo-header.
        let s = syn_segment();
        let bytes = wire_v4(&s);
        let wrong = Ipv4Addr::new(10, 0, 0, 3);
        assert!(read_v4(&bytes, wrong).is_err());
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut s = syn_segment();
        assert_eq!(s.seq_len(), 1); // SYN
        s.header.flags = TcpFlags::FIN_ACK;
        s.payload = vec![0; 10].into();
        assert_eq!(s.seq_len(), 11); // data + FIN
        s.header.flags = TcpFlags::ACK;
        assert_eq!(s.seq_len(), 10);
    }

    #[test]
    fn flags_wire_mapping() {
        for v in 0..64u8 {
            assert_eq!(TcpFlags::from_u8(v).to_u8(), v);
        }
        assert_eq!(format!("{:?}", TcpFlags::SYN_ACK), "SYN+ACK");
        assert_eq!(format!("{:?}", TcpFlags::default()), "<none>");
    }

    #[test]
    fn bad_data_offset_rejected() {
        let s = syn_segment();
        let mut bytes = wire(&s);
        bytes[12] = 0x30; // data offset 12 bytes < 20
        assert!(matches!(read(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn malformed_options_rejected() {
        let s = syn_segment();
        let mut bytes = wire(&s);
        // Option kind 2 with a bogus length of 0.
        bytes[20] = 2;
        bytes[21] = 0;
        assert!(matches!(read(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn unknown_options_roundtrip() {
        let mut s = syn_segment();
        s.header.options = options(&[TcpOption::NoOp]);
        s.header.options.push_raw(254, &[0xde, 0xad]).unwrap();
        s.header.options.push(TcpOption::MaxSegmentSize(536)).unwrap();
        let bytes = wire(&s);
        assert_eq!(&bytes[20..28], &[1, 254, 4, 0xde, 0xad, 2, 4, 2], "wire order, unpadded");
        let t = read(&bytes).unwrap();
        assert_eq!(t.header.options, s.header.options);
        assert_eq!(t.header.mss(), Some(536));
        assert_eq!(
            format!("{:?}", t.header.options),
            "[NoOp, Unknown(254, [222, 173]), MaxSegmentSize(536)]"
        );
    }

    #[test]
    fn a_push_past_the_option_space_is_refused() {
        let too_long = Err(WireError::Malformed("tcp options too long"));
        // Timestamps (10) and four SACK blocks (34) are 44 bytes.
        let mut o = options(&[TcpOption::Timestamps(1, 2)]);
        let four = blocks(&[(1, 2), (3, 4), (5, 6), (7, 8)]);
        assert_eq!(o.push(TcpOption::Sack(four)), too_long);
        assert_eq!(o, options(&[TcpOption::Timestamps(1, 2)]), "a refused push changes nothing");
        // Three blocks (26) fit beside them: 36 bytes.
        o.push(TcpOption::Sack(blocks(&[(1, 2), (3, 4), (5, 6)]))).unwrap();
        assert_eq!(o.as_bytes().len(), 36);
        assert_eq!(o.push_raw(99, &[0; 3]), too_long, "36 + 5");
        o.push_raw(99, &[0; 2]).unwrap();
        assert_eq!(o.push(TcpOption::NoOp), too_long, "exactly 40 is full");
        let mut s = syn_segment();
        s.header.options = o;
        assert_eq!(s.header.header_len(), MAX_HEADER_LEN);
        assert_eq!(read(&wire(&s)).unwrap().header.options, o);
    }

    #[test]
    fn mss_clamp_rewrites_only_larger_mss_options() {
        let mut o = options(&[TcpOption::NoOp, TcpOption::MaxSegmentSize(1460), TcpOption::SackPermitted]);
        o.push_raw(2, &[0xff]).unwrap(); // a malformed MSS is not an MSS
        let before = o;
        assert!(!o.clamp_mss(1460));
        assert_eq!(o, before);
        assert!(o.clamp_mss(536));
        let mut want = options(&[TcpOption::NoOp, TcpOption::MaxSegmentSize(536), TcpOption::SackPermitted]);
        want.push_raw(2, &[0xff]).unwrap();
        assert_eq!(o, want);
    }

    #[test]
    fn rfc7323_and_sack_options_roundtrip() {
        let mut s = syn_segment();
        s.header.options = options(&[
            TcpOption::MaxSegmentSize(1460),
            TcpOption::WindowScale(7),
            TcpOption::SackPermitted,
            TcpOption::Timestamps(0xdead_beef, 0x0bad_cafe),
        ]);
        let bytes = wire_v4(&s);
        let t = read_v4(&bytes, B).unwrap();
        assert_eq!(t.header.options, s.header.options);
        assert_eq!(t.header.wscale(), Some(7));
        assert!(t.header.sack_permitted());
        assert_eq!(t.header.timestamps(), Some((0xdead_beef, 0x0bad_cafe)));
        assert!(t.header.sack_blocks().is_empty());
    }

    #[test]
    fn sack_blocks_roundtrip() {
        let mut s = syn_segment();
        s.header.flags = TcpFlags::ACK;
        s.header.options =
            options(&[TcpOption::Sack(blocks(&[(100, 200), (400, 450)])), TcpOption::Timestamps(1, 2)]);
        let bytes = wire_v4(&s);
        let t = read_v4(&bytes, B).unwrap();
        assert_eq!(*t.header.sack_blocks(), [(Seq(100), Seq(200)), (Seq(400), Seq(450))]);
        assert_eq!(
            format!("{:?}", t.header.options),
            "[Sack([(Seq(100), Seq(200)), (Seq(400), Seq(450))]), Timestamps(1, 2)]",
            "the list form a Vec<TcpOption> printed"
        );
    }

    #[test]
    fn wscale_accessor_clamps_to_rfc_limit() {
        let mut s = syn_segment();
        s.header.options = options(&[TcpOption::WindowScale(30)]);
        let bytes = wire(&s);
        let t = read(&bytes).unwrap();
        // Decoded verbatim, but the accessor applies RFC 7323 §2.3.
        assert_eq!(t.header.options, options(&[TcpOption::WindowScale(30)]));
        assert_eq!(t.header.wscale(), Some(MAX_WSCALE));
    }

    #[test]
    fn bad_new_option_lengths_rejected() {
        for (kind, bad_len) in [(3u8, 4u8), (4, 3), (5, 9), (5, 12), (8, 8)] {
            let s = syn_segment();
            let mut bytes = wire(&s);
            bytes[20] = kind;
            bytes[21] = bad_len;
            assert!(
                matches!(read(&bytes), Err(WireError::Malformed(_))),
                "kind {kind} len {bad_len} must be malformed"
            );
        }
    }

    #[test]
    fn decoding_stops_at_end_of_list() {
        let mut bytes = wire(&syn_segment());
        bytes[12] = 0x80; // 12 option bytes: MSS, End-of-List, then junk
        bytes.splice(24..24, [0, 99, 1, 1, 1, 1, 1, 1]);
        let t = read(&bytes).unwrap();
        assert_eq!(t.header.options, options(&[TcpOption::MaxSegmentSize(1460)]));
        assert_eq!(t.header.header_len(), 24);
    }

    #[test]
    fn mss_for_mtu_is_mtu_minus_both_headers() {
        assert_eq!(mss_for_mtu(1500), 1460, "the classic Ethernet MSS");
        assert_eq!(mss_for_mtu(576), 536, "the RFC 879 default path");
        assert_eq!(mss_for_mtu(40), 1, "floor: degenerate MTUs still move a byte");
        assert_eq!(mss_for_mtu(0), 1, "saturating, never wraps");
    }

    #[test]
    fn wire_window_scales_and_caps() {
        let wire = |wnd, shift| u32::from(wire_window(wnd, shift));
        assert_eq!(wire(4096, 0), 4096);
        assert_eq!(wire(100_000, 0), 0xffff, "classic 64 KB cap without wscale");
        assert_eq!(wire(100_000, 2), 25_000);
        assert_eq!(wire(1 << 30, 14), 0xffff, "still capped after shifting");
        assert_eq!(wire(u32::MAX, MAX_WSCALE), 0xffff);
        assert!((0..=0xffff).all(|w| wire(w, 0) == w), "the identity on every 16-bit value");
    }

    #[test]
    fn wscale_for_covers_buffer() {
        assert_eq!(wscale_for(4096), 0);
        assert_eq!(wscale_for(65535), 0);
        assert_eq!(wscale_for(65536), 1);
        // (1 << 20) >> 4 = 65536 still exceeds the 16-bit field.
        assert_eq!(wscale_for(1 << 20), 5);
        assert_eq!(wscale_for(usize::MAX), 14, "clamped to RFC 7323's max");
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(
            src_port: u16, dst_port: u16, seq: u32, ack: u32,
            flags in 0u8..64, window: u16, urgent: u16,
            syn_side: bool,
            syn_opts in (proptest::option::of(536u16..9000), proptest::option::of(0u8..=14), any::<bool>()),
            ack_opts in (
                proptest::option::of((any::<u32>(), any::<u32>())),
                proptest::collection::vec((any::<u32>(), any::<u32>()), 0..=MAX_SACK_BLOCKS),
            ),
            payload in proptest::collection::vec(any::<u8>(), 0..1400),
        ) {
            let mut h = TcpHeader::new(src_port, dst_port);
            h.seq = Seq(seq);
            h.ack = Seq(ack);
            h.flags = TcpFlags::from_u8(flags);
            h.window = wire_window(u32::from(window), 0);
            h.urgent = urgent;
            let (mss, wscale, sack_permitted) = syn_opts;
            // A SYN's options, or a later segment's: timestamps beside
            // 0-3 SACK blocks, or 0-4 blocks alone — all that fit.
            let (ts, mut sack) = ack_opts;
            if ts.is_some() { sack.truncate(MAX_SACK_BLOCKS - 1); }
            let mut list = Vec::new();
            if syn_side {
                if let Some(m) = mss { list.push(TcpOption::MaxSegmentSize(m)); }
                if let Some(s) = wscale { list.push(TcpOption::WindowScale(s)); }
                if sack_permitted { list.push(TcpOption::SackPermitted); }
            }
            if let Some((v, e)) = ts { list.push(TcpOption::Timestamps(v, e)); }
            if !syn_side && !sack.is_empty() { list.push(TcpOption::Sack(blocks(&sack))); }
            h.options = options(&list);
            let s = TcpSegment { header: h, payload: payload.into() };
            let bytes = wire_v4(&s);
            let t = read_v4(&bytes, B).unwrap();
            let want_blocks = if syn_side { SackBlocks::default() } else { blocks(&sack) };
            prop_assert_eq!(t.header.sack_blocks(), want_blocks);
            prop_assert_eq!(t.header.timestamps(), ts);
            prop_assert_eq!(t, s);
        }

        /// Any option bytes the decoder accepts — NOPs, every kind it
        /// knows, unknown kinds with 0-6 byte bodies, in any order —
        /// survive decode, encode, decode byte for byte.
        #[test]
        fn accepted_option_bytes_roundtrip_exactly(
            picks in proptest::collection::vec((0u8..7, any::<u32>(), any::<u32>(), 0usize..7), 0..16),
        ) {
            let mut area = Vec::new();
            for (sel, a, b, n) in picks {
                let pair = [a.to_be_bytes(), b.to_be_bytes()].concat();
                let option = match sel {
                    0 => vec![1],
                    1 => vec![2, 4, a as u8, b as u8],
                    2 => vec![3, 3, a as u8],
                    3 => vec![4, 2],
                    4 => {
                        let k = 1 + n % MAX_SACK_BLOCKS;
                        [vec![5, (2 + 8 * k) as u8], pair.repeat(k)].concat()
                    }
                    5 => [vec![8, 10], pair].concat(),
                    _ => [vec![[6u8, 7, 9, 19, 28, 30, 34, 254][a as usize % 8], (2 + n) as u8], pair[..n].to_vec()]
                        .concat(),
                };
                if area.len() + option.len() <= MAX_OPTIONS_LEN {
                    area.extend(option);
                }
            }
            let padded = (area.len() + 3) & !3;
            let mut bytes = wire(&TcpSegment { header: TcpHeader::new(1, 2), payload: PacketBuf::new() });
            bytes[12] = (((HEADER_LEN + padded) / 4) as u8) << 4;
            bytes.extend(&area);
            bytes.resize(HEADER_LEN + padded, 0);
            let first = read(&bytes).unwrap();
            prop_assert_eq!(first.header.options.as_bytes(), &area[..]);
            let again = wire(&first);
            prop_assert_eq!(&again, &bytes);
            prop_assert_eq!(read(&again).unwrap(), first);
        }

        #[test]
        fn corruption_detected_with_checksum(
            payload in proptest::collection::vec(any::<u8>(), 1..300),
            at in 0usize..320,
            flip in 1u8..=255,
        ) {
            let mut s = syn_segment();
            s.payload = payload.into();
            let mut bytes = wire_v4(&s);
            let at = at % bytes.len();
            bytes[at] ^= flip;
            match read_v4(&bytes, B) {
                Err(_) => {}
                Ok(t) => prop_assert_eq!(t, s, "corruption silently accepted"),
            }
        }
    }
}
