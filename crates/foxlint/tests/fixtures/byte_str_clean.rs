//! No-fire side of the byte-string pair: field writes and window casts
//! inside every byte-string shape must not be misclassified as code.

pub fn shapes() -> usize {
    let plain = b"core.state = 1; core.cwnd = 2";
    let escaped = b"core.snd_nxt += \"1\" \\";
    let raw = br"core.ssthresh = 0 \ no escapes";
    let hashed = br#"snd_wnd as u16 "quoted" inner"#;
    let double = br##"core.cwnd = 1 "# still inside"##;
    let multiline = b"core.state = 1
        core.rcv_nxt = 2";
    let continued = b"window as u16\
        core.cwnd <<= 1";
    let ch = b'"';
    plain.len()
        + escaped.len()
        + raw.len()
        + hashed.len()
        + double.len()
        + multiline.len()
        + continued.len()
        + ch as usize
}
