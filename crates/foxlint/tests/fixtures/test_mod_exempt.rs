// Fixture: `#[cfg(test)]` regions and `#[test]` fns are exempt from both
// lints — a test sets up whatever connection state it needs to check.
pub fn live() -> u8 {
    7
}

#[cfg(test)]
mod tests {
    use super::Core;

    #[test]
    fn writes_every_owned_field() {
        let mut core = Core::default();
        core.state = 1;
        core.snd_nxt += 2;
        core.cwnd = 3;
        let snd_wnd = 65_536u32;
        core.window = snd_wnd as u16;
    }
}
