//! `field_owner` no-fire fixture: reading and comparing the fenced
//! fields is fine anywhere — only assignment is contained.
//! Struct-literal construction uses `:`, not `=`, and is likewise not a
//! write through the API boundary.

pub struct Core {
    pub state: u8,
    pub snd_nxt: u32,
    pub cwnd: u32,
    pub ssthresh: u32,
}

pub fn observe(core: &Core) -> bool {
    core.state == 1 && core.snd_nxt > 2 && core.cwnd >= core.ssthresh
}

pub fn snapshot(core: &Core) -> Core {
    Core { state: core.state, snd_nxt: core.snd_nxt.min(core.cwnd), cwnd: 0, ssthresh: 0 }
}
