//! `field_owner` fire fixture: one file that writes a field of each
//! ownership rule — the lifecycle state, sequence space, and both
//! congestion windows. Which writes fire depends on where the file is
//! pretended to live.

pub struct Core {
    pub state: u8,
    pub snd_nxt: u32,
    pub cwnd: u32,
    pub ssthresh: u32,
}

pub fn mixed(core: &mut Core) {
    core.state = 1; //~ field_owner (outside foxtcp's control/fsm.rs)
    core.snd_nxt += 2; //~ field_owner (outside the data-path modules)
    core.cwnd = 3; //~ field_owner (outside congestion.rs)
    core.ssthresh <<= 1; //~ field_owner (outside congestion.rs)
}
