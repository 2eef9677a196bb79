//! Prints `spec/tcp_fsm.txt` as Graphviz DOT — the content of
//! `docs/tcp_fsm.dot`, which a `control::fsm` unit test keeps current.

fn main() {
    print!("{}", foxtcp::control::fsm::to_dot(&foxtcp::control::fsm::SPEC));
}
