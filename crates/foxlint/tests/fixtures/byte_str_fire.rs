//! Fire side of the byte-string lexer pair: the byte strings below use
//! `\`-newline continuations, which the lexer must count as real lines.
//! The field write after them must be reported at its true line — if
//! the lexer drops continuation newlines, the line drifts and the
//! paired test fails.

pub fn banner() -> (&'static [u8], &'static [u8]) {
    let a = b"first\
        second\
        third";
    let b = b"lone\
        tail";
    (a, b)
}

pub fn grow(core: &mut Core) {
    // line 18: the fixture test pins this exact line number.
    core.cwnd = core.cwnd * 2;
}
