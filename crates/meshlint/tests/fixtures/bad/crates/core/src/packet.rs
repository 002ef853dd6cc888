//! Fixture: malformed directives must fail the run, not silently
//! stop suppressing.

pub fn first(frame: &[u8]) -> u8 {
    // meshlint::allow(r1)
    frame[0]
}

// meshlint::allow(bogus): the rule name does not exist
pub fn nothing() {}

// meshlint::allow(e1): stale escapes cannot be excused away
pub fn also_nothing() {}
