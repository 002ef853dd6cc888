//! Stale escapes: `e1` positives and the doc-comment decoy.
//! Plain text to meshlint — never compiled.

/// Documentation may quote directives — `// meshlint::allow(d1): quoted`
/// — without creating a live escape.
pub struct LinkState {
    pub rows: u32,
}

pub fn rebuild(rows: u32) -> LinkState {
    // meshlint::allow(p1): the lock this guarded was dropped in the rewrite
    let state = LinkState { rows };
    // meshlint::allow(r1): the indexing below was replaced by get()
    let rows = state.rows;
    LinkState { rows }
}
