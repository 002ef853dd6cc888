//! Fixture: a hot-path file seeded with one panic site of every class
//! r1 must catch (this file is never compiled).

// Decoys: panic! frame[0] x.unwrap() in a comment never fire.
pub const DOC: &str = "frame[0] x.unwrap() panic!(\"no\")";
pub const RAW: &str = r#"unreachable!() assert!(x)"#;

pub fn decode(frame: &[u8]) -> u8 {
    let first = frame[0]; // r1: unchecked indexing
    let v: Option<u8> = None;
    v.unwrap(); // r1: unwrap
    v.expect("boom"); // r1: expect
    if first == 0 {
        panic!("zero"); // r1: panic
    }
    // meshlint::allow(r1): the caller checked the length.
    let second = frame[1];
    let _lit = [1u8, 2, 3]; // array literal: not an index expression
    debug_assert!(second > 0); // compiled out in release: permitted
    unreachable!() // r1: unreachable
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let v: Option<u8> = Some(1);
        v.unwrap();
        let frame = [0u8; 4];
        let _ = frame[0];
        assert!(frame.len() == 4);
    }
}
