//! Chunked word-at-a-time (SWAR) byte scanning.
//!
//! The structural indexer and the pull parser's fallback paths both need
//! "find the next interesting byte" primitives. External SIMD crates are
//! off the table (the workspace vendors every dependency), so these are
//! classic SWAR kernels: load 8 bytes as a `u64`, locate matching bytes
//! with the zero-byte trick (`(w - 0x0101..) & !w & 0x8080..`), and fall
//! back to a scalar tail for the last < 8 bytes. On ordinary text this
//! scans at a large fraction of memory bandwidth while staying
//! `forbid(unsafe)`-clean — alignment never matters because chunks are
//! read with `u64::from_le_bytes` on exact 8-byte slices.
//!
//! All functions take the *whole* haystack plus a starting offset and
//! return **absolute** positions, so call sites keep their cursor
//! arithmetic trivial.

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Broadcasts a byte to all 8 lanes.
#[inline]
fn splat(b: u8) -> u64 {
    u64::from(b) * LO
}

/// A word whose high bit is set in every lane that held `0x00` in `w`.
///
/// The classic trick: subtracting 1 from a zero lane borrows into bit 7,
/// and `!w` masks out lanes that had bit 7 set already. False positives
/// are impossible; every zero lane is flagged (lanes *after* a flagged
/// lane may be wrong, which is why callers take the lowest flagged lane).
#[inline]
fn zero_lanes(w: u64) -> u64 {
    w.wrapping_sub(LO) & !w & HI
}

/// Index of the lowest flagged lane in a `zero_lanes` mask.
#[inline]
fn first_lane(mask: u64) -> usize {
    (mask.trailing_zeros() / 8) as usize
}

/// A word whose high bit is set in every lane of `x` that is **non-zero**.
///
/// Unlike [`zero_lanes`] this is exact per lane: `(x & 0x7F..) + 0x7F..`
/// carries into bit 7 of a lane iff any of its low seven bits are set, and
/// the carry cannot cross lanes (`0x7F + 0x7F = 0xFE`). OR-ing `x` back in
/// covers lanes whose only set bit is bit 7. `zero_lanes`' borrow can flag
/// lanes *after* the first zero — fine for "find the first match", fatal
/// for "does every lane match", which is what [`all_ws`] needs.
#[inline]
fn nonzero_lanes_exact(x: u64) -> u64 {
    (((x & !HI) + !HI) | x) & HI
}

/// Whether every byte of `hay[from..to]` is XML whitespace (space, tab,
/// CR, LF). Empty and out-of-range spans are vacuously all-whitespace.
///
/// This is the tape builder's text-span classification (the `ALL_WS` flag
/// on a text entry).
#[inline]
pub fn all_ws(hay: &[u8], from: usize, to: usize) -> bool {
    let to = to.min(hay.len());
    if from >= to {
        return true;
    }
    let span = &hay[from..to];
    let (sp, tab, lf, cr) = (splat(b' '), splat(b'\t'), splat(b'\n'), splat(b'\r'));
    let mut chunks = span.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(chunk);
        let w = u64::from_le_bytes(bytes);
        // High bit per lane iff the lane matches at least one of the four
        // whitespace bytes; all eight must match.
        let ws = (!nonzero_lanes_exact(w ^ sp)
            | !nonzero_lanes_exact(w ^ tab)
            | !nonzero_lanes_exact(w ^ lf)
            | !nonzero_lanes_exact(w ^ cr))
            & HI;
        if ws != HI {
            return false;
        }
    }
    chunks
        .remainder()
        .iter()
        .all(|&b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
}

/// Whether `text` is whitespace that validation ignores: text between
/// element tags that is not character data, and a simple value read as
/// the empty string. ASCII text qualifies when it holds only XML's four
/// `S` characters (space, tab, CR, LF), decided byte-wise without UTF-8
/// decoding; text with non-ASCII bytes when every character is Unicode
/// whitespace (`char::is_whitespace`). The streaming validator, the tree
/// import and the tree validators all decide through this one function.
#[inline]
pub fn is_ignorable_whitespace(text: &str) -> bool {
    text.bytes()
        .all(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        || (!text.is_ascii() && text.chars().all(char::is_whitespace))
}

/// Position of the first `byte` at or after `from`, or `None`.
#[inline]
pub fn find_byte(hay: &[u8], from: usize, byte: u8) -> Option<usize> {
    let tail = hay.get(from..)?;
    let needle = splat(byte);
    let mut chunks = tail.chunks_exact(8);
    let mut offset = from;
    for chunk in chunks.by_ref() {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let m = zero_lanes(w ^ needle);
        if m != 0 {
            return Some(offset + first_lane(m));
        }
        offset += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == byte)
        .map(|i| offset + i)
}

/// Position of the first occurrence of `b1` **or** `b2` at or after `from`.
#[inline]
pub fn find_byte2(hay: &[u8], from: usize, b1: u8, b2: u8) -> Option<usize> {
    let tail = hay.get(from..)?;
    let (n1, n2) = (splat(b1), splat(b2));
    let mut chunks = tail.chunks_exact(8);
    let mut offset = from;
    for chunk in chunks.by_ref() {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let m = zero_lanes(w ^ n1) | zero_lanes(w ^ n2);
        if m != 0 {
            return Some(offset + first_lane(m));
        }
        offset += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == b1 || b == b2)
        .map(|i| offset + i)
}

/// Position of the first occurrence of `b1`, `b2`, **or** `b3` at or after
/// `from`.
#[inline]
pub fn find_byte3(hay: &[u8], from: usize, b1: u8, b2: u8, b3: u8) -> Option<usize> {
    let tail = hay.get(from..)?;
    let (n1, n2, n3) = (splat(b1), splat(b2), splat(b3));
    let mut chunks = tail.chunks_exact(8);
    let mut offset = from;
    for chunk in chunks.by_ref() {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let m = zero_lanes(w ^ n1) | zero_lanes(w ^ n2) | zero_lanes(w ^ n3);
        if m != 0 {
            return Some(offset + first_lane(m));
        }
        offset += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == b1 || b == b2 || b == b3)
        .map(|i| offset + i)
}

/// Position of the first occurrence of the multi-byte `needle` at or after
/// `from` (SWAR scan for the first byte, then a direct comparison of the
/// rest). Empty needles match at `from`.
#[inline]
pub fn find_seq(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    let Some((&first, rest)) = needle.split_first() else {
        return (from <= hay.len()).then_some(from);
    };
    let mut at = from;
    loop {
        let hit = find_byte(hay, at, first)?;
        let after = hit + 1;
        if hay.len() - after < rest.len() {
            return None;
        }
        if &hay[after..after + rest.len()] == rest {
            return Some(hit);
        }
        at = after;
    }
}

/// Whether `hay[from..to]` contains `byte` (SWAR bounded containment —
/// the tape builder's entity-presence classification). The scan stops at
/// `to`: a miss must cost O(to - from), not O(len - from), or per-span
/// classification turns the builder quadratic.
#[inline]
pub fn contains_byte(hay: &[u8], from: usize, to: usize, byte: u8) -> bool {
    let bounded = &hay[..to.min(hay.len())];
    find_byte(bounded, from, byte).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementations the SWAR kernels must agree with.
    fn naive_find(hay: &[u8], from: usize, pred: impl Fn(u8) -> bool) -> Option<usize> {
        hay.get(from..)?
            .iter()
            .position(|&b| pred(b))
            .map(|i| from + i)
    }

    #[test]
    fn finds_across_chunk_boundaries() {
        let mut hay = vec![b'a'; 37];
        for at in 0..37 {
            hay[at] = b'<';
            assert_eq!(find_byte(&hay, 0, b'<'), Some(at), "position {at}");
            for from in 0..=at {
                assert_eq!(find_byte(&hay, from, b'<'), Some(at));
            }
            assert_eq!(find_byte(&hay, at + 1, b'<'), None);
            hay[at] = b'a';
        }
    }

    #[test]
    fn absent_and_out_of_range() {
        let hay = b"hello world";
        assert_eq!(find_byte(hay, 0, b'z'), None);
        assert_eq!(find_byte(hay, hay.len(), b'h'), None);
        assert_eq!(find_byte(hay, hay.len() + 1, b'h'), None);
        assert_eq!(find_byte2(hay, hay.len() + 1, b'h', b'e'), None);
        assert_eq!(find_byte3(hay, hay.len() + 1, b'h', b'e', b'l'), None);
        assert_eq!(find_seq(hay, hay.len() + 1, b"lo"), None);
    }

    #[test]
    fn high_bit_bytes_do_not_confuse_the_mask() {
        // 0x80/0xFF lanes are the classic SWAR false-positive hazard.
        let hay = [0xFFu8, 0x80, 0x7F, 0x00, b'<', 0xFF, 0x80, 0x00, b'<'];
        assert_eq!(find_byte(&hay, 0, b'<'), Some(4));
        assert_eq!(find_byte(&hay, 5, b'<'), Some(8));
        assert_eq!(find_byte(&hay, 0, 0x00), Some(3));
        assert_eq!(find_byte(&hay, 0, 0xFF), Some(0));
        assert_eq!(find_byte(&hay, 1, 0xFF), Some(5));
        assert_eq!(find_byte(&hay, 0, 0x80), Some(1));
    }

    #[test]
    fn multi_byte_variants_agree_with_naive_scan() {
        // Deterministic pseudo-random haystack exercising all alignments.
        let mut state = 0x9E37_79B9_u32;
        let hay: Vec<u8> = (0..257)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect();
        for from in 0..hay.len() + 2 {
            assert_eq!(
                find_byte(&hay, from, b'<'),
                naive_find(&hay, from, |b| b == b'<')
            );
            assert_eq!(
                find_byte2(&hay, from, b'<', b'&'),
                naive_find(&hay, from, |b| b == b'<' || b == b'&')
            );
            assert_eq!(
                find_byte3(&hay, from, b'>', b'"', b'\''),
                naive_find(&hay, from, |b| matches!(b, b'>' | b'"' | b'\''))
            );
        }
    }

    #[test]
    fn sequences() {
        let hay = b"ab]]-->cd]]>ef]]>";
        assert_eq!(find_seq(hay, 0, b"-->"), Some(4));
        assert_eq!(find_seq(hay, 0, b"]]>"), Some(9));
        assert_eq!(find_seq(hay, 10, b"]]>"), Some(14));
        assert_eq!(find_seq(hay, 15, b"]]>"), None);
        assert_eq!(find_seq(hay, 0, b"absent"), None);
        assert_eq!(find_seq(hay, 3, b""), Some(3));
        // Needle longer than the tail.
        assert_eq!(find_seq(b"xy", 0, b"xyz"), None);
    }

    #[test]
    fn all_ws_agrees_with_naive_scan() {
        fn naive(hay: &[u8], from: usize, to: usize) -> bool {
            hay[from..to.min(hay.len())]
                .iter()
                .all(|&b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        }
        // Whitespace runs with a single interloper at every position and
        // every alignment, including chunk boundaries.
        for len in 0..40 {
            let mut hay = vec![b' '; len];
            for (i, b) in [b'\t', b'\n', b'\r'].iter().enumerate() {
                if i < len {
                    hay[i] = *b;
                }
            }
            for from in 0..=len {
                for to in from..=len + 1 {
                    assert!(all_ws(&hay, from, to), "ws run len={len} {from}..{to}");
                }
            }
            for at in 0..len {
                let saved = hay[at];
                hay[at] = b'x';
                for from in 0..=len {
                    for to in from..=len {
                        assert_eq!(
                            all_ws(&hay, from, to),
                            naive(&hay, from, to),
                            "len={len} interloper@{at} {from}..{to}"
                        );
                    }
                }
                hay[at] = saved;
            }
        }
        // High-bit bytes must not read as whitespace (NBSP et al. are
        // handled by the validator's slow path, never the tape flag).
        let tricky = [0x80u8, 0xFF, 0xA0, 0x00, 0x1F, 0x7F, b' ', b' '];
        for from in 0..tricky.len() {
            assert_eq!(
                all_ws(&tricky, from, tricky.len()),
                tricky[from..]
                    .iter()
                    .all(|&b| matches!(b, b' ' | b'\t' | b'\n' | b'\r')),
            );
        }
    }

    #[test]
    fn contains_is_bounded() {
        let hay = b"0123&567";
        assert!(contains_byte(hay, 0, 8, b'&'));
        assert!(contains_byte(hay, 4, 5, b'&'));
        assert!(!contains_byte(hay, 0, 4, b'&'));
        assert!(!contains_byte(hay, 5, 8, b'&'));
    }
}
