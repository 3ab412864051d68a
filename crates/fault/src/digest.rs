//! The integrity digest shared by every sealed byte stream in the stack:
//! `s4tf-dist` wire frames and worker environment blobs, and
//! `s4tf-nn` checkpoint files.
//!
//! [`digest64`] consumes the input eight bytes per step over four
//! independent lanes (a lane step is one multiply, one add, one rotate
//! and a second multiply), so it runs at memory speed instead of one
//! dependent multiply per byte. The lanes are folded into one `u64` at
//! the end.
//!
//! **Single-word changes are always detected.** Each lane step
//! `(lane, word) ↦ rotl(lane + word·P2, 31)·P1` is a bijection of the lane
//! for a fixed word *and* a bijection of the word for a fixed lane (`P1`,
//! `P2` are odd, so multiplying by them is invertible mod 2⁶⁴). Every word
//! goes through exactly one step, the fold is a bijection of each lane
//! with the others fixed, and the finalizer is a bijection. So two inputs
//! of equal length that differ only inside one aligned 8-byte word — every
//! single-byte flip, in particular — never share a digest. Other changes
//! are caught with the usual 2⁻⁶⁴-ish odds of a 64-bit hash; it is not a
//! cryptographic MAC.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

/// Lane seeds: distinct, so equal words in different lanes do not cancel
/// in the fold.
const SEEDS: [u64; 4] = [
    0x6A09_E667_F3BC_C908,
    0xBB67_AE85_84CA_A73B,
    0x3C6E_F372_FE94_F82B,
    0xA54F_F53A_5F1D_36F1,
];

/// One lane step: bijective in `lane` for a fixed `word` and in `word` for
/// a fixed `lane`.
#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// The 64-bit integrity digest of `bytes` (see the module docs for what it
/// guarantees). Little-endian words, so the value is the same on every
/// host.
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut lanes = SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        lanes[0] = step(lanes[0], word(&block[0..8]));
        lanes[1] = step(lanes[1], word(&block[8..16]));
        lanes[2] = step(lanes[2], word(&block[16..24]));
        lanes[3] = step(lanes[3], word(&block[24..32]));
    }
    // At most three whole words remain; they go to lanes 0..3 in order,
    // and the zero-padded partial word (if any) to lane 3, which none of
    // them reached.
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, w) in lanes.iter_mut().zip(&mut words) {
        *lane = step(*lane, word(w));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut pad = [0u8; 8];
        pad[..tail.len()].copy_from_slice(tail);
        lanes[3] = step(lanes[3], u64::from_le_bytes(pad));
    }
    // Fold: each lane enters once, through a bijection of the running
    // value, so the fold is injective in every lane.
    let mut h = (bytes.len() as u64).wrapping_mul(P3);
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(P1).rotate_left(27);
    }
    // Finalizer (xor-shift/multiply, each step invertible).
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random bytes (no RNG dependency).
    fn bytes(n: usize, seed: u64) -> Vec<u8> {
        (0..n as u64)
            .map(|i| (crate::mix64(seed ^ i.wrapping_mul(P1)) >> 24) as u8)
            .collect()
    }

    const MASKS: [u8; 5] = [0x01, 0x80, 0xa5, 0xff, 0x5a];

    #[test]
    fn every_byte_flip_of_a_frame_sized_buffer_changes_the_digest() {
        let buf = bytes(128, 1);
        let base = digest64(&buf);
        for at in 0..buf.len() {
            for mask in MASKS {
                let mut flipped = buf.clone();
                flipped[at] ^= mask;
                assert_ne!(digest64(&flipped), base, "flip {mask:#04x} at byte {at}");
            }
        }
    }

    #[test]
    fn sampled_byte_flips_of_a_64k_buffer_change_the_digest() {
        let mut buf = bytes(64 << 10, 2);
        let base = digest64(&buf);
        for i in 0..256u64 {
            let at = (crate::mix64(i) % buf.len() as u64) as usize;
            let mask = MASKS[i as usize % MASKS.len()];
            buf[at] ^= mask;
            assert_ne!(digest64(&buf), base, "flip {mask:#04x} at byte {at}");
            buf[at] ^= mask;
        }
        assert_eq!(
            digest64(&buf),
            base,
            "undoing every flip restores the digest"
        );
    }

    #[test]
    fn every_length_through_the_word_remainder_is_covered() {
        // 0–17 bytes: the empty input, a partial word, one whole word plus
        // a partial one, two whole words plus a partial one. Each length
        // digests differently, and every byte of each still counts.
        let src = bytes(17, 3);
        let mut seen = std::collections::HashSet::new();
        for len in 0..=17 {
            let buf = &src[..len];
            let base = digest64(buf);
            assert!(
                seen.insert(base),
                "length {len} collides with a shorter prefix"
            );
            for at in 0..len {
                for mask in MASKS {
                    let mut flipped = buf.to_vec();
                    flipped[at] ^= mask;
                    assert_ne!(digest64(&flipped), base, "len {len}: flip at {at}");
                }
            }
        }
        // Zero padding does not make a trailing zero byte free.
        assert_ne!(digest64(&[1, 2, 3]), digest64(&[1, 2, 3, 0]));
        assert_ne!(digest64(&[]), digest64(&[0]));
    }

    #[test]
    fn words_in_different_positions_do_not_commute() {
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        a[0] = 1; // word 0 (lane 0)
        b[8] = 1; // word 1 (lane 1)
        assert_ne!(digest64(&a), digest64(&b));
        a[0] = 0;
        a[32] = 1; // word 4 (lane 0 again, second block)
        b[8] = 0;
        b[0] = 1;
        assert_ne!(digest64(&a), digest64(&b));
    }

    #[test]
    fn digest_is_pinned() {
        // The value is part of the on-disk checkpoint format and the wire
        // protocol: a change here must bump both.
        let counting: Vec<u8> = (0..100).collect();
        assert_eq!(
            [digest64(b""), digest64(b"s4tf"), digest64(&counting)],
            [
                0x1794_DA90_ED72_F021,
                0xC29B_1EF0_28D4_1830,
                0x6B6B_6086_DF87_81DC
            ]
        );
    }
}
