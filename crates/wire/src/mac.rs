//! Per-link keyed message authentication.
//!
//! The paper's model gives every node an authenticated channel to every
//! other node; on a real wire that is a per-link symmetric MAC, the
//! `WrapperMsg`/`verf_mac` discipline: the receiver verifies the tag
//! over the raw frame bytes **before** parsing anything, so Byzantine
//! spam costs one MAC evaluation and nothing else — no decode, no
//! interner work, no engine dispatch.
//!
//! The MAC is SipHash-2-4 (Aumasson and Bernstein, 2012) in the
//! reference implementation's 128-bit-output mode: a published keyed
//! PRF with a 128-bit key, implemented here because this build has no
//! registry access. The same primitive tags frames, derives directed
//! link keys from the cluster master key, and derives seeded master
//! keys.

use ssbyz_types::NodeId;

/// MAC key length in bytes (a SipHash key is 128 bits).
pub const KEY_LEN: usize = 16;

/// MAC tag length in bytes (SipHash-2-4's 128-bit output).
pub const TAG_LEN: usize = 16;

/// A per-link symmetric MAC key.
#[derive(Clone)]
pub struct MacKey([u8; KEY_LEN]);

impl MacKey {
    /// Wraps raw key bytes.
    #[must_use]
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        MacKey(bytes)
    }

    /// Derives the directed link key `k(from → to)` from a cluster
    /// master secret, as a PRF output under the master key. Each
    /// ordered pair gets an independent key, so a frame recorded on one
    /// link can never verify on another.
    #[must_use]
    pub fn derive_link(master: &[u8; KEY_LEN], from: NodeId, to: NodeId) -> Self {
        let parts: [&[u8]; 3] = [
            b"ssbyz-link-v1",
            &from.as_u32().to_le_bytes(),
            &to.as_u32().to_le_bytes(),
        ];
        MacKey(mac(&MacKey(*master), &parts))
    }
}

impl core::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.write_str("MacKey(..)")
    }
}

/// Computes the tag over the concatenation of `parts`.
#[must_use]
pub fn mac(key: &MacKey, parts: &[&[u8]]) -> [u8; TAG_LEN] {
    let mut sip = Sip::new(&key.0);
    // The 128-bit output mode's constants: 0xee here and in the first
    // squeeze, 0xdd in the second.
    sip.v[1] ^= 0xee;
    for p in parts {
        sip.update(p);
    }
    sip.pad();
    let lo = u128::from(sip.squeeze(2, 0xee));
    (lo | u128::from(sip.squeeze(1, 0xdd)) << 64).to_le_bytes()
}

/// Verifies `tag` over the concatenation of `parts`. The comparison
/// does not short-circuit on the first mismatching byte.
#[must_use]
pub fn verify(key: &MacKey, parts: &[&[u8]], tag: &[u8]) -> bool {
    if tag.len() != TAG_LEN {
        return false;
    }
    let expect = mac(key, parts);
    let mut diff = 0u8;
    for (a, b) in expect.iter().zip(tag) {
        diff |= a ^ b;
    }
    diff == 0
}

/// Streaming SipHash-2-4 state: compression and padding are shared by
/// the 64- and 128-bit modes, which differ only in the constants the
/// caller folds in at init and at each [`Sip::squeeze`].
struct Sip {
    v: [u64; 4],
    /// Pending bytes of the current 8-byte block, little-endian.
    tail: u64,
    ntail: usize,
    len: u64,
}

impl Sip {
    fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut k = [0u8; 8];
        k.copy_from_slice(&key[..8]);
        let k0 = u64::from_le_bytes(k);
        k.copy_from_slice(&key[8..]);
        let k1 = u64::from_le_bytes(k);
        Sip {
            v: [
                k0 ^ 0x736f_6d65_7073_6575,
                k1 ^ 0x646f_7261_6e64_6f6d,
                k0 ^ 0x6c79_6765_6e65_7261,
                k1 ^ 0x7465_6462_7974_6573,
            ],
            tail: 0,
            ntail: 0,
            len: 0,
        }
    }

    fn round(&mut self) {
        let v = &mut self.v;
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13) ^ v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16) ^ v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21) ^ v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17) ^ v[2];
        v[2] = v[2].rotate_left(32);
    }

    /// Absorbs one 8-byte block with c = 2 rounds.
    fn compress(&mut self, m: u64) {
        self.v[3] ^= m;
        self.round();
        self.round();
        self.v[0] ^= m;
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.ntail > 0 {
            let take = (8 - self.ntail).min(bytes.len());
            for (i, &b) in bytes[..take].iter().enumerate() {
                self.tail |= u64::from(b) << (8 * (self.ntail + i));
            }
            self.ntail += take;
            bytes = &bytes[take..];
            if self.ntail < 8 {
                return;
            }
            self.compress(self.tail);
            (self.tail, self.ntail) = (0, 0);
        }
        let mut blocks = bytes.chunks_exact(8);
        let mut m = [0u8; 8];
        for block in &mut blocks {
            m.copy_from_slice(block);
            self.compress(u64::from_le_bytes(m));
        }
        for (i, &b) in blocks.remainder().iter().enumerate() {
            self.tail |= u64::from(b) << (8 * i);
        }
        self.ntail = blocks.remainder().len();
    }

    /// Absorbs the final block: the pending bytes under the total
    /// length's low byte.
    fn pad(&mut self) {
        self.compress(self.tail | self.len << 56);
    }

    /// Folds `constant` into lane `lane`, runs d = 4 rounds and returns
    /// the next 64 output bits.
    fn squeeze(&mut self, lane: usize, constant: u64) -> u64 {
        self.v[lane] ^= constant;
        for _ in 0..4 {
            self.round();
        }
        self.v[0] ^ self.v[1] ^ self.v[2] ^ self.v[3]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u8) -> MacKey {
        MacKey::from_bytes([seed; KEY_LEN])
    }

    /// The reference test key `00 01 … 0f`.
    fn ref_key() -> [u8; KEY_LEN] {
        core::array::from_fn(|i| i as u8)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn tags_match_the_reference_128_bit_vectors() {
        // `vectors_sip128` of the SipHash reference implementation:
        // key 00..0f, message 00..(len−1).
        let key = MacKey::from_bytes(ref_key());
        for (len, want) in [
            (0, "a3817f04ba25a8e66df67214c7550293"),
            (1, "da87c1d86b99af44347659119b22fc45"),
            (15, "5493e99933b0a8117e08ec0f97cfc3d9"),
        ] {
            let msg: Vec<u8> = (0..len).collect();
            assert_eq!(hex(&mac(&key, &[&msg])), want, "len {len}");
        }
    }

    #[test]
    fn compression_and_padding_match_std_siphash_2_4() {
        // The 64-bit mode shares every step but the output constants,
        // so std's SipHash-2-4 checks the block and padding logic.
        #[allow(deprecated)]
        fn std_sip(key: &[u8; KEY_LEN], msg: &[u8]) -> u64 {
            use std::hash::Hasher;
            let mut k = [0u8; 8];
            k.copy_from_slice(&key[..8]);
            let k0 = u64::from_le_bytes(k);
            k.copy_from_slice(&key[8..]);
            let mut h = std::hash::SipHasher::new_with_keys(k0, u64::from_le_bytes(k));
            h.write(msg);
            h.finish()
        }
        let key = ref_key();
        let msg: Vec<u8> = (0..=200u8).collect();
        for len in 0..=200 {
            let mut sip = Sip::new(&key);
            sip.update(&msg[..len]);
            sip.pad();
            assert_eq!(
                sip.squeeze(2, 0xff),
                std_sip(&key, &msg[..len]),
                "len {len}"
            );
        }
        // The paper's test vector (Appendix A).
        assert_eq!(std_sip(&key, &msg[..15]), 0xa129_ca61_49be_45e5);
    }

    #[test]
    fn streaming_over_any_split_equals_the_concatenation() {
        let key = MacKey::from_bytes(ref_key());
        let msg: Vec<u8> = (100..141).collect();
        for len in 0..=40 {
            let m = &msg[..len];
            let whole = mac(&key, &[m]);
            for i in 0..=len {
                for j in i..=len {
                    assert_eq!(mac(&key, &[&m[..i], &m[i..j], &m[j..]]), whole);
                }
            }
        }
    }

    #[test]
    fn mac_is_deterministic_and_key_separated() {
        let t1 = mac(&key(1), &[b"hello", b" world"]);
        let t2 = mac(&key(1), &[b"hello world"]);
        assert_eq!(t1, t2);
        assert_ne!(mac(&key(2), &[b"hello world"]), t1);
        // Prefixes and extensions differ.
        assert_ne!(mac(&key(1), &[b"hello worl"]), t1);
        assert_ne!(mac(&key(1), &[b"hello world\0"]), t1);
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = mac(&key(7), &[b"payload"]);
        assert!(verify(&key(7), &[b"payload"], &tag));
        assert!(!verify(&key(7), &[b"payloae"], &tag));
        assert!(!verify(&key(8), &[b"payload"], &tag));
        let mut flipped = tag;
        flipped[0] ^= 1;
        assert!(!verify(&key(7), &[b"payload"], &flipped));
        assert!(!verify(&key(7), &[b"payload"], &tag[..8]));
    }

    #[test]
    fn link_keys_are_directional() {
        let master = [9u8; KEY_LEN];
        let ab = MacKey::derive_link(&master, NodeId::new(0), NodeId::new(1));
        let ba = MacKey::derive_link(&master, NodeId::new(1), NodeId::new(0));
        assert_ne!(ab.0, ba.0);
        let tag = mac(&ab, &[b"x"]);
        assert!(!verify(&ba, &[b"x"], &tag));
    }
}
