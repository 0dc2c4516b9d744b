//! A stable 64-bit digest of the outputs a run checks: the serve
//! decision sequence and the solver rates. It folds in a 64-bit word at
//! a time (xor, multiply, xor-shift), which keeps the digest of a serve
//! outcome cheap beside the serve call itself. Fixed constants, so a
//! digest printed on one host and toolchain compares on any other.

use muerp_core::channel::Channel;
use muerp_core::tree::EntanglementTree;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const MULTIPLIER: u64 = 0xbf58_476d_1ce4_e5b9;

/// Running digest state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(OFFSET)
    }
}

impl Digest {
    /// Folds raw bytes in: eight at a time (little-endian, the last
    /// word zero-padded), then the length.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
        self.u64(bytes.len() as u64);
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) {
        let h = (self.0 ^ v).wrapping_mul(MULTIPLIER);
        self.0 = h ^ (h >> 31);
    }

    /// Folds a float in bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a channel in: its node path and rate bits.
    pub fn channel(&mut self, c: &Channel) {
        self.u64(c.path.nodes.len() as u64);
        for n in &c.path.nodes {
            self.u64(n.index() as u64);
        }
        self.f64(c.rate.value());
    }

    /// Folds an entanglement tree in, channel by channel.
    pub fn tree(&mut self, tree: &EntanglementTree) {
        self.u64(tree.channels.len() as u64);
        for c in &tree.channels {
            self.channel(c);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Combines per-unit digests (instances or trials, in order) into one.
pub fn combine(parts: &[u64]) -> u64 {
    let mut d = Digest::default();
    for &p in parts {
        d.u64(p);
    }
    d.value()
}
