//! Compact bit-packed state encoding.
//!
//! The explorer's visited set used to intern a full cloned [`SystemState`]
//! per reachable state — on toy-ring(12) that is ~60 heap bytes per state
//! (two `Vec` headers plus the per-process and per-edge payloads) for
//! information worth 24 *bits*. [`StateCodec`] lets an algorithm declare a
//! fixed-width binary encoding for its local and edge values; [`Codec`]
//! then packs a whole system state into a small `[u64]` window inside a
//! flat arena, and the explorer stores *only those words*, decoding on
//! fingerprint-collision compare and violation-trace reconstruction.
//!
//! # Injectivity contract
//!
//! For the packed arena to be a sound deduplication key, encoding must be
//! injective on the *reachable-and-corruptible* value domain:
//!
//! * `decode_local(topo, p, encode_local(topo, p, v)) == v` for every value
//!   `v` that [`Algorithm::init_local`], [`Algorithm::corrupt_local`] or
//!   any [`Algorithm::execute`] write can produce (and likewise for edges);
//! * `encode_local` must not emit a word wider than
//!   [`StateCodec::local_bits`] — widths are fixed per topology, and
//!   [`set_bits`] debug-asserts the value fits, so a truncated field would
//!   alias two distinct states and is caught in debug runs.
//!
//! Two distinct states then pack to distinct words, so equality of packed
//! windows is equality of states — no false dedup merges. The differential
//! suites sweep `decode(encode(s)) == s` over every algorithm × topology
//! family in the repo, including corruption-lattice states.
//!
//! # Symmetry hooks
//!
//! [`StateCodec`] also carries the per-value permutation actions used by
//! [`crate::symmetry`]: a topology automorphism π acts on a state by moving
//! process p's local to position π(p) *and* rewriting any process
//! identifiers stored inside values (e.g. the diners `ancestor` endpoint on
//! an edge). Algorithms whose guards depend on absolute process ids (the
//! toy diners break ties by `q < p`) are *not* equivariant and must leave
//! [`StateCodec::respects_symmetry`] at its `false` default; symmetry
//! reduction then degrades to the identity group.

use crate::algorithm::{Algorithm, Phase, SystemState};
use crate::graph::{EdgeId, ProcessId, Topology};
use crate::symmetry::Perm;

/// An [`Algorithm`] with a fixed-width binary encoding of its state values.
///
/// See the [module docs](self) for the injectivity contract and the role of
/// the symmetry hooks.
pub trait StateCodec: Algorithm {
    /// Width in bits of one encoded local value on `topo`. Must be ≤ 64.
    fn local_bits(&self, topo: &Topology) -> u32;

    /// Width in bits of one encoded edge value on `topo`. Must be ≤ 64.
    /// Zero is allowed (unit edge labels occupy no space).
    fn edge_bits(&self, topo: &Topology) -> u32;

    /// Encode `p`'s local value into the low [`Self::local_bits`] bits.
    fn encode_local(&self, topo: &Topology, p: ProcessId, local: &Self::Local) -> u64;

    /// Invert [`Self::encode_local`].
    fn decode_local(&self, topo: &Topology, p: ProcessId, bits: u64) -> Self::Local;

    /// Encode edge `e`'s shared value into the low [`Self::edge_bits`] bits.
    fn encode_edge(&self, topo: &Topology, e: EdgeId, value: &Self::Edge) -> u64;

    /// Invert [`Self::encode_edge`].
    fn decode_edge(&self, topo: &Topology, e: EdgeId, bits: u64) -> Self::Edge;

    /// Whether the algorithm is *equivariant* under topology automorphisms:
    /// permuting a state by any automorphism π (via the `permute_*` hooks)
    /// and running the algorithm commutes. Required for sound symmetry
    /// reduction; defaults to `false` so id-asymmetric algorithms cannot be
    /// silently mis-reduced.
    fn respects_symmetry(&self) -> bool {
        false
    }

    /// How an automorphism rewrites process ids *inside* a local value.
    /// `p` is the value's original position. Default: values carry no ids.
    fn permute_local(
        &self,
        _topo: &Topology,
        _perm: &Perm,
        _p: ProcessId,
        local: &Self::Local,
    ) -> Self::Local {
        local.clone()
    }

    /// How an automorphism rewrites process ids *inside* an edge value.
    /// `e` is the value's original edge. Default: values carry no ids.
    fn permute_edge(
        &self,
        _topo: &Topology,
        _perm: &Perm,
        _e: EdgeId,
        value: &Self::Edge,
    ) -> Self::Edge {
        value.clone()
    }
}

/// Bit mask with the low `width` bits set (`width ≤ 64`).
#[inline]
pub fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Read `width` bits at bit offset `offset` from a word slice. Fields may
/// straddle a word boundary; `width == 0` reads as 0.
#[inline]
pub fn get_bits(words: &[u64], offset: u64, width: u32) -> u64 {
    if width == 0 {
        return 0;
    }
    debug_assert!(width <= 64);
    let word = (offset / 64) as usize;
    let bit = (offset % 64) as u32;
    let lo = words[word] >> bit;
    let in_word = 64 - bit;
    let v = if width > in_word {
        // `width > in_word` forces `in_word < 64`, so the shift is defined.
        lo | (words[word + 1] << in_word)
    } else {
        lo
    };
    v & mask(width)
}

/// Write `width` bits of `value` at bit offset `offset`, preserving all
/// surrounding bits. Debug-asserts `value` fits in `width` (a wider value
/// would silently alias distinct states).
#[inline]
pub fn set_bits(words: &mut [u64], offset: u64, width: u32, value: u64) {
    if width == 0 {
        return;
    }
    debug_assert!(width <= 64);
    debug_assert!(
        width == 64 || value <= mask(width),
        "value {value:#x} exceeds field width {width}"
    );
    let word = (offset / 64) as usize;
    let bit = (offset % 64) as u32;
    let m = mask(width);
    words[word] = (words[word] & !(m << bit)) | ((value & m) << bit);
    let in_word = 64 - bit;
    if width > in_word {
        // As above: `in_word < 64` here, so `value >> in_word` is defined.
        let hi = width - in_word;
        let hm = mask(hi);
        words[word + 1] = (words[word + 1] & !hm) | ((value >> in_word) & hm);
    }
}

/// Encode a [`Phase`] in 2 bits (3 values; `0b11` is never produced).
#[inline]
pub fn phase_to_bits(p: Phase) -> u64 {
    match p {
        Phase::Thinking => 0,
        Phase::Hungry => 1,
        Phase::Eating => 2,
    }
}

/// Invert [`phase_to_bits`].
///
/// # Panics
///
/// Panics on `0b11`, which [`phase_to_bits`] never emits — reaching it
/// means the packed arena was corrupted.
#[inline]
pub fn phase_from_bits(bits: u64) -> Phase {
    match bits {
        0 => Phase::Thinking,
        1 => Phase::Hungry,
        2 => Phase::Eating,
        _ => panic!("invalid phase encoding {bits}"),
    }
}

/// The fixed bit layout of a packed state on one topology:
/// `[local p0 .. local p(n-1)][edge e0 .. edge e(m-1)]`, each field at the
/// width the codec declared, fields freely straddling `u64` boundaries.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    local_bits: u32,
    edge_bits: u32,
    n: usize,
    m: usize,
    words: usize,
}

impl Layout {
    /// Compute the layout for `alg` on `topo`.
    ///
    /// # Panics
    ///
    /// Panics if the codec declares a field wider than 64 bits.
    pub fn new<A: StateCodec>(alg: &A, topo: &Topology) -> Self {
        let local_bits = alg.local_bits(topo);
        let edge_bits = alg.edge_bits(topo);
        assert!(local_bits <= 64, "local field wider than 64 bits");
        assert!(edge_bits <= 64, "edge field wider than 64 bits");
        let n = topo.len();
        let m = topo.edge_count();
        let total = n as u64 * local_bits as u64 + m as u64 * edge_bits as u64;
        // At least one word so every state has a non-empty key.
        let words = (total.div_ceil(64) as usize).max(1);
        Layout {
            local_bits,
            edge_bits,
            n,
            m,
            words,
        }
    }

    /// Words per packed state (the arena stride). Always ≥ 1.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Total payload bits per state.
    #[inline]
    pub fn bits(&self) -> u64 {
        self.n as u64 * self.local_bits as u64 + self.m as u64 * self.edge_bits as u64
    }

    /// Bit offset of process `p`'s local field.
    #[inline]
    pub fn local_offset(&self, p: ProcessId) -> u64 {
        debug_assert!(p.index() < self.n);
        p.index() as u64 * self.local_bits as u64
    }

    /// Bit offset of edge `e`'s field.
    #[inline]
    pub fn edge_offset(&self, e: EdgeId) -> u64 {
        debug_assert!(e.index() < self.m);
        self.n as u64 * self.local_bits as u64 + e.index() as u64 * self.edge_bits as u64
    }

    /// Width of one local field.
    #[inline]
    pub fn local_bits(&self) -> u32 {
        self.local_bits
    }

    /// Width of one edge field.
    #[inline]
    pub fn edge_bits(&self) -> u32 {
        self.edge_bits
    }
}

/// A codec bound to one algorithm + topology: packs [`SystemState`]s into
/// fixed-stride `[u64]` windows and back.
pub struct Codec<'a, A: StateCodec> {
    alg: &'a A,
    topo: &'a Topology,
    layout: Layout,
}

impl<'a, A: StateCodec> Codec<'a, A> {
    /// Bind `alg`'s codec to `topo`.
    pub fn new(alg: &'a A, topo: &'a Topology) -> Self {
        let layout = Layout::new(alg, topo);
        Codec { alg, topo, layout }
    }

    /// The layout (field offsets, stride).
    #[inline]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Words per packed state.
    #[inline]
    pub fn words(&self) -> usize {
        self.layout.words
    }

    /// The bound topology.
    #[inline]
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }

    /// The bound algorithm.
    #[inline]
    pub fn alg(&self) -> &'a A {
        self.alg
    }

    /// Pack `state` into `out` (`out.len() == self.words()`). Clears `out`
    /// first, so unused padding bits are always zero — packed windows of
    /// equal states are bytewise equal.
    pub fn encode_into(&self, state: &SystemState<A>, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.layout.words);
        out.fill(0);
        for (i, local) in state.locals().iter().enumerate() {
            let p = ProcessId(i);
            let v = self.alg.encode_local(self.topo, p, local);
            set_bits(out, self.layout.local_offset(p), self.layout.local_bits, v);
        }
        for (i, value) in state.edges().iter().enumerate() {
            let e = EdgeId(i);
            let v = self.alg.encode_edge(self.topo, e, value);
            set_bits(out, self.layout.edge_offset(e), self.layout.edge_bits, v);
        }
    }

    /// Pack `state` into a fresh vector.
    pub fn encode(&self, state: &SystemState<A>) -> Vec<u64> {
        let mut out = vec![0u64; self.layout.words];
        self.encode_into(state, &mut out);
        out
    }

    /// Unpack a window into an existing state (reusing its allocations).
    pub fn decode_into(&self, words: &[u64], out: &mut SystemState<A>) {
        debug_assert_eq!(words.len(), self.layout.words);
        for p in self.topo.processes() {
            let bits = get_bits(words, self.layout.local_offset(p), self.layout.local_bits);
            *out.local_mut(p) = self.alg.decode_local(self.topo, p, bits);
        }
        for i in 0..self.topo.edge_count() {
            let e = EdgeId(i);
            let bits = get_bits(words, self.layout.edge_offset(e), self.layout.edge_bits);
            *out.edge_mut(e) = self.alg.decode_edge(self.topo, e, bits);
        }
    }

    /// Unpack a window into a fresh state.
    pub fn decode(&self, words: &[u64]) -> SystemState<A> {
        debug_assert_eq!(words.len(), self.layout.words);
        let locals = self
            .topo
            .processes()
            .map(|p| {
                let bits = get_bits(words, self.layout.local_offset(p), self.layout.local_bits);
                self.alg.decode_local(self.topo, p, bits)
            })
            .collect();
        let edges = (0..self.topo.edge_count())
            .map(|i| {
                let e = EdgeId(i);
                let bits = get_bits(words, self.layout.edge_offset(e), self.layout.edge_bits);
                self.alg.decode_edge(self.topo, e, bits)
            })
            .collect();
        SystemState::from_parts(self.topo, locals, edges)
    }

    /// Overwrite one local field in a packed window.
    #[inline]
    pub fn set_local(&self, words: &mut [u64], p: ProcessId, local: &A::Local) {
        let v = self.alg.encode_local(self.topo, p, local);
        set_bits(
            words,
            self.layout.local_offset(p),
            self.layout.local_bits,
            v,
        );
    }

    /// Overwrite one edge field in a packed window.
    #[inline]
    pub fn set_edge(&self, words: &mut [u64], e: EdgeId, value: &A::Edge) {
        let v = self.alg.encode_edge(self.topo, e, value);
        set_bits(words, self.layout.edge_offset(e), self.layout.edge_bits, v);
    }

    /// Decode one local field from a packed window.
    #[inline]
    pub fn get_local(&self, words: &[u64], p: ProcessId) -> A::Local {
        let bits = get_bits(words, self.layout.local_offset(p), self.layout.local_bits);
        self.alg.decode_local(self.topo, p, bits)
    }

    /// Decode one edge field from a packed window.
    #[inline]
    pub fn get_edge(&self, words: &[u64], e: EdgeId) -> A::Edge {
        let bits = get_bits(words, self.layout.edge_offset(e), self.layout.edge_bits);
        self.alg.decode_edge(self.topo, e, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Topology;
    use crate::toy::ToyDiners;

    #[test]
    fn bit_helpers_round_trip_within_a_word() {
        let mut w = vec![0u64; 2];
        set_bits(&mut w, 3, 5, 0b10110);
        assert_eq!(get_bits(&w, 3, 5), 0b10110);
        // Neighbors untouched.
        assert_eq!(get_bits(&w, 0, 3), 0);
        assert_eq!(get_bits(&w, 8, 8), 0);
    }

    #[test]
    fn bit_helpers_round_trip_across_word_boundary() {
        let mut w = vec![0u64; 3];
        // A 34-bit field starting at bit 60 straddles words 0 and 1.
        let v = 0x2_dead_beefu64 & mask(34);
        set_bits(&mut w, 60, 34, v);
        assert_eq!(get_bits(&w, 60, 34), v);
        // Overwrite with a different value; old bits must not linger.
        set_bits(&mut w, 60, 34, 0);
        assert_eq!(w, vec![0, 0, 0]);
    }

    #[test]
    fn full_width_fields_work() {
        let mut w = vec![0u64; 2];
        set_bits(&mut w, 64, 64, u64::MAX);
        assert_eq!(get_bits(&w, 64, 64), u64::MAX);
        assert_eq!(w[0], 0);
    }

    #[test]
    fn zero_width_fields_are_noops() {
        let mut w = vec![0u64; 1];
        set_bits(&mut w, 17, 0, 0);
        assert_eq!(get_bits(&w, 17, 0), 0);
        assert_eq!(w[0], 0);
    }

    #[test]
    fn phase_codec_round_trips() {
        for p in [Phase::Thinking, Phase::Hungry, Phase::Eating] {
            assert_eq!(phase_from_bits(phase_to_bits(p)), p);
        }
    }

    #[test]
    fn layout_packs_toy_ring_into_one_word() {
        // 12 processes × 2 bits + 12 edges × 0 bits = 24 bits → 1 word.
        let topo = Topology::ring(12);
        let layout = Layout::new(&ToyDiners, &topo);
        assert_eq!(layout.words(), 1);
        assert_eq!(layout.bits(), 24);
    }

    #[test]
    fn codec_round_trips_toy_states() {
        let topo = Topology::ring(5);
        let codec = Codec::new(&ToyDiners, &topo);
        let mut s = SystemState::initial(&ToyDiners, &topo);
        *s.local_mut(ProcessId(2)) = Phase::Eating;
        *s.local_mut(ProcessId(4)) = Phase::Hungry;
        let words = codec.encode(&s);
        assert_eq!(codec.decode(&words), s);
        let mut back = SystemState::initial(&ToyDiners, &topo);
        codec.decode_into(&words, &mut back);
        assert_eq!(back, s);
    }

    #[test]
    fn field_edits_match_full_reencode() {
        let topo = Topology::line(4);
        let codec = Codec::new(&ToyDiners, &topo);
        let mut s = SystemState::initial(&ToyDiners, &topo);
        let mut words = codec.encode(&s);
        *s.local_mut(ProcessId(1)) = Phase::Hungry;
        codec.set_local(&mut words, ProcessId(1), &Phase::Hungry);
        assert_eq!(words, codec.encode(&s));
        assert_eq!(codec.get_local(&words, ProcessId(1)), Phase::Hungry);
    }
}
