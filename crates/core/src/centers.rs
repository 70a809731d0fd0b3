//! The stored state of an implicit decomposition: the center set `S` with
//! its 1-bit primary/secondary labels.
//!
//! This is *all* the oracle keeps in asymmetric memory. Membership ("is
//! this vertex a center, and is it primary?") must cost O(1) reads for
//! Lemma 3.2's `O(k)` bound on `ρ(v)`, so the set is a direct-address bit
//! array: two bits (member, primary) per vertex id, 32 ids per word. It
//! occupies `⌈n/32⌉` words, which is below a hash table of `Θ(n/k)` slots
//! at load ≤ ½ for every `k ≤ 256` (`ω ≤ 65,536`). Creating it charges
//! one write per word, an insert one read and one write of its id's word,
//! and a lookup one read.

use wec_asym::{FxHashSet, Ledger};
use wec_graph::Vertex;

/// Label of a center (the paper's 1-bit `ℓ(s)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CenterLabel {
    /// Sampled (or component-minimum) center: `ρ0` targets.
    Primary,
    /// Added by `SECONDARYCENTERS` to cap cluster sizes.
    Secondary,
}

/// Read-only membership interface, so construction can run per-primary
/// overlays (base `S0` + thread-local secondaries) without sharing a
/// mutable set across tasks.
pub trait CenterLookup: Sync {
    /// `Some(label)` if `v ∈ S`, charging the lookup's reads.
    fn lookup(&self, led: &mut Ledger, v: Vertex) -> Option<CenterLabel>;
}

/// Ids per word: two bits each.
const IDS_PER_WORD: usize = 32;
const MEMBER: u64 = 0b01;
const PRIMARY: u64 = 0b10;

/// The center set over the ids `0..n_ids`: bit `2i` of a word marks id
/// `32·w + i` as a center and bit `2i + 1` marks it primary.
#[derive(Debug, Clone)]
pub struct CenterSet {
    words: Vec<u64>,
    len: usize,
}

/// The id's word and the shift of its two bits.
fn slot(v: Vertex) -> (usize, u32) {
    let v = v as usize;
    (v / IDS_PER_WORD, 2 * (v % IDS_PER_WORD) as u32)
}

fn label_of(bits: u64) -> Option<CenterLabel> {
    match bits {
        0 => None,
        MEMBER => Some(CenterLabel::Secondary),
        _ => Some(CenterLabel::Primary),
    }
}

impl CenterSet {
    /// An empty set over the ids `0..n_ids`. Charges one write per word,
    /// `⌈n_ids/32⌉` in all.
    pub fn new(led: &mut Ledger, n_ids: usize) -> Self {
        let words = vec![0; n_ids.div_ceil(IDS_PER_WORD)];
        led.write(words.len() as u64);
        CenterSet { words, len: 0 }
    }

    /// Number of centers stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert (or relabel) `v`: one read and one write of its word.
    pub fn insert(&mut self, led: &mut Ledger, v: Vertex, label: CenterLabel) {
        let (w, shift) = slot(v);
        let bits = match label {
            CenterLabel::Primary => MEMBER | PRIMARY,
            CenterLabel::Secondary => MEMBER,
        };
        let word = &mut self.words[w];
        if (*word >> shift) & MEMBER == 0 {
            self.len += 1;
        }
        *word = (*word & !(0b11 << shift)) | (bits << shift);
        led.read(1);
        led.write(1);
    }

    /// All centers in ascending id order. One read per word; used once at
    /// build time to materialize the center list.
    pub fn to_vec(&self, led: &mut Ledger) -> Vec<Vertex> {
        led.read(self.words.len() as u64);
        self.iter_uncharged().map(|(v, _)| v).collect()
    }

    /// Uncharged snapshot in ascending id order, for tests and harnesses.
    pub fn iter_uncharged(&self) -> impl Iterator<Item = (Vertex, CenterLabel)> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            (0..IDS_PER_WORD).filter_map(move |i| {
                label_of((word >> (2 * i)) & 0b11).map(|l| ((w * IDS_PER_WORD + i) as Vertex, l))
            })
        })
    }

    /// Words of asymmetric memory the set occupies: `⌈n_ids/32⌉`.
    pub fn storage_words(&self) -> usize {
        self.words.len()
    }
}

impl CenterLookup for CenterSet {
    /// One read of `v`'s word. An id past the set's range is no center.
    fn lookup(&self, led: &mut Ledger, v: Vertex) -> Option<CenterLabel> {
        led.read(1);
        let (w, shift) = slot(v);
        self.words
            .get(w)
            .and_then(|&word| label_of((word >> shift) & 0b11))
    }
}

/// A base set plus thread-local secondary additions (never writes the
/// shared base). Used by the parallel `SECONDARYCENTERS` so each primary
/// cluster's recursion owns its own additions.
pub struct OverlayCenters<'a> {
    base: &'a CenterSet,
    local: FxHashSet<Vertex>,
}

impl<'a> OverlayCenters<'a> {
    /// Wrap `base` with an empty local overlay.
    pub fn new(base: &'a CenterSet) -> Self {
        OverlayCenters {
            base,
            local: FxHashSet::default(),
        }
    }

    /// Add a local secondary center. Charges one write (the model cost of
    /// appending to the output list; the final merge re-charges inserts
    /// into the shared set, matching the paper's "write out u to S1").
    pub fn add_secondary(&mut self, led: &mut Ledger, v: Vertex) {
        led.write(1);
        self.local.insert(v);
    }

    /// The local additions, for the final merge. Their order does not
    /// matter: inserts into the bit array commute and cost the same.
    pub fn into_local(self) -> Vec<Vertex> {
        self.local.into_iter().collect()
    }
}

impl CenterLookup for OverlayCenters<'_> {
    /// One op for the local membership test, then the base's lookup.
    fn lookup(&self, led: &mut Ledger, v: Vertex) -> Option<CenterLabel> {
        led.op(1);
        if self.local.contains(&v) {
            return Some(CenterLabel::Secondary);
        }
        self.base.lookup(led, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;
    use wec_asym::Costs;

    /// The charges of `f` on `led`.
    fn charged<T>(led: &mut Ledger, f: impl FnOnce(&mut Ledger) -> T) -> (T, Costs) {
        let before = led.costs();
        let out = f(led);
        (out, led.costs().since(&before))
    }

    fn costs(asym_reads: u64, asym_writes: u64) -> Costs {
        Costs {
            asym_reads,
            asym_writes,
            sym_ops: 0,
        }
    }

    #[test]
    fn bit_array_matches_a_hash_map_reference() {
        for (n, seed) in [(1usize, 1u64), (64, 2), (65, 3), (200, 4), (1000, 5)] {
            let mut led = Ledger::sequential(8);
            let (mut s, c) = charged(&mut led, |l| CenterSet::new(l, n));
            let words = n.div_ceil(32) as u64;
            assert_eq!(c, costs(0, words), "creation, n = {n}");
            assert_eq!(s.storage_words() as u64, words);
            let mut reference: HashMap<Vertex, CenterLabel> = HashMap::new();
            let mut rng = SmallRng::seed_from_u64(seed);
            // The word-boundary ids go secondary → primary → secondary, so
            // each is relabeled in both directions; then random steps.
            let edges = [0, 31, 32, 63, 64, n as Vertex - 1].map(|v| v.min(n as Vertex - 1));
            let sweeps = [
                CenterLabel::Secondary,
                CenterLabel::Primary,
                CenterLabel::Secondary,
            ];
            let scripted = sweeps
                .iter()
                .flat_map(|&l| edges.iter().map(move |&v| (v, Some(l))));
            let random: Vec<(Vertex, Option<CenterLabel>)> = (0..4 * n)
                .map(|_| {
                    let v = rng.gen_range(0..n as Vertex);
                    let label = match rng.gen_range(0..3u32) {
                        0 => None,
                        1 => Some(CenterLabel::Primary),
                        _ => Some(CenterLabel::Secondary),
                    };
                    (v, label)
                })
                .collect();
            for (v, label) in scripted.chain(random) {
                match label {
                    None => {
                        let (got, c) = charged(&mut led, |l| s.lookup(l, v));
                        assert_eq!(c, costs(1, 0), "lookup");
                        assert_eq!(got, reference.get(&v).copied(), "lookup {v}");
                    }
                    Some(label) => {
                        let ((), c) = charged(&mut led, |l| s.insert(l, v, label));
                        assert_eq!(c, costs(1, 1), "insert");
                        reference.insert(v, label);
                        assert_eq!(s.lookup(&mut led, v), Some(label));
                    }
                }
                assert_eq!(s.len(), reference.len());
            }
            for v in 0..n as Vertex {
                assert_eq!(s.lookup(&mut led, v), reference.get(&v).copied());
            }
            let mut want: Vec<(Vertex, CenterLabel)> = reference.into_iter().collect();
            want.sort_unstable_by_key(|&(v, _)| v);
            assert_eq!(s.iter_uncharged().collect::<Vec<_>>(), want);
            let (all, c) = charged(&mut led, |l| s.to_vec(l));
            assert_eq!(c, costs(words, 0), "to_vec");
            assert_eq!(all, want.iter().map(|&(v, _)| v).collect::<Vec<_>>());
            assert_eq!(s.is_empty(), all.is_empty());
        }
    }

    #[test]
    fn relabel_keeps_one_member() {
        let mut led = Ledger::new(8);
        let mut s = CenterSet::new(&mut led, 64);
        for (label, want) in [
            (CenterLabel::Secondary, CenterLabel::Secondary),
            (CenterLabel::Primary, CenterLabel::Primary),
            (CenterLabel::Secondary, CenterLabel::Secondary),
        ] {
            s.insert(&mut led, 33, label);
            assert_eq!(s.len(), 1);
            assert_eq!(s.lookup(&mut led, 33), Some(want));
            assert_eq!(s.lookup(&mut led, 32), None);
            assert_eq!(s.lookup(&mut led, 34), None);
        }
    }

    #[test]
    fn ids_past_the_range_are_no_centers() {
        let mut led = Ledger::new(8);
        let s = CenterSet::new(&mut led, 40);
        assert_eq!(s.lookup(&mut led, 63), None);
        assert_eq!(s.lookup(&mut led, 64), None);
        assert_eq!(s.lookup(&mut led, 1 << 20), None);
    }

    #[test]
    fn overlay_shadows_base_at_one_op_per_lookup() {
        let mut led = Ledger::new(8);
        let mut base = CenterSet::new(&mut led, 16);
        base.insert(&mut led, 1, CenterLabel::Primary);
        let mut ov = OverlayCenters::new(&base);
        for v in [7, 8, 9, 10] {
            ov.add_secondary(&mut led, v);
        }
        let local_hit = |l: &mut Ledger| ov.lookup(l, 7);
        let (got, c) = charged(&mut led, local_hit);
        assert_eq!(got, Some(CenterLabel::Secondary));
        assert_eq!((c.sym_ops, c.asym_reads), (1, 0));
        let (got, c) = charged(&mut led, |l| ov.lookup(l, 1));
        assert_eq!(got, Some(CenterLabel::Primary));
        assert_eq!((c.sym_ops, c.asym_reads), (1, 1));
        assert_eq!(ov.lookup(&mut led, 11), None);
        let mut local = ov.into_local();
        local.sort_unstable();
        assert_eq!(local, vec![7, 8, 9, 10]);
    }
}
