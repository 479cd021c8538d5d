//! Tuple mapping and the tuple-rep property (Sec. IV.B, Fig. 7).
//!
//! SACHI abstracts the incoming graph into *tuples*: one row of the storage
//! array per spin, holding the neighboring spin states, the connecting ICs,
//! and the external field. Because the same IC appears in the tuple of both
//! endpoints — "tuple-rep" — every tuple's `H_σ` is computable without
//! touching any other tuple, which is what lets tiles work independently.
//!
//! The price of tuple-rep is paid on *update*: when spin `j` flips, its
//! copy inside every tuple that contains it must be refreshed. A dedicated
//! region of the storage array holds the adjacency matrix; the update path
//! reads it to find the relevant tuples (Fig. 8b). [`TupleStore`] is that
//! pair of structures, and its counters feed the machine's cycle/energy
//! accounting.

use crate::encoding::{EncodingError, MixedEncoding};
use sachi_ising::graph::IsingGraph;
use sachi_ising::spin::{Spin, SpinVector};

/// One spin's tuple: the storage-array row of Fig. 7a.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpinTuple {
    /// The spin this tuple computes `H_σ` for.
    pub target: u32,
    /// Neighbor spin ids.
    pub neighbors: Vec<u32>,
    /// Connecting interaction coefficients, aligned with `neighbors`.
    pub couplings: Vec<i32>,
    /// *Copies* of the neighboring spin states (tuple-rep makes these
    /// local; they go stale unless the update path refreshes them).
    pub neighbor_spins: Vec<Spin>,
    /// External field `h_i`.
    pub field: i32,
}

impl SpinTuple {
    /// Local field `H_σ = -Σ J_ij σ_j - h_i` computed **entirely from the
    /// tuple's own copies** — the independence that tuple-rep buys.
    pub fn local_field(&self) -> i64 {
        let mut h = -(self.field as i64);
        for (j, s) in self.couplings.iter().zip(self.neighbor_spins.iter()) {
            h -= *j as i64 * s.value();
        }
        h
    }

    /// Number of neighbors (the paper's `N` for this tuple).
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Storage bits of this tuple at resolution `r`: `N` neighbor-spin
    /// bits + `N` R-bit ICs + one R-bit field.
    pub fn storage_bits(&self, r: u32) -> u64 {
        self.degree() as u64 * (r as u64 + 1) + r as u64
    }
}

/// The storage array's logical content: all tuples plus the adjacency
/// index used by the update path.
#[derive(Debug, Clone)]
pub struct TupleStore {
    tuples: Vec<SpinTuple>,
    /// For each spin `j`: the list of `(tuple_index, slot)` pairs holding a
    /// copy of `σ_j` — the adjacency-matrix region of Fig. 8b.
    adjacency: Vec<Vec<(u32, u32)>>,
    /// Whether tuple-rep is enabled. The ablation (`abl_tuple_rep`)
    /// disables it, which forces cross-tuple re-reads (counted, not
    /// simulated structurally).
    tuple_rep: bool,
    spin_copy_updates: u64,
    adjacency_reads: u64,
    cross_tuple_rereads: u64,
}

impl TupleStore {
    /// Builds the store from a graph and the initial spins, with tuple-rep
    /// enabled (the paper's design).
    ///
    /// # Panics
    ///
    /// Panics if `spins.len() != graph.num_spins()`.
    pub fn new(graph: &IsingGraph, spins: &SpinVector) -> Self {
        Self::with_tuple_rep(graph, spins, true)
    }

    /// Builds the store with explicit tuple-rep setting.
    ///
    /// # Panics
    ///
    /// Panics if `spins.len() != graph.num_spins()`.
    pub fn with_tuple_rep(graph: &IsingGraph, spins: &SpinVector, tuple_rep: bool) -> Self {
        assert_eq!(
            spins.len(),
            graph.num_spins(),
            "spin vector must match graph size"
        );
        let n = graph.num_spins();
        let mut tuples = Vec::with_capacity(n);
        let mut adjacency: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for i in 0..n {
            let mut neighbors = Vec::with_capacity(graph.degree(i));
            let mut couplings = Vec::with_capacity(graph.degree(i));
            let mut neighbor_spins = Vec::with_capacity(graph.degree(i));
            for (slot, (j, w)) in graph.neighbors(i).enumerate() {
                neighbors.push(j);
                couplings.push(w);
                neighbor_spins.push(spins.get(j as usize));
                adjacency[j as usize].push((i as u32, slot as u32));
            }
            tuples.push(SpinTuple {
                target: i as u32,
                neighbors,
                couplings,
                neighbor_spins,
                field: graph.field(i),
            });
        }
        // Tuple-rep invariant: every adjacency entry for spin j must name
        // a (tuple, slot) that actually stores a copy of σ_j, and there is
        // exactly one copy per adjacent tuple.
        debug_assert!(
            adjacency.iter().enumerate().all(|(j, entries)| {
                entries.len() == graph.degree(j)
                    && entries
                        .iter()
                        .all(|&(t, slot)| tuples[t as usize].neighbors[slot as usize] as usize == j)
            }),
            "tuple-rep construction broke the adjacency/copy correspondence"
        );
        TupleStore {
            tuples,
            adjacency,
            tuple_rep,
            spin_copy_updates: 0,
            adjacency_reads: 0,
            cross_tuple_rereads: 0,
        }
    }

    /// Number of tuples (== spins).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the store holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Whether tuple-rep is enabled.
    pub fn tuple_rep(&self) -> bool {
        self.tuple_rep
    }

    /// The tuple of spin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tuple(&self, i: usize) -> &SpinTuple {
        &self.tuples[i]
    }

    /// Iterates all tuples in spin order.
    pub fn iter(&self) -> std::slice::Iter<'_, SpinTuple> {
        self.tuples.iter()
    }

    /// Computes the local field of spin `i`, counting the cross-tuple
    /// re-reads that would be needed *without* tuple-rep (one per neighbor
    /// whose shared IC would live only in the neighbor's tuple — on
    /// average half of them under the paper's single-copy alternative;
    /// we count the worst-case "J stored with the lower-indexed endpoint"
    /// convention: a re-read for every neighbor with a smaller index).
    pub fn local_field(&mut self, i: usize) -> i64 {
        if !self.tuple_rep {
            let t = &self.tuples[i];
            let rereads = t.neighbors.iter().filter(|&&j| (j as usize) < i).count() as u64;
            self.cross_tuple_rereads += rereads;
        }
        self.tuples[i].local_field()
    }

    /// The adjacency entries of spin `j`: every `(tuple_index, slot)` pair
    /// holding a copy of `σ_j`. This is the read the Fig. 8b update path
    /// performs; exposing it lets mirrored stores ([`TuplePlanes`]) follow
    /// the same walk without duplicating the index.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn adjacency_of(&self, j: usize) -> &[(u32, u32)] {
        &self.adjacency[j]
    }

    /// Applies a spin update through the Fig. 8b path: reads the adjacency
    /// matrix, then refreshes `σ_j`'s copy in every relevant tuple.
    /// Returns the number of tuple entries written.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn update_spin(&mut self, j: usize, new: Spin) -> u64 {
        self.adjacency_reads += 1;
        let entries = std::mem::take(&mut self.adjacency[j]);
        let count = entries.len() as u64;
        for &(t, slot) in &entries {
            debug_assert_eq!(
                self.tuples[t as usize].neighbors[slot as usize] as usize,
                j,
                "tuple-rep adjacency corrupt: entry for spin {j} points at tuple {t} slot {slot}, which holds a different neighbor"
            );
            self.tuples[t as usize].neighbor_spins[slot as usize] = new;
        }
        self.adjacency[j] = entries;
        self.spin_copy_updates += count;
        count
    }

    /// Total spin-copy writes so far (storage-array write traffic of the
    /// update path).
    pub fn spin_copy_updates(&self) -> u64 {
        self.spin_copy_updates
    }

    /// Adjacency-matrix reads so far.
    pub fn adjacency_reads(&self) -> u64 {
        self.adjacency_reads
    }

    /// Cross-tuple re-reads that the no-tuple-rep ablation would incur.
    pub fn cross_tuple_rereads(&self) -> u64 {
        self.cross_tuple_rereads
    }

    /// Total storage bits of all tuples at resolution `r`.
    pub fn total_storage_bits(&self, r: u32) -> u64 {
        self.tuples.iter().map(|t| t.storage_bits(r)).sum()
    }

    /// Bits of the adjacency-matrix region: one bit per (spin, tuple)
    /// membership.
    pub fn adjacency_bits(&self) -> u64 {
        self.adjacency.iter().map(|v| v.len() as u64).sum()
    }
}

/// Per-tuple offsets into the [`TuplePlanes`] arenas.
#[derive(Debug, Clone, Copy)]
struct PlaneSlot {
    /// Word offset into `coupling_planes` (the tuple owns `r * words`
    /// words starting here, `words = plane_words(degree)`).
    planes: usize,
    /// Word offset into `coupling_words` / `group_words` (the tuple owns
    /// `degree` words starting here).
    words: usize,
    /// Word offset into `spin_words` (the tuple owns
    /// `plane_words(degree)` words starting here).
    spins: usize,
    /// Neighbor count of the tuple.
    degree: usize,
}

/// Structure-of-arrays mirror of a [`TupleStore`]: every encoding the four
/// design kernels consume, pre-computed once and stored as contiguous u64
/// word arenas.
///
/// The AoS tuples keep one `Vec<i32>`/`Vec<Spin>` pair per tuple, so a
/// kernel reading them would re-run `MixedEncoding` encode over the
/// couplings and re-pack the spin bits on every compute — a per-tuple
/// gather that dominates the sweep once the XNOR kernels are fast. The SoA mirror
/// hoists all of that out of the sweep loop:
///
/// * `coupling_planes` — bit-transposed coupling planes (`r` planes of
///   `plane_words(N)` words per tuple): the n1a/n1b drive operand, all
///   `r` planes driven in one `compute_xnor_plane` call.
/// * `coupling_words` — one sign-magnitude-encoded word per coupling: the
///   n2 row image, uploaded whole with `write_rows_from_words`.
/// * `group_words` — `encode(J) | σ_j << r` per coupling: the n3 packed
///   group image, maintained under spin updates.
/// * `spin_words` — the packed neighbor-spin row (`plane_words(N)` words
///   per tuple): the spin-stationary upload operand and the n2 drive row.
///
/// Couplings and fields are stationary for a whole solve, so only the
/// spin-dependent arenas (`spin_words`, `group_words`) ever change after
/// construction; [`TuplePlanes::writeback_spin`] applies a spin flip by
/// walking the same adjacency entries as [`TupleStore::update_spin`].
#[derive(Debug, Clone)]
pub struct TuplePlanes {
    bits: u32,
    slots: Vec<PlaneSlot>,
    coupling_planes: Vec<u64>,
    coupling_words: Vec<u64>,
    group_words: Vec<u64>,
    spin_words: Vec<u64>,
}

/// Borrowed view of one tuple's SoA data — what a design kernel receives.
#[derive(Debug, Clone, Copy)]
pub struct TuplePlaneView<'a> {
    /// `r` bit-planes of `plane_words(degree)` words each.
    pub coupling_planes: &'a [u64],
    /// One encoded word per coupling (`degree` words).
    pub coupling_words: &'a [u64],
    /// One `encode(J) | σ_j << r` group word per coupling (`degree` words).
    pub group_words: &'a [u64],
    /// Packed neighbor-spin bits (`plane_words(degree)` words).
    pub spin_words: &'a [u64],
}

impl TuplePlanes {
    /// Builds the SoA mirror of `store` at the encoding's resolution.
    ///
    /// # Errors
    ///
    /// Returns an error if any coupling is out of range for `enc`.
    pub fn new(store: &TupleStore, enc: &MixedEncoding) -> Result<Self, EncodingError> {
        Self::from_tuples(store.iter(), enc)
    }

    /// Builds the mirror from an explicit tuple sequence (tests and
    /// single-tuple differential harnesses).
    ///
    /// # Errors
    ///
    /// Returns an error if any coupling is out of range for `enc`.
    pub fn from_tuples<'a, I>(tuples: I, enc: &MixedEncoding) -> Result<Self, EncodingError>
    where
        I: IntoIterator<Item = &'a SpinTuple>,
    {
        let r = enc.bits() as usize;
        let mut planes = Self {
            bits: enc.bits(),
            slots: Vec::new(),
            coupling_planes: Vec::new(),
            coupling_words: Vec::new(),
            group_words: Vec::new(),
            spin_words: Vec::new(),
        };
        for tuple in tuples {
            let n = tuple.degree();
            let words = MixedEncoding::plane_words(n);
            let slot = PlaneSlot {
                planes: planes.coupling_planes.len(),
                words: planes.coupling_words.len(),
                spins: planes.spin_words.len(),
                degree: n,
            };
            planes.coupling_planes.resize(slot.planes + r * words, 0);
            enc.encode_into(&tuple.couplings, &mut planes.coupling_planes[slot.planes..])?;
            planes.spin_words.resize(slot.spins + words, 0);
            for (k, (&j, &s)) in tuple
                .couplings
                .iter()
                .zip(tuple.neighbor_spins.iter())
                .enumerate()
            {
                let word = enc.encode_word(i64::from(j))?;
                planes.coupling_words.push(word);
                planes
                    .group_words
                    .push(word | (s.bit() as u64) << enc.bits());
                if s.bit() {
                    planes.spin_words[slot.spins + k / 64] |= 1u64 << (k % 64);
                }
            }
            planes.slots.push(slot);
        }
        Ok(planes)
    }

    /// Encoding resolution the mirror was built at.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of mirrored tuples.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no tuples are mirrored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The SoA view of tuple `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn view(&self, i: usize) -> TuplePlaneView<'_> {
        let slot = self.slots[i];
        let r = self.bits as usize;
        let words = MixedEncoding::plane_words(slot.degree);
        TuplePlaneView {
            coupling_planes: &self.coupling_planes[slot.planes..slot.planes + r * words],
            coupling_words: &self.coupling_words[slot.words..slot.words + slot.degree],
            group_words: &self.group_words[slot.words..slot.words + slot.degree],
            spin_words: &self.spin_words[slot.spins..slot.spins + words],
        }
    }

    /// Mirrors a spin flip: refreshes `σ_j`'s bit in the spin row and group
    /// word of every tuple that holds a copy, walking the same adjacency
    /// entries as [`TupleStore::update_spin`]. Call with the *store that
    /// built this mirror* (before or after its own update — the adjacency
    /// index is immutable).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range for `store`, or if `store` does not
    /// match the tuples this mirror was built from.
    pub fn writeback_spin(&mut self, store: &TupleStore, j: usize, new: Spin) {
        for &(t, slot) in store.adjacency_of(j) {
            let ps = self.slots[t as usize];
            let (k, bit) = (slot as usize / 64, slot as usize % 64);
            assert!(
                (slot as usize) < ps.degree,
                "adjacency slot out of range for mirrored tuple {t}"
            );
            if new.bit() {
                self.spin_words[ps.spins + k] |= 1u64 << bit;
                self.group_words[ps.words + slot as usize] |= 1u64 << self.bits;
            } else {
                self.spin_words[ps.spins + k] &= !(1u64 << bit);
                self.group_words[ps.words + slot as usize] &= !(1u64 << self.bits);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sachi_ising::graph::{topology, GraphBuilder};
    use sachi_ising::hamiltonian::local_field;

    fn sample() -> (IsingGraph, SpinVector) {
        let g = GraphBuilder::new(4)
            .edge(0, 1, 3)
            .edge(1, 2, -2)
            .edge(2, 3, 5)
            .edge(0, 3, 1)
            .field(1, 4)
            .build()
            .unwrap();
        let s = SpinVector::from_spins(&[Spin::Up, Spin::Down, Spin::Up, Spin::Down]);
        (g, s)
    }

    #[test]
    fn tuples_mirror_graph_structure() {
        let (g, s) = sample();
        let store = TupleStore::new(&g, &s);
        assert_eq!(store.len(), 4);
        assert!(!store.is_empty());
        let t1 = store.tuple(1);
        assert_eq!(t1.target, 1);
        assert_eq!(t1.degree(), 2);
        assert_eq!(t1.neighbors, vec![0, 2]);
        assert_eq!(t1.couplings, vec![3, -2]);
        assert_eq!(t1.neighbor_spins, vec![Spin::Up, Spin::Up]);
        assert_eq!(t1.field, 4);
    }

    #[test]
    fn tuple_rep_duplicates_shared_ics() {
        // J_12 must appear in both tuple 1 and tuple 2 (Fig. 7b).
        let (g, s) = sample();
        let store = TupleStore::new(&g, &s);
        assert!(store.tuple(1).couplings.contains(&-2));
        assert!(store.tuple(2).couplings.contains(&-2));
        assert!(store.tuple_rep());
    }

    #[test]
    fn tuple_local_field_matches_golden() {
        let (g, s) = sample();
        let mut store = TupleStore::new(&g, &s);
        for i in 0..4 {
            assert_eq!(store.local_field(i), local_field(&g, &s, i), "spin {i}");
        }
        assert_eq!(store.cross_tuple_rereads(), 0);
    }

    #[test]
    fn update_refreshes_all_copies() {
        let (g, s) = sample();
        let mut store = TupleStore::new(&g, &s);
        // Spin 0 appears in tuples 1 and 3.
        let written = store.update_spin(0, Spin::Down);
        assert_eq!(written, 2);
        assert_eq!(store.tuple(1).neighbor_spins[0], Spin::Down);
        // Tuple 3's adjacency is canonicalized to [0, 2]: spin 0 is slot 0.
        assert_eq!(store.tuple(3).neighbor_spins[0], Spin::Down);
        assert_eq!(store.spin_copy_updates(), 2);
        assert_eq!(store.adjacency_reads(), 1);
        // Fields match a freshly built store on the updated spins.
        let mut s2 = s.clone();
        s2.set(0, Spin::Down);
        let fresh = TupleStore::new(&g, &s2);
        for i in 0..4 {
            assert_eq!(store.tuple(i).local_field(), fresh.tuple(i).local_field());
        }
    }

    #[test]
    fn no_tuple_rep_counts_rereads() {
        let (g, s) = sample();
        let mut store = TupleStore::with_tuple_rep(&g, &s, false);
        assert!(!store.tuple_rep());
        for i in 0..4 {
            store.local_field(i);
        }
        // Each of the 4 edges triggers exactly one re-read (at its
        // higher-indexed endpoint).
        assert_eq!(store.cross_tuple_rereads(), 4);
    }

    #[test]
    fn storage_footprint_formulas() {
        let g = topology::king(3, 3, |_, _| 1).unwrap();
        let s = SpinVector::filled(9, Spin::Up);
        let store = TupleStore::new(&g, &s);
        // Center tuple: 8 neighbors, R=4 -> 8*5 + 4 = 44 bits.
        assert_eq!(store.tuple(4).storage_bits(4), 44);
        // Adjacency bits = directed edge count = 2 * edges.
        assert_eq!(store.adjacency_bits(), 2 * g.num_edges() as u64);
        assert_eq!(
            store.total_storage_bits(4),
            (0..9).map(|i| store.tuple(i).storage_bits(4)).sum::<u64>()
        );
    }

    #[test]
    fn update_on_isolated_spin_writes_nothing() {
        let g = GraphBuilder::new(2).build().unwrap();
        let s = SpinVector::filled(2, Spin::Up);
        let mut store = TupleStore::new(&g, &s);
        assert_eq!(store.update_spin(0, Spin::Down), 0);
        assert_eq!(store.spin_copy_updates(), 0);
    }

    fn assert_planes_mirror_store(planes: &TuplePlanes, store: &TupleStore, enc: &MixedEncoding) {
        assert_eq!(planes.len(), store.len());
        for (i, tuple) in store.iter().enumerate() {
            let v = planes.view(i);
            let n = tuple.degree();
            let w = MixedEncoding::plane_words(n);
            assert_eq!(v.coupling_planes.len(), enc.bits() as usize * w);
            assert_eq!(v.coupling_words.len(), n);
            assert_eq!(v.group_words.len(), n);
            assert_eq!(v.spin_words.len(), w);
            for (k, (&j, &s)) in tuple
                .couplings
                .iter()
                .zip(tuple.neighbor_spins.iter())
                .enumerate()
            {
                assert_eq!(enc.decode_plane(v.coupling_planes, w, k), i64::from(j));
                assert_eq!(enc.decode_word(v.coupling_words[k]), i64::from(j));
                assert_eq!(
                    v.group_words[k],
                    v.coupling_words[k] | (s.bit() as u64) << enc.bits()
                );
                assert_eq!((v.spin_words[k / 64] >> (k % 64)) & 1 == 1, s.bit());
            }
            // Padding bits beyond the degree stay zero (the popcount-based
            // Down-spin count depends on this).
            for k in n..w * 64 {
                assert_eq!((v.spin_words[k / 64] >> (k % 64)) & 1, 0, "lane {k}");
            }
        }
    }

    #[test]
    fn soa_mirror_matches_aos_store() {
        let (g, s) = sample();
        let store = TupleStore::new(&g, &s);
        let enc = MixedEncoding::new(4).unwrap();
        let planes = TuplePlanes::new(&store, &enc).unwrap();
        assert_eq!(planes.bits(), 4);
        assert!(!planes.is_empty());
        assert_planes_mirror_store(&planes, &store, &enc);
    }

    #[test]
    fn soa_writeback_tracks_spin_updates() {
        // King graph: degree 8 exercises multi-neighbor rows; then a wide
        // complete-ish update sequence to cross word boundaries elsewhere.
        let g = topology::king(4, 4, |a, b| ((a + 2 * b) % 7) as i32 - 3).unwrap();
        let mut s = SpinVector::filled(16, Spin::Up);
        let mut store = TupleStore::new(&g, &s);
        let enc = MixedEncoding::new(4).unwrap();
        let mut planes = TuplePlanes::new(&store, &enc).unwrap();
        for (j, flip) in [
            (5usize, Spin::Down),
            (0, Spin::Down),
            (5, Spin::Up),
            (10, Spin::Down),
        ] {
            s.set(j, flip);
            store.update_spin(j, flip);
            planes.writeback_spin(&store, j, flip);
            assert_planes_mirror_store(&planes, &store, &enc);
            // The incremental mirror equals a from-scratch rebuild.
            let fresh = TuplePlanes::new(&store, &enc).unwrap();
            for i in 0..store.len() {
                assert_eq!(planes.view(i).spin_words, fresh.view(i).spin_words);
                assert_eq!(planes.view(i).group_words, fresh.view(i).group_words);
            }
        }
    }

    #[test]
    fn soa_mirror_spans_word_boundaries() {
        // A 100-neighbor tuple needs two spin words; every encoding arena
        // must stay aligned across the boundary.
        let n = 100u32;
        let tuple = SpinTuple {
            target: 0,
            neighbors: (1..=n).collect(),
            couplings: (0..n as i32).map(|k| (k % 15) - 7).collect(),
            neighbor_spins: (0..n)
                .map(|k| if k % 3 == 0 { Spin::Down } else { Spin::Up })
                .collect(),
            field: 2,
        };
        let enc = MixedEncoding::new(4).unwrap();
        let planes = TuplePlanes::from_tuples([&tuple], &enc).unwrap();
        let v = planes.view(0);
        assert_eq!(v.spin_words.len(), 2);
        let w = MixedEncoding::plane_words(n as usize);
        for k in 0..n as usize {
            assert_eq!(
                enc.decode_plane(v.coupling_planes, w, k),
                i64::from(tuple.couplings[k])
            );
            assert_eq!(
                (v.spin_words[k / 64] >> (k % 64)) & 1 == 1,
                tuple.neighbor_spins[k].bit()
            );
        }
    }

    #[test]
    fn soa_rejects_out_of_range_couplings() {
        let tuple = SpinTuple {
            target: 0,
            neighbors: vec![1],
            couplings: vec![1000],
            neighbor_spins: vec![Spin::Up],
            field: 0,
        };
        let enc = MixedEncoding::new(4).unwrap();
        assert!(TuplePlanes::from_tuples([&tuple], &enc).is_err());
    }
}
