//! Write-efficient, direction-optimizing level-synchronous BFS over any
//! [`GraphView`].
//!
//! Writes are O(number of reached vertices) and reads are linear in the
//! edges examined. This mirrors the write-efficient BFS of Ben-David et al.
//! that the paper plugs into the Miller–Peng–Xu decomposition (Theorem 4.1)
//! and into §4.2 step 2. Hop distances are not recorded: nothing downstream
//! reads them, and a caller that wants one walks the parent chain.
//!
//! **Direction rule.** Each round runs either top-down (the frontier
//! enumerates its arcs and claims unvisited neighbors) or bottom-up (each
//! unvisited listed vertex looks for a neighbor visited before the round;
//! Beamer, Asanović & Patterson, SC 2012). Let `F` be the frontier, `V` the
//! caller's vertex list, `n_u` the number of unvisited listed vertices, and
//! `m_f`, `m_u` the `degree_hint` sums over `F` and over the unvisited
//! listed vertices. A round goes bottom-up iff
//!
//! ```text
//! |V| + n_u + 2·m_u  <  |F| + 2·m_f
//! ```
//!
//! The right side is the exact charge of a top-down round over a
//! [`wec_graph::Csr`] (offsets word, adjacency word and visited check per
//! arc); the left side is a bottom-up round's worst case (every listed
//! vertex's parent word, and every unvisited vertex scanning its whole
//! list). So on a CSR no round charges more reads than top-down would, apart
//! from the rule's own inputs: one degree read per claimed vertex (which
//! yields `m_f` and decrements `m_u`) and, the first time the left side
//! without `m_u` is below the right side, one degree read per listed vertex.
//! A view whose `degree_hint` is 0 never goes bottom-up. There is no tuned
//! constant.
//!
//! **Writes.** A top-down or injection claim writes 4 words: the two record
//! words (parent, owning source), the reservation slot and the packed
//! frontier slot. A bottom-up claim writes 3: it needs no reservation. So a
//! search writes exactly `4·visited − bottom_up_claims` words.
//!
//! **Priority-write accounting.** Top-down and injection claims use a
//! priority write (atomic `fetch_min`). Following the write-efficient
//! literature's treatment of test-and-set/priority-write primitives, the
//! model charges one asymmetric write to the *winning* proposal only; losing
//! proposals charge the read that inspected the slot (phase A) and a unit
//! operation for the reservation check (phase B). The physical cell may be
//! mutated more than once per round, but the charged count stays
//! O(reached) — which is the bound the paper's theorems consume.
//!
//! The driver supports *per-round source injection*: before each level is
//! expanded, a callback may add new BFS sources. That is exactly the shape
//! of the MPX decomposition ("on iteration i, BFS's are started from
//! unexplored vertices v where δ_v ∈ [i, i+1)").

use wec_asym::Ledger;
use wec_graph::{GraphView, Vertex};

use std::sync::atomic::{AtomicU32, Ordering};

/// Marker for unvisited vertices in [`BfsResult::parent`] / `source_of`.
pub const UNREACHED: u32 = u32::MAX;

/// Accounting chunk size for parallel frontier processing and bottom-up
/// vertex-list scans: fixed, because the chunk structure determines the
/// charged split-tree bookkeeping and the next frontier's concatenation
/// order. How many of these chunks one forked task runs is a separate,
/// cost-invisible choice — `scoped_par` batches them by the pool's thread
/// count, so a huge frontier does not fork one closure per 128 vertices.
const FRONTIER_GRAIN: usize = 128;

/// Accounting chunk size for parallel injection-source claiming (same
/// fixed-accounting / adaptive-execution split as [`FRONTIER_GRAIN`]).
const INJECT_GRAIN: usize = 128;

/// Output of a (multi-source) BFS.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// BFS-forest parent; `parent[s] = s` for sources, [`UNREACHED`] if
    /// never visited. Any claimed parent is at the previous level, so this
    /// is a valid BFS forest even under concurrent claims.
    pub parent: Vec<Vertex>,
    /// Which source's search claimed the vertex (`= v` for sources).
    pub source_of: Vec<Vertex>,
    /// Number of vertices visited.
    pub visited: usize,
    /// Number of frontier-expansion rounds executed.
    pub rounds: usize,
    /// How many of those rounds ran bottom-up (uncharged count).
    pub bottom_up_rounds: usize,
    /// Vertices claimed by bottom-up rounds, 3 written words each
    /// (uncharged count).
    pub bottom_up_claims: usize,
}

impl BfsResult {
    /// Whether `v` was reached.
    #[inline]
    pub fn reached(&self, v: Vertex) -> bool {
        self.parent[v as usize] != UNREACHED
    }

    /// Hop count from reached vertex `v` up its parent chain to its source.
    /// Uncharged: the search records no distances, so tests and stats bins
    /// recover them here.
    pub fn depth(&self, mut v: Vertex) -> u32 {
        let mut d = 0;
        while self.parent[v as usize] != v {
            v = self.parent[v as usize];
            d += 1;
        }
        d
    }
}

/// Sources to start at a given round, plus whether more injections may
/// follow (the search only terminates on an empty frontier once `done`).
pub struct Injection {
    /// Vertices to start this round (already-visited ones are skipped).
    pub sources: Vec<Vertex>,
    /// No further injections will come.
    pub done: bool,
}

/// Multi-source BFS over every id of `g`: all `sources` start at level 0.
pub fn multi_bfs(led: &mut Ledger, g: &impl GraphView, sources: &[Vertex]) -> BfsResult {
    let vertices: Vec<Vertex> = (0..g.n() as Vertex).collect();
    let mut first = Some(sources.to_vec());
    bfs_with_injection(led, g, &vertices, &mut |_, _| Injection {
        sources: first.take().unwrap_or_default(),
        done: true,
    })
}

/// Concatenate per-chunk claim lists in chunk order (one unit op per chunk)
/// and sum the claimed vertices' degree words.
fn concat(led: &mut Ledger, parts: Vec<(Vec<Vertex>, u64)>) -> (Vec<Vertex>, u64) {
    led.op(parts.len() as u64);
    let mut out = Vec::new();
    let mut degrees = 0;
    for (p, d) in parts {
        out.extend(p);
        degrees += d;
    }
    (out, degrees)
}

/// The injection-driven BFS engine over the caller's vertex list. See
/// module docs for the direction rule and the accounting.
///
/// `vertices` must hold every vertex the search can reach (for a view with
/// holes, its actual vertices): bottom-up rounds scan only this list, and
/// the direction rule sizes them by it.
///
/// Frontier expansion **and injection-source claiming** are
/// deterministically parallel via two-phase reservation (the
/// priority-write technique of internally deterministic parallel
/// algorithms): phase A proposes claims with an atomic `fetch_min` of the
/// proposer's frontier (or source-list) position — commutative, so the
/// winner is the *minimum* position regardless of schedule — and phase B
/// installs exactly the winners. A bottom-up round is two-phase too: phase
/// A is read-only and picks each unvisited vertex's first neighbor (in
/// enumeration order) visited before the round, so same-round claims stay
/// invisible; phase B installs the winners in vertex-list order. Frontier
/// concatenation stays sequential per round. The BFS forest, the next
/// frontier's order, and every ledger charge are identical on one thread or
/// many.
pub fn bfs_with_injection(
    led: &mut Ledger,
    g: &impl GraphView,
    vertices: &[Vertex],
    inject: &mut dyn FnMut(usize, &mut Ledger) -> Injection,
) -> BfsResult {
    let n = g.n();
    // Parent/source records live in asymmetric memory; the arrays are
    // allocated but a slot is only *written* (and charged) when claimed.
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    let source_of: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    // Reservation slots: winning proposer's frontier position per vertex.
    // A slot is only ever used in the round that claims the vertex.
    let claim: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    let parent_ref = &parent;
    let source_ref = &source_of;
    let claim_ref = &claim;
    let mut visited = 0usize;
    let (mut bottom_up_rounds, mut bottom_up_claims) = (0usize, 0usize);

    // Direction-rule inputs: `frontier_deg` is m_f, `visited_deg` the degree
    // sum of every claimed vertex, and `listed_deg` the degree sum of
    // `vertices`, read on first need; m_u = listed_deg − visited_deg.
    let listed = vertices.len() as u64;
    let mut listed_deg: Option<u64> = None;
    let mut visited_deg = 0u64;

    let mut frontier: Vec<Vertex> = Vec::new();
    let mut frontier_deg = 0u64;
    let mut round = 0usize;
    let mut done = false;
    loop {
        if !done {
            let inj = inject(round, led);
            done = inj.done;
            let srcs = inj.sources;
            if !srcs.is_empty() {
                // Injection-source claiming is the same two-phase
                // reservation as frontier expansion, so a large source wave
                // (MPX hands whole δ-buckets at once) fans out over ledger
                // scopes instead of serializing the round's head. Duplicate
                // sources resolve to the *first occurrence* — exactly what
                // a sequential compare-exchange sweep would produce.
                let srcs_ref = &srcs;
                // Phase A — propose: check visitedness (charged read) and
                // reserve still-unreached sources with fetch_min of the
                // source position.
                let proposals: Vec<Vec<(Vertex, u32)>> =
                    led.scoped_par(srcs.len(), INJECT_GRAIN, &|r, s| {
                        let mut mine = Vec::new();
                        for i in r {
                            let v = srcs_ref[i];
                            s.read(1); // check visited
                            if parent_ref[v as usize].load(Ordering::Relaxed) == UNREACHED {
                                claim_ref[v as usize].fetch_min(i as u32, Ordering::Relaxed);
                                mine.push((v, i as u32));
                            }
                        }
                        mine
                    });
                // Phase B — install winners (reservation still carries the
                // proposer's own position). Charges mirror frontier
                // expansion: one unit op per proposal, and per winner the 2
                // record words + frontier slot + winner-charged reservation
                // write, plus its degree read for the direction rule.
                let parts = led.scoped_par(proposals.len(), 1, &|r, s| {
                    let mut out = Vec::new();
                    let mut deg = 0u64;
                    for chunk in &proposals[r] {
                        s.op(chunk.len() as u64);
                        let won_before = out.len();
                        for &(v, i) in chunk {
                            if claim_ref[v as usize].load(Ordering::Relaxed) == i {
                                parent_ref[v as usize].store(v, Ordering::Relaxed);
                                source_ref[v as usize].store(v, Ordering::Relaxed);
                                deg += g.degree_hint(v) as u64;
                                out.push(v);
                            }
                        }
                        let won = (out.len() - won_before) as u64;
                        s.read(won);
                        s.write(4 * won);
                    }
                    (out, deg)
                });
                // Sources join the frontier in source order.
                let (started, deg) = concat(led, parts);
                visited += started.len();
                visited_deg += deg;
                frontier_deg += deg;
                frontier.extend(started);
            }
        }
        if frontier.is_empty() {
            if done {
                break;
            }
            round += 1;
            continue;
        }

        // Direction rule (module docs). The first conjunct needs no m_u, so
        // the listed-degree pass runs only once bottom-up could pay.
        let top_down_reads = frontier.len() as u64 + 2 * frontier_deg;
        let unvisited = listed.saturating_sub(visited as u64);
        let bottom_up = listed + unvisited < top_down_reads && {
            let total = *listed_deg.get_or_insert_with(|| {
                let sums = led.scoped_par(vertices.len(), FRONTIER_GRAIN, &|r, s| {
                    s.read(r.len() as u64);
                    vertices[r]
                        .iter()
                        .map(|&v| g.degree_hint(v) as u64)
                        .sum::<u64>()
                });
                sums.into_iter().sum()
            });
            listed + unvisited + 2 * total.saturating_sub(visited_deg) < top_down_reads
        };

        let parts: Vec<(Vec<Vertex>, u64)> = if bottom_up {
            // Phase A — read-only scan of the vertex list: one read per
            // listed vertex for its parent word; an unvisited one scans its
            // neighbors until one was visited before this round (such a
            // neighbor is in the frontier), paying the adjacency read and
            // the visited check per scanned neighbor.
            let proposals: Vec<Vec<(Vertex, Vertex)>> =
                led.scoped_par(vertices.len(), FRONTIER_GRAIN, &|r, s| {
                    let mut mine = Vec::new();
                    s.read(r.len() as u64);
                    for &w in &vertices[r] {
                        if parent_ref[w as usize].load(Ordering::Relaxed) != UNREACHED {
                            continue;
                        }
                        let mut checks = 0u64;
                        let found = g.find_neighbor(s.ledger(), w, &mut |u| {
                            checks += 1;
                            parent_ref[u as usize].load(Ordering::Relaxed) != UNREACHED
                        });
                        s.read(checks);
                        if let Some(p) = found {
                            mine.push((w, p));
                        }
                    }
                    mine
                });
            // Phase B — install every winner: 2 record words + frontier
            // slot, and its degree read for the direction rule.
            let parts = led.scoped_par(proposals.len(), 1, &|r, s| {
                let mut out = Vec::new();
                let mut deg = 0u64;
                for chunk in &proposals[r] {
                    for &(w, p) in chunk {
                        parent_ref[w as usize].store(p, Ordering::Relaxed);
                        let src = source_ref[p as usize].load(Ordering::Relaxed);
                        source_ref[w as usize].store(src, Ordering::Relaxed);
                        deg += g.degree_hint(w) as u64;
                        out.push(w);
                    }
                    s.read(chunk.len() as u64);
                    s.write(3 * chunk.len() as u64);
                }
                (out, deg)
            });
            bottom_up_rounds += 1;
            bottom_up_claims += parts.iter().map(|(p, _)| p.len()).sum::<usize>();
            parts
        } else {
            let fr = &frontier;
            // Phase A — propose: each chunk (own ledger scope) enumerates
            // its frontier vertices' neighbors, charging the reads, and
            // reserves every still-unreached neighbor with fetch_min of the
            // proposer's frontier position. `parent` is only written
            // between phases, so the proposal sets are
            // schedule-independent.
            let proposals: Vec<Vec<(Vertex, u32)>> =
                led.scoped_par(fr.len(), FRONTIER_GRAIN, &|r, s| {
                    let mut mine = Vec::new();
                    let mut nbrs = Vec::new();
                    for i in r {
                        let v = fr[i];
                        nbrs.clear();
                        nbrs.reserve(g.degree_hint(v));
                        g.neighbors_into(s.ledger(), v, &mut nbrs);
                        s.read(nbrs.len() as u64); // visited checks / claim attempts
                        for &w in &nbrs {
                            if parent_ref[w as usize].load(Ordering::Relaxed) == UNREACHED {
                                claim_ref[w as usize].fetch_min(i as u32, Ordering::Relaxed);
                                mine.push((w, i as u32));
                            }
                        }
                    }
                    mine
                });
            // Phase B — install winners: a proposal won iff the reservation
            // still carries its own position (the global minimum). Winners
            // are unique per vertex, so the record writes race-free. One
            // unit op per proposal (reservation bookkeeping); per winner: 2
            // record words + 1 frontier slot + the winner-charged priority
            // write of the reservation slot itself (see module docs), and
            // its degree read for the direction rule.
            led.scoped_par(proposals.len(), 1, &|r, s| {
                let mut out = Vec::new();
                let mut deg = 0u64;
                for chunk in &proposals[r] {
                    s.op(chunk.len() as u64);
                    let won_before = out.len();
                    for &(w, i) in chunk {
                        if claim_ref[w as usize].load(Ordering::Relaxed) == i
                            && parent_ref[w as usize].load(Ordering::Relaxed) == UNREACHED
                        {
                            let v = fr[i as usize];
                            parent_ref[w as usize].store(v, Ordering::Relaxed);
                            let src = source_ref[v as usize].load(Ordering::Relaxed);
                            source_ref[w as usize].store(src, Ordering::Relaxed);
                            deg += g.degree_hint(w) as u64;
                            out.push(w);
                        }
                    }
                    let won = (out.len() - won_before) as u64;
                    s.read(won);
                    s.write(4 * won);
                }
                (out, deg)
            })
        };
        // The next frontier concatenates per-chunk winner lists in chunk
        // order — fully deterministic.
        (frontier, frontier_deg) = concat(led, parts);
        visited += frontier.len();
        visited_deg += frontier_deg;
        round += 1;
    }

    BfsResult {
        parent: parent.into_iter().map(AtomicU32::into_inner).collect(),
        source_of: source_of.into_iter().map(AtomicU32::into_inner).collect(),
        visited,
        rounds: round,
        bottom_up_rounds,
        bottom_up_claims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wec_graph::gen::{cycle, disjoint_union, gnm, grid, path};
    use wec_graph::props;
    use wec_graph::Csr;

    fn every_id(g: &Csr) -> Vec<Vertex> {
        (0..g.n() as Vertex).collect()
    }

    fn check_valid_bfs_forest(g: &Csr, r: &BfsResult, sources: &[Vertex]) {
        let dist_all: Vec<Vec<u32>> = sources
            .iter()
            .map(|&s| props::bfs_distances(g, s))
            .collect();
        for v in 0..g.n() as u32 {
            if !r.reached(v) {
                assert!(dist_all.iter().all(|d| d[v as usize] == u32::MAX));
                continue;
            }
            // the tree depth is the min distance over all sources, and the
            // owning source attains it
            let best = dist_all.iter().map(|d| d[v as usize]).min().unwrap();
            assert_eq!(r.depth(v), best, "depth of {v}");
            let owner = sources.iter().position(|&s| s == r.source_of[v as usize]);
            assert_eq!(dist_all[owner.unwrap()][v as usize], best, "owner of {v}");
            let p = r.parent[v as usize];
            if p != v {
                assert!(
                    g.neighbors(v).contains(&p),
                    "parent {p} must be a neighbor of {v}"
                );
                assert_eq!(r.source_of[p as usize], r.source_of[v as usize]);
            } else {
                assert!(sources.contains(&v));
            }
        }
    }

    #[test]
    fn single_source_levels_match_plain_bfs() {
        let g = grid(7, 9);
        let mut led = Ledger::new(8);
        let r = multi_bfs(&mut led, &g, &[0]);
        check_valid_bfs_forest(&g, &r, &[0]);
        assert_eq!(r.visited, 63);
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = path(100);
        let mut led = Ledger::new(8);
        let r = multi_bfs(&mut led, &g, &[0, 99]);
        check_valid_bfs_forest(&g, &r, &[0, 99]);
        assert_eq!(r.depth(50), 49);
        assert_eq!(r.source_of[10], 0);
        assert_eq!(r.source_of[90], 99);
    }

    #[test]
    fn unreached_components_stay_unreached() {
        let g = disjoint_union(&[&cycle(5), &cycle(6)]);
        let mut led = Ledger::new(8);
        let r = multi_bfs(&mut led, &g, &[0]);
        assert_eq!(r.visited, 5);
        assert!(!r.reached(7));
        assert_eq!(r.source_of[7], UNREACHED);
    }

    #[test]
    fn writes_linear_in_reached_not_edges() {
        // Sparse: on a grid a frontier holds at most ~2·side vertices of
        // degree ≤ 4, so a top-down round reads ≤ 9·|F| < |V|, and the rule
        // never picks bottom-up. Every arc is then read both ways.
        let g = grid(40, 50);
        let mut led = Ledger::new(16);
        let r = multi_bfs(&mut led, &g, &[0]);
        assert_eq!((r.visited, r.bottom_up_rounds), (2000, 0));
        assert!(led.costs().asym_writes <= 4 * r.visited as u64 + 64);
        assert!(led.costs().asym_reads >= 2 * g.m() as u64);

        // Dense: the covering rounds go bottom-up, so far fewer than the
        // 2m arc reads top-down would charge, and still ≤ 4 writes per
        // visited vertex (2 record words + frontier slot + winner-charged
        // reservation slot — sources pay the same via the
        // injection-claiming pass; a bottom-up claim skips the reservation).
        let g = gnm(2000, 30_000, 1);
        let mut led = Ledger::new(16);
        let r = multi_bfs(&mut led, &g, &[0]);
        let writes = led.costs().asym_writes;
        assert!(r.bottom_up_rounds > 0);
        assert!(
            writes <= 4 * r.visited as u64 + 64,
            "writes {writes} vs visited {}",
            r.visited
        );
        assert_eq!(writes, 4 * r.visited as u64 - r.bottom_up_claims as u64);
        assert!(led.costs().asym_reads < 2 * 30_000);
    }

    #[test]
    fn bottom_up_rounds_build_a_valid_bfs_forest() {
        let g = gnm(3000, 60_000, 5);
        let sources = [0, 17, 2999];
        let mut led = Ledger::new(16);
        let r = multi_bfs(&mut led, &g, &sources);
        assert!(r.bottom_up_rounds > 0 && r.bottom_up_claims > 0);
        assert!(r.bottom_up_rounds < r.rounds, "early rounds stay top-down");
        check_valid_bfs_forest(&g, &r, &sources);
        assert_eq!(r.visited, 3000);
    }

    /// Everything a search returns or charges, for bit-identity checks.
    type Run = (
        Vec<Vertex>,
        Vec<Vertex>,
        usize,
        usize,
        usize,
        wec_asym::Costs,
        u64,
    );

    fn run_injected(
        mut led: Ledger,
        g: &Csr,
        vertices: &[Vertex],
        waves: &[(usize, Vec<Vertex>)],
    ) -> Run {
        let last = waves.iter().map(|w| w.0).max().unwrap_or(0);
        let r = bfs_with_injection(&mut led, g, vertices, &mut |round, _| Injection {
            sources: waves
                .iter()
                .find(|w| w.0 == round)
                .map(|w| w.1.clone())
                .unwrap_or_default(),
            done: round >= last,
        });
        (
            r.parent,
            r.source_of,
            r.rounds,
            r.bottom_up_rounds,
            r.bottom_up_claims,
            led.costs(),
            led.depth(),
        )
    }

    #[test]
    fn bottom_up_invariant_across_parallelism() {
        // Sources at level 0 only, and waves that land while bottom-up
        // rounds run (rounds 2 and 3), with duplicates and already-visited
        // vertices: forest, round counts, costs and depth are identical
        // under parallel and sequential ledgers.
        let g = gnm(3000, 60_000, 5);
        let all = every_id(&g);
        let start = vec![(0, vec![0, 7, 42])];
        let waves = vec![
            (0, vec![0, 7, 42]),
            (2, (0..120).map(|i| i * 25).collect()),
            (3, (0..300u32).flat_map(|i| [i * 10, i * 10]).collect()),
        ];
        for waves in [start, waves] {
            let par = run_injected(Ledger::new(8), &g, &all, &waves);
            let seq = run_injected(Ledger::sequential(8), &g, &all, &waves);
            assert!(par.4 > 0, "a bottom-up round must fire");
            assert_eq!(par, seq);
        }
    }

    #[test]
    fn dense_view_with_holes_never_claims_a_hole() {
        // Odd ids are holes (no arcs, never listed), on a dense base graph
        // where bottom-up rounds fire: they scan only the listed even ids.
        let base = gnm(1500, 30_000, 8);
        let n = base.n();
        let spread: Vec<(Vertex, Vertex)> =
            base.edges().iter().map(|&(u, v)| (2 * u, 2 * v)).collect();
        let g = Csr::from_edges(2 * n, &spread);
        let evens: Vec<Vertex> = (0..n as u32).map(|v| 2 * v).collect();
        let sources = [0, 2 * 700];
        let waves = vec![(0, sources.to_vec())];
        let par = run_injected(Ledger::new(8), &g, &evens, &waves);
        assert_eq!(par, run_injected(Ledger::sequential(8), &g, &evens, &waves));
        let (parent, source_of, _, bottom_up_rounds, _, _, _) = par;
        assert!(bottom_up_rounds > 0);
        assert!((1..2 * n).step_by(2).all(|v| parent[v] == UNREACHED));
        // On the listed ids it is the base graph's BFS forest.
        let r = BfsResult {
            parent: evens.iter().map(|&v| parent[v as usize] / 2).collect(),
            source_of: evens.iter().map(|&v| source_of[v as usize] / 2).collect(),
            visited: n,
            rounds: 0,
            bottom_up_rounds: 0,
            bottom_up_claims: 0,
        };
        check_valid_bfs_forest(&base, &r, &[0, 700]);
    }

    #[test]
    fn injection_starts_late_sources() {
        let g = disjoint_union(&[&path(10), &path(10)]);
        let mut led = Ledger::new(8);
        let r = bfs_with_injection(&mut led, &g, &every_id(&g), &mut |round, _| match round {
            0 => Injection {
                sources: vec![0],
                done: false,
            },
            3 => Injection {
                sources: vec![10],
                done: true,
            },
            _ => Injection {
                sources: vec![],
                done: false,
            },
        });
        assert_eq!(r.parent[0], 0);
        assert_eq!(r.parent[10], 10); // started at round 3
        assert_eq!(r.source_of[15], 10);
        assert_eq!(r.depth(15), 5);
        assert_eq!(r.visited, 20);
        // the late search reaches vertex 19 nine levels after round 3, and
        // one more round finds its frontier empty
        assert_eq!(r.rounds, 3 + 9 + 1);
    }

    #[test]
    fn injection_skips_already_visited() {
        let g = path(6);
        let mut led = Ledger::new(8);
        let r = bfs_with_injection(&mut led, &g, &every_id(&g), &mut |round, _| match round {
            0 => Injection {
                sources: vec![0],
                done: false,
            },
            2 => Injection {
                sources: vec![1, 5],
                done: true,
            }, // 1 already visited
            _ => Injection {
                sources: vec![],
                done: false,
            },
        });
        assert_eq!(r.source_of[1], 0);
        assert_eq!(r.source_of[5], 5);
        assert_eq!(r.source_of[4], 5); // claimed by source 5 at round 2 + 1
        assert_eq!(r.depth(4), 1);
    }

    #[test]
    fn empty_sources_terminate() {
        let g = path(4);
        let mut led = Ledger::new(8);
        let r = multi_bfs(&mut led, &g, &[]);
        assert_eq!(r.visited, 0);
        assert!(r.parent.iter().all(|&p| p == UNREACHED));
    }

    #[test]
    fn costs_deterministic_across_parallelism() {
        let g = gnm(1500, 6000, 9);
        let run = |mut led: Ledger| {
            let r = multi_bfs(&mut led, &g, &[0, 7, 42]);
            (r.visited, led.costs())
        };
        let (v1, c1) = run(Ledger::new(8));
        let (v2, c2) = run(Ledger::sequential(8));
        assert_eq!(v1, v2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn injection_claiming_invariant_across_parallelism() {
        // Multi-round injection waves with duplicates and already-visited
        // vertices: the parallel injection-claiming pass must produce the
        // same forest, frontier orders, and bit-identical charges as the
        // sequential ledger.
        let g = gnm(1200, 3000, 4);
        let run = |mut led: Ledger| {
            let r = bfs_with_injection(&mut led, &g, &every_id(&g), &mut |round, _| Injection {
                // Big overlapping waves: vertices round*97 .. round*97+400,
                // each listed twice, many already visited by earlier waves.
                sources: (0..400u32)
                    .flat_map(|i| {
                        let v = (round as u32 * 97 + i) % 1200;
                        [v, v]
                    })
                    .collect(),
                done: round >= 3,
            });
            (
                r.parent,
                r.source_of,
                r.visited,
                r.rounds,
                led.costs(),
                led.depth(),
            )
        };
        assert_eq!(run(Ledger::new(8)), run(Ledger::sequential(8)));
    }
}
