//! Reference answers from `wec_baseline`, precomputed at set-up, and the
//! checks every served answer and every build goes through.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wec::asym::Ledger;
use wec::baseline::hopcroft_tarjan;
use wec::baseline::unionfind::{same_partition, uf_labels, UnionFind};
use wec::biconnectivity::BiconnQueryHandle;
use wec::connectivity::{ComponentId, ConnQueryHandle};
use wec::graph::{Csr, Vertex};
use wec::serve::{Answer, Query, ServeResult};

/// Answer code of a typed error.
pub const ERR: u64 = u64::MAX;
/// Answer code of a query that was never answered.
pub const NONE: u64 = u64::MAX - 1;

/// Pack a served result into one word for post-loop checking: predicate
/// answers as 0/1, component ids tagged in the high half, errors as
/// [`ERR`].
pub fn code(r: &ServeResult) -> u64 {
    match r {
        Ok(Answer::Connected(b) | Answer::TwoEdgeConnected(b) | Answer::Biconnected(b)) => {
            u64::from(*b)
        }
        Ok(Answer::Component(id)) => id_code(*id),
        Err(_) => ERR,
    }
}

fn id_code(id: ComponentId) -> u64 {
    match id {
        ComponentId::Labeled(x) => 1 << 32 | u64::from(x),
        ComponentId::Implicit(v) => 2 << 32 | u64::from(v),
    }
}

/// Checks that served component ids and reference labels are in
/// bijection: one id per reference component, one component per id.
#[derive(Default)]
pub struct PartitionCheck {
    fwd: HashMap<u32, u64>,
    bwd: HashMap<u64, u32>,
}

impl PartitionCheck {
    /// Whether `id` (an answer code) is consistent with every pairing seen
    /// so far for reference label `label`.
    pub fn agrees(&mut self, label: u32, id: u64) -> bool {
        id >> 32 != 0
            && id < NONE
            && *self.fwd.entry(label).or_insert(id) == id
            && *self.bwd.entry(id).or_insert(label) == label
    }

    /// Forget every pairing (a new epoch renames components).
    pub fn clear(&mut self) {
        self.fwd.clear();
        self.bwd.clear();
    }
}

/// Ground truth for one static graph: union-find component labels,
/// Hopcroft–Tarjan edge BCC labels, and 2-edge-connected classes (union
/// of the non-bridge edges under Hopcroft–Tarjan's bridge flags).
pub struct Refs<'g> {
    g: &'g Csr,
    conn: Vec<u32>,
    edge_bcc: Vec<u32>,
    tecc: Vec<u32>,
}

impl<'g> Refs<'g> {
    pub fn new(g: &'g Csr) -> Self {
        let ht = hopcroft_tarjan(&mut Ledger::sequential(1), g);
        let mut uf = UnionFind::new(g.n());
        for (eid, &(u, v)) in g.edges().iter().enumerate() {
            if !ht.bridge[eid] {
                uf.union(u, v);
            }
        }
        Refs {
            g,
            conn: uf_labels(g),
            edge_bcc: ht.edge_bcc,
            tecc: uf.labels(),
        }
    }

    /// Whether `u` and `v` share a biconnected component: some edge BCC
    /// touches both.
    fn biconnected(&self, u: Vertex, v: Vertex) -> bool {
        let bccs = |x: Vertex| {
            self.g
                .neighbor_edge_ids(x)
                .iter()
                .map(|&e| self.edge_bcc[e as usize])
        };
        u == v || bccs(u).any(|a| bccs(v).any(|b| a == b))
    }

    /// Whether answer code `got` is right for `q` on the static graph.
    pub fn check(&self, part: &mut PartitionCheck, q: Query, got: u64) -> bool {
        let (u, v) = match q {
            Query::Component(v) => return part.agrees(self.conn[v as usize], got),
            Query::Connected(u, v) | Query::TwoEdgeConnected(u, v) | Query::Biconnected(u, v) => {
                (u as usize, v as usize)
            }
        };
        let want = match q {
            Query::Connected(..) => self.conn[u] == self.conn[v],
            Query::TwoEdgeConnected(..) => self.tecc[u] == self.tecc[v],
            _ => self.biconnected(u as Vertex, v as Vertex),
        };
        got == u64::from(want)
    }

    /// Whether a freshly built connectivity oracle induces the reference
    /// partition (`same_partition` over every vertex's component id).
    pub fn conn_build_ok(&self, h: ConnQueryHandle<'_, '_, Csr>) -> bool {
        let mut led = Ledger::sequential(1);
        let mut dense: HashMap<ComponentId, u32> = HashMap::new();
        let labels: Vec<u32> = (0..self.g.n() as Vertex)
            .map(|v| {
                let id = h.component(&mut led, v);
                let next = dense.len() as u32;
                *dense.entry(id).or_insert(next)
            })
            .collect();
        same_partition(&self.conn, &labels)
    }

    /// Whether a freshly built biconnectivity oracle answers a fixed
    /// sample of predicate queries right: both predicates on the
    /// endpoints of `pairs` random edges and on `pairs` random pairs.
    pub fn biconn_build_ok(
        &self,
        h: BiconnQueryHandle<'_, '_, Csr>,
        pairs: usize,
        seed: u64,
    ) -> bool {
        let mut led = Ledger::sequential(1);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xb1c0);
        let n = self.g.n() as u64;
        let edges = self.g.edges();
        let mut part = PartitionCheck::default();
        (0..2 * pairs).all(|i| {
            let (u, v) = if i % 2 == 0 && !edges.is_empty() {
                edges[rng.gen_range(0..edges.len())]
            } else {
                (rng.gen_range(0..n) as Vertex, rng.gen_range(0..n) as Vertex)
            };
            let te = h.two_edge_connected(&mut led, u, v);
            let bc = h.biconnected(&mut led, u, v);
            self.check(&mut part, Query::TwoEdgeConnected(u, v), u64::from(te))
                && self.check(&mut part, Query::Biconnected(u, v), u64::from(bc))
        })
    }
}
