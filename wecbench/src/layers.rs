//! The traced run's instruments: per-call timers around the calls into
//! each layer, and the one adapter that reads the stack's stats structs.
//! Untraced runs use neither.

use std::time::Instant;

use rayon::SchedulerStats;
use wec::biconnectivity::BiconnQueryHandle;
use wec::connectivity::ConnQueryHandle;
use wec::graph::Csr;
use wec::serve::{
    CacheStats, ClientStats, EpochStats, Frontend, FrontendStats, FullStreamingServer, WireClient,
};

/// The streaming server every serving workload drives.
pub type Srv<'o, 'g> = FullStreamingServer<'o, 'g, Csr>;
/// The wire front end over [`Srv`].
pub type Fe<'o, 'g> = Frontend<ConnQueryHandle<'o, 'g, Csr>, BiconnQueryHandle<'o, 'g, Csr>>;

/// Run `f`, appending its wall time in seconds to `samples`.
pub fn timed<R>(samples: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    samples.push(t.elapsed().as_secs_f64());
    r
}

/// What the adapter reads from.
pub enum Stack<'s, 'o, 'g> {
    /// Only the scheduler (build workloads).
    Pool,
    /// A streaming server driven in process.
    Server(&'s Srv<'o, 'g>),
    /// A wire front end and its clients.
    Wire(&'s Fe<'o, 'g>, &'s [WireClient]),
}

/// Every stats struct the benchmark reads, in one snapshot. Fields of
/// layers the stack lacks stay zero.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub cache: CacheStats,
    pub epoch: EpochStats,
    pub frontend: FrontendStats,
    /// Resubmissions and deadline drops, summed over the clients.
    pub client: ClientStats,
    pub sched: SchedulerStats,
}

/// The one adapter: the only place the benchmark reads `CacheStats`,
/// `EpochStats`, `FrontendStats`, `ClientStats` and `scheduler_stats()`.
pub fn counters(stack: Stack<'_, '_, '_>) -> Counters {
    let mut c = Counters {
        sched: rayon::scheduler_stats(),
        ..Counters::default()
    };
    let srv = match stack {
        Stack::Pool => return c,
        Stack::Server(srv) => srv,
        Stack::Wire(fe, clients) => {
            c.frontend = fe.frontend_stats();
            for s in clients.iter().map(WireClient::client_stats) {
                c.client.resubmitted += s.resubmitted;
                c.client.deadline_drops += s.deadline_drops;
            }
            fe.server()
        }
    };
    c.cache = srv.cache_stats();
    c.epoch = srv.epoch_stats();
    c
}

/// Per-call scheduler counters (`scheduler_stats()` deltas) summed over
/// the traced calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolDelta {
    pub calls: u64,
    pub steals: u64,
    pub parks: u64,
    pub blocked_joins: u64,
    pub published: u64,
}

impl PoolDelta {
    /// Fold in one call's delta between two [`counters`] snapshots.
    pub fn add(&mut self, before: &Counters, after: &Counters) {
        let d = after.sched.since(&before.sched);
        self.calls += 1;
        self.steals += d.steals;
        self.parks += d.parks;
        self.blocked_joins += d.blocked_joins;
        self.published += d.published_deque + d.published_injector;
    }

    /// The `shims.rayon.*` metrics, per call.
    pub fn values(&self) -> [(&'static str, f64); 4] {
        let per = |x: u64| x as f64 / self.calls.max(1) as f64;
        [
            ("shims.rayon.steals", per(self.steals)),
            ("shims.rayon.parks", per(self.parks)),
            ("shims.rayon.blocked_joins", per(self.blocked_joins)),
            ("shims.rayon.published", per(self.published)),
        ]
    }
}
