//! `serve_read`, `serve_ingest` and `serve_write`: requests through
//! `QueryService::run`, one `Arrival` per call as an RPC front-end would
//! make them.
//!
//! The table is 4096 `items` rows (`color` 0..16, `size` 0..8, `price`
//! 0..1000). Queries are `eq AND eq`, `eq OR eq`, `eq AND NOT eq` and
//! `price BETWEEN lo AND lo+20 AND size = eq`; posting lists hold ~100-500
//! RIDs, so per-run kernel setup dominates a read. The write mixes add one
//! append of 1-8 rows per four queries (20% of requests), and the write
//! pays the WAL and snapshots. `serve_ingest` appends to a second table,
//! `events`, so `items` keeps its index; `serve_write` appends to `items`,
//! so every write makes a new generation of the queried table and the next
//! query rebuilds the index. The service runs with the deadlines, retries
//! and snapshot cadence `repro serve` uses.
//!
//! Each reply is checked against a `Predicate::matches` scan over a
//! benchmark-side shadow of the table, which applies the successful writes
//! in serve order; each write is checked against the table it wrote. On
//! `serve_write`, a reply answered from a stale cached index (see
//! `IndexCache`) must instead match the scan of the rows that index was
//! built on; it is booked as `Outcome::Stale`, the known defect.

use std::collections::HashMap;
use std::sync::Arc;

use dbx_core::{run_set_op_with, ProcModel, RunOptions, SetOpKind};
use dbx_faults::XorShift64;
use dbx_query::{
    Arrival, Predicate, QueryEngine, QueryError, QueryService, Reply, Request, ServiceConfig, Table,
};
use dbx_storage::{Columns, Disk, MemDisk, Store, StoreOptions, TableImage};
use dbx_x86ref::scalar;

use crate::ledger::{redrive_kernel, timed, Kernel, Ledger, RunnerCall};
use crate::{OpRecord, Outcome, Workload};

const MODEL: ProcModel = ProcModel::Dba2LsuEis { partial: true };
const TABLE: &str = "items";
/// The table `serve_ingest` appends to; it starts empty.
const EVENTS: &str = "events";
const ROWS: usize = 4096;
/// The stream is made of rounds with an exact mix: 16 queries of each
/// shape, plus 16 appends (two of each size 1..=8) in a write mix. The
/// seed decides the order within a round and the keys, so every round,
/// the warm-up included, does the same amount of work on every seed.
const QUERIES_PER_ROUND: usize = 64;
const WRITES_PER_ROUND: usize = 16;
/// Rounds per pass over the stream. A write mix starts every pass from
/// a fresh store, so `serve_write`'s table never grows past ~5000 rows.
/// The other mixes take longer passes, which steadies their tails across
/// seeds; `events` grows to ~4600 rows in one.
const WRITE_ROUNDS: usize = 13;
const READ_ROUNDS: usize = 64;
const DEADLINE: u64 = 5_000_000;
const SNAPSHOT_EVERY: u64 = 8;

/// Which requests the stream holds besides queries on `items`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Queries only.
    Read,
    /// A fifth of the requests append to `events`.
    Ingest,
    /// A fifth of the requests append to `items`.
    Write,
}

impl Mix {
    /// The table the appends go to.
    fn target(self) -> Option<&'static str> {
        match self {
            Mix::Read => None,
            Mix::Ingest => Some(EVENTS),
            Mix::Write => Some(TABLE),
        }
    }
}

fn config() -> ServiceConfig {
    ServiceConfig {
        queue_cap: 8,
        deadline: Some(DEADLINE),
        max_retries: 2,
        backoff_base: 1_000,
        snapshot_every: SNAPSHOT_EVERY,
        ..Default::default()
    }
}

fn rows(n: usize, rng: &mut XorShift64) -> Columns {
    let mut col = |k: u64| (0..n).map(|_| rng.below(k) as u32).collect::<Vec<u32>>();
    let color = col(16);
    let size = col(8);
    let price = col(1000);
    vec![
        ("color".into(), color),
        ("size".into(), size),
        ("price".into(), price),
    ]
}

/// Query `shape` (0..4) with random keys.
fn query(shape: usize, rng: &mut XorShift64) -> Predicate {
    let color = |rng: &mut XorShift64| Predicate::eq("color", rng.below(16) as u32);
    let size = |rng: &mut XorShift64| Predicate::eq("size", rng.below(8) as u32);
    match shape {
        0 => color(rng).and(size(rng)),
        1 => color(rng).or(color(rng)),
        2 => color(rng).and_not(size(rng)),
        _ => {
            let lo = rng.below(980) as u32;
            Predicate::between("price", lo, lo + 20).and(size(rng))
        }
    }
}

/// The benchmark's own copy of the table: plain columns, in the order
/// `color`, `size`, `price`.
#[derive(Clone)]
struct Shadow([Vec<u32>; 3]);

impl Shadow {
    fn new(cols: &Columns) -> Self {
        Shadow([cols[0].1.clone(), cols[1].1.clone(), cols[2].1.clone()])
    }

    fn empty() -> Self {
        Shadow(Default::default())
    }

    /// Whether `img` holds exactly these rows.
    fn matches(&self, img: &TableImage) -> bool {
        img.columns.len() == 3 && img.columns.iter().zip(&self.0).all(|((_, c), s)| c == s)
    }

    fn append(&mut self, cols: &Columns) {
        for (dst, (_, src)) in self.0.iter_mut().zip(cols) {
            dst.extend_from_slice(src);
        }
    }

    fn rows(&self) -> usize {
        self.0[0].len()
    }

    /// The RIDs among the first `rows` rows that match `pred`.
    fn scan(&self, pred: &Predicate, rows: usize) -> Vec<u32> {
        let [color, size, price] = &self.0;
        (0..rows.min(color.len()))
            .filter(|&r| {
                pred.matches(&|c: &str| match c {
                    "color" => color[r],
                    "size" => size[r],
                    _ => price[r],
                })
            })
            .map(|r| r as u32)
            .collect()
    }

    fn bytes(&self) -> u64 {
        self.0.iter().map(|c| 4 * c.len() as u64).sum()
    }

    /// The index of the table as it was when it had `rows` rows.
    fn index(&self, rows: usize) -> Result<Table, QueryError> {
        let cols: Vec<(&str, Vec<u32>)> = ["color", "size", "price"]
            .into_iter()
            .zip(&self.0)
            .map(|(n, c)| (n, c[..rows].to_vec()))
            .collect();
        Table::try_build(TABLE, &cols)
    }
}

/// `QueryService`'s index cache as the benchmark predicts it: keyed by the
/// address of the table image and cleared when it holds 32 entries, as
/// the service's own is. A write frees the old image, and the allocator
/// can hand its address to a newer generation's image; the service then
/// answers from the index of the older, shorter table.
#[derive(Default)]
struct IndexCache(HashMap<usize, Cached>);

struct Cached {
    /// Rows of the image the index was built on.
    rows: usize,
    /// The index itself, kept by a traced run to re-drive the engine.
    table: Option<Arc<Table>>,
}

impl IndexCache {
    /// Looks `img` up as a query on it just did. Returns its key and
    /// whether the service built a new index for it.
    fn lookup(&mut self, img: &Arc<TableImage>) -> (usize, bool) {
        let key = Arc::as_ptr(img) as usize;
        if self.0.contains_key(&key) {
            return (key, false);
        }
        if self.0.len() >= 32 {
            self.0.clear();
        }
        let rows = img.n_rows();
        self.0.insert(key, Cached { rows, table: None });
        (key, true)
    }
}

/// State a traced run keeps beside the service to re-drive its layers.
struct Tracer {
    /// A second store receiving the same commits, so each commit can be
    /// re-driven on the same state.
    store: Store<MemDisk>,
}

pub struct Serve {
    base: Columns,
    stream: Vec<Request>,
    mix: Mix,
    service: QueryService<MemDisk>,
    /// The benchmark's copies of `items` and `events`.
    shadow: Shadow,
    events: Shadow,
    cache: IndexCache,
    stale_hits: u64,
    generation: u64,
    next: usize,
    /// Simulated cycles of the first pass, and the current pass's so far.
    first_pass: Option<u64>,
    pass_cycles: u64,
    nondeterministic: bool,
    tracer: Option<Tracer>,
}

impl Serve {
    /// Generates the table and request stream from `seed` and opens the
    /// service with the tables created.
    pub fn setup(seed: u64, mix: Mix) -> Self {
        let mut rng = XorShift64::new(seed);
        let base = rows(ROWS, &mut rng);
        // Shapes 0..4 are queries, 4..12 appends of `shape - 3` rows.
        let (rounds, appends) = match mix {
            Mix::Read => (READ_ROUNDS, 0),
            Mix::Ingest => (READ_ROUNDS, WRITES_PER_ROUND),
            Mix::Write => (WRITE_ROUNDS, WRITES_PER_ROUND),
        };
        let mut shapes = Vec::new();
        for _ in 0..rounds {
            let mut round: Vec<usize> = (0..appends)
                .map(|i| 4 + i % 8)
                .chain((0..QUERIES_PER_ROUND).map(|i| i % 4))
                .collect();
            for i in (1..round.len()).rev() {
                round.swap(i, rng.below(i as u64 + 1) as usize);
            }
            shapes.extend(round);
        }
        let stream = shapes
            .into_iter()
            .map(|shape| match shape {
                0..=3 => Request::Query {
                    table: TABLE.into(),
                    predicate: query(shape, &mut rng),
                },
                _ => Request::Append {
                    table: mix.target().expect("a write mix").into(),
                    rows: rows(shape - 3, &mut rng),
                },
            })
            .collect();
        let (service, generation) = open(&base, mix);
        let mut serve = Serve {
            shadow: Shadow::new(&base),
            events: Shadow::empty(),
            cache: IndexCache::default(),
            stale_hits: 0,
            base,
            stream,
            mix,
            service,
            generation,
            next: 0,
            first_pass: None,
            pass_cycles: 0,
            nondeterministic: false,
            tracer: None,
        };
        // Warm-up, one round: the first query builds the index and the
        // kernels' programs are assembled. A write mix then starts over
        // from a fresh store.
        for _ in 0..serve.round_len() {
            serve.step(None);
        }
        if serve.mix != Mix::Read {
            serve.reset();
        }
        serve.next = 0;
        serve.pass_cycles = 0;
        serve.stale_hits = 0;
        serve
    }

    /// Keeps the shadow store a traced run needs.
    pub fn enable_tracing(&mut self) {
        self.tracer = Some(tracer(&self.base, self.mix));
    }

    /// Restarts from a fresh store with the initial tables.
    fn reset(&mut self) {
        let (service, generation) = open(&self.base, self.mix);
        self.service = service;
        self.generation = generation;
        self.shadow = Shadow::new(&self.base);
        self.events = Shadow::empty();
        self.cache = IndexCache::default();
        if self.tracer.is_some() {
            self.tracer = Some(tracer(&self.base, self.mix));
        }
    }

    /// Bytes on the service's disk and user bytes stored, for the ledger.
    fn book_storage(&self, led: &mut Ledger) {
        let disk = self.service.store().disk();
        led.disk_bytes += disk
            .list()
            .iter()
            .map(|f| disk.read(f).map_or(0, |b| b.len() as u64))
            .sum::<u64>();
        led.user_bytes += self.shadow.bytes() + self.events.bytes();
    }
}

/// The tables a mix starts with: `items`, and an empty `events` on
/// `serve_ingest`.
fn initial_tables(base: &Columns, mix: Mix) -> Vec<(&'static str, Columns)> {
    let mut tables = vec![(TABLE, base.clone())];
    if mix == Mix::Ingest {
        let empty = base.iter().map(|(n, _)| (n.clone(), Vec::new())).collect();
        tables.push((EVENTS, empty));
    }
    tables
}

fn open(base: &Columns, mix: Mix) -> (QueryService<MemDisk>, u64) {
    let mut service = QueryService::open(MemDisk::new(), MODEL, config())
        .expect("open the service on a fresh disk");
    let mut generation = 0;
    for (table, columns) in initial_tables(base, mix) {
        let create = Arrival::new(
            0,
            Request::Create {
                table: table.into(),
                columns,
            },
        );
        let report = service.run(&[create]);
        match report.completions[0].result {
            Ok(Reply::Committed(g)) => generation = g,
            ref other => panic!("creating the benchmark table {table} failed: {other:?}"),
        }
    }
    (service, generation)
}

fn tracer(base: &Columns, mix: Mix) -> Tracer {
    let opts = StoreOptions {
        snapshot_every: SNAPSHOT_EVERY,
        ..Default::default()
    };
    let mut store = Store::open(MemDisk::new(), opts).expect("open the shadow store");
    for (table, columns) in initial_tables(base, mix) {
        let mut txn = store.begin();
        txn.create_table(table, columns);
        store.commit(txn).expect("create the shadow table");
    }
    Tracer { store }
}

type Calls = Vec<(SetOpKind, Vec<u32>, Vec<u32>)>;

/// Books one kernel call and returns its scalar result.
fn offload(kind: SetOpKind, a: Vec<u32>, b: Vec<u32>, calls: &mut Calls) -> Vec<u32> {
    let out = match kind {
        SetOpKind::Intersect => scalar::intersect(&a, &b),
        SetOpKind::Union => scalar::union(&a, &b),
        SetOpKind::Difference => scalar::difference(&a, &b),
    };
    calls.push((kind, a, b));
    out
}

/// Indexes a table image the way the service does.
fn index(img: &TableImage) -> Result<Table, QueryError> {
    let cols: Vec<(&str, Vec<u32>)> = img
        .columns
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    Table::try_build(&img.name, &cols)
}

/// The engine's kernel calls for `pred`, in the order it offloads them:
/// the engine's evaluation replayed on the benchmark side.
fn plan(table: &Table, pred: &Predicate, calls: &mut Calls) -> Vec<u32> {
    match pred {
        Predicate::Eq { column, value } => table
            .index(column)
            .map_or(Vec::new(), |ix| ix.lookup(*value).to_vec()),
        Predicate::Range { column, lo, hi } => {
            let Some(ix) = table.index(column) else {
                return Vec::new();
            };
            // A balanced tree of unions; an odd trailing list is carried.
            let mut level: Vec<Vec<u32>> = ix
                .range(*lo, *hi)
                .into_iter()
                .map(<[u32]>::to_vec)
                .collect();
            while level.len() > 1 {
                let carry = if level.len() % 2 == 1 {
                    level.pop()
                } else {
                    None
                };
                let mut it = std::mem::take(&mut level).into_iter();
                while let (Some(a), Some(b)) = (it.next(), it.next()) {
                    level.push(offload(SetOpKind::Union, a, b, calls));
                }
                level.extend(carry);
            }
            level.pop().unwrap_or_default()
        }
        Predicate::And(a, b) | Predicate::Or(a, b) | Predicate::AndNot(a, b) => {
            let kind = match pred {
                Predicate::And(..) => SetOpKind::Intersect,
                Predicate::Or(..) => SetOpKind::Union,
                _ => SetOpKind::Difference,
            };
            let ra = plan(table, a, calls);
            let rb = plan(table, b, calls);
            offload(kind, ra, rb, calls)
        }
    }
}

impl Workload for Serve {
    fn round_len(&self) -> usize {
        QUERIES_PER_ROUND
            + match self.mix {
                Mix::Read => 0,
                _ => WRITES_PER_ROUND,
            }
    }

    fn step(&mut self, mut led: Option<&mut Ledger>) -> OpRecord {
        let mut setup_ns = None;
        if self.next == self.stream.len() {
            self.next = 0;
            // A pass repeats exactly, except on `serve_write`, where stale
            // indexes (see the README) make passes differ.
            let first = *self.first_pass.get_or_insert(self.pass_cycles);
            self.nondeterministic |= self.mix != Mix::Write && first != self.pass_cycles;
            self.pass_cycles = 0;
            if self.mix != Mix::Read {
                if let Some(led) = led.as_deref_mut() {
                    self.book_storage(led);
                }
                setup_ns = Some(timed(|| self.reset()).1);
            }
        }
        let request = &self.stream[self.next];
        self.next += 1;
        let arrival = Arrival::new(0, request.clone());
        let before = dbx_core::progcache::assemblies();
        let (mut report, ns) = timed(|| self.service.run(std::slice::from_ref(&arrival)));
        let misses = dbx_core::progcache::assemblies() - before;
        let done = report
            .completions
            .pop()
            .expect("one completion per arrival");
        let cycles = done.latency();
        self.pass_cycles += cycles;

        let ((outcome, new_generation, indexed), oracle_ns) = timed(|| {
            let indexed = match request {
                Request::Query { .. } => {
                    let view = self.service.view();
                    view.table(TABLE).map(|img| self.cache.lookup(img))
                }
                _ => None,
            };
            // Rows of the stale index this query was answered from.
            let stale = indexed
                .map(|(key, _)| self.cache.0[&key].rows)
                .filter(|&rows| self.mix == Mix::Write && rows != self.shadow.rows());
            self.stale_hits += stale.is_some() as u64;
            let (outcome, new_generation) = match (request, &done.result) {
                (Request::Query { predicate, .. }, Ok(Reply::Rids(rids))) => {
                    let outcome = if *rids == self.shadow.scan(predicate, usize::MAX) {
                        Outcome::Ok
                    } else if stale.is_some_and(|rows| *rids == self.shadow.scan(predicate, rows)) {
                        Outcome::Stale
                    } else {
                        Outcome::Mismatch
                    };
                    (outcome, false)
                }
                (Request::Append { table, rows }, Ok(Reply::Committed(g))) => {
                    let written = match self.mix {
                        Mix::Ingest => &mut self.events,
                        _ => &mut self.shadow,
                    };
                    written.append(rows);
                    let view = self.service.view();
                    let ok = *g == self.generation + 1
                        && view.table(table).is_some_and(|img| written.matches(img));
                    self.generation = *g;
                    (if ok { Outcome::Ok } else { Outcome::Mismatch }, true)
                }
                (_, Ok(_)) => (Outcome::Mismatch, false),
                (_, Err(_)) => (Outcome::Failed, false),
            };
            (outcome, new_generation, indexed)
        });

        let mut redrive_ns = 0.0;
        if let (Some(led), Some(tracer)) = (led, self.tracer.as_mut()) {
            let t = std::time::Instant::now();
            match request {
                Request::Query { predicate, .. } => {
                    let reply = match &done.result {
                        Ok(Reply::Rids(rids)) => Some(rids.as_slice()),
                        _ => None,
                    };
                    let q = Query {
                        pred: predicate,
                        indexed,
                        svc_ns: ns,
                        misses,
                        reply,
                    };
                    redrive_query(&self.service, &mut self.cache, &self.shadow, &q, led)
                }
                Request::Append { table, rows } if new_generation => {
                    let before = tracer.store.last_commit_position().cloned();
                    let mut txn = tracer.store.begin();
                    txn.append_rows(table, rows.clone());
                    let (r, commit) = timed(|| tracer.store.commit(txn));
                    led.mismatched |= r.is_err();
                    let after = tracer.store.last_commit_position().cloned();
                    led.wal_bytes += match (before, after) {
                        (Some((s0, e0)), Some((s1, e1))) if s0 == s1 => (e1 - e0) as u64,
                        (_, Some((_, e1))) => e1 as u64,
                        _ => 0,
                    };
                    led.writes += 1;
                    led.commit_times.push(commit);
                    led.commit_ns += commit;
                    led.service_self_ns += ns - commit;
                }
                _ => led.service_self_ns += ns,
            }
            redrive_ns = t.elapsed().as_nanos() as f64;
        }
        OpRecord {
            ns,
            cycles,
            outcome,
            oracle_ns,
            redrive_ns,
            setup_ns,
        }
    }

    fn sim_cycles_per_op(&self) -> Option<f64> {
        let pass = self.first_pass.unwrap_or(self.pass_cycles);
        let n = if self.first_pass.is_some() {
            self.stream.len()
        } else {
            self.next
        };
        (n > 0).then(|| pass as f64 / n as f64)
    }

    fn consistent(&self) -> bool {
        !self.nondeterministic
    }

    fn stale_hits(&self) -> u64 {
        self.stale_hits
    }

    fn finish(&mut self, led: &mut Ledger) {
        self.book_storage(led);
    }
}

/// One query as the service ran it.
struct Query<'a> {
    pred: &'a Predicate,
    /// The index cache key of the image it ran on, and whether the
    /// service built that index.
    indexed: Option<(usize, bool)>,
    /// Host time of the service call, and program-cache misses during it.
    svc_ns: f64,
    misses: u64,
    /// The RIDs the service replied with.
    reply: Option<&'a [u32]>,
}

/// Re-drives one query's layers: index build, engine, and each kernel.
fn redrive_query(
    service: &QueryService<MemDisk>,
    cache: &mut IndexCache,
    shadow: &Shadow,
    q: &Query,
    led: &mut Ledger,
) {
    led.queries += 1;
    led.misses += q.misses;
    let Some((key, built)) = q.indexed else {
        led.mismatched = true;
        return;
    };
    let entry = cache.0.get_mut(&key).expect("looked up by the oracle");
    let mut index_ns = 0.0;
    if built {
        let view = service.view();
        let img = view.table(TABLE).expect("the benchmark table exists");
        let (table, ns) = timed(|| index(img));
        let Ok(table) = table else {
            led.mismatched = true;
            return;
        };
        entry.table = Some(Arc::new(table));
        led.index_builds += 1;
        led.index_ns += ns;
        index_ns = ns;
    } else if entry.table.is_none() {
        // Cached before tracing began: rebuild the index the service
        // holds, from the rows it was built on, off the books.
        match shadow.index(entry.rows) {
            Ok(table) => entry.table = Some(Arc::new(table)),
            Err(_) => {
                led.mismatched = true;
                return;
            }
        }
    }
    let table = Arc::clone(entry.table.as_ref().expect("set above"));
    let opts = RunOptions {
        deadline: Some(DEADLINE),
        ..Default::default()
    };
    let engine = QueryEngine::with_options(MODEL, opts.clone());
    let (out, engine_ns) = timed(|| engine.execute(&table, q.pred));
    let Ok(out) = out else {
        led.mismatched = true;
        return;
    };
    let mut calls = Vec::new();
    let rids = plan(&table, q.pred, &mut calls);
    led.set_ops += out.set_ops;
    led.mismatched |= out.set_ops != calls.len() as u64
        || out.rids != rids
        || q.reply.is_some_and(|reply| reply != out.rids);

    // The re-driven calls find their programs cached by the service's
    // call; the assemblies the service paid are booked here instead.
    let (mut kernels_ns, mut asm_ns) = (0.0, 0.0);
    for (kind, a, b) in &calls {
        let before = dbx_core::progcache::assemblies();
        let (run, ns) = timed(|| run_set_op_with(MODEL, *kind, a, b, &opts));
        let Ok(run) = run else {
            led.mismatched = true;
            continue;
        };
        let k = Kernel::Set {
            model: MODEL,
            kind: *kind,
            a,
            b,
        };
        let call = RunnerCall {
            ns,
            cycles: run.cycles,
            result: &run.result,
            misses: dbx_core::progcache::assemblies() - before,
        };
        match redrive_kernel(&k, &opts, &call, led) {
            Ok(asm) => asm_ns += asm,
            Err(_) => led.mismatched = true,
        }
        kernels_ns += ns;
    }
    let paid = if calls.is_empty() {
        0.0
    } else {
        q.misses as f64 * asm_ns / calls.len() as f64
    };
    led.assemble_ns += paid;
    led.engine_self_ns += engine_ns - kernels_ns;
    led.service_self_ns += q.svc_ns - index_ns - engine_ns - paid;
}
