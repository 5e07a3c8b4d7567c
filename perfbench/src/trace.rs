//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only while [`enabled`] is true; the untraced run
//! pays one relaxed atomic load per probe. Each span carries a name, a
//! start and an end (nanoseconds since the recorder's epoch), its parent
//! span and the op id of the request that caused it. Parents are tracked
//! per thread, so calls that run on server threads have no parent the
//! client can see; their op id is 0.
//!
//! A span's self time is its duration minus the part of that interval
//! its children cover. Children on one thread never overlap, so the
//! covered part is the sum of the children's durations plus any leaf
//! time charged with [`charge_leaf`] (hypothesis evaluations, which are
//! too many to record one span each).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub id: u64,
    /// 0 when the span has no parent on its thread.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Part of `[start, end]` covered by child spans and leaf time.
    pub child_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.child_ns)
    }
}

struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
    child_ns: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Sets the op id that spans opened on this thread belong to.
pub fn set_op(op: u64) {
    OP.with(|c| c.set(op));
}

/// Closes its span when dropped; inert when recording was off at open.
pub struct Guard {
    active: bool,
}

/// Opens a span on this thread (a no-op while recording is off).
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { active: false };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map_or(0, |o| o.id);
        s.push(Open {
            name,
            id,
            parent,
            start_ns: now_ns(),
            child_ns: 0,
        });
    });
    Guard { active: true }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = now_ns();
        let closed = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let open = s.pop()?;
            if let Some(parent) = s.last_mut() {
                parent.child_ns += end_ns - open.start_ns;
            }
            Some(open)
        });
        if let Some(open) = closed {
            let span = Span {
                name: open.name,
                op: OP.with(Cell::get),
                id: open.id,
                parent: open.parent,
                start_ns: open.start_ns,
                end_ns,
                child_ns: open.child_ns,
            };
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(span);
            }
        }
    }
}

/// Charges `ns` of leaf work to the innermost open span on this thread.
pub fn charge_leaf(ns: u64) {
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.child_ns += ns;
        }
    });
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span log lock poisoned by a panicking probe"),
    )
}

/// A copy of every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    SPANS
        .lock()
        .expect("span log lock poisoned by a panicking probe")
        .clone()
}

/// Total self time of the spans named `name`.
pub fn self_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::self_ns)
        .sum()
}

/// Writes the spans as tab-separated lines (one header line first).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\top\tid\tparent\tstart_ns\tend_ns\tself_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.name,
            s.op,
            s.id,
            s.parent,
            s.start_ns,
            s.end_ns,
            s.self_ns()
        )?;
    }
    out.flush()
}
