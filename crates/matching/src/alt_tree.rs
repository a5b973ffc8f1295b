//! The simultaneous alternating-tree backend: sparse-native exact MWPM.
//!
//! This is the one exact decoder and the default [`crate::MatcherKind`].
//! It needs no dense all-pairs cost matrix and no per-cluster dense solve:
//! following the core idea behind PyMatching v2's sparse blossom, *every*
//! unmatched defect grows an alternating-tree region directly on the
//! sparse [`SyndromeGraph`], all at once.
//!
//! The machinery:
//!
//! * **Regions as duals.**  Each defect `i` owns a Dijkstra exploration of
//!   the graph (a monotonically growing set of `(vertex, distance)` claims)
//!   and a dual variable `y_i`.  Exploration is driven lazily so the
//!   invariant *everything within radius `y_i` is settled* always holds;
//!   exploration state is never undone, even when duals later shrink —
//!   claims are facts about the graph, not about the matching.
//! * **A global, time-bucketed event queue.**  It orders the next-tight
//!   events: *settle* (a region's Dijkstra frontier becomes reachable,
//!   possibly discovering new candidate edges), *edge-tight* (a discovered
//!   defect–defect candidate's slack hits zero), *boundary-hit* (a defect's
//!   cheapest boundary attachment becomes tight), and *shrink-to-zero* (an
//!   inner blossom's dual reaches zero and the blossom must expand).  One
//!   call sees few distinct event times (on d = 11 windows, about 4 per
//!   call, with a few hundred events popped at each), so events with
//!   exactly equal times share a bucket, and only the short list of live
//!   buckets is kept sorted.  Pops go by time, then by kind, then from the
//!   end of the kind's list: a newly scheduled entry is pushed on the end,
//!   and a re-key fills the hole it leaves with the list's last entry.
//!   This mostly last-scheduled-first, depth-first order within one time
//!   makes fewer grows than an id order.  Each source — a region, a
//!   candidate, a blossom — holds at most one live entry: re-scheduling a
//!   source moves its entry, so the queue never fills with superseded
//!   copies.  An entry can still go stale when a state change *delays* its
//!   event without re-scheduling it, so every pop re-costs the event
//!   against the current duals before acting on it.
//! * **Wake only on a rate rise.**  An event time moves earlier only when
//!   some endpoint's growth rate rises, so a structural change re-schedules
//!   the defects of exactly the nodes whose rate rose: the inner children
//!   of a new blossom (−1 → +1), the children of an expanded blossom that
//!   leave the inner state (−1 → +1 or 0), the matched partner a tree grabs
//!   (0 → +1), and the inner members of a dismantled tree (−1 → 0).  The
//!   grabbed node itself (0 → −1) and the outer members of a dismantled
//!   tree (+1 → 0) slow down; their events are only late, and the pop-time
//!   re-costing drops or re-keys them.  Children that keep their rate keep
//!   their scheduled (or parked) events untouched.
//! * **One-lookup candidate dedup.**  Every meet is offered by the region
//!   being settled, so a settle first stamps that region's candidates into
//!   a table indexed by their other endpoint; finding the existing
//!   candidate for a meet is then one array read.
//! * **Candidate edges are exact when it matters.**  A meet between regions
//!   `i` and `j` yields the candidate cost `d_i(u) + w(u,v) + d_j(v)`.
//!   Because `y_i ≤ (settled radius of i)` at all times, the moment
//!   `y_i + y_j` reaches the true distance `d(i,j)` the certifying meet has
//!   been discovered and the best candidate *equals* `d(i,j)` — so tight
//!   edges always carry exact shortest-path costs, and matched pairs are
//!   exact by construction.
//! * **Lazy blossoms.**  A tight edge between two outer nodes of the same
//!   tree contracts the odd cycle of tight edges into a blossom node whose
//!   cycle edges are remembered; augmentation re-bases blossoms along the
//!   concrete candidate edges (the PR-8 lesson: the recursion must thread
//!   the actual edge, never re-derive it).  Inner blossoms whose dual hits
//!   zero dissolve back into their children.
//! * **The boundary is an infinite-capacity virtual vertex.**  A tight
//!   boundary edge from an outer node is an immediate augmenting path, and
//!   a tight edge into a boundary-matched free node re-matches that node
//!   and releases its boundary attachment — no boundary-slot pools, no
//!   retry doubling, no big-M.
//!
//! Zero-weight pre-pairing (a Q3DE anomaly at `p = 0.5`): defects in one
//! zero-weight component pair for free and only the residual parity enters
//! the tree machinery.
//!
//! The backend keeps cumulative event, blossom and wake counts
//! ([`AltTreeBackend::counters`]); they are plain integer bumps on paths
//! that already do far more work, so they are always on.
//!
//! All scratch — region arrays, the event queue, claim lists, the blossom
//! stack, parent pointers — persists across calls per the
//! [`crate::DecoderBackend`] `&mut self` contract, and the backend is
//! stateless up to scratch: reused instances decode bit-identically to
//! fresh ones.
//!
//! Exactness is pinned by *total matching weight equality* against the
//! bitmask-DP oracle [`ExactBackend`](crate::ExactBackend) on every
//! differential and property suite, plus a 30k-instance tie-heavy
//! random-graph differential.

use crate::sparse::{DefectBoundaryMatch, DefectMatching, DefectPair, SparseEdgeId, SyndromeGraph};
use crate::DecoderBackend;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Edges at or below this weight are treated as free by the zero-weight
/// pre-pairing contraction.
const ZERO_EPS: f64 = 1e-12;

/// Sentinel node / defect id meaning "none".
const NONE: u32 = u32::MAX;
/// Sentinel partner id meaning "matched to the lattice boundary".
const BOUNDARY: u32 = u32::MAX - 1;

// ---------------------------------------------------------------------------
// Region exploration (per-defect lazy Dijkstra).
// ---------------------------------------------------------------------------

/// One entry of a region's Dijkstra frontier heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Frontier {
    cost: f64,
    vertex: u32,
}
impl Eq for Frontier {}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap; ties break on vertex id so
        // settle order is deterministic.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// ---------------------------------------------------------------------------
// The global event queue.
// ---------------------------------------------------------------------------

/// Event kinds, in tie-break priority order at equal virtual time.
/// Settles run first so candidate discovery precedes tightness checks at
/// the same radius; structural events follow deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A region's Dijkstra frontier becomes reachable: settle it.
    Settle,
    /// An inner blossom's dual reaches zero: expand it.
    BlossomZero,
    /// A defect–defect candidate edge's slack reaches zero.
    EdgeTight,
    /// A defect's cheapest boundary attachment becomes tight.
    BoundaryHit,
}

/// Number of [`EventKind`]s.
const KINDS: usize = 4;

/// Every kind, in [`EventKind`] (pop) order.
const KIND_ORDER: [EventKind; KINDS] = [
    EventKind::Settle,
    EventKind::BlossomZero,
    EventKind::EdgeTight,
    EventKind::BoundaryHit,
];

/// One scheduled event at absolute virtual time `t`, from source
/// `(kind, id)`: a region (settle, boundary-hit), a candidate edge
/// (edge-tight) or a blossom node (shrink-to-zero).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    t: f64,
    kind: EventKind,
    id: u32,
}

/// Index of source `(kind, id)` in the queue's position table.
#[inline]
fn source(kind: EventKind, id: u32) -> usize {
    id as usize * KINDS + kind as usize
}

/// All live entries at one virtual time: one id list per [`EventKind`].
#[derive(Debug, Clone, Default)]
struct Bucket {
    t: f64,
    ids: [Vec<u32>; KINDS],
    /// Entries over all kinds; the bucket is released when it hits zero.
    len: u32,
}

/// Where a source's live entry sits: `ids[kind][index]` of bucket `bucket`
/// (`bucket == NONE` when the source has no live entry).
#[derive(Debug, Clone, Copy)]
struct Slot {
    bucket: u32,
    index: u32,
}

const NO_SLOT: Slot = Slot {
    bucket: NONE,
    index: 0,
};

/// A time-bucketed event queue holding at most one live entry per
/// `(kind, id)` source.
///
/// Entries with exactly equal times share a bucket, so a matcher call that
/// schedules thousands of events over a handful of distinct times keeps
/// only a handful of buckets in order; everything else is a push or a
/// `swap_remove` on a list.  Pop order is time, then kind, then the end of
/// the kind's list first.  A newly scheduled entry is pushed on the end of
/// its list, so without re-keys a kind pops last scheduled first.
/// Scheduling a source that already has an entry moves that entry (re-key)
/// instead of adding a second one; the move fills the vacated place with
/// its list's last entry, which then pops in the moved entry's old turn.
#[derive(Debug, Clone, Default)]
struct EventQueue {
    /// Bucket arena; slots are recycled through `spare`.
    buckets: Vec<Bucket>,
    /// Live bucket slots sorted by time, the earliest last.
    live: Vec<u32>,
    /// Released (empty) bucket slots.
    spare: Vec<u32>,
    /// Slot of each source's live entry (see [`source`]).
    pos: Vec<Slot>,
}

impl EventQueue {
    /// Number of live entries.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.live
            .iter()
            .map(|&b| self.buckets[b as usize].len as usize)
            .sum()
    }

    /// Schedules source `(kind, id)` at finite time `t`: inserts it, or
    /// moves its live entry to `t` (nothing to do when `t` is unchanged).
    fn push(&mut self, t: f64, kind: EventKind, id: u32) {
        debug_assert!(t.is_finite());
        let src = source(kind, id);
        if src >= self.pos.len() {
            self.pos.resize(src + 1, NO_SLOT);
        }
        let slot = self.pos[src];
        if slot.bucket != NONE {
            if self.buckets[slot.bucket as usize].t == t {
                return;
            }
            self.remove(slot, kind);
        }
        let b = self.bucket_at(t);
        let bucket = &mut self.buckets[b as usize];
        let list = &mut bucket.ids[kind as usize];
        self.pos[src] = Slot {
            bucket: b,
            index: list.len() as u32,
        };
        list.push(id);
        bucket.len += 1;
    }

    /// Removes and returns the first event: earliest time, then first kind
    /// in [`EventKind`] order, then the last entry of that kind's list.
    fn pop(&mut self) -> Option<Event> {
        let &b = self.live.last()?;
        let bucket = &mut self.buckets[b as usize];
        let t = bucket.t;
        let (kind, id) = KIND_ORDER
            .iter()
            .find_map(|&kind| bucket.ids[kind as usize].pop().map(|id| (kind, id)))
            .expect("live buckets are never empty");
        bucket.len -= 1;
        if bucket.len == 0 {
            self.live.pop();
            self.spare.push(b);
        }
        self.pos[source(kind, id)] = NO_SLOT;
        Some(Event { t, kind, id })
    }

    /// Drops every live entry, resetting only the positions they held.
    fn clear(&mut self) {
        for &b in &self.live {
            let bucket = &mut self.buckets[b as usize];
            for kind in KIND_ORDER {
                for id in bucket.ids[kind as usize].drain(..) {
                    self.pos[source(kind, id)] = NO_SLOT;
                }
            }
            bucket.len = 0;
        }
        self.spare.append(&mut self.live);
    }

    /// The live bucket at time `t`, opened (from a spare slot if one is
    /// free) when no entry has that time yet.
    fn bucket_at(&mut self, t: f64) -> u32 {
        let at = self
            .live
            .partition_point(|&b| self.buckets[b as usize].t > t);
        if let Some(&b) = self.live.get(at) {
            if self.buckets[b as usize].t == t {
                return b;
            }
        }
        let b = self.spare.pop().unwrap_or_else(|| {
            self.buckets.push(Bucket::default());
            self.buckets.len() as u32 - 1
        });
        self.buckets[b as usize].t = t;
        self.live.insert(at, b);
        b
    }

    /// Takes the entry at `slot` (of kind `kind`) out of its bucket,
    /// releasing the bucket when it empties.
    fn remove(&mut self, slot: Slot, kind: EventKind) {
        let bucket = &mut self.buckets[slot.bucket as usize];
        let list = &mut bucket.ids[kind as usize];
        list.swap_remove(slot.index as usize);
        if let Some(&moved) = list.get(slot.index as usize) {
            self.pos[source(kind, moved)].index = slot.index;
        }
        bucket.len -= 1;
        if bucket.len == 0 {
            let t = bucket.t;
            let at = self
                .live
                .partition_point(|&b| self.buckets[b as usize].t > t);
            debug_assert_eq!(self.live[at], slot.bucket);
            self.live.remove(at);
            self.spare.push(slot.bucket);
        }
    }
}

/// A discovered defect–defect candidate edge: concrete residual-defect
/// endpoints and the best (smallest) meet cost seen so far.  The cost only
/// ever decreases, and equals the true shortest-path distance whenever the
/// edge goes tight (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Cand {
    a: u32,
    b: u32,
    c: f64,
}

// ---------------------------------------------------------------------------
// The backend.
// ---------------------------------------------------------------------------

/// The simultaneous alternating-tree backend (see the module docs).
/// Select it with [`crate::MatcherKind::Tree`].
///
/// Exactness contract: total matching weight equals the dense exact
/// oracle's on every instance, with no cluster-size cliff and no
/// per-cluster dense solves at all.
#[derive(Debug, Clone, Default)]
pub struct AltTreeBackend {
    // -- per-call problem size ------------------------------------------------
    /// Residual defect count `k` of the current call.
    k: usize,
    /// Virtual time: every growing region's dual advances at rate 1.
    now: f64,
    /// Slack tolerance, scaled from the largest edge weight of the graph.
    eps: f64,

    // -- region exploration ---------------------------------------------------
    /// One Dijkstra frontier heap per residual defect (reused, grow-only).
    fronts: Vec<BinaryHeap<Frontier>>,
    /// `claims[v]` = `(region, dist)` settles of vertex `v`, in settle order.
    claims: Vec<Vec<(u32, f64)>>,
    /// Vertices holding claims, for cheap clearing next call.
    touched: Vec<u32>,
    /// Cheapest `(cost, boundary edge)` attachment per residual defect.
    bnd: Vec<Option<(f64, SparseEdgeId)>>,
    /// The boundary attachment actually matched, captured at augment time so
    /// later discoveries cannot retarget an already-committed match.
    bnd_used: Vec<Option<(f64, SparseEdgeId)>>,

    // -- candidate edges ------------------------------------------------------
    cands: Vec<Cand>,
    /// `adj[defect]` = candidate ids incident to that residual defect.
    adj: Vec<Vec<u32>>,

    // -- duals (lazily materialised against `now`) ----------------------------
    /// Defect dual at its last materialisation.
    y: Vec<f64>,
    /// Virtual time of that materialisation.
    y_at: Vec<f64>,
    /// Blossom dual at its last materialisation (slots `k..`).
    z: Vec<f64>,
    z_at: Vec<f64>,

    // -- alternating-tree / blossom structure ---------------------------------
    /// Outermost container of each node id (`st[x] == x` iff outermost).
    st: Vec<u32>,
    /// Immediate container blossom of each node (NONE at top level).
    up: Vec<u32>,
    /// Tree state of each *outermost* node: 0 outer, 1 inner, -1 free.
    state: Vec<i8>,
    /// Concrete defect in the parent node on the tree edge (NONE at roots).
    pa: Vec<u32>,
    /// Candidate id of that tree edge.
    pa_edge: Vec<u32>,
    /// Concrete partner defect (`BOUNDARY`, or NONE while unmatched); for a
    /// blossom id, the partner of its base.
    matched: Vec<u32>,
    /// Candidate id realising `matched` (unused for boundary matches).
    matched_edge: Vec<u32>,
    /// Blossom cycles, base first (odd length).
    flower: Vec<Vec<u32>>,
    /// `flower_edges[i]` joins `flower[i]` and `flower[(i + 1) % len]`.
    flower_edges: Vec<Vec<u32>>,
    /// Recycled blossom node ids.
    free_slots: Vec<u32>,
    /// Upper bound on allocated node ids (defects + live/dead blossoms).
    n_ids: usize,

    // -- trees ----------------------------------------------------------------
    /// Tree tag of each node (NONE when not in a tree).
    tree_tag: Vec<u32>,
    /// Member node ids per tree tag (may contain absorbed/stale ids).
    tree_members: Vec<Vec<u32>>,
    free_trees: Vec<u32>,

    // -- the event queue ------------------------------------------------------
    events: EventQueue,

    // -- bookkeeping ----------------------------------------------------------
    /// LCA walk stamps.
    vis: Vec<u32>,
    vis_epoch: u32,
    /// Number of residual defects not yet matched.
    unmatched: usize,
    /// Zero-weight contraction union-find over graph vertices.
    zero_parent: Vec<u32>,
    /// `(zero-weight component root, defect index)` keys of the pre-pairing.
    zero_keys: Vec<(u32, u32)>,
    /// Caller-facing defect index of each residual region.
    residual: Vec<usize>,
    /// Graph vertex of each residual region.
    vertices: Vec<usize>,
    /// Defects found by the last [`Self::collect_defects`] walk.
    walk: Vec<u32>,
    /// Node stack of the blossom-nesting walks.
    stack: Vec<u32>,
    /// One tree path's nodes and edges while a blossom cycle is assembled.
    path_nodes: Vec<u32>,
    path_edges: Vec<u32>,
    /// Children of a new blossom whose rate flipped from inner to outer.
    flipped: Vec<u32>,
    /// `cand_of[region]` = `(settle stamp, candidate id)`: the candidate
    /// joining the settling region to `region`, valid when the stamp equals
    /// `settle_epoch` (loaded from the settling region's `adj` list).
    cand_of: Vec<(u32, u32)>,
    settle_epoch: u32,
    /// Cumulative counts over every call (see [`Self::counters`]).
    counters: AltTreeCounters,
}

/// Cumulative work counts of an [`AltTreeBackend`] over every
/// `decode_defects` call since it was constructed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AltTreeCounters {
    /// Events taken off the queue, including those found stale on pop.
    pub events_popped: u64,
    /// Popped events that were still due and were carried out.
    pub events_acted: u64,
    /// Blossoms contracted from an odd cycle of tight edges.
    pub blossoms_formed: u64,
    /// Inner blossoms dissolved when their dual reached zero.
    pub blossoms_expanded: u64,
    /// Nodes whose events were re-scheduled after their growth rate rose.
    pub nodes_woken: u64,
}

impl AltTreeBackend {
    /// Creates the backend with cold scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative event and blossom counts over every call so far.
    pub fn counters(&self) -> AltTreeCounters {
        self.counters
    }

    // -- dual accessors -------------------------------------------------------

    /// Growth rate of a defect's dual under the current tree structure.
    #[inline]
    fn rate(&self, defect: u32) -> f64 {
        match self.state[self.st[defect as usize] as usize] {
            0 => 1.0,
            1 => -1.0,
            _ => 0.0,
        }
    }

    /// Current dual of a defect.
    #[inline]
    fn y_now(&self, defect: u32) -> f64 {
        let d = defect as usize;
        self.y[d] + self.rate(defect) * (self.now - self.y_at[d])
    }

    /// Current dual of a blossom node.
    #[inline]
    fn z_now(&self, b: u32) -> f64 {
        let rate = match self.state[b as usize] {
            0 => 2.0,
            1 => -2.0,
            _ => 0.0,
        };
        self.z[b as usize] + rate * (self.now - self.z_at[b as usize])
    }

    /// Materialises a defect's dual at the current time (call *before*
    /// changing the tree state that defines its rate).
    #[inline]
    fn freeze_y(&mut self, defect: u32) {
        let v = self.y_now(defect);
        let d = defect as usize;
        self.y[d] = v;
        self.y_at[d] = self.now;
    }

    /// Materialises a blossom's dual at the current time.
    #[inline]
    fn freeze_z(&mut self, b: u32) {
        let v = self.z_now(b);
        self.z[b as usize] = v;
        self.z_at[b as usize] = self.now;
    }

    /// Replaces `self.walk` with every concrete defect contained in node `x`.
    fn collect_defects(&mut self, x: u32) {
        self.walk.clear();
        self.stack.clear();
        self.stack.push(x);
        while let Some(x) = self.stack.pop() {
            if (x as usize) < self.k {
                self.walk.push(x);
            } else {
                self.stack.extend_from_slice(&self.flower[x as usize]);
            }
        }
    }

    /// Freezes the duals of every defect in node `x` (before a state flip).
    fn freeze_node(&mut self, x: u32) {
        self.collect_defects(x);
        for i in 0..self.walk.len() {
            self.freeze_y(self.walk[i]);
        }
    }

    // -- event scheduling -----------------------------------------------------

    /// Schedules source `(kind, id)` at `t` (clamped to now), replacing its
    /// live entry if it has one.
    #[inline]
    fn push_event(&mut self, t: f64, kind: EventKind, id: u32) {
        if t.is_finite() {
            self.events.push(t.max(self.now), kind, id);
        }
    }

    /// Schedules the next settle of `defect`'s region, if it is growing.
    fn schedule_settle(&mut self, defect: u32) {
        if self.rate(defect) <= 0.0 {
            return;
        }
        // Skip frontier entries already settled by this region.
        while let Some(&f) = self.fronts[defect as usize].peek() {
            if self.claimed_at(f.vertex as usize, defect).is_some() {
                self.fronts[defect as usize].pop();
                continue;
            }
            let t = self.now + (f.cost - self.y_now(defect));
            self.push_event(t, EventKind::Settle, defect);
            return;
        }
    }

    /// Schedules the tight event of candidate `cid`, if its endpoints'
    /// combined growth rate is positive (otherwise it is parked: any state
    /// change that raises the rate re-schedules it via [`Self::wake`]).
    fn schedule_cand(&mut self, cid: u32) {
        let c = self.cands[cid as usize];
        if self.st[c.a as usize] == self.st[c.b as usize] {
            return; // internal to one node
        }
        let rs = self.rate(c.a) + self.rate(c.b);
        if rs <= 0.0 {
            return;
        }
        let slack = c.c - self.y_now(c.a) - self.y_now(c.b);
        self.push_event(self.now + slack / rs, EventKind::EdgeTight, cid);
    }

    /// Schedules `defect`'s boundary-hit event, if it is growing and a
    /// boundary attachment is known.
    fn schedule_boundary(&mut self, defect: u32) {
        if self.rate(defect) <= 0.0 {
            return;
        }
        if let Some((c, _)) = self.bnd[defect as usize] {
            let t = self.now + (c - self.y_now(defect));
            self.push_event(t, EventKind::BoundaryHit, defect);
        }
    }

    /// Schedules an inner blossom's shrink-to-zero expansion event.
    fn schedule_blossom(&mut self, b: u32) {
        if self.state[b as usize] == 1 {
            let t = self.now + self.z_now(b) / 2.0;
            self.push_event(t, EventKind::BlossomZero, b);
        }
    }

    /// Re-schedules everything a defect's state change may have enabled.
    fn wake(&mut self, defect: u32) {
        self.schedule_settle(defect);
        self.schedule_boundary(defect);
        for i in 0..self.adj[defect as usize].len() {
            let cid = self.adj[defect as usize][i];
            self.schedule_cand(cid);
        }
    }

    /// Wakes every defect of node `x` after a state change that raised its
    /// growth rate — the one call every such change funnels through.  Nodes
    /// whose rate fell or stayed are never refreshed: none of their event
    /// times can have moved earlier.
    fn refresh_node(&mut self, x: u32) {
        self.counters.nodes_woken += 1;
        self.collect_defects(x);
        for i in 0..self.walk.len() {
            self.wake(self.walk[i]);
        }
    }

    // -- candidate discovery --------------------------------------------------

    /// The distance at which `region` settled `vertex`, if it has.
    #[inline]
    fn claimed_at(&self, vertex: usize, region: u32) -> Option<f64> {
        self.claims[vertex]
            .iter()
            .find(|&&(r, _)| r == region)
            .map(|&(_, d)| d)
    }

    /// Records or improves the candidate edge between the settling region
    /// `a` and residual defect `b` at meet cost `c`, scheduling its tight
    /// event.  `cand_of` holds `a`'s candidates (see [`Self::settle`]), so
    /// the dedup is one lookup.
    fn offer_cand(&mut self, a: u32, b: u32, c: f64) {
        if a == b {
            return;
        }
        let (stamp, cid) = self.cand_of[b as usize];
        if stamp == self.settle_epoch {
            let cand = &mut self.cands[cid as usize];
            if c < cand.c {
                cand.c = c;
                self.schedule_cand(cid);
            }
            return;
        }
        let cid = self.cands.len() as u32;
        self.cands.push(Cand { a, b, c });
        self.adj[a as usize].push(cid);
        self.adj[b as usize].push(cid);
        self.cand_of[b as usize] = (self.settle_epoch, cid);
        self.schedule_cand(cid);
    }

    /// Settles every frontier vertex of `defect`'s region whose distance is
    /// within the region's current dual, discovering meets and boundary
    /// attachments, then re-schedules the next settle.
    fn settle(&mut self, graph: &SyndromeGraph, defect: u32) {
        if self.rate(defect) <= 0.0 {
            return; // stale event; re-scheduled on the next wake
        }
        // Every meet found below is offered with `a == defect`: stamp the
        // candidates `defect` already has, indexed by their other endpoint.
        self.settle_epoch += 1;
        for &cid in &self.adj[defect as usize] {
            let c = self.cands[cid as usize];
            let other = if c.a == defect { c.b } else { c.a };
            self.cand_of[other as usize] = (self.settle_epoch, cid);
        }
        loop {
            let Some(&front) = self.fronts[defect as usize].peek() else {
                return;
            };
            let (cost, vertex) = (front.cost, front.vertex as usize);
            if self.claimed_at(vertex, defect).is_some() {
                self.fronts[defect as usize].pop();
                continue;
            }
            if cost > self.y_now(defect) + self.eps {
                self.push_event(
                    self.now + (cost - self.y_now(defect)),
                    EventKind::Settle,
                    defect,
                );
                return;
            }
            self.fronts[defect as usize].pop();
            // Vertex meets: other regions that already settled this vertex.
            if self.claims[vertex].is_empty() {
                self.touched.push(vertex as u32);
            }
            for i in 0..self.claims[vertex].len() {
                let (other, od) = self.claims[vertex][i];
                self.offer_cand(defect, other, cost + od);
            }
            self.claims[vertex].push((defect, cost));
            for &eid in graph.incident(vertex) {
                let edge = graph.edge(eid);
                match edge.other(vertex) {
                    Some(neighbor) => {
                        let next = cost + edge.weight;
                        // Edge meets: regions holding the far endpoint.
                        for i in 0..self.claims[neighbor].len() {
                            let (other, od) = self.claims[neighbor][i];
                            if other != defect {
                                self.offer_cand(defect, other, next + od);
                            }
                        }
                        if self.claimed_at(neighbor, defect).is_none() {
                            self.fronts[defect as usize].push(Frontier {
                                cost: next,
                                vertex: neighbor as u32,
                            });
                        }
                    }
                    None => {
                        let next = cost + edge.weight;
                        let better = match self.bnd[defect as usize] {
                            None => true,
                            Some((c, e)) => next < c || (next == c && eid < e),
                        };
                        if better {
                            self.bnd[defect as usize] = Some((next, eid));
                            self.schedule_boundary(defect);
                        }
                    }
                }
            }
        }
    }

    // -- blossom containment helpers -----------------------------------------

    /// The immediate child of blossom `b` containing `defect`.
    fn child_containing(&self, b: u32, defect: u32) -> u32 {
        let mut x = defect;
        while self.up[x as usize] != b {
            x = self.up[x as usize];
            debug_assert_ne!(x, NONE, "defect not inside blossom");
        }
        x
    }

    /// Orients candidate `cid` so the first returned endpoint lies inside
    /// node `x` (checked by walking endpoint `a`'s container chain).
    fn oriented(&self, cid: u32, x: u32) -> (u32, u32) {
        let c = self.cands[cid as usize];
        let mut t = c.a;
        loop {
            if t == x {
                return (c.a, c.b);
            }
            t = self.up[t as usize];
            if t == NONE {
                return (c.b, c.a);
            }
        }
    }

    /// Points every id inside node `x` at outermost container `b`.
    fn set_st(&mut self, x: u32, b: u32) {
        self.stack.clear();
        self.stack.push(x);
        while let Some(x) = self.stack.pop() {
            self.st[x as usize] = b;
            if (x as usize) >= self.k {
                self.stack.extend_from_slice(&self.flower[x as usize]);
            }
        }
    }

    /// Position of child `xr` in blossom `b`'s cycle, after re-orienting the
    /// cycle (and its edge list) so the base→`xr` path has even length.
    fn get_pr(&mut self, b: u32, xr: u32) -> usize {
        let pr = self.flower[b as usize]
            .iter()
            .position(|&x| x == xr)
            .expect("blossom child not on its cycle");
        if pr % 2 == 1 {
            let len = self.flower[b as usize].len();
            self.flower[b as usize][1..].reverse();
            // Edges e_i join c_i—c_{i+1} (cyclically).  Reversing the cycle
            // tail maps the edge list to its full reverse.
            self.flower_edges[b as usize].reverse();
            len - pr
        } else {
            pr
        }
    }

    /// The cycle-edge candidate joining `flower[b][i]` and its `i ^ 1`
    /// partner (the matched-pair alignment used by [`Self::set_match`]).
    #[inline]
    fn cycle_edge(&self, b: u32, i: usize) -> u32 {
        let e = &self.flower_edges[b as usize];
        if i.is_multiple_of(2) {
            e[i]
        } else {
            e[i - 1]
        }
    }
}

// ---------------------------------------------------------------------------
// Matching mutations: set_match / augment / blossoms / trees.
// ---------------------------------------------------------------------------

impl AltTreeBackend {
    /// Matches node `x` to the far endpoint of candidate `cid`, re-basing any
    /// blossom structure inside `x` along the *concrete* edge (the PR-8
    /// float-tie lesson: the recursion threads the actual candidate, it never
    /// re-derives a representative edge).
    fn set_match(&mut self, x: u32, cid: u32) {
        let (inside, outside) = self.oriented(cid, x);
        self.matched[x as usize] = outside;
        self.matched_edge[x as usize] = cid;
        if (x as usize) >= self.k {
            let xr = self.child_containing(x, inside);
            let pr = self.get_pr(x, xr);
            for i in 0..pr {
                let ch = self.flower[x as usize][i];
                let e = self.cycle_edge(x, i);
                self.set_match(ch, e);
            }
            self.set_match(xr, cid);
            self.flower[x as usize].rotate_left(pr);
            self.flower_edges[x as usize].rotate_left(pr);
        }
    }

    /// Matches node `x` to the boundary through its member defect `u`,
    /// capturing `u`'s boundary attachment at commit time.
    fn set_match_boundary(&mut self, x: u32, u: u32) {
        self.matched[x as usize] = BOUNDARY;
        self.matched_edge[x as usize] = NONE;
        if (x as usize) >= self.k {
            let xr = self.child_containing(x, u);
            let pr = self.get_pr(x, xr);
            for i in 0..pr {
                let ch = self.flower[x as usize][i];
                let e = self.cycle_edge(x, i);
                self.set_match(ch, e);
            }
            self.set_match_boundary(xr, u);
            self.flower[x as usize].rotate_left(pr);
            self.flower_edges[x as usize].rotate_left(pr);
        } else {
            debug_assert_eq!(x, u, "boundary match must commit at its defect");
            self.bnd_used[x as usize] = self.bnd[x as usize];
        }
    }

    /// One step up the alternating tree from outer node `x`: through its
    /// matched edge into its inner parent, then through that parent's tree
    /// edge to the next outer node (`NONE` at the root).
    fn up_chain_step(&self, x: u32) -> u32 {
        let m = self.matched[x as usize];
        if m == NONE || m == BOUNDARY {
            return NONE;
        }
        let inner = self.st[m as usize];
        let p = self.pa[inner as usize];
        debug_assert_ne!(p, NONE, "inner node without a tree parent");
        self.st[p as usize]
    }

    /// Lowest common ancestor of outer nodes `x` and `y` in their (shared)
    /// alternating tree, by stamped alternating walks.
    fn get_lca(&mut self, mut x: u32, mut y: u32) -> u32 {
        self.vis_epoch += 1;
        let ep = self.vis_epoch;
        while x != NONE || y != NONE {
            if x != NONE {
                if self.vis[x as usize] == ep {
                    return x;
                }
                self.vis[x as usize] = ep;
                x = self.up_chain_step(x);
            }
            std::mem::swap(&mut x, &mut y);
        }
        unreachable!("outer nodes of one tree always share a root")
    }

    /// Collects the tree path from outer node `from` up to (excluding)
    /// `lca`: `nodes` = `[from, i1, o1, …, i_s]`, `edges[j]` joins
    /// `nodes[j]`–`nodes[j+1]`, and the final edge joins `nodes.last()` to
    /// `lca`.
    fn tree_path(&self, from: u32, lca: u32, nodes: &mut Vec<u32>, edges: &mut Vec<u32>) {
        nodes.clear();
        edges.clear();
        let mut x = from;
        while x != lca {
            nodes.push(x);
            let m = self.matched[x as usize];
            debug_assert!(m != NONE && m != BOUNDARY, "tree path through the root");
            let inner = self.st[m as usize];
            edges.push(self.matched_edge[x as usize]);
            nodes.push(inner);
            edges.push(self.pa_edge[inner as usize]);
            x = self.st[self.pa[inner as usize] as usize];
        }
    }

    /// Allocates a blossom node id (recycled slot or fresh arrays).
    fn alloc_blossom(&mut self) -> u32 {
        if let Some(b) = self.free_slots.pop() {
            let bi = b as usize;
            self.flower[bi].clear();
            self.flower_edges[bi].clear();
            self.up[bi] = NONE;
            return b;
        }
        let b = self.n_ids as u32;
        self.n_ids += 1;
        self.st.push(b);
        self.up.push(NONE);
        self.state.push(-1);
        self.pa.push(NONE);
        self.pa_edge.push(NONE);
        self.matched.push(NONE);
        self.matched_edge.push(NONE);
        self.z.push(0.0);
        self.z_at.push(0.0);
        self.tree_tag.push(NONE);
        self.vis.push(0);
        self.flower.push(Vec::new());
        self.flower_edges.push(Vec::new());
        b
    }

    /// Contracts the odd cycle of tight edges closed by candidate `cid`
    /// (both endpoints outer in one tree) into a new outer blossom.
    fn add_blossom(&mut self, cid: u32) {
        let c = self.cands[cid as usize];
        let x = self.st[c.a as usize];
        let y = self.st[c.b as usize];
        let lca = self.get_lca(x, y);
        let b = self.alloc_blossom();
        // Cycle: lca, x-path reversed (so it descends from lca to x), the
        // triggering edge, then the y-path ascending back to lca — built in
        // the (possibly recycled) slot's own buffers.
        let mut fl = std::mem::take(&mut self.flower[b as usize]);
        let mut fe = std::mem::take(&mut self.flower_edges[b as usize]);
        let mut nodes = std::mem::take(&mut self.path_nodes);
        let mut edges = std::mem::take(&mut self.path_edges);
        fl.push(lca);
        self.tree_path(x, lca, &mut nodes, &mut edges);
        fl.extend(nodes.iter().rev());
        fe.extend(edges.iter().rev());
        fe.push(cid);
        self.tree_path(y, lca, &mut nodes, &mut edges);
        fl.extend_from_slice(&nodes);
        fe.extend_from_slice(&edges);
        self.path_nodes = nodes;
        self.path_edges = edges;
        debug_assert_eq!(fe.len(), fl.len());
        debug_assert_eq!(fl.len() % 2, 1, "blossom cycles are odd");
        let tag = self.tree_tag[lca as usize];
        // Freeze member duals under their *old* rates before any flips, and
        // note the inner children: only their rate changes (−1 → +1), the
        // outer ones keep growing at +1.
        let mut flipped = std::mem::take(&mut self.flipped);
        flipped.clear();
        for &ch in &fl {
            if self.state[ch as usize] == 1 {
                flipped.push(ch);
            }
            self.freeze_node(ch);
            if ch as usize >= self.k {
                self.freeze_z(ch);
            }
        }
        self.matched[b as usize] = self.matched[lca as usize];
        self.matched_edge[b as usize] = self.matched_edge[lca as usize];
        self.pa[b as usize] = self.pa[lca as usize];
        self.pa_edge[b as usize] = self.pa_edge[lca as usize];
        self.state[b as usize] = 0;
        self.z[b as usize] = 0.0;
        self.z_at[b as usize] = self.now;
        self.tree_tag[b as usize] = tag;
        self.tree_members[tag as usize].push(b);
        for &ch in &fl {
            self.up[ch as usize] = b;
            if ch as usize >= self.k {
                // Absorbed blossoms' duals freeze until they resurface.
                self.state[ch as usize] = -1;
            }
        }
        self.flower[b as usize] = fl;
        self.flower_edges[b as usize] = fe;
        self.set_st(b, b);
        for &ch in &flipped {
            self.refresh_node(ch);
        }
        self.flipped = flipped;
        self.counters.blossoms_formed += 1;
    }

    /// Dissolves inner blossom `b` (dual at zero): the even path from the
    /// entry child to the base stays in the tree, the rest goes free.
    fn expand_blossom(&mut self, b: u32) {
        let bi = b as usize;
        let pe = self.pa_edge[bi];
        let pc = self.cands[pe as usize];
        let entry = if self.st[pc.a as usize] == b {
            pc.a
        } else {
            pc.b
        };
        let tag = self.tree_tag[bi];
        // Freeze every member defect under the inner (shrinking) rate.
        self.freeze_node(b);
        for i in 0..self.flower[bi].len() {
            let ch = self.flower[bi][i];
            if ch as usize >= self.k {
                self.freeze_z(ch);
            }
            self.up[ch as usize] = NONE;
        }
        for i in 0..self.flower[bi].len() {
            let ch = self.flower[bi][i];
            self.set_st(ch, ch);
        }
        let xr = self.st[entry as usize];
        let pr = self.get_pr(b, xr);
        let fl = std::mem::take(&mut self.flower[bi]);
        let fe = std::mem::take(&mut self.flower_edges[bi]);
        // Tree path base → entry: fl[even] inner (tree edge = cycle edge up
        // to fl[even+1]), fl[odd] outer (linked up by its matched edge).
        for i in (0..pr).step_by(2) {
            let inner = fl[i];
            let outer = fl[i + 1];
            let ecid = fe[i];
            let (_, pvert) = self.oriented(ecid, inner);
            self.state[inner as usize] = 1;
            self.pa[inner as usize] = pvert;
            self.pa_edge[inner as usize] = ecid;
            self.state[outer as usize] = 0;
            self.tree_tag[inner as usize] = tag;
            self.tree_tag[outer as usize] = tag;
            self.tree_members[tag as usize].push(inner);
            self.tree_members[tag as usize].push(outer);
            if inner as usize >= self.k {
                self.schedule_blossom(inner);
            }
        }
        self.state[xr as usize] = 1;
        self.pa[xr as usize] = self.pa[bi];
        self.pa_edge[xr as usize] = self.pa_edge[bi];
        self.tree_tag[xr as usize] = tag;
        self.tree_members[tag as usize].push(xr);
        if xr as usize >= self.k {
            self.schedule_blossom(xr);
        }
        for &ch in fl.iter().skip(pr + 1) {
            self.state[ch as usize] = -1;
            self.pa[ch as usize] = NONE;
            self.pa_edge[ch as usize] = NONE;
            self.tree_tag[ch as usize] = NONE;
        }
        self.state[bi] = -1;
        self.tree_tag[bi] = NONE;
        self.matched[bi] = NONE;
        self.matched_edge[bi] = NONE;
        self.pa[bi] = NONE;
        self.pa_edge[bi] = NONE;
        self.free_slots.push(b);
        // fl[even < pr] and xr = fl[pr] stay inner at rate −1, so every
        // event they touch stays parked; the outer (−1 → +1) and freed
        // (−1 → 0) children wake.
        for (i, &ch) in fl.iter().enumerate() {
            if i > pr || i % 2 == 1 {
                self.refresh_node(ch);
            }
        }
        self.counters.blossoms_expanded += 1;
        // Hand the buffers back for capacity reuse (cleared on realloc).
        self.flower[bi] = fl;
        self.flower_edges[bi] = fe;
    }

    /// A tight edge from an outer node into a free node: either grab it (and
    /// its partner) into the tree, or — if it is boundary-matched — augment
    /// straight through it, releasing its boundary attachment.
    fn grow(&mut self, cid: u32) {
        let c = self.cands[cid as usize];
        let (av, bv) = if self.state[self.st[c.a as usize] as usize] == 0 {
            (c.a, c.b)
        } else {
            (c.b, c.a)
        };
        let x = self.st[av as usize];
        let f = self.st[bv as usize];
        debug_assert_eq!(self.state[x as usize], 0);
        debug_assert_eq!(self.state[f as usize], -1);
        let tag = self.tree_tag[x as usize];
        if self.matched[f as usize] == BOUNDARY {
            // root … x —cid— f —(boundary, infinite capacity): augmenting.
            self.augment_path(x, Some(cid), None);
            self.set_match(f, cid);
            self.teardown(tag);
            self.unmatched -= 1;
            return;
        }
        self.freeze_node(f);
        if f as usize >= self.k {
            self.freeze_z(f);
        }
        self.state[f as usize] = 1;
        self.pa[f as usize] = av;
        self.pa_edge[f as usize] = cid;
        self.tree_tag[f as usize] = tag;
        self.tree_members[tag as usize].push(f);
        let p = self.st[self.matched[f as usize] as usize];
        self.freeze_node(p);
        if p as usize >= self.k {
            self.freeze_z(p);
        }
        self.state[p as usize] = 0;
        self.pa[p as usize] = NONE;
        self.pa_edge[p as usize] = NONE;
        self.tree_tag[p as usize] = tag;
        self.tree_members[tag as usize].push(p);
        // Only `p` speeds up (free → outer, 0 → +1).  `f` slows (free →
        // inner, 0 → −1), so its scheduled events can only be late, and
        // the pop-time re-costing drops or re-keys them.
        self.refresh_node(p);
        if f as usize >= self.k {
            self.schedule_blossom(f);
        }
    }

    /// Flips the alternating path from node `x` up to its tree root, with the
    /// first re-match given by either a candidate edge or a boundary commit.
    fn augment_path(&mut self, x: u32, pair: Option<u32>, boundary: Option<u32>) {
        let mut old = self.matched[x as usize];
        debug_assert_ne!(old, BOUNDARY, "tree nodes are never boundary-matched");
        match (pair, boundary) {
            (Some(cid), None) => self.set_match(x, cid),
            (None, Some(u)) => self.set_match_boundary(x, u),
            _ => unreachable!("exactly one initial re-match"),
        }
        while old != NONE {
            let inner = self.st[old as usize];
            let pe = self.pa_edge[inner as usize];
            let parent = self.st[self.pa[inner as usize] as usize];
            let next_old = self.matched[parent as usize];
            debug_assert_ne!(next_old, BOUNDARY);
            self.set_match(inner, pe);
            self.set_match(parent, pe);
            old = next_old;
        }
    }

    /// A tight edge between outer nodes of two different trees: augment both.
    fn augment_pair(&mut self, cid: u32) {
        let c = self.cands[cid as usize];
        let x = self.st[c.a as usize];
        let y = self.st[c.b as usize];
        let tx = self.tree_tag[x as usize];
        let ty = self.tree_tag[y as usize];
        self.augment_path(x, Some(cid), None);
        self.augment_path(y, Some(cid), None);
        self.teardown(tx);
        self.teardown(ty);
        self.unmatched -= 2;
    }

    /// A tight boundary attachment at defect `u` of an outer node: augment
    /// its tree into the boundary.
    fn augment_boundary_hit(&mut self, u: u32) {
        let x = self.st[u as usize];
        let tag = self.tree_tag[x as usize];
        self.augment_path(x, None, Some(u));
        self.teardown(tag);
        self.unmatched -= 1;
    }

    /// Dismantles a tree after augmentation: every still-live outermost
    /// member goes free (duals frozen).  Only the inner members speed up
    /// (−1 → 0) and get re-scheduled; the outer ones slow (+1 → 0), so
    /// their scheduled events can only be late.
    fn teardown(&mut self, tag: u32) {
        let members = std::mem::take(&mut self.tree_members[tag as usize]);
        for &x in &members {
            let xi = x as usize;
            if self.tree_tag[xi] != tag || self.st[xi] != x || self.state[xi] == -1 {
                continue; // absorbed, expanded away, or re-homed
            }
            self.freeze_node(x);
            if xi >= self.k {
                self.freeze_z(x);
            }
            let was_inner = self.state[xi] == 1;
            self.state[xi] = -1;
            self.pa[xi] = NONE;
            self.pa_edge[xi] = NONE;
            self.tree_tag[xi] = NONE;
            if was_inner {
                self.refresh_node(x);
            }
        }
        self.tree_members[tag as usize] = members;
        self.tree_members[tag as usize].clear();
        self.free_trees.push(tag);
    }
}

// ---------------------------------------------------------------------------
// Top-level drive: init, the event loop, extraction.
// ---------------------------------------------------------------------------

/// Clears and refills a scratch vector (capacity persists across calls).
fn fit<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

impl AltTreeBackend {
    /// Path-halving find over the zero-weight vertex union-find.
    fn zero_find(&mut self, mut x: u32) -> u32 {
        while self.zero_parent[x as usize] != x {
            let g = self.zero_parent[self.zero_parent[x as usize] as usize];
            self.zero_parent[x as usize] = g;
            x = g;
        }
        x
    }

    /// Resets all per-call state for `self.vertices[i]` = source vertex of
    /// residual region `i`, and seeds every region's frontier.
    fn init(&mut self, graph: &SyndromeGraph) {
        let k = self.vertices.len();
        let n = graph.num_vertices();
        self.k = k;
        self.now = 0.0;
        self.unmatched = k;
        self.vis_epoch = 0;
        for &v in &self.touched {
            self.claims[v as usize].clear();
        }
        self.touched.clear();
        if self.claims.len() < n {
            self.claims.resize(n, Vec::new());
        }
        self.events.clear();
        self.cands.clear();
        self.free_slots.clear();
        self.free_trees.clear();
        self.n_ids = k;
        fit(&mut self.y, k, 0.0);
        fit(&mut self.y_at, k, 0.0);
        fit(&mut self.bnd, k, None);
        fit(&mut self.bnd_used, k, None);
        fit(&mut self.cand_of, k, (0, NONE));
        self.settle_epoch = 0;
        if self.adj.len() < k {
            self.adj.resize(k, Vec::new());
        }
        for a in &mut self.adj[..k] {
            a.clear();
        }
        if self.fronts.len() < k {
            self.fronts.resize(k, BinaryHeap::new());
        }
        self.st.clear();
        self.st.extend(0..k as u32);
        fit(&mut self.up, k, NONE);
        fit(&mut self.state, k, 0);
        fit(&mut self.pa, k, NONE);
        fit(&mut self.pa_edge, k, NONE);
        fit(&mut self.matched, k, NONE);
        fit(&mut self.matched_edge, k, NONE);
        fit(&mut self.z, k, 0.0);
        fit(&mut self.z_at, k, 0.0);
        fit(&mut self.vis, k, 0);
        self.flower.truncate(k);
        while self.flower.len() < k {
            self.flower.push(Vec::new());
        }
        self.flower_edges.truncate(k);
        while self.flower_edges.len() < k {
            self.flower_edges.push(Vec::new());
        }
        fit(&mut self.tree_tag, k, NONE);
        if self.tree_members.len() < k {
            self.tree_members.resize(k, Vec::new());
        }
        for t in k..self.tree_members.len() {
            self.tree_members[t].clear();
            self.free_trees.push(t as u32);
        }
        for i in 0..k {
            let vertex = self.vertices[i];
            self.tree_members[i].clear();
            self.tree_members[i].push(i as u32);
            self.tree_tag[i] = i as u32;
            self.fronts[i].clear();
            self.fronts[i].push(Frontier {
                cost: 0.0,
                vertex: vertex as u32,
            });
            self.schedule_settle(i as u32);
        }
    }

    /// Runs the event loop to a perfect matching over the residual defects.
    fn run(&mut self, graph: &SyndromeGraph) {
        let cap = 100_000u64 + 256 * (self.k as u64 * self.k as u64 + graph.num_edges() as u64);
        let mut steps = 0u64;
        while self.unmatched > 0 {
            let ev = self.events.pop().unwrap_or_else(|| {
                panic!(
                    "alternating-tree matcher exhausted events with {} defects unmatched \
                     (disconnected component without boundary?)",
                    self.unmatched
                )
            });
            steps += 1;
            self.counters.events_popped += 1;
            assert!(
                steps < cap,
                "alternating-tree matcher failed to converge within {cap} events"
            );
            match ev.kind {
                EventKind::Settle => {
                    let u = ev.id;
                    if self.rate(u) <= 0.0 {
                        continue; // re-scheduled when the region grows again
                    }
                    let Some(t) = self.next_settle_time(u) else {
                        continue; // region fully explored
                    };
                    if t > ev.t + self.eps {
                        self.push_event(t, EventKind::Settle, u);
                        continue;
                    }
                    self.now = self.now.max(t);
                    self.counters.events_acted += 1;
                    self.settle(graph, u);
                }
                EventKind::EdgeTight => {
                    let cid = ev.id;
                    let c = self.cands[cid as usize];
                    let x = self.st[c.a as usize];
                    let y = self.st[c.b as usize];
                    if x == y {
                        continue; // became internal to one node
                    }
                    let rs = self.rate(c.a) + self.rate(c.b);
                    if rs <= 0.0 {
                        continue; // parked; re-woken on a state change
                    }
                    let slack = c.c - self.y_now(c.a) - self.y_now(c.b);
                    let t = self.now + slack / rs;
                    if t > ev.t + self.eps {
                        self.push_event(t, EventKind::EdgeTight, cid);
                        continue;
                    }
                    self.now = self.now.max(t);
                    self.counters.events_acted += 1;
                    match (self.state[x as usize], self.state[y as usize]) {
                        (0, 0) => {
                            if self.tree_tag[x as usize] == self.tree_tag[y as usize] {
                                self.add_blossom(cid);
                            } else {
                                self.augment_pair(cid);
                            }
                        }
                        (0, -1) | (-1, 0) => self.grow(cid),
                        _ => {}
                    }
                }
                EventKind::BoundaryHit => {
                    let u = ev.id;
                    if self.rate(u) <= 0.0 {
                        continue;
                    }
                    let Some((c, _)) = self.bnd[u as usize] else {
                        continue;
                    };
                    let t = self.now + (c - self.y_now(u));
                    if t > ev.t + self.eps {
                        self.push_event(t, EventKind::BoundaryHit, u);
                        continue;
                    }
                    self.now = self.now.max(t);
                    self.counters.events_acted += 1;
                    self.augment_boundary_hit(u);
                }
                EventKind::BlossomZero => {
                    let b = ev.id;
                    if self.state[b as usize] != 1 {
                        continue;
                    }
                    let t = self.now + self.z_now(b) / 2.0;
                    if t > ev.t + self.eps {
                        self.push_event(t, EventKind::BlossomZero, b);
                        continue;
                    }
                    self.now = self.now.max(t);
                    self.counters.events_acted += 1;
                    self.expand_blossom(b);
                }
            }
        }
    }

    /// Time of `defect`'s next frontier settle (stale entries skipped), or
    /// `None` when the region has explored everything reachable.
    fn next_settle_time(&mut self, defect: u32) -> Option<f64> {
        while let Some(&f) = self.fronts[defect as usize].peek() {
            if self.claimed_at(f.vertex as usize, defect).is_some() {
                self.fronts[defect as usize].pop();
                continue;
            }
            return Some(self.now + (f.cost - self.y_now(defect)));
        }
        None
    }

    /// Reads the final matching back out in residual-index order.
    /// `residual[i]` is the caller-facing defect index of region `i`.
    fn extract(&mut self, residual: &[usize], out: &mut DefectMatching) {
        let k = self.k;
        let mut comp: Vec<u32> = (0..k as u32).collect();
        fn find(comp: &mut [u32], mut x: u32) -> u32 {
            while comp[x as usize] != x {
                let g = comp[comp[x as usize] as usize];
                comp[x as usize] = g;
                x = g;
            }
            x
        }
        for i in 0..k {
            let m = self.matched[i];
            assert!(m != NONE, "defect {i} left unmatched");
            if m == BOUNDARY {
                let (cost, edge) = self.bnd_used[i]
                    .expect("boundary-matched defect without a committed attachment");
                out.boundary.push(DefectBoundaryMatch {
                    defect: residual[i],
                    edge,
                    cost,
                });
            } else {
                if (i as u32) < m {
                    let cid = self.matched_edge[i];
                    out.pairs.push(DefectPair {
                        a: residual[i],
                        b: residual[m as usize],
                        cost: self.cands[cid as usize].c,
                    });
                }
                let (ra, rb) = (find(&mut comp, i as u32), find(&mut comp, m));
                if ra != rb {
                    comp[ra as usize] = rb;
                }
            }
        }
        // Clusters of the residual instance = components of the matching
        // graph: each boundary match is its own cluster, matched pairs merge.
        let mut clusters = 0usize;
        for i in 0..k {
            if find(&mut comp, i as u32) == i as u32 {
                clusters += 1;
            }
        }
        out.num_clusters += clusters;
    }
}

impl AltTreeBackend {
    /// Zero-weight pre-pairing: same contraction semantics as the blossom
    /// backend — defects sharing a zero-weight component pair for free (in
    /// component-root order) and only the per-component parity enters the
    /// tree machinery.  Fills `residual` with the unpaired defect indices,
    /// ascending.  Without `contracted` components every vertex is its own.
    fn pre_pair(
        &mut self,
        defects: &[usize],
        contracted: bool,
        residual: &mut Vec<usize>,
        out: &mut DefectMatching,
    ) {
        let mut keys = std::mem::take(&mut self.zero_keys);
        keys.clear();
        for (i, &v) in defects.iter().enumerate() {
            let root = if contracted {
                self.zero_find(v as u32)
            } else {
                v as u32
            };
            keys.push((root, i as u32));
        }
        keys.sort_unstable();
        for bucket in keys.chunk_by(|x, y| x.0 == y.0) {
            for pair in bucket.chunks(2) {
                if let [(_, a), (_, b)] = *pair {
                    out.pairs.push(DefectPair {
                        a: a as usize,
                        b: b as usize,
                        cost: 0.0,
                    });
                } else {
                    residual.push(pair[0].1 as usize);
                }
            }
            if bucket.len() >= 2 && bucket.len() % 2 == 0 {
                out.num_clusters += 1;
            }
        }
        residual.sort_unstable();
        self.zero_keys = keys;
    }
}

impl DecoderBackend for AltTreeBackend {
    fn decode_defects(&mut self, graph: &SyndromeGraph, defects: &[usize]) -> DefectMatching {
        let mut out = DefectMatching::default();
        if defects.is_empty() {
            return out;
        }
        let n = graph.num_vertices();
        for &v in defects {
            assert!(v < n, "defect vertex {v} out of range");
        }
        // One pass over the edges finds the largest weight, which scales the
        // slack tolerance, and the smallest interior one: only a zero-weight
        // interior edge calls for the contraction.
        let (wmax, wmin) = graph
            .edges()
            .iter()
            .fold((0.0f64, f64::INFINITY), |(hi, lo), e| {
                let interior = if e.v.is_some() {
                    e.weight
                } else {
                    f64::INFINITY
                };
                (hi.max(e.weight), lo.min(interior))
            });
        let contracted = wmin <= ZERO_EPS;
        if contracted {
            self.zero_parent.clear();
            self.zero_parent.extend(0..n as u32);
            for edge in graph.edges() {
                if let Some(v) = edge.v {
                    if edge.weight <= ZERO_EPS {
                        let (ru, rv) = (self.zero_find(edge.u as u32), self.zero_find(v as u32));
                        if ru != rv {
                            self.zero_parent[ru as usize] = rv;
                        }
                    }
                }
            }
        }
        self.eps = (1.0 + wmax) * 1e-9;
        let mut residual = std::mem::take(&mut self.residual);
        residual.clear();
        if !contracted && defects.windows(2).all(|w| w[0] < w[1]) {
            // Distinct vertices and no zero-weight edge: nothing pre-pairs.
            residual.extend(0..defects.len());
        } else {
            self.pre_pair(defects, contracted, &mut residual, &mut out);
        }
        if !residual.is_empty() {
            self.vertices.clear();
            self.vertices.extend(residual.iter().map(|&i| defects[i]));
            self.init(graph);
            self.run(graph);
            self.extract(&residual, &mut out);
        }
        self.residual = residual;
        out
    }

    fn name(&self) -> &'static str {
        "tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactBackend;

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs())),
            "{what}: {a} vs {b}"
        );
    }

    /// Tiny deterministic generator (a 64-bit LCG with an xor-shift output).
    struct Lcg(u64);
    impl Lcg {
        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 ^ (self.0 >> 33)
        }
        fn uniform(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }

    #[test]
    fn empty_defect_list_is_empty_matching() {
        let g = SyndromeGraph::line(&[1.0, 1.0], 1.0);
        let m = AltTreeBackend::new().decode_defects(&g, &[]);
        assert!(m.pairs.is_empty() && m.boundary.is_empty());
        assert_eq!(m.num_clusters, 0);
    }

    #[test]
    fn single_defect_takes_cheapest_boundary() {
        let g = SyndromeGraph::line(&[1.0, 2.0, 3.0], 0.5);
        let m = AltTreeBackend::new().decode_defects(&g, &[1]);
        assert!(m.pairs.is_empty());
        assert_eq!(m.boundary.len(), 1);
        // vertex 1: left boundary via edge 0 costs 1.0 + 0.5.
        assert_close(m.boundary[0].cost, 1.5, "single defect boundary");
        assert_eq!(m.num_clusters, 1);
        assert!(m.is_perfect(1));
    }

    #[test]
    fn adjacent_pair_beats_boundary() {
        let g = SyndromeGraph::line(&[1.0, 0.4, 1.0], 5.0);
        let m = AltTreeBackend::new().decode_defects(&g, &[1, 2]);
        assert_eq!(m.pairs.len(), 1);
        assert!(m.boundary.is_empty());
        assert_close(m.total_cost(), 0.4, "adjacent pair");
        assert_eq!(m.num_clusters, 1);
        assert!(m.is_perfect(2));
    }

    #[test]
    fn far_defects_split_to_their_boundaries() {
        let g = SyndromeGraph::line(&[1.0; 9], 0.25);
        let m = AltTreeBackend::new().decode_defects(&g, &[0, 9]);
        assert_eq!(m.boundary.len(), 2);
        assert!(m.pairs.is_empty());
        assert_close(m.total_cost(), 0.5, "two boundary matches");
        assert_eq!(m.num_clusters, 2);
        assert!(m.is_perfect(2));
    }

    #[test]
    fn zero_weight_regions_pre_pair_for_free() {
        // A p = 0.5 anomaly: edges 3..=6 re-weighted to exactly zero.
        let mut weights = vec![1.0; 9];
        for w in &mut weights[3..=6] {
            *w = 0.0;
        }
        let g = SyndromeGraph::line(&weights, 2.0);
        let defects = [3usize, 4, 5, 6, 7];
        let m = AltTreeBackend::new().decode_defects(&g, &defects);
        assert!(m.is_perfect(defects.len()));
        let exact = ExactBackend::default().decode_defects(&g, &defects);
        assert_close(m.total_cost(), exact.total_cost(), "zero stretch");
        let zero_pairs = m.pairs.iter().filter(|p| p.cost <= ZERO_EPS).count();
        assert!(zero_pairs >= 2, "expected free pre-pairs, got {zero_pairs}");
    }

    /// An odd cycle of equidistant defects with a far boundary forces
    /// blossom formation before any augmentation can finish.
    #[test]
    fn odd_cycle_forces_a_blossom_and_stays_exact() {
        let mut g = SyndromeGraph::new(5);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5, 1.0);
            g.add_boundary_edge(i, 10.0);
        }
        let defects = [0usize, 1, 2, 3, 4];
        let m = AltTreeBackend::new().decode_defects(&g, &defects);
        assert!(m.is_perfect(5));
        let exact = ExactBackend::default().decode_defects(&g, &defects);
        assert_close(m.total_cost(), exact.total_cost(), "5-cycle blossom");
        // Two unit pairs + one boundary escape.
        assert_close(m.total_cost(), 12.0, "5-cycle value");
    }

    /// Nested structure: a 3-blossom whose escape is contested.
    #[test]
    fn triangle_with_pendant_tail_matches_oracle() {
        let mut g = SyndromeGraph::new(6);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 0, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 4, 1.0);
        g.add_edge(4, 5, 1.0);
        g.add_boundary_edge(5, 1.0);
        g.add_boundary_edge(0, 8.0);
        for defects in [vec![0usize, 1, 2], vec![0, 1, 2, 3], vec![0, 1, 2, 4, 5]] {
            let m = AltTreeBackend::new().decode_defects(&g, &defects);
            assert!(m.is_perfect(defects.len()), "defects {defects:?}");
            let exact = ExactBackend::default().decode_defects(&g, &defects);
            assert_close(
                m.total_cost(),
                exact.total_cost(),
                &format!("triangle tail {defects:?}"),
            );
        }
    }

    #[test]
    fn random_lines_match_oracle_weight() {
        let mut rng = Lcg(0x5eed_a17e);
        let mut tree = AltTreeBackend::new();
        let mut exact = ExactBackend::default();
        for round in 0..120 {
            let len = 2 + rng.below(14);
            let weights: Vec<f64> = (0..len).map(|_| 0.05 + rng.uniform() * 2.0).collect();
            let boundary = 0.1 + rng.uniform() * 2.5;
            let g = SyndromeGraph::line(&weights, boundary);
            let mut defects: Vec<usize> = (0..=len).filter(|_| rng.below(3) == 0).collect();
            if defects.is_empty() {
                defects.push(rng.below(len + 1));
            }
            let m = tree.decode_defects(&g, &defects);
            assert!(m.is_perfect(defects.len()), "round {round}");
            let e = exact.decode_defects(&g, &defects);
            assert_close(
                m.total_cost(),
                e.total_cost(),
                &format!("line round {round}"),
            );
        }
    }

    #[test]
    fn random_ladders_match_oracle_weight() {
        let mut rng = Lcg(0xba5e_ba11);
        let mut tree = AltTreeBackend::new();
        let mut exact = ExactBackend::default();
        for round in 0..80 {
            let cols = 3 + rng.below(7);
            let n = cols * 2;
            let mut g = SyndromeGraph::new(n);
            for c in 0..cols {
                g.add_edge(2 * c, 2 * c + 1, 0.05 + rng.uniform() * 1.5);
                if c + 1 < cols {
                    g.add_edge(2 * c, 2 * (c + 1), 0.05 + rng.uniform() * 1.5);
                    g.add_edge(2 * c + 1, 2 * (c + 1) + 1, 0.05 + rng.uniform() * 1.5);
                }
            }
            g.add_boundary_edge(0, 0.2 + rng.uniform());
            g.add_boundary_edge(n - 1, 0.2 + rng.uniform());
            let mut defects: Vec<usize> = (0..n).filter(|_| rng.below(3) == 0).collect();
            if defects.is_empty() {
                defects.push(rng.below(n));
            }
            let m = tree.decode_defects(&g, &defects);
            assert!(m.is_perfect(defects.len()), "round {round}");
            let e = exact.decode_defects(&g, &defects);
            assert_close(
                m.total_cost(),
                e.total_cost(),
                &format!("ladder round {round}"),
            );
        }
    }

    /// Integer weights maximise dual-update ties — the regime where blossom
    /// formation, expansion and simultaneous tight events all collide.
    #[test]
    fn tie_heavy_integer_weights_match_oracle_weight() {
        let mut rng = Lcg(0x0dd5_eed5);
        let mut tree = AltTreeBackend::new();
        let mut exact = ExactBackend::default();
        for round in 0..150 {
            let n = 4 + rng.below(10);
            let mut g = SyndromeGraph::new(n);
            for v in 1..n {
                let u = rng.below(v);
                g.add_edge(u, v, (1 + rng.below(2)) as f64);
            }
            for v in 0..n {
                if rng.below(3) == 0 {
                    g.add_edge(v, (v + 1) % n, (1 + rng.below(2)) as f64);
                }
            }
            g.add_boundary_edge(rng.below(n), (1 + rng.below(3)) as f64);
            g.add_boundary_edge(rng.below(n), (1 + rng.below(3)) as f64);
            let mut defects: Vec<usize> = (0..n).filter(|_| rng.below(2) == 0).collect();
            if defects.is_empty() {
                defects.push(rng.below(n));
            }
            let m = tree.decode_defects(&g, &defects);
            assert!(m.is_perfect(defects.len()), "round {round}");
            let e = exact.decode_defects(&g, &defects);
            assert_close(
                m.total_cost(),
                e.total_cost(),
                &format!("tie round {round}"),
            );
        }
    }

    fn pop_all(q: &mut EventQueue) -> Vec<(f64, EventKind, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.t, e.kind, e.id))
            .collect()
    }

    #[test]
    fn queue_rekeys_entries_up_and_down() {
        let mut q = EventQueue::default();
        q.push(3.0, EventKind::Settle, 0);
        q.push(2.0, EventKind::Settle, 1);
        q.push(5.0, EventKind::Settle, 2);
        q.push(4.0, EventKind::Settle, 3);
        q.push(1.0, EventKind::Settle, 2); // up: 5 -> 1
        q.push(10.0, EventKind::Settle, 1); // down: 2 -> 10
        q.push(4.0, EventKind::Settle, 3); // unchanged: a no-op
        assert_eq!(q.len(), 4);
        let ids: Vec<u32> = pop_all(&mut q).iter().map(|e| e.2).collect();
        assert_eq!(ids, [2, 0, 3, 1]);
    }

    /// Pop order is time, then kind, then the end of the kind's list: with
    /// no re-keys that is last scheduled first, and a re-key fills the hole
    /// it leaves with its list's last entry.
    #[test]
    fn queue_pops_in_time_kind_id_order() {
        let mut q = EventQueue::default();
        q.push(1.0, EventKind::EdgeTight, 5);
        q.push(1.0, EventKind::BoundaryHit, 0);
        q.push(1.0, EventKind::Settle, 9);
        q.push(1.0, EventKind::EdgeTight, 2);
        q.push(0.5, EventKind::BoundaryHit, 7);
        q.push(1.0, EventKind::BlossomZero, 4);
        q.push(1.0, EventKind::EdgeTight, 8);
        q.push(1.0, EventKind::BoundaryHit, 3);
        assert_eq!(
            pop_all(&mut q),
            [
                (0.5, EventKind::BoundaryHit, 7),
                (1.0, EventKind::Settle, 9),
                (1.0, EventKind::BlossomZero, 4),
                (1.0, EventKind::EdgeTight, 8),
                (1.0, EventKind::EdgeTight, 2),
                (1.0, EventKind::EdgeTight, 5),
                (1.0, EventKind::BoundaryHit, 3),
                (1.0, EventKind::BoundaryHit, 0),
            ]
        );
        assert!(q.pop().is_none());
        for id in 1..=3 {
            q.push(1.0, EventKind::EdgeTight, id);
        }
        q.push(2.0, EventKind::EdgeTight, 1); // list [1, 2, 3] -> [3, 2]
        let ids: Vec<u32> = pop_all(&mut q).iter().map(|e| e.2).collect();
        assert_eq!(ids, [2, 3, 1]);
    }

    /// A re-key moves an entry to another bucket and back; the bucket it
    /// leaves, and later one in the middle of the queue, empties and is
    /// released while earlier and later buckets stay live.
    #[test]
    fn queue_rekey_across_buckets_releases_emptied_ones() {
        let mut q = EventQueue::default();
        q.push(1.0, EventKind::Settle, 0);
        q.push(2.0, EventKind::EdgeTight, 1);
        q.push(2.0, EventKind::EdgeTight, 2);
        q.push(3.0, EventKind::Settle, 3);
        q.push(4.0, EventKind::BoundaryHit, 4);
        // Edge 1 leaves the t = 2 bucket for t = 3 and comes back: it now
        // pops as the latest-scheduled entry of its list, and edge 2 (moved
        // into its place) keeps a valid position.
        q.push(3.0, EventKind::EdgeTight, 1);
        assert_eq!(q.live.len(), 4);
        q.push(2.0, EventKind::EdgeTight, 1);
        assert_eq!(q.live.len(), 4);
        // Settle 3 leaves t = 3 (in the middle of the queue) for t = 5:
        // the t = 3 bucket empties, and its released slot opens t = 5.
        q.push(5.0, EventKind::Settle, 3);
        assert_eq!(q.live.len(), 4);
        assert_eq!(q.buckets.len(), 4);
        assert_eq!(q.len(), 5);
        q.push(2.5, EventKind::BlossomZero, 6);
        assert_eq!(q.buckets.len(), 5);
        assert_eq!(
            pop_all(&mut q),
            [
                (1.0, EventKind::Settle, 0),
                (2.0, EventKind::EdgeTight, 1),
                (2.0, EventKind::EdgeTight, 2),
                (2.5, EventKind::BlossomZero, 6),
                (4.0, EventKind::BoundaryHit, 4),
                (5.0, EventKind::Settle, 3),
            ]
        );
        assert!(q.live.is_empty());
        assert!(q.pos.iter().all(|s| s.bucket == NONE));
    }

    /// Random pushes and re-keys against a reference model that keeps one
    /// list per (time, kind) with the same push and `swap_remove`: one live
    /// entry per source, and the exact same pop sequence.
    #[test]
    fn queue_keeps_one_live_entry_per_source() {
        /// Lists per time tick (`t = tick / 4`), and each source's tick.
        #[derive(Default)]
        struct Model {
            lists: std::collections::BTreeMap<usize, [Vec<u32>; KINDS]>,
            tick: std::collections::BTreeMap<(EventKind, u32), usize>,
        }
        impl Model {
            /// Schedules a source; true when that moved a live entry.
            fn push(&mut self, tick: usize, kind: EventKind, id: u32) -> bool {
                let old = self.tick.insert((kind, id), tick);
                if old == Some(tick) {
                    return false;
                }
                if let Some(old) = old {
                    let lists = self.lists.get_mut(&old).unwrap();
                    let list = &mut lists[kind as usize];
                    let at = list.iter().position(|&x| x == id).unwrap();
                    list.swap_remove(at);
                    if lists.iter().all(Vec::is_empty) {
                        self.lists.remove(&old);
                    }
                }
                self.lists.entry(tick).or_default()[kind as usize].push(id);
                old.is_some()
            }
            fn pop(&mut self) -> Option<(f64, EventKind, u32)> {
                let mut first = self.lists.first_entry()?;
                let tick = *first.key();
                let (kind, id) = KIND_ORDER
                    .iter()
                    .find_map(|&kind| first.get_mut()[kind as usize].pop().map(|id| (kind, id)))
                    .unwrap();
                if first.get().iter().all(Vec::is_empty) {
                    first.remove();
                }
                self.tick.remove(&(kind, id));
                Some((tick as f64 * 0.25, kind, id))
            }
        }
        fn schedule(q: &mut EventQueue, model: &mut Model, rng: &mut Lcg) -> bool {
            let kind = KIND_ORDER[rng.below(KINDS)];
            let id = rng.below(30) as u32;
            // Few distinct times, so buckets hold many entries.
            let tick = rng.below(12);
            q.push(tick as f64 * 0.25, kind, id);
            model.push(tick, kind, id)
        }
        let mut rng = Lcg(0x9e3779b97f4a7c15);
        let mut q = EventQueue::default();
        let mut rekeys = 0;
        for round in 0..50 {
            let mut model = Model::default();
            for _ in 0..(1 + rng.below(200)) {
                rekeys += usize::from(schedule(&mut q, &mut model, &mut rng));
                assert_eq!(q.len(), model.tick.len(), "round {round}");
            }
            // Pop a prefix, then schedule more before draining, as the
            // matcher does.
            for _ in 0..rng.below(model.tick.len() + 1) {
                let e = q.pop().map(|e| (e.t, e.kind, e.id));
                assert_eq!(e, model.pop(), "round {round}");
            }
            for _ in 0..rng.below(40) {
                rekeys += usize::from(schedule(&mut q, &mut model, &mut rng));
            }
            let expected: Vec<_> = std::iter::from_fn(|| model.pop()).collect();
            assert_eq!(pop_all(&mut q), expected, "round {round}");
            assert!(q.live.is_empty() && q.pos.iter().all(|s| s.bucket == NONE));
        }
        assert!(rekeys > 1000, "only {rekeys} re-keys exercised");
    }

    #[test]
    fn queue_clear_leaves_no_stale_positions() {
        let mut q = EventQueue::default();
        for id in 0..20 {
            q.push(id as f64, EventKind::EdgeTight, id);
            q.push(0.5 * id as f64, EventKind::Settle, id % 7);
        }
        q.pop();
        q.clear();
        assert_eq!(q.len(), 0);
        assert!(q.live.is_empty());
        assert!(q.pos.iter().all(|s| s.bucket == NONE));
        q.push(2.0, EventKind::EdgeTight, 3);
        q.push(1.0, EventKind::EdgeTight, 19);
        assert_eq!(
            pop_all(&mut q),
            [
                (1.0, EventKind::EdgeTight, 19),
                (2.0, EventKind::EdgeTight, 3)
            ]
        );
    }

    /// A `rows x cols` grid with random weights and boundary edges on the
    /// left and right columns.
    fn random_grid(rng: &mut Lcg, rows: usize, cols: usize) -> SyndromeGraph {
        let mut g = SyndromeGraph::new(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    g.add_edge(v, v + 1, 0.1 + rng.uniform() * 2.0);
                }
                if r + 1 < rows {
                    g.add_edge(v, v + cols, 0.1 + rng.uniform() * 2.0);
                }
            }
            g.add_boundary_edge(r * cols, 0.1 + rng.uniform() * 2.0);
            g.add_boundary_edge(r * cols + cols - 1, 0.1 + rng.uniform() * 2.0);
        }
        g
    }

    /// A large decode leaves live events, candidates and blossom ids behind
    /// in the queue's position tables; the next, smaller decode must not see
    /// any of them.
    #[test]
    fn reuse_after_a_large_decode_is_bit_identical() {
        let mut rng = Lcg(0x1a2e_5ca1);
        let large = random_grid(&mut rng, 24, 24);
        let large_defects: Vec<usize> = (0..large.num_vertices())
            .filter(|_| rng.below(4) == 0)
            .collect();
        let mut reused = AltTreeBackend::new();
        let first = reused.decode_defects(&large, &large_defects);
        assert!(first.is_perfect(large_defects.len()));
        assert!(
            reused.events.len() > 0,
            "the large decode ends with live events"
        );
        assert!(reused.counters().blossoms_formed > 0);
        for round in 0..20 {
            let (rows, cols) = (3 + rng.below(4), 3 + rng.below(4));
            let small = random_grid(&mut rng, rows, cols);
            let defects: Vec<usize> = (0..small.num_vertices())
                .filter(|_| rng.below(3) == 0)
                .collect();
            let warm = reused.decode_defects(&small, &defects);
            let cold = AltTreeBackend::new().decode_defects(&small, &defects);
            assert_eq!(warm, cold, "round {round}");
        }
    }

    /// Without zero-weight edges, defects that share a vertex still pre-pair
    /// for free, whatever order they are listed in.
    #[test]
    fn repeated_defect_vertices_pre_pair_without_zero_edges() {
        let g = SyndromeGraph::line(&[1.0, 0.7, 1.3, 0.9], 1.1);
        for defects in [vec![2usize, 2], vec![3, 1, 3, 0], vec![4, 1, 1, 1]] {
            let m = AltTreeBackend::new().decode_defects(&g, &defects);
            assert!(m.is_perfect(defects.len()), "defects {defects:?}");
            let exact = ExactBackend::default().decode_defects(&g, &defects);
            assert_close(m.total_cost(), exact.total_cost(), "repeated vertices");
            assert!(
                m.pairs
                    .iter()
                    .any(|p| p.cost == 0.0 && defects[p.a] == defects[p.b]),
                "defects {defects:?}: {m:?}"
            );
        }
    }

    /// The `&mut self` scratch contract: a reused backend decodes
    /// bit-identically to a fresh one, in any interleaving.
    #[test]
    fn scratch_reuse_is_bit_identical() {
        let g1 = SyndromeGraph::line(&[1.0, 0.3, 0.9, 1.4, 0.2], 0.8);
        let mut g2 = SyndromeGraph::new(6);
        for i in 0..5 {
            g2.add_edge(i, i + 1, 0.5 + 0.1 * i as f64);
        }
        g2.add_edge(0, 5, 1.1);
        g2.add_boundary_edge(2, 0.7);
        let cases: [(&SyndromeGraph, Vec<usize>); 4] = [
            (&g1, vec![0, 2, 3, 5]),
            (&g2, vec![1, 4]),
            (&g1, vec![1, 2]),
            (&g2, vec![0, 2, 3, 5]),
        ];
        let mut reused = AltTreeBackend::new();
        for (g, defects) in &cases {
            let warm = reused.decode_defects(g, defects);
            let cold = AltTreeBackend::new().decode_defects(g, defects);
            assert_eq!(warm, cold);
        }
    }

    #[test]
    #[should_panic(expected = "unmatched")]
    fn infeasible_instance_panics() {
        // Two isolated vertices, no edges, no boundary: nothing can match.
        let g = SyndromeGraph::new(2);
        let _ = AltTreeBackend::new().decode_defects(&g, &[0, 1]);
    }
}
