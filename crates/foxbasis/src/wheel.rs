//! A hierarchical timer wheel driven by virtual time.
//!
//! The paper's Fig. 11 timer forks one coroutine per armed timer and is
//! "simple and fast" only given "fast heap allocation of the shared
//! state"; with a handful of connections that is charming, with
//! hundreds it is O(log n) heap traffic per arm and a dead sleeper left
//! behind by every cancel. This wheel gives every protocol stack in the
//! workspace (foxtcp *and* the x-kernel baseline, so the comparison
//! stays apples-to-apples) O(1) arm and cancel with no heap traffic at
//! all once it is warm:
//!
//! * [`LEVELS`] levels of [`SLOTS`] slots each; a level-0 slot covers one
//!   tick of 2^[`TICK_BITS`] µs (≈ 1 ms), each level above covers
//!   [`SLOTS`]× the span below — six levels reach ~2.2 virtual years.
//! * Slot windows are **aligned**: an entry lives at the lowest level
//!   whose aligned window around the current time contains its deadline
//!   (equivalently, at level `highest_differing_bit / 6` of
//!   `deadline_tick XOR now_tick`). Alignment is what makes the wheel
//!   safe to mix with exact virtual time: every entry at level ℓ+1 is
//!   strictly later than everything still pending at level ℓ, so firing
//!   never has to look upward.
//! * Every timer is one **cell of a slab**, threaded onto its slot's
//!   doubly-linked list by cell index. A cell holds the exact deadline,
//!   the arm sequence number, the payload, its two neighbours and the
//!   list it is on — everything `cancel` needs to unlink it without
//!   looking anywhere else. Freed cells go on a free list and are the
//!   first to be handed out again, so a stack that arms and cancels in a
//!   steady state touches the same few cells forever.
//! * Cancellation is **eager**: the cell is unlinked and freed at once.
//!   There are no carcasses to cascade, re-file or skip, and no side
//!   tables of live or dead ids. A [`TimerId`] carries (cell, arm
//!   sequence), and a cell remembers the sequence of its tenant, so an
//!   id kept past its timer's firing can never cancel the cell's next
//!   tenant.
//! * Each level keeps a `u64` **occupancy mask**, one bit per slot, so
//!   [`TimerWheel::next_due`] finds the nearest occupied slot with one
//!   `trailing_zeros` per level instead of a walk over 64 list heads.
//!   That bound is what lets a driver skip the instants at which no
//!   timer can be due.
//! * Exact deadlines are kept in the cells; [`TimerWheel::advance`]
//!   hands back everything due sorted by `(deadline, arm order)` — the
//!   same total order the scheduler's sleep heap imposed, which is what
//!   keeps same-seed traces byte-identical. Arm order is the sequence
//!   number, which depends on the history of `arm` calls alone: which
//!   cell a timer landed in, and where on its list, never reaches the
//!   caller.

use crate::time::VirtualTime;

/// Bits of one level-0 tick: a slot spans 2^10 µs = 1.024 ms.
pub const TICK_BITS: u32 = 10;
/// log2 of the slots per level.
pub const SLOT_BITS: u32 = 6;
/// Slots per level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels.
pub const LEVELS: usize = 6;

/// List index of the entries due within the current tick but after `now`.
const NEAR: usize = LEVELS * SLOTS;
/// List index of the entries armed with a deadline already ≤ `now`: due
/// at the very next `advance`, whatever its target.
const RIPE: usize = NEAR + 1;
/// End-of-list / no-cell marker.
const NIL: u32 = u32::MAX;

/// Handle for a pending timer, returned by [`TimerWheel::arm`]: the slab
/// cell the timer lives in and its arm sequence number. Sequence numbers
/// are never reused, so cancelling an id whose timer already fired (or
/// was cancelled) is a no-op even after its cell has a new tenant.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TimerId {
    cell: u32,
    seq: u64,
}

/// Operation counters (the `tables -- scale` experiment reports these).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Timers armed.
    pub arms: u64,
    /// Timers cancelled while still pending.
    pub cancels: u64,
    /// Timers fired (returned from [`TimerWheel::advance`]).
    pub fires: u64,
    /// Pending entries moved between levels by cascading. Cancelled
    /// timers no longer exist, so they are never counted here.
    pub cascades: u64,
}

struct Cell<T> {
    /// Exact deadline in µs.
    deadline: u64,
    /// Arm order of the current (or, once vacant, the last) tenant.
    seq: u64,
    /// Neighbours on the cell's list, `NIL` at either end. A vacant
    /// cell's `next` threads the free list.
    prev: u32,
    next: u32,
    /// The list the cell is on: a slot (level-major), `NEAR` or `RIPE`.
    list: u16,
    /// `None` marks the cell vacant.
    payload: Option<T>,
}

/// One fired timer.
#[derive(Debug)]
pub struct Fired<T> {
    /// The id [`TimerWheel::arm`] returned.
    pub id: TimerId,
    /// The exact deadline it was armed for (≤ the advance target).
    pub deadline: VirtualTime,
    /// The payload it was armed with.
    pub payload: T,
}

/// The wheel. `T` is the per-timer payload — protocol stacks use
/// `(connection id, timer kind)`.
pub struct TimerWheel<T> {
    /// The slab: every pending timer is one occupied cell.
    cells: Vec<Cell<T>>,
    /// First vacant cell (threaded through `Cell::next`).
    free: u32,
    /// First cell of each list: `LEVELS * SLOTS` slots, then `NEAR`,
    /// then `RIPE`.
    heads: [u32; RIPE + 1],
    /// Bit `s` of `occupied[l]` is set iff slot `s` of level `l` holds a
    /// cell.
    occupied: [u64; LEVELS],
    /// The earliest deadline on the `NEAR` list (`u64::MAX` while it is
    /// empty), so a same-tick `advance` short of it looks at no entry.
    near_min: u64,
    /// What the last `advance` fired; the buffer is reused.
    due: Vec<Fired<T>>,
    /// Current time in µs.
    now: u64,
    next_seq: u64,
    /// Occupied cells.
    live: usize,
    stats: WheelStats,
}

impl<T> TimerWheel<T> {
    /// An empty wheel whose clock starts at `start`.
    pub fn new(start: VirtualTime) -> TimerWheel<T> {
        TimerWheel {
            cells: Vec::new(),
            free: NIL,
            heads: [NIL; RIPE + 1],
            occupied: [0; LEVELS],
            near_min: u64::MAX,
            due: Vec::new(),
            now: start.as_micros(),
            next_seq: 0,
            live: 0,
            stats: WheelStats::default(),
        }
    }

    /// The wheel's current time.
    pub fn now(&self) -> VirtualTime {
        VirtualTime::from_micros(self.now)
    }

    /// Pending (armed, not yet fired or cancelled) timers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// No pending timers?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Operation counters.
    pub fn stats(&self) -> WheelStats {
        self.stats
    }

    /// Arms a timer for `deadline`. A deadline at or before the current
    /// time is clamped to the current time and fires on the next
    /// [`TimerWheel::advance`] — the scheduler this replaces could never
    /// sleep into the past, so "already due" means "due now, after
    /// everything armed earlier". O(1); allocates only when every cell
    /// the slab ever held is occupied.
    pub fn arm(&mut self, deadline: VirtualTime, payload: T) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.arms += 1;
        self.live += 1;
        let deadline = deadline.as_micros().max(self.now);
        let tenant = Cell { deadline, seq, prev: NIL, next: NIL, list: 0, payload: Some(payload) };
        let cell = if self.free == NIL {
            self.cells.push(tenant);
            u32::try_from(self.cells.len() - 1).expect("fewer than 2^32 pending timers")
        } else {
            let cell = self.free;
            self.free = self.cells[cell as usize].next;
            self.cells[cell as usize] = tenant;
            cell
        };
        self.place(cell);
        TimerId { cell, seq }
    }

    /// Cancels a pending timer; returns whether it was still pending.
    /// O(1) and eager: the cell is unlinked and free for the next `arm`
    /// when this returns.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let pending = self.get(id).is_some();
        if pending {
            let Cell { list, deadline, .. } = self.cells[id.cell as usize];
            self.unlink(id.cell);
            self.release(id.cell);
            self.stats.cancels += 1;
            if usize::from(list) == NEAR && deadline == self.near_min {
                self.near_min = self.list_min(NEAR);
            }
        }
        pending
    }

    /// The payload timer `id` was armed with, while it is still pending;
    /// `None` once it has fired or been cancelled, whoever holds its
    /// cell now.
    pub fn get(&self, id: TimerId) -> Option<&T> {
        let cell = self.cells.get(id.cell as usize).filter(|c| c.seq == id.seq)?;
        cell.payload.as_ref()
    }

    /// A lower bound on the earliest pending deadline, `None` while no
    /// timer is pending. O([`LEVELS`]): a timer already due gives now, a
    /// timer within the current tick the exact earliest deadline, and
    /// otherwise the nearest occupied slot of the lowest occupied level
    /// gives the start of its window. Advancing to the bound either fires
    /// the earliest timer or cascades it to a lower level, so repeating
    /// it reaches the earliest deadline within `LEVELS + 1` advances
    /// (plus one per top-level window crossed by a timer parked beyond
    /// the top level's reach), and never fires anything early.
    pub fn next_due(&self) -> Option<VirtualTime> {
        if self.heads[RIPE] != NIL {
            return Some(VirtualTime::from_micros(self.now));
        }
        if self.heads[NEAR] != NIL {
            return Some(VirtualTime::from_micros(self.near_min));
        }
        let now_t = self.now >> TICK_BITS;
        let lvl = self.occupied.iter().position(|&m| m != 0)?;
        let shift = SLOT_BITS * lvl as u32;
        let cursor = now_t >> shift;
        // Every occupied slot lies ahead of the cursor (the overflow
        // parking slot may wrap past slot 63), so rotating the cursor's
        // successor to bit 0 ranks the slots by distance.
        let rotated = self.occupied[lvl].rotate_right(((cursor + 1) % SLOTS as u64) as u32);
        let window = cursor + 1 + u64::from(rotated.trailing_zeros());
        Some(VirtualTime::from_micros((window << shift) << TICK_BITS))
    }

    /// Moves the clock to `to` (must not go backwards) and returns every
    /// timer with `deadline <= to`, sorted by `(deadline, arm order)`.
    /// Calling with `to == now()` still drains timers armed at or before
    /// the current instant. The slice is the wheel's own buffer, good
    /// until the next `advance`; within one tick a call that fires
    /// nothing is O(1).
    pub fn advance(&mut self, to: VirtualTime) -> &[Fired<T>] {
        let to_us = to.as_micros();
        assert!(to_us >= self.now, "timer wheel clock cannot run backwards");
        let old_t = self.now >> TICK_BITS;
        self.now = to_us;
        let new_t = to_us >> TICK_BITS;

        self.due.clear();
        self.fire_list(RIPE);

        if new_t == old_t {
            // Same tick: only `NEAR` can have come due.
            if to_us >= self.near_min {
                let mut min = u64::MAX;
                let mut c = self.heads[NEAR];
                while c != NIL {
                    let Cell { next, deadline, .. } = self.cells[c as usize];
                    if deadline <= to_us {
                        self.unlink(c);
                        self.fire(c);
                    } else {
                        min = min.min(deadline);
                    }
                    c = next;
                }
                self.near_min = min;
            }
        } else {
            // The old tick is fully behind us.
            self.fire_list(NEAR);
            self.near_min = u64::MAX;
            // Drain every slot the cursor passed, level by level. A span
            // of ≥ SLOTS at some level drains the whole level; levels
            // whose cursor did not move are untouched (and neither are
            // any above them). Survivors are chained aside and re-filed
            // only once every passed slot is empty, so none is met twice.
            let mut refile = NIL;
            for lvl in 0..LEVELS {
                let shift = SLOT_BITS * lvl as u32;
                let (old_l, new_l) = (old_t >> shift, new_t >> shift);
                if old_l == new_l {
                    break;
                }
                let span = (new_l - old_l).min(SLOTS as u64);
                for k in 1..=span {
                    let slot = ((old_l + k) % SLOTS as u64) as usize;
                    let mut c = std::mem::replace(&mut self.heads[lvl * SLOTS + slot], NIL);
                    self.occupied[lvl] &= !(1 << slot);
                    while c != NIL {
                        let Cell { next, deadline, .. } = self.cells[c as usize];
                        if deadline <= to_us {
                            self.fire(c);
                        } else {
                            if lvl > 0 {
                                self.stats.cascades += 1;
                            }
                            self.cells[c as usize].next = refile;
                            refile = c;
                        }
                        c = next;
                    }
                }
            }
            // Re-file survivors relative to the new now (cascade).
            while refile != NIL {
                let next = self.cells[refile as usize].next;
                self.place(refile);
                refile = next;
            }
        }

        // Sequence numbers are unique, so the unstable sort (which,
        // unlike the stable one, needs no scratch buffer) has one answer.
        self.due.sort_unstable_by_key(|f| (f.deadline, f.id.seq));
        self.stats.fires += self.due.len() as u64;
        &self.due
    }

    /// Files cell `c` at the lowest level whose aligned window (around
    /// the current time) contains its deadline.
    fn place(&mut self, c: u32) {
        let deadline = self.cells[c as usize].deadline;
        let now_t = self.now >> TICK_BITS;
        let d_t = deadline >> TICK_BITS;
        let diff = d_t ^ now_t;
        let list = if deadline <= self.now {
            RIPE
        } else if diff == 0 {
            self.near_min = self.near_min.min(deadline);
            NEAR
        } else {
            let lvl = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
            if lvl >= LEVELS {
                // Beyond the top level's window (> ~2 years out): park one
                // slot ahead of the top cursor. An overflow deadline is
                // always past the next top-level cursor move, so the entry
                // is re-examined (and re-filed closer) there — never early,
                // never missed.
                let top = now_t >> (SLOT_BITS * (LEVELS as u32 - 1));
                ((top + 1) % SLOTS as u64) as usize + (LEVELS - 1) * SLOTS
            } else {
                ((d_t >> (SLOT_BITS * lvl as u32)) % SLOTS as u64) as usize + lvl * SLOTS
            }
        };
        if list < NEAR {
            self.occupied[list / SLOTS] |= 1 << (list % SLOTS);
        }
        let head = std::mem::replace(&mut self.heads[list], c);
        if head != NIL {
            self.cells[head as usize].prev = c;
        }
        let cell = &mut self.cells[c as usize];
        (cell.prev, cell.next, cell.list) = (NIL, head, list as u16);
    }

    /// Takes cell `c` off the list it is on.
    fn unlink(&mut self, c: u32) {
        let Cell { prev, next, list, .. } = self.cells[c as usize];
        let list = usize::from(list);
        if prev == NIL {
            self.heads[list] = next;
            if next == NIL && list < NEAR {
                self.occupied[list / SLOTS] &= !(1 << (list % SLOTS));
            }
        } else {
            self.cells[prev as usize].next = next;
        }
        if next != NIL {
            self.cells[next as usize].prev = prev;
        }
    }

    /// Vacates the (already unlinked) cell `c` and returns its payload.
    fn release(&mut self, c: u32) -> T {
        let cell = &mut self.cells[c as usize];
        cell.next = self.free;
        self.free = c;
        self.live -= 1;
        cell.payload.take().expect("only occupied cells are released")
    }

    /// Moves the (already unlinked) cell `c` to the fired buffer.
    fn fire(&mut self, c: u32) {
        let Cell { deadline, seq, .. } = self.cells[c as usize];
        let payload = self.release(c);
        self.due.push(Fired {
            id: TimerId { cell: c, seq },
            deadline: VirtualTime::from_micros(deadline),
            payload,
        });
    }

    /// The earliest deadline on `list`, `u64::MAX` if it is empty.
    fn list_min(&self, list: usize) -> u64 {
        let mut min = u64::MAX;
        let mut c = self.heads[list];
        while c != NIL {
            let Cell { next, deadline, .. } = self.cells[c as usize];
            min = min.min(deadline);
            c = next;
        }
        min
    }

    /// Fires every cell on `list`.
    fn fire_list(&mut self, list: usize) {
        let mut c = std::mem::replace(&mut self.heads[list], NIL);
        while c != NIL {
            let next = self.cells[c as usize].next;
            self.fire(c);
            c = next;
        }
    }
}

impl<T> std::fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TimerWheel(now={}µs, pending={}, stats={:?})", self.now, self.live, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VirtualDuration;
    use std::collections::BTreeMap;

    fn t(us: u64) -> VirtualTime {
        VirtualTime::from_micros(us)
    }

    #[test]
    fn fires_in_deadline_then_arm_order() {
        let mut w = TimerWheel::new(VirtualTime::ZERO);
        let a = w.arm(t(5_000), "a");
        let b = w.arm(t(3_000), "b");
        let c = w.arm(t(5_000), "c");
        let fired = w.advance(t(10_000));
        let order: Vec<&str> = fired.iter().map(|f| f.payload).collect();
        assert_eq!(order, ["b", "a", "c"], "deadline asc, ties by arm order");
        assert_eq!(fired[0].deadline, t(3_000));
        assert_eq!(fired[1].id, a);
        let _ = (b, c);
        assert!(w.is_empty());
    }

    #[test]
    fn cancel_prevents_fire_and_reports_liveness() {
        let mut w = TimerWheel::new(VirtualTime::ZERO);
        let a = w.arm(t(2_000), 1);
        let b = w.arm(t(2_000), 2);
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "second cancel is a no-op");
        let fired = w.advance(t(5_000));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].payload, 2);
        assert!(!w.cancel(b), "fired timers cannot be cancelled");
        assert_eq!(w.stats().cancels, 1);
        assert_eq!(w.stats().fires, 1);
    }

    #[test]
    fn deadline_at_or_before_now_fires_on_next_advance() {
        let mut w = TimerWheel::new(t(1_000_000));
        w.arm(t(1_000_000), "now");
        w.arm(t(5), "past");
        // Zero-width advance still drains ripe timers; the past deadline
        // was clamped to now, so both tie and fire in arm order.
        let fired = w.advance(t(1_000_000));
        let order: Vec<&str> = fired.iter().map(|f| f.payload).collect();
        assert_eq!(order, ["now", "past"]);
        assert_eq!(fired[1].deadline, t(1_000_000), "past deadline clamped");
    }

    #[test]
    fn sub_tick_precision_within_one_slot() {
        let mut w = TimerWheel::new(VirtualTime::ZERO);
        w.arm(t(700), "late");
        w.arm(t(300), "early");
        assert!(w.advance(t(100)).is_empty());
        let f1 = w.advance(t(300));
        assert_eq!(f1.len(), 1);
        assert_eq!(f1[0].payload, "early");
        let f2 = w.advance(t(900));
        assert_eq!(f2.len(), 1);
        assert_eq!(f2[0].payload, "late");
    }

    #[test]
    fn long_jumps_cascade_correctly() {
        let mut w = TimerWheel::new(VirtualTime::ZERO);
        // One timer per decade of µs: exercises every level.
        let mut expect = Vec::new();
        for p in 0..10u32 {
            let us = 10u64.pow(p);
            w.arm(t(us), us);
            expect.push(us);
        }
        expect.sort();
        // Advance in stages so high-level entries are drained early and
        // cascade down, then jump past all of them.
        let mut got = Vec::new();
        for stop in [900_000_000, 999_999_000, 20_000_000_000] {
            got.extend(w.advance(t(stop)).iter().map(|f| f.payload));
        }
        assert_eq!(got, expect);
        assert!(w.stats().cascades > 0, "multi-level deadlines must cascade");
    }

    #[test]
    fn next_due_bounds_the_earliest_deadline() {
        let mut w = TimerWheel::new(VirtualTime::ZERO);
        assert_eq!(w.next_due(), None);
        w.arm(t(500_000), ());
        // Tick 488 is in level 1's window of ticks 448..512.
        assert_eq!(w.next_due(), Some(t(448 << TICK_BITS)));
        let near = w.arm(t(700), ());
        assert_eq!(w.next_due(), Some(t(700)), "within the current tick: exact");
        w.cancel(near);
        assert_eq!(w.next_due(), Some(t(448 << TICK_BITS)), "the cancel forgot the NEAR minimum");
        w.arm(t(0), ());
        assert_eq!(w.next_due(), Some(t(0)), "already due: now");
        w.advance(t(1_000_000));
        assert_eq!(w.next_due(), None);
    }

    #[test]
    fn far_future_overflow_parks_and_still_fires() {
        let mut w = TimerWheel::new(VirtualTime::ZERO);
        // Beyond the six-level horizon (~2.2 virtual years).
        let far = 1u64 << 50;
        w.arm(t(far), "far");
        assert!(w.advance(t(far - 1)).is_empty());
        let fired = w.advance(t(far));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].payload, "far");
    }

    /// A fired timer's id, kept by its owner (as `Conn::timers` and
    /// xktcp's `slot.tid` do), must not reach the next tenant of the
    /// slab cell it names.
    #[test]
    fn stale_id_cannot_cancel_the_cells_next_tenant() {
        let mut w = TimerWheel::new(VirtualTime::ZERO);
        let a = w.arm(t(1_000), "a");
        assert_eq!(w.advance(t(2_000)).len(), 1);
        let b = w.arm(t(3_000), "b");
        assert_eq!(b.cell, a.cell, "the freed cell is the first handed out again");
        assert_ne!(a, b);
        assert!(!w.cancel(a), "a already fired");
        assert_eq!((w.get(a), w.get(b)), (None, Some(&"b")), "nor read it");
        assert_eq!(w.len(), 1);
        let fired = w.advance(t(4_000));
        assert_eq!(fired.len(), 1);
        assert_eq!((fired[0].id, fired[0].payload), (b, "b"));
        // The same holds for an id whose timer was cancelled.
        let c = w.arm(t(5_000), "c");
        assert!(w.cancel(c));
        let d = w.arm(t(5_000), "d");
        assert_eq!(d.cell, c.cell);
        assert!(!w.cancel(c));
        assert_eq!(w.advance(t(6_000))[0].payload, "d");
        assert_eq!(w.stats(), WheelStats { arms: 4, cancels: 1, fires: 3, cascades: 0 });
    }

    /// The reference model the proptest below (and the satellite task)
    /// pins the wheel against: a `BTreeMap<(time, id)>`, fired in key
    /// order — exactly the scheduler sleep-heap semantics the wheel
    /// replaces.
    #[derive(Default)]
    struct NaiveTimers {
        map: BTreeMap<(u64, u64), u32>,
        by_id: BTreeMap<u64, (u64, u64)>,
        now: u64,
        next: u64,
        cancels: u64,
        fires: u64,
    }

    impl NaiveTimers {
        fn arm(&mut self, deadline: u64, payload: u32) -> u64 {
            let id = self.next;
            self.next += 1;
            self.map.insert((deadline, id), payload);
            self.by_id.insert(id, (deadline, id));
            id
        }

        fn cancel(&mut self, id: u64) -> bool {
            let pending = self.by_id.remove(&id).is_some_and(|key| self.map.remove(&key).is_some());
            self.cancels += u64::from(pending);
            pending
        }

        fn advance(&mut self, to: u64) -> Vec<(u64, u32)> {
            self.now = self.now.max(to);
            let mut fired = Vec::new();
            while let Some((&(d, id), &p)) = self.map.iter().next() {
                if d > self.now {
                    break;
                }
                self.map.remove(&(d, id));
                self.by_id.remove(&id);
                fired.push((d, p));
            }
            self.fires += fired.len() as u64;
            fired
        }
    }

    /// The wheel and the model driven in lockstep; every operation ends
    /// by comparing everything the wheel reports about itself.
    struct Lockstep {
        wheel: TimerWheel<u32>,
        model: NaiveTimers,
        ids: Vec<(TimerId, u64)>,
        now: u64,
    }

    impl Lockstep {
        fn new() -> Lockstep {
            Lockstep {
                wheel: TimerWheel::new(VirtualTime::ZERO),
                model: NaiveTimers::default(),
                ids: Vec::new(),
                now: 0,
            }
        }

        fn check(&self) {
            let w = &self.wheel;
            assert_eq!(w.len(), self.model.map.len());
            let mut occupied = [0u64; LEVELS];
            for slot in 0..NEAR {
                if w.heads[slot] != NIL {
                    occupied[slot / SLOTS] |= 1 << (slot % SLOTS);
                }
            }
            assert_eq!(w.occupied, occupied, "the occupancy masks");
            // The bound: none without a timer, never later than the
            // earliest deadline, and that deadline itself while the
            // earliest timer is due or within the current tick.
            let first = self.model.map.keys().next().map(|&(d, mid)| {
                // The model numbers its timers in arm order, as `ids` does.
                let wid = self.ids[mid as usize].0;
                (d, usize::from(w.cells[wid.cell as usize].list))
            });
            match (w.next_due(), first) {
                (None, None) => {}
                (Some(bound), Some((d, list))) => {
                    assert!(bound <= t(d), "bound {bound:?} past the earliest deadline {d}");
                    if list >= NEAR {
                        assert_eq!(bound, t(d), "the earliest timer is on RIPE or NEAR");
                    }
                }
                (bound, first) => panic!("bound {bound:?} with earliest {first:?}"),
            }
            let s = w.stats();
            assert_eq!((s.arms, s.cancels, s.fires), (self.model.next, self.model.cancels, self.model.fires));
        }

        fn arm(&mut self, deadline: u64) -> usize {
            let payload = self.ids.len() as u32;
            let wid = self.wheel.arm(t(deadline), payload);
            let mid = self.model.arm(deadline.max(self.now), payload);
            self.ids.push((wid, mid));
            self.check();
            self.ids.len() - 1
        }

        fn cancel(&mut self, i: usize) {
            let (wid, mid) = self.ids[i];
            assert_eq!(self.wheel.cancel(wid), self.model.cancel(mid), "cancel liveness must agree");
            self.check();
        }

        fn advance_by(&mut self, us: u64) {
            self.advance_to(self.now + us);
        }

        fn advance_to(&mut self, to: u64) {
            self.now = to;
            let fired: Vec<(u64, u32)> =
                self.wheel.advance(t(self.now)).iter().map(|f| (f.deadline.as_micros(), f.payload)).collect();
            assert_eq!(fired, self.model.advance(self.now), "same timers, same order");
            self.check();
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Arbitrary arm/cancel/advance sequences fire the same timers
        /// in the same order as the naive ordered-map model, and the
        /// wheel's own account of itself agrees after every step.
        #[test]
        fn wheel_matches_btreemap_reference(ops in proptest::collection::vec((0u8..9, 0u64..5_000_000), 1..120)) {
            let mut l = Lockstep::new();
            for (op, arg) in ops {
                match op {
                    // Arm (weighted: most ops arm): a mix of near, far,
                    // and already-due deadlines.
                    0 => { l.arm(l.now + arg % 2_048); }             // sub-slot
                    1 => { l.arm(l.now + arg % 400_000); }           // a few slots
                    2 => { l.arm(l.now + arg); }                     // anywhere
                    3 => { l.arm(l.now.saturating_sub(arg % 1_000)); } // already due
                    // Cancel a random previously armed timer.
                    4 | 5 => {
                        if !l.ids.is_empty() {
                            l.cancel(arg as usize % l.ids.len());
                        }
                    }
                    // Advance (sometimes by zero).
                    6 => l.advance_by(arg % 3_000),
                    7 => l.advance_by(arg % 900_000),
                    // A request/response run: a delayed ACK armed one
                    // millisecond out and cancelled by the reply, the
                    // clock creeping 3 µs a step — up to two tick
                    // roll-overs of same-tick advances and cancelled
                    // entries in `NEAR` and in level 0.
                    _ => {
                        for _ in 0..arg % 700 {
                            let ack = l.arm(l.now + 1_000);
                            l.cancel(ack);
                            l.advance_by(3);
                        }
                    }
                }
            }
            // Drain everything left and compare the tail too.
            l.advance_by(100_000_000_000);
            proptest::prop_assert!(l.wheel.is_empty());
        }

        /// `next_due` against the model under arms (the overflow slot
        /// included), cancels and advances: `check` holds it to its
        /// bound after every operation, and chasing the bound — advance
        /// to it, ask again — reaches the earliest deadline within
        /// `LEVELS + 1` advances (one more per top-level window crossed
        /// for a timer parked beyond the top level), firing nothing
        /// before it.
        #[test]
        fn next_due_converges_on_the_earliest_deadline(ops in proptest::collection::vec((0u8..8, 0u64..5_000_000), 1..80)) {
            let mut l = Lockstep::new();
            for (op, arg) in ops {
                match op {
                    0 => { l.arm(l.now + arg % 2_048); }
                    1 => { l.arm(l.now + arg % 400_000); }
                    2 => { l.arm(l.now + arg * 64); }                 // up to level 4
                    3 => { l.arm(l.now + (1 << 46) + arg); }          // overflow slot
                    4 => {
                        if !l.ids.is_empty() {
                            l.cancel(arg as usize % l.ids.len());
                        }
                    }
                    5 => l.advance_by(arg % 900_000),
                    _ => {
                        let Some(&(first, _)) = l.model.map.keys().next() else { continue };
                        let reach = TICK_BITS + SLOT_BITS * LEVELS as u32;
                        let parked = ((first ^ l.now) >> reach) != 0;
                        let allowed = LEVELS + 1 + if parked { SLOTS } else { 0 };
                        let mut advances = 0;
                        while l.model.map.keys().next().is_some_and(|&(d, _)| d == first) {
                            let bound = l.wheel.next_due().expect("a timer is pending").as_micros();
                            proptest::prop_assert!(bound <= first);
                            l.advance_to(bound);
                            advances += 1;
                            proptest::prop_assert!(advances <= allowed, "{advances} advances to reach {first}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stats_count_operations() {
        let mut w = TimerWheel::new(VirtualTime::ZERO);
        let a = w.arm(t(1_000), ());
        w.arm(t(2_000), ());
        w.cancel(a);
        w.advance(t(5_000));
        let s = w.stats();
        assert_eq!(s.arms, 2);
        assert_eq!(s.cancels, 1);
        assert_eq!(s.fires, 1);
        let _ = VirtualDuration::ZERO;
    }
}
