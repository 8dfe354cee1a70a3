//! The in-flight packet arena: every packet between host send and final
//! delivery/drop lives in one generational slab, and events carry a slim
//! [`PacketRef`] handle instead of the ~100-byte [`Packet`] itself.
//!
//! # Why
//!
//! The timing wheel sizes its entries for the largest event variant.
//! With packets travelling by value inside `ArriveSwitch`/`ArriveHost`,
//! every wheel push, level cascade and slot-drain sort memcpys a full
//! packet; with handles, a network event is ≤ 16 bytes, the
//! runtime stores any event in the wheel as two machine words (a handle
//! is one of them: [`PacketRef::to_bits`]), and the packet bytes are
//! written exactly once, at [`PacketArena::insert`].
//!
//! # Lifecycle contract
//!
//! `insert` on host send → the handle threads through NIC queue, events,
//! switch port FIFOs and (optionally) the shim reorder buffer → exactly
//! one of:
//!
//! * [`PacketArena::take`] at final delivery (the transport layer wants
//!   the packet by value), or
//! * [`PacketArena::free`] at any drop site (tail drop, dead link, lossy
//!   wire, NIC overflow, blackhole).
//!
//! [`PacketArena::live`] counts outstanding handles; the determinism
//! golden suite asserts it returns to zero after every drained run, which
//! catches a forgotten `free` on any drop path.
//!
//! Slots are generation-stamped: freeing bumps the slot generation, so a
//! stale handle can never silently alias a reused slot — dereferencing
//! one trips a debug assertion.

use std::io;

use drill_sim::codec::{invalid, put_varint, Decoder};

use crate::packet::Packet;
use crate::snapio::{get_packet, put_packet};

/// A copyable handle to a packet interned in a [`PacketArena`]:
/// slab index + generation stamp, 8 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PacketRef {
    idx: u32,
    gen: u32,
}

impl PacketRef {
    /// The handle as one machine word (`idx | gen << 32`), for event
    /// encodings that store whole words. Says nothing about validity: a
    /// handle rebuilt by [`from_bits`](PacketRef::from_bits) is checked
    /// against its arena like any other.
    #[inline]
    pub const fn to_bits(self) -> u64 {
        self.idx as u64 | (self.gen as u64) << 32
    }

    /// Inverse of [`to_bits`](PacketRef::to_bits).
    #[inline]
    pub const fn from_bits(bits: u64) -> PacketRef {
        PacketRef {
            idx: bits as u32,
            gen: (bits >> 32) as u32,
        }
    }
}

struct Slot {
    /// Bumped on every free; a handle is valid iff its stamp matches.
    gen: u32,
    /// `None` while the slot sits on the free list.
    pkt: Option<Packet>,
}

/// Generational slab arena for in-flight packets (see module docs).
#[derive(Default)]
pub struct PacketArena {
    slots: Vec<Slot>,
    /// Indices of free slots, reused LIFO (hottest cache lines first).
    free: Vec<u32>,
    live: usize,
}

impl PacketArena {
    /// An empty arena.
    pub const fn new() -> PacketArena {
        PacketArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Intern `pkt`, returning its handle. Reuses a freed slot when
    /// one exists; grows the slab otherwise.
    #[inline]
    pub fn insert(&mut self, pkt: Packet) -> PacketRef {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.pkt.is_none(), "free-list slot was occupied");
            slot.pkt = Some(pkt);
            PacketRef { idx, gen: slot.gen }
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                pkt: Some(pkt),
            });
            PacketRef { idx, gen: 0 }
        }
    }

    #[inline]
    fn check(&self, r: &PacketRef) {
        debug_assert_eq!(
            self.slots[r.idx as usize].gen, r.gen,
            "stale PacketRef: slot {} was freed and reused",
            r.idx
        );
    }

    /// Read the packet behind `r`.
    ///
    /// Debug builds assert the handle is current (a stale handle —
    /// one whose slot was freed — is a lifecycle bug at the caller).
    #[inline]
    pub fn get(&self, r: &PacketRef) -> &Packet {
        self.check(r);
        self.slots[r.idx as usize]
            .pkt
            .as_ref()
            .expect("PacketRef points at a freed slot")
    }

    /// Mutable access to the packet behind `r` (policy hooks mutate
    /// source routes and CONGA tags in place).
    #[inline]
    pub fn get_mut(&mut self, r: &PacketRef) -> &mut Packet {
        self.check(r);
        self.slots[r.idx as usize]
            .pkt
            .as_mut()
            .expect("PacketRef points at a freed slot")
    }

    /// Hint that the packet behind `r` is about to be read: start
    /// loading its slot into cache. It has no effect the program can
    /// observe, for a stale or out-of-range handle too, and compiles to
    /// nothing off x86-64.
    ///
    /// The event loop calls it for an arrival a few events before the
    /// arrival's first touch of its slot, which would otherwise miss cache
    /// (DESIGN.md §10 "Prefetch").
    #[inline]
    pub fn prefetch(&self, r: PacketRef) {
        #[cfg(target_arch = "x86_64")]
        if let Some(slot) = self.slots.get(r.idx as usize) {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // A 104-byte slot straddles two or three cache lines; these
            // three offsets reach every one of them.
            let base = (slot as *const Slot).cast::<i8>();
            for off in [0, 64, std::mem::size_of::<Slot>() - 1] {
                // SAFETY: `base + off` lies inside the slot, and a prefetch
                // is a hint that never faults and changes no memory or
                // register state.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(base.wrapping_add(off)) };
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = r;
    }

    /// Remove the packet behind `r` from the arena and return it by
    /// value (final delivery). Frees the slot.
    #[inline]
    pub fn take(&mut self, r: PacketRef) -> Packet {
        self.check(&r);
        let slot = &mut self.slots[r.idx as usize];
        let pkt = slot.pkt.take().expect("PacketRef points at a freed slot");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(r.idx);
        self.live -= 1;
        pkt
    }

    /// Drop the packet behind `r` (any drop site). Frees the slot.
    #[inline]
    pub fn free(&mut self, r: PacketRef) {
        let _ = self.take(r);
    }

    /// Number of packets currently interned. Zero once a run has
    /// fully drained — the leak check the golden suite pins.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Slab capacity in slots (high-water mark of concurrently live
    /// packets; never shrinks).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Serialize the whole slab: every slot (generation + occupancy +
    /// packet), the free list **in LIFO order**, and the live count.
    ///
    /// The free-list order is load-bearing: slot reuse after restore
    /// must pick the same slots in the same order as the
    /// uninterrupted run, or every later `PacketRef` diverges and
    /// bit-identical replay breaks.
    pub fn save_state(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.slots.len() as u64);
        for slot in &self.slots {
            put_varint(buf, slot.gen as u64);
            match &slot.pkt {
                Some(p) => {
                    buf.push(1);
                    put_packet(buf, p);
                }
                None => buf.push(0),
            }
        }
        put_varint(buf, self.free.len() as u64);
        for &idx in &self.free {
            put_varint(buf, idx as u64);
        }
        put_varint(buf, self.live as u64);
    }

    /// Rebuild an arena from [`save_state`](PacketArena::save_state)
    /// output, rejecting a free list or live count that disagrees with
    /// slot occupancy.
    pub fn load_state(d: &mut Decoder<'_>) -> io::Result<PacketArena> {
        let n = d.varint_usize()?;
        let mut slots = Vec::with_capacity(n.min(1 << 20));
        let mut occupied = 0usize;
        for _ in 0..n {
            let gen = d.varint_u32()?;
            let pkt = match d.u8()? {
                0 => None,
                1 => {
                    occupied += 1;
                    Some(get_packet(d)?)
                }
                _ => return Err(invalid("bad slot occupancy byte")),
            };
            slots.push(Slot { gen, pkt });
        }
        let free_len = d.varint_usize()?;
        if free_len != n - occupied {
            return Err(invalid("free list disagrees with slot occupancy"));
        }
        let mut free = Vec::with_capacity(free_len.min(1 << 20));
        let mut seen = vec![false; n];
        for _ in 0..free_len {
            let idx = d.varint_u32()?;
            let slot = slots
                .get(idx as usize)
                .ok_or_else(|| invalid("free index out of bounds"))?;
            if slot.pkt.is_some() || std::mem::replace(&mut seen[idx as usize], true) {
                return Err(invalid("free index occupied or duplicated"));
            }
            free.push(idx);
        }
        let live = d.varint_usize()?;
        if live != occupied {
            return Err(invalid("live count disagrees with slot occupancy"));
        }
        Ok(PacketArena { slots, free, live })
    }

    /// Serialize a handle as its `(index, generation)` pair. Debug
    /// builds assert the handle is current against this arena.
    pub fn encode_ref(&self, buf: &mut Vec<u8>, r: &PacketRef) {
        self.check(r);
        put_varint(buf, r.idx as u64);
        put_varint(buf, r.gen as u64);
    }

    /// Decode a handle written by
    /// [`encode_ref`](PacketArena::encode_ref), validating that it
    /// points at an occupied slot of matching generation.
    pub fn decode_ref(&self, d: &mut Decoder<'_>) -> io::Result<PacketRef> {
        let idx = d.varint_u32()?;
        let gen = d.varint_u32()?;
        let slot = self
            .slots
            .get(idx as usize)
            .ok_or_else(|| invalid("PacketRef index out of bounds"))?;
        if slot.gen != gen || slot.pkt.is_none() {
            return Err(invalid("PacketRef is stale or points at a free slot"));
        }
        Ok(PacketRef { idx, gen })
    }
}

/// The slim handle must stay pocket-sized: it is the payload of the hot
/// event variants, so its size bounds `NetEvent`'s.
const _: () = assert!(std::mem::size_of::<PacketRef>() == 8);

/// [`PacketArena::prefetch`] reaches a slot's cache lines with offsets 0,
/// 64 and its last byte: enough for any slot of 65 to 128 bytes.
const _: () = assert!(std::mem::size_of::<Slot>() > 64 && std::mem::size_of::<Slot>() <= 128);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, HostId};
    use drill_sim::{SimRng, Time};

    fn pkt(id: u64) -> Packet {
        Packet::data(
            id,
            FlowId(0),
            HostId(0),
            HostId(1),
            0xfeed,
            0,
            1000,
            Time::ZERO,
        )
    }

    #[test]
    fn insert_get_take_round_trip() {
        let mut a = PacketArena::new();
        let r = a.insert(pkt(7));
        assert_eq!(a.live(), 1);
        assert_eq!(a.get(&r).id, 7);
        let p = a.take(r);
        assert_eq!(p.id, 7);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn handle_bits_round_trip() {
        let mut a = PacketArena::new();
        let r0 = a.insert(pkt(0));
        a.free(r0);
        let r1 = a.insert(pkt(1)); // same slot, generation 1
        let r2 = a.insert(pkt(2));
        for r in [r0, r1, r2] {
            assert_eq!(PacketRef::from_bits(r.to_bits()), r);
        }
        assert_ne!(r0.to_bits(), r1.to_bits(), "generation is in the word");
        assert_ne!(r1.to_bits(), r2.to_bits(), "index is in the word");
        for bits in [0, 1, 1 << 32, u32::MAX as u64, u64::MAX] {
            assert_eq!(PacketRef::from_bits(bits).to_bits(), bits);
        }
        assert_eq!(a.get(&PacketRef::from_bits(r1.to_bits())).id, 1);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut a = PacketArena::new();
        let r = a.insert(pkt(1));
        a.get_mut(&r).push_route(42);
        assert_eq!(a.get(&r).srcroute_len, 1);
        assert_eq!(a.get_mut(&r).next_route_hop(), Some(42));
        a.free(r);
    }

    #[test]
    fn free_list_reuses_slots() {
        let mut a = PacketArena::new();
        let r0 = a.insert(pkt(0));
        let r1 = a.insert(pkt(1));
        assert_eq!(a.capacity(), 2);
        a.free(r0);
        a.free(r1);
        // LIFO reuse: the two replacement packets land in the same two
        // slots, no slab growth.
        let r2 = a.insert(pkt(2));
        let r3 = a.insert(pkt(3));
        assert_eq!(a.capacity(), 2, "freed slots reused, slab did not grow");
        assert_eq!(a.get(&r2).id, 2);
        assert_eq!(a.get(&r3).id, 3);
        a.free(r2);
        a.free(r3);
        assert_eq!(a.live(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn stale_handle_deref_is_caught() {
        let mut a = PacketArena::new();
        let stale = a.insert(pkt(0));
        let dup = stale; // Copy: same slot, same generation
        a.free(dup);
        let _reused = a.insert(pkt(1)); // same slot, new generation
        let _ = a.get(&stale); // must trip the generation check
    }

    #[test]
    fn prefetch_is_inert_for_any_handle() {
        // Live, freed-and-reused, and out-of-range handles: a hint reads
        // and writes nothing, so every packet and count stays as it was.
        let mut a = PacketArena::new();
        let live = a.insert(pkt(7));
        let stale = a.insert(pkt(8));
        a.free(stale);
        let reused = a.insert(pkt(9));
        for r in [live, stale, reused, PacketRef::from_bits(u64::MAX)] {
            a.prefetch(r);
        }
        assert_eq!((a.live(), a.capacity()), (2, 2));
        assert_eq!((a.get(&live).id, a.get(&reused).id), (7, 9));
    }

    #[test]
    fn grow_under_churn_keeps_handles_distinct() {
        // Interleaved alloc/free with a rising live population: the slab
        // grows while the free list cycles, and no two live handles may
        // ever resolve to the same packet.
        let mut a = PacketArena::new();
        let mut rng = SimRng::seed_from(0xA11A);
        let mut held: Vec<(PacketRef, u64)> = Vec::new();
        let mut next_id = 0u64;
        for round in 0..10_000usize {
            // Bias toward growth early, churn later.
            let grow = held.is_empty() || rng.below(100) < if round < 4000 { 70 } else { 45 };
            if grow {
                let r = a.insert(pkt(next_id));
                held.push((r, next_id));
                next_id += 1;
            } else {
                let i = rng.below(held.len());
                let (r, id) = held.swap_remove(i);
                assert_eq!(a.get(&r).id, id, "handle resolved to the wrong packet");
                a.free(r);
            }
        }
        assert_eq!(a.live(), held.len());
        // Every surviving handle still resolves to its own packet, and
        // all payloads are pairwise distinct.
        let mut seen: Vec<u64> = held
            .iter()
            .map(|(r, id)| {
                assert_eq!(a.get(r).id, *id);
                *id
            })
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), held.len(), "two live handles aliased");
        for (r, _) in held.drain(..) {
            a.free(r);
        }
        assert_eq!(a.live(), 0);
    }
}
