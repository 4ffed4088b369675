//! Per-droplet corridor reservations for concurrent fleet routing.
//!
//! Each dispatched micro-operation reserves the corridor its droplets will
//! traverse — the hazard bounds `δ_h` of its routing jobs, expanded by the
//! fluidic interference ring. Peers see those reservations as
//! *time-expanded hazard boxes* ([`meda_core::HazardBox`]): the box covers
//! every cell the reserving droplet may occupy over its reservation
//! window, so synthesis steers around the whole corridor instead of
//! chasing the droplet's instantaneous position cycle by cycle. A shift in
//! the reservation set (dispatch, completion, stall escalation) changes
//! the hazard digest, and affected strategies are re-solved cold.

use std::collections::BTreeMap;

use meda_core::{hazard_digest, HazardBox};
use meda_grid::Rect;

/// The fleet's live corridor-reservation table, keyed by micro-operation
/// id. Deterministic iteration (BTreeMap) keeps hazard-box order — and
/// therefore hazard digests — reproducible across runs.
#[derive(Debug, Clone, Default)]
pub struct CorridorReservations {
    entries: BTreeMap<usize, Vec<HazardBox>>,
}

impl CorridorReservations {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records (or replaces) the reservation of micro-operation `mo`.
    pub fn reserve(&mut self, mo: usize, boxes: Vec<HazardBox>) {
        self.entries.insert(mo, boxes);
    }

    /// Releases a completed or aborted micro-operation's corridor.
    pub fn release(&mut self, mo: usize) {
        self.entries.remove(&mo);
    }

    /// Drops every reservation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of live reservations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no corridor is reserved.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The hazard boxes a given micro-operation must route around: every
    /// reservation *except its own* (a droplet is not a hazard to itself
    /// or to its same-MO partners), in ascending MO-id order.
    #[must_use]
    pub fn boxes_excluding(&self, mo: usize) -> Vec<HazardBox> {
        self.entries
            .iter()
            .filter(|&(&id, _)| id != mo)
            .flat_map(|(_, boxes)| boxes.iter().copied())
            .collect()
    }

    /// Digest of the hazard boxes peers of `mo` present within `region` —
    /// zero when none intersect (see [`meda_core::hazard_digest`]).
    #[must_use]
    pub fn digest_excluding(&self, mo: usize, region: Rect) -> u64 {
        hazard_digest(&self.boxes_excluding(mo), region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soft(xa: i32, ya: i32, xb: i32, yb: i32) -> HazardBox {
        HazardBox::soft(Rect::new(xa, ya, xb, yb), 0.3)
    }

    #[test]
    fn reservations_exclude_the_owner() {
        let mut r = CorridorReservations::new();
        r.reserve(0, vec![soft(1, 1, 5, 5)]);
        r.reserve(2, vec![soft(10, 1, 15, 5), soft(10, 6, 15, 9)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.boxes_excluding(0).len(), 2);
        assert_eq!(r.boxes_excluding(2).len(), 1);
        assert_eq!(r.boxes_excluding(7).len(), 3);
    }

    #[test]
    fn release_shifts_the_peer_digest() {
        let region = Rect::new(1, 1, 20, 10);
        let mut r = CorridorReservations::new();
        r.reserve(0, vec![soft(1, 1, 5, 5)]);
        r.reserve(1, vec![soft(8, 1, 12, 5)]);
        let before = r.digest_excluding(0, region);
        assert_ne!(before, 0);
        r.release(1);
        assert_eq!(r.digest_excluding(0, region), 0);
        assert!(r.boxes_excluding(0).is_empty());
    }

    #[test]
    fn iteration_order_is_mo_id_order() {
        let mut r = CorridorReservations::new();
        r.reserve(5, vec![soft(1, 1, 2, 2)]);
        r.reserve(1, vec![soft(3, 3, 4, 4)]);
        r.reserve(3, vec![soft(5, 5, 6, 6)]);
        let boxes = r.boxes_excluding(99);
        assert_eq!(boxes[0].rect, Rect::new(3, 3, 4, 4));
        assert_eq!(boxes[1].rect, Rect::new(5, 5, 6, 6));
        assert_eq!(boxes[2].rect, Rect::new(1, 1, 2, 2));
    }
}
