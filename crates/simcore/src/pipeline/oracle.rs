//! The chain-only reference scheduler, kept for tests: on a capacity-1
//! chain it must return exactly what [`super::schedule`] returns, slots,
//! stall attribution and recorded predecessors included. Nothing outside
//! tests calls it.

use super::{GraphSpec, ResourceId, Schedule, Slot, SlotMeta, StallKind};
use crate::time::SimTime;
use std::collections::HashMap;
use std::sync::Arc;

/// Compute the schedule of the capacity-1 chain `spec` for
/// `durations[chunk][stage]`.
///
/// Panics if `spec` is not a chain on capacity-1 resources, or if any chunk
/// row has a different number of stages than the spec.
pub fn schedule(spec: &GraphSpec, durations: &[Vec<SimTime>]) -> Schedule {
    let ns = spec.num_stages();
    for (i, st) in spec.stages.iter().enumerate() {
        assert!(
            st.deps.iter().copied().eq(i.checked_sub(1)),
            "stage {i} ({}) is not a chain link",
            st.name
        );
        assert_eq!(
            spec.capacity(st.resource),
            1,
            "stage {i} ({}) has a multi-unit resource",
            st.name
        );
    }
    for (i, row) in durations.iter().enumerate() {
        assert_eq!(
            row.len(),
            ns,
            "chunk {i} has wrong number of stage durations"
        );
    }

    // Each resource's free time and the slot that last occupied it.
    let mut resource_free: HashMap<ResourceId, (SimTime, (usize, usize))> = HashMap::new();
    let mut slots: Vec<Vec<Slot>> = Vec::with_capacity(durations.len());
    let mut meta: Vec<Vec<SlotMeta>> = Vec::with_capacity(durations.len());

    for (chunk, row) in durations.iter().enumerate() {
        let mut chunk_slots: Vec<Slot> = Vec::with_capacity(ns);
        let mut chunk_meta: Vec<SlotMeta> = Vec::with_capacity(ns);
        for (stage, &dur) in row.iter().enumerate() {
            let mut start = SimTime::ZERO;
            // 1. dataflow within the chunk
            let dataflow = if stage > 0 {
                chunk_slots[stage - 1].finish
            } else {
                SimTime::ZERO
            };
            start = start.max(dataflow);
            // 2. resource availability (in-order issue). Zero-duration
            // stages neither wait for nor occupy their resource.
            let res = spec.stages[stage].resource;
            let mut res_ready = SimTime::ZERO;
            let mut occupant = None;
            if !dur.is_zero() {
                if let Some(&(free, by)) = resource_free.get(&res) {
                    res_ready = free;
                    occupant = Some(by);
                    start = start.max(free);
                }
            }
            // 3. buffer-reuse edges
            let mut reuse_ready = SimTime::ZERO;
            let mut reuse_pred = (0usize, 0usize);
            for e in &spec.reuse {
                if e.producer == stage && chunk >= e.depth {
                    let ready = slots[chunk - e.depth][e.consumer].finish;
                    if ready >= reuse_ready {
                        reuse_ready = ready;
                        reuse_pred = (chunk - e.depth, e.consumer);
                    }
                    start = start.max(ready);
                }
            }
            // The gap goes to whichever constraint won; reuse wins ties.
            let stalled = start.saturating_sub(dataflow);
            let (kind, pred) = if stalled.is_zero() {
                (None, (!start.is_zero()).then(|| (chunk, stage - 1)))
            } else if reuse_ready >= res_ready {
                let consumer = reuse_pred.1;
                (Some(StallKind::Reuse { consumer }), Some(reuse_pred))
            } else {
                (Some(StallKind::Resource(res)), occupant)
            };
            let finish = start + dur;
            if !dur.is_zero() {
                resource_free.insert(res, (finish, (chunk, stage)));
            }
            chunk_slots.push(Slot { start, finish });
            chunk_meta.push(SlotMeta {
                kind,
                stall: stalled,
                pred,
            });
        }
        slots.push(chunk_slots);
        meta.push(chunk_meta);
    }

    let chunk_ids = (0..durations.len()).collect();
    Schedule::solved(Arc::new(spec.clone()), 0, chunk_ids, slots, meta)
}
