//! Composed metric, track and stage names, built once and interned.
//!
//! Counter, histogram and schedule keys are `&'static str`. The names made
//! of parts — `stall.<stage>.<cause>`, `dev<i>.<resource>`, `p<i>.<role>` —
//! come from the helpers here. Each formats its name the first time it is
//! asked for, leaks it once into a process-wide set and returns that same
//! pointer on every later call. The parts come from small fixed
//! vocabularies (stages, causes, roofline labels, devices below the
//! machine cap), so the set stays small. A later lookup formats into a
//! stack buffer and allocates nothing.

use crate::stall::StallCause;
use bk_simcore::ResourceId;
use std::collections::BTreeSet;
use std::fmt::{self, Write};
use std::sync::RwLock;

static NAMES: RwLock<BTreeSet<&'static str>> = RwLock::new(BTreeSet::new());

/// A name no longer than this is composed without touching the heap.
const INLINE: usize = 64;

/// A fixed stack buffer that refuses writes past [`INLINE`] bytes. It only
/// ever holds whole `&str` pieces, so its contents are valid UTF-8.
struct StackBuf {
    buf: [u8; INLINE],
    len: usize,
}

impl Write for StackBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        let dst = self.buf.get_mut(self.len..end).ok_or(fmt::Error)?;
        dst.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// The interned `&'static str` spelling `args`.
fn intern(args: fmt::Arguments<'_>) -> &'static str {
    let mut stack = StackBuf {
        buf: [0; INLINE],
        len: 0,
    };
    let heap;
    let name = if stack.write_fmt(args).is_ok() {
        std::str::from_utf8(&stack.buf[..stack.len]).expect("whole str pieces are UTF-8")
    } else {
        heap = args.to_string();
        heap.as_str()
    };
    const POISONED: &str = "name set poisoned by a panic while interning";
    if let Some(&s) = NAMES.read().expect(POISONED).get(name) {
        return s;
    }
    let mut set = NAMES.write().expect(POISONED);
    if let Some(&s) = set.get(name) {
        return s;
    }
    let s: &'static str = Box::leak(name.into());
    set.insert(s);
    s
}

/// `stall.<stage>.<cause>`: simulated nanoseconds `stage` waited on `cause`.
pub fn stall(stage: &str, cause: StallCause) -> &'static str {
    intern(format_args!("stall.{stage}.{}", cause.label()))
}

/// `hist.span.<stage>`: span durations in simulated nanoseconds.
pub fn span_hist(stage: &str) -> &'static str {
    intern(format_args!("hist.span.{stage}"))
}

/// `hist.reuse-wait.<stage>`: how long each buffer-reuse wait lasted, in
/// simulated nanoseconds — the wait-depth distribution `report pipeline`
/// summarizes.
pub fn reuse_wait_hist(stage: &str) -> &'static str {
    intern(format_args!("hist.reuse-wait.{stage}"))
}

/// `bound.<stage>.<label>`: chunks whose `stage` time was set by the
/// roofline term `label`.
pub fn bound(stage: &str, label: &str) -> &'static str {
    intern(format_args!("bound.{stage}.{label}"))
}

/// `device.<d>.<quantity>`: a per-device total of a sharded run.
pub fn device(d: usize, quantity: &str) -> &'static str {
    intern(format_args!("device.{d}.{quantity}"))
}

/// A resource's track name: the bare kind name on device 0,
/// `dev<d>.<kind>` on any other device, so single-GPU output keeps the
/// unqualified vocabulary.
pub fn resource(id: ResourceId) -> &'static str {
    let kind = id.kind.name();
    match id.device {
        0 => kind,
        d => intern(format_args!("dev{d}.{kind}")),
    }
}

/// `p<p>.<role>`: pass `p`'s copy of a pipeline stage in a fused graph.
pub fn pass_stage(p: usize, role: &str) -> &'static str {
    intern(format_args!("p{p}.{role}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_cover_the_device_range() {
        assert_eq!(device(0, "chunks"), "device.0.chunks");
        assert_eq!(device(7, "stall_ns"), "device.7.stall_ns");
        assert_eq!(device(3, "busy_ns"), "device.3.busy_ns");
        let comp = ResourceId::new(bk_simcore::ResourceKind::GpuCompute, 0);
        assert_eq!(resource(comp), "gpu-comp");
        assert_eq!(resource(comp.on_device(3)), "dev3.gpu-comp");
        assert_eq!(pass_stage(1, "wb-apply"), "p1.wb-apply");
    }

    #[test]
    fn a_name_is_interned_once() {
        let a = device(12, "chunks");
        let b = intern(format_args!("device.{}.{}", 12, "chunks"));
        assert!(std::ptr::eq(a, b), "second lookup returned a new string");
    }

    #[test]
    fn names_past_the_stack_buffer_still_intern() {
        let long = "x".repeat(INLINE * 2);
        let a = span_hist(&long);
        assert_eq!(a, format!("hist.span.{long}"));
        assert!(std::ptr::eq(a, span_hist(&long)));
    }
}
