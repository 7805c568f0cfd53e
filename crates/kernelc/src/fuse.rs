//! Mega-kernel fusion: compile two passes of a multi-pass app into **one**
//! kernel whose intermediate stream never crosses PCIe.
//!
//! A multi-pass app writes an intermediate stream in pass A and reads it
//! back in pass B — in the unfused system those bytes ride the write-back
//! DMA to the host and the prefetch DMA straight back to the device.
//! [`fuse`] proves (via [`derive_summary`] + [`StreamAccess::covers`]) that
//! every read B performs on the intermediate is covered by a write A
//! performs at the *same* record-periodic addresses, then stitches the two
//! bodies into a single program in which the intermediate lives in a device
//! buffer: A's `StreamWrite`s become `DevWrite`s, B's `StreamRead`s become
//! `DevRead`s of the same buffer, appended as the fused kernel's **last**
//! device-buffer parameter.
//!
//! The proof obligation is deliberately conservative — dependence analysis
//! that cannot establish coverage refuses ([`FuseError`]), and callers fall
//! back to running the passes unfused. Summaries are derived only from
//! *canonical loops* (`i = range.start; while i < range.end { …; i += step }`)
//! whose access addresses are affine in the induction variable: `i + c`
//! (same-pitch access at field offset `c`) or `(i / step) * m + c`
//! (re-pitched access, `m` bytes per record). Writes under conditional
//! control are marked inexact and can never serve as coverage.

use crate::interp::max_var;
use crate::ir::{Expr, KernelIr, Stmt, Var, FIRST_LOCAL, RANGE_END, RANGE_START};
use bk_runtime::fusion::{AccessSummary, FieldSpan, StreamAccess};
use bk_runtime::StreamId;

/// Why two kernels cannot be fused. Every variant is a *refusal*, not an
/// error: the caller runs the passes unfused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FuseError {
    /// The passes disagree on record size, so their lane partitions differ.
    RecordSizeMismatch,
    /// Pass `pass` has no derivable access summary (non-canonical loops or
    /// non-affine addressing).
    Unanalyzable {
        /// Index of the unanalyzable pass (0 = producer, 1 = consumer).
        pass: usize,
    },
    /// The producer never writes the intermediate stream unconditionally.
    NotProduced {
        /// The intermediate stream id.
        stream: u32,
    },
    /// A consumer read of the intermediate is not covered by producer
    /// writes at the same record-periodic addresses.
    Uncovered {
        /// The intermediate stream id.
        stream: u32,
    },
    /// The consumer also writes the intermediate (read-modify-write across
    /// the fusion boundary is not supported).
    ConsumerWrites {
        /// The intermediate stream id.
        stream: u32,
    },
}

impl std::fmt::Display for FuseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuseError::RecordSizeMismatch => {
                write!(f, "passes disagree on record size; lane partitions differ")
            }
            FuseError::Unanalyzable { pass } => {
                write!(f, "pass {pass} has no derivable access summary")
            }
            FuseError::NotProduced { stream } => {
                write!(f, "producer never writes stream {stream} unconditionally")
            }
            FuseError::Uncovered { stream } => write!(
                f,
                "consumer reads of stream {stream} are not covered by producer writes"
            ),
            FuseError::ConsumerWrites { stream } => {
                write!(f, "consumer writes intermediate stream {stream}")
            }
        }
    }
}

impl std::error::Error for FuseError {}

/// One raw access found while walking a canonical loop.
struct RawAccess {
    stream: u32,
    unit: u64,
    stride: u64,
    offset: u64,
    width: u64,
    exact: bool,
    is_write: bool,
}

/// An `offset` expression classified against induction variable `v` with
/// loop step `step`: returns `(field_offset, stride)` when affine.
fn classify_offset(e: &Expr, v: Var, step: u64) -> Option<(u64, u64)> {
    // i  |  i + c  |  c + i
    match e {
        Expr::Var(x) if *x == v => return Some((0, step)),
        Expr::Bin(crate::ir::BinOp::Add, a, b) => {
            if let (Expr::Var(x), Expr::ConstInt(c)) = (a.as_ref(), b.as_ref()) {
                if *x == v {
                    return Some((*c, step));
                }
            }
            if let (Expr::ConstInt(c), Expr::Var(x)) = (a.as_ref(), b.as_ref()) {
                if *x == v {
                    return Some((*c, step));
                }
            }
            // (i / step) * m + c
            if let Expr::ConstInt(c) = b.as_ref() {
                if let Some(m) = classify_repitch(a, v, step) {
                    return Some((*c, m));
                }
            }
            if let Expr::ConstInt(c) = a.as_ref() {
                if let Some(m) = classify_repitch(b, v, step) {
                    return Some((*c, m));
                }
            }
        }
        _ => {
            if let Some(m) = classify_repitch(e, v, step) {
                return Some((0, m));
            }
        }
    }
    None
}

/// Matches `(i / step) * m`, the re-pitched record address.
fn classify_repitch(e: &Expr, v: Var, step: u64) -> Option<u64> {
    if let Expr::Bin(crate::ir::BinOp::Mul, a, b) = e {
        let (div, m) = match (a.as_ref(), b.as_ref()) {
            (d @ Expr::Bin(crate::ir::BinOp::Div, _, _), Expr::ConstInt(m)) => (d, *m),
            (Expr::ConstInt(m), d @ Expr::Bin(crate::ir::BinOp::Div, _, _)) => (d, *m),
            _ => return None,
        };
        if let Expr::Bin(crate::ir::BinOp::Div, x, k) = div {
            if let (Expr::Var(xv), Expr::ConstInt(kc)) = (x.as_ref(), k.as_ref()) {
                if *xv == v && *kc == step {
                    return Some(m);
                }
            }
        }
    }
    None
}

/// Find the single `v = v + step` self-increment in a loop body. Returns
/// `None` unless exactly one top-level assignment to `v` exists and it is a
/// constant-step increment.
fn loop_step(body: &[Stmt], v: Var) -> Option<u64> {
    let mut step = None;
    for s in body {
        if let Stmt::Assign(x, e) = s {
            if *x == v {
                if step.is_some() {
                    return None; // multiple assignments to the induction var
                }
                match e {
                    Expr::Bin(crate::ir::BinOp::Add, a, b) => match (a.as_ref(), b.as_ref()) {
                        (Expr::Var(y), Expr::ConstInt(c)) if *y == v && *c > 0 => {
                            step = Some(*c);
                        }
                        (Expr::ConstInt(c), Expr::Var(y)) if *y == v && *c > 0 => {
                            step = Some(*c);
                        }
                        _ => return None,
                    },
                    _ => return None,
                }
            }
        }
    }
    step
}

/// Collect the stream accesses of `stmts` inside a canonical loop over
/// `(v, step)`. `conditional` marks accesses under `If`/nested-`While`
/// control. Returns `false` when an access cannot be classified.
fn collect_loop_accesses(
    stmts: &[Stmt],
    v: Var,
    step: u64,
    conditional: bool,
    out: &mut Vec<RawAccess>,
) -> bool {
    for s in stmts {
        // Expressions first: stream reads anywhere inside the statement.
        let mut ok = true;
        let mut on_expr = |e: &Expr| {
            crate::ir::visit_expr(e, &mut |x| {
                if let Expr::StreamRead {
                    stream,
                    offset,
                    width,
                } = x
                {
                    match classify_offset(offset, v, step) {
                        Some((c, m)) => out.push(RawAccess {
                            stream: *stream,
                            unit: step,
                            stride: m,
                            offset: c,
                            width: *width as u64,
                            exact: !conditional,
                            is_write: false,
                        }),
                        None => ok = false,
                    }
                }
            });
        };
        match s {
            Stmt::Assign(_, e) => on_expr(e),
            Stmt::StreamWrite {
                stream,
                offset,
                width,
                value,
            } => {
                on_expr(value);
                on_expr(offset);
                match classify_offset(offset, v, step) {
                    Some((c, m)) => out.push(RawAccess {
                        stream: *stream,
                        unit: step,
                        stride: m,
                        offset: c,
                        width: *width as u64,
                        exact: !conditional,
                        is_write: true,
                    }),
                    None => ok = false,
                }
            }
            Stmt::DevWrite { offset, value, .. } | Stmt::DevAtomicAdd { offset, value, .. } => {
                on_expr(offset);
                on_expr(value);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                on_expr(cond);
                if !collect_loop_accesses(then_body, v, step, true, out)
                    || !collect_loop_accesses(else_body, v, step, true, out)
                {
                    return false;
                }
            }
            Stmt::While { cond, body } => {
                on_expr(cond);
                if !collect_loop_accesses(body, v, step, true, out) {
                    return false;
                }
            }
            Stmt::Alu(_) => {}
            Stmt::EmitRead { .. } | Stmt::EmitWrite { .. } => return false,
        }
        if !ok {
            return false;
        }
    }
    true
}

/// Whether any statement (recursively) touches a mapped stream.
fn touches_streams(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| {
        let mut found = false;
        let mut check = |e: &Expr| {
            if crate::ir::contains_stream_read(e) {
                found = true;
            }
        };
        match s {
            Stmt::Assign(_, e) => check(e),
            Stmt::StreamWrite { .. } => found = true,
            Stmt::DevWrite { offset, value, .. } | Stmt::DevAtomicAdd { offset, value, .. } => {
                check(offset);
                check(value);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                check(cond);
                found |= touches_streams(then_body) || touches_streams(else_body);
            }
            Stmt::While { cond, body } => {
                check(cond);
                found |= touches_streams(body);
            }
            Stmt::Alu(_) => {}
            Stmt::EmitRead { .. } | Stmt::EmitWrite { .. } => found = true,
        }
        found
    })
}

/// Derive the record-periodic access summary of `kernel`, or `None` when
/// its accesses cannot be proven canonical (the conservative refusal: an
/// unanalyzable kernel simply never fuses).
///
/// Accepted shape: any number of top-level canonical loops
/// `v = range.start; while v < range.end { …; v += step }` whose stream
/// accesses are affine in `v` (see module docs). Stream accesses outside
/// such loops — or under data-dependent addressing — defeat the analysis.
pub fn derive_summary(kernel: &KernelIr) -> Option<AccessSummary> {
    let k = crate::opt::fold_constants(kernel);
    let mut raw: Vec<RawAccess> = Vec::new();
    // Track which variables currently hold `range.start` unmodified.
    let mut at_start: Vec<Var> = Vec::new();
    for s in &k.body {
        match s {
            Stmt::Assign(v, e) => {
                at_start.retain(|x| x != v);
                if matches!(e, Expr::Var(x) if *x == RANGE_START) {
                    at_start.push(*v);
                } else if crate::ir::contains_stream_read(e) {
                    return None;
                }
            }
            Stmt::While { cond, body } => {
                // Canonical guard: `v < range.end` for a var bound to start.
                let v = match cond {
                    Expr::Bin(crate::ir::BinOp::Lt, a, b) => match (a.as_ref(), b.as_ref()) {
                        (Expr::Var(v), Expr::Var(e)) if *e == RANGE_END => *v,
                        _ => {
                            if touches_streams(body) {
                                return None;
                            }
                            continue;
                        }
                    },
                    _ => {
                        if touches_streams(body) {
                            return None;
                        }
                        continue;
                    }
                };
                if !at_start.contains(&v) {
                    if touches_streams(body) {
                        return None;
                    }
                    continue;
                }
                let step = loop_step(body, v)?;
                if !collect_loop_accesses(body, v, step, false, &mut raw) {
                    return None;
                }
                at_start.retain(|x| *x != v); // consumed by the loop
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if crate::ir::contains_stream_read(cond)
                    || touches_streams(then_body)
                    || touches_streams(else_body)
                {
                    return None;
                }
            }
            Stmt::StreamWrite { .. } => return None,
            Stmt::DevWrite { offset, value, .. } | Stmt::DevAtomicAdd { offset, value, .. } => {
                if crate::ir::contains_stream_read(offset) || crate::ir::contains_stream_read(value)
                {
                    return None;
                }
            }
            Stmt::Alu(_) => {}
            Stmt::EmitRead { .. } | Stmt::EmitWrite { .. } => return None,
        }
    }

    // Merge raw accesses into one StreamAccess per (stream, unit, stride,
    // direction); a group is exact only if every member is.
    let mut reads: Vec<StreamAccess> = Vec::new();
    let mut writes: Vec<StreamAccess> = Vec::new();
    for r in raw {
        let list = if r.is_write { &mut writes } else { &mut reads };
        let span = FieldSpan {
            offset: r.offset,
            width: r.width,
        };
        match list
            .iter_mut()
            .find(|a| a.stream == StreamId(r.stream) && a.unit == r.unit && a.stride == r.stride)
        {
            Some(a) => {
                a.fields.push(span);
                a.exact &= r.exact;
            }
            None => list.push(StreamAccess {
                stream: StreamId(r.stream),
                unit: r.unit,
                stride: r.stride,
                fields: vec![span],
                exact: r.exact,
            }),
        }
    }
    Some(AccessSummary { reads, writes })
}

/// Upper bound on the device-buffer bytes the fused intermediate needs for
/// a primary stream of `primary_len` bytes: one re-pitched record per
/// producer-loop iteration.
pub fn intermediate_extent(
    producer: &KernelIr,
    intermediate: u32,
    primary_len: u64,
) -> Option<u64> {
    let summary = derive_summary(producer)?;
    let mut extent = 0u64;
    for w in summary
        .writes
        .iter()
        .filter(|w| w.stream == StreamId(intermediate))
    {
        let records = primary_len.div_ceil(w.unit.max(1)).max(1);
        let span_end = w.fields.iter().map(|f| f.end()).max().unwrap_or(0);
        extent = extent.max(records * w.stride.max(1) + span_end);
    }
    (extent > 0).then_some(extent)
}

/// Rewrite one statement list of the producer: stream accesses to the
/// intermediate become device-buffer accesses on `buf`.
fn rewrite_producer(stmts: &[Stmt], intermediate: u32, buf: u32) -> Vec<Stmt> {
    map_stmts(stmts, &mut |s| match s {
        Stmt::StreamWrite {
            stream,
            offset,
            width,
            value,
        } if *stream == intermediate => Some(Stmt::DevWrite {
            buf,
            offset: offset.clone(),
            width: *width,
            value: value.clone(),
        }),
        _ => None,
    })
    .into_iter()
    .map(|s| map_exprs_in_stmt(s, &mut |e| rewrite_stream_read(e, intermediate, buf)))
    .collect()
}

/// Rewrite the consumer body: locals renumbered past the producer's, device
/// buffers shifted by the producer's count, intermediate reads redirected
/// into `buf`.
fn rewrite_consumer(
    stmts: &[Stmt],
    intermediate: u32,
    buf: u32,
    var_shift: u32,
    buf_shift: u32,
) -> Vec<Stmt> {
    map_stmts(stmts, &mut |s| match s {
        Stmt::DevWrite {
            buf: b,
            offset,
            width,
            value,
        } => Some(Stmt::DevWrite {
            buf: b + buf_shift,
            offset: offset.clone(),
            width: *width,
            value: value.clone(),
        }),
        Stmt::DevAtomicAdd {
            buf: b,
            offset,
            value,
        } => Some(Stmt::DevAtomicAdd {
            buf: b + buf_shift,
            offset: offset.clone(),
            value: value.clone(),
        }),
        _ => None,
    })
    .into_iter()
    .map(|s| {
        let s = map_exprs_in_stmt(s, &mut |e| match e {
            Expr::DevRead {
                buf: b,
                offset,
                width,
            } => Some(Expr::DevRead {
                buf: b + buf_shift,
                offset: offset.clone(),
                width: *width,
            }),
            _ => rewrite_stream_read(e, intermediate, buf),
        });
        shift_vars_in_stmt(s, var_shift)
    })
    .collect()
}

fn rewrite_stream_read(e: &Expr, intermediate: u32, buf: u32) -> Option<Expr> {
    match e {
        Expr::StreamRead {
            stream,
            offset,
            width,
        } if *stream == intermediate => Some(Expr::DevRead {
            buf,
            offset: offset.clone(),
            width: *width,
        }),
        _ => None,
    }
}

/// Shallow statement map: `f` replaces whole statements (children are then
/// mapped recursively); `None` keeps the statement.
fn map_stmts(stmts: &[Stmt], f: &mut dyn FnMut(&Stmt) -> Option<Stmt>) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| {
            let s = f(s).unwrap_or_else(|| s.clone());
            match s {
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => Stmt::If {
                    cond,
                    then_body: map_stmts(&then_body, f),
                    else_body: map_stmts(&else_body, f),
                },
                Stmt::While { cond, body } => Stmt::While {
                    cond,
                    body: map_stmts(&body, f),
                },
                other => other,
            }
        })
        .collect()
}

/// Rewrite every expression in `s` bottom-up with `f` (`None` keeps a node).
fn map_exprs_in_stmt(s: Stmt, f: &mut dyn FnMut(&Expr) -> Option<Expr>) -> Stmt {
    let m = |e: &Expr, f: &mut dyn FnMut(&Expr) -> Option<Expr>| map_expr(e, f);
    match s {
        Stmt::Assign(v, e) => Stmt::Assign(v, m(&e, f)),
        Stmt::StreamWrite {
            stream,
            offset,
            width,
            value,
        } => Stmt::StreamWrite {
            stream,
            offset: m(&offset, f),
            width,
            value: m(&value, f),
        },
        Stmt::DevWrite {
            buf,
            offset,
            width,
            value,
        } => Stmt::DevWrite {
            buf,
            offset: m(&offset, f),
            width,
            value: m(&value, f),
        },
        Stmt::DevAtomicAdd { buf, offset, value } => Stmt::DevAtomicAdd {
            buf,
            offset: m(&offset, f),
            value: m(&value, f),
        },
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond: m(&cond, f),
            then_body: then_body
                .into_iter()
                .map(|s| map_exprs_in_stmt(s, f))
                .collect(),
            else_body: else_body
                .into_iter()
                .map(|s| map_exprs_in_stmt(s, f))
                .collect(),
        },
        Stmt::While { cond, body } => Stmt::While {
            cond: m(&cond, f),
            body: body.into_iter().map(|s| map_exprs_in_stmt(s, f)).collect(),
        },
        Stmt::Alu(n) => Stmt::Alu(n),
        Stmt::EmitRead {
            stream,
            offset,
            width,
        } => Stmt::EmitRead {
            stream,
            offset: m(&offset, f),
            width,
        },
        Stmt::EmitWrite {
            stream,
            offset,
            width,
        } => Stmt::EmitWrite {
            stream,
            offset: m(&offset, f),
            width,
        },
    }
}

/// Bottom-up expression map.
fn map_expr(e: &Expr, f: &mut dyn FnMut(&Expr) -> Option<Expr>) -> Expr {
    let rebuilt = match e {
        Expr::Bin(op, a, b) => Expr::Bin(*op, Box::new(map_expr(a, f)), Box::new(map_expr(b, f))),
        Expr::IntToFloat(a) => Expr::IntToFloat(Box::new(map_expr(a, f))),
        Expr::BitsToFloat(a) => Expr::BitsToFloat(Box::new(map_expr(a, f))),
        Expr::StreamRead {
            stream,
            offset,
            width,
        } => Expr::StreamRead {
            stream: *stream,
            offset: Box::new(map_expr(offset, f)),
            width: *width,
        },
        Expr::DevRead { buf, offset, width } => Expr::DevRead {
            buf: *buf,
            offset: Box::new(map_expr(offset, f)),
            width: *width,
        },
        other => other.clone(),
    };
    f(&rebuilt).unwrap_or(rebuilt)
}

fn shift_var(v: Var, shift: u32) -> Var {
    if v.0 >= FIRST_LOCAL {
        Var(v.0 + shift)
    } else {
        v
    }
}

fn shift_vars_in_stmt(s: Stmt, shift: u32) -> Stmt {
    // Var *reads* are expressions; assignment targets need a separate walk.
    let s = map_exprs_in_stmt(s, &mut |e| match e {
        Expr::Var(v) => Some(Expr::Var(shift_var(*v, shift))),
        _ => None,
    });
    shift_assign_targets(s, shift)
}

fn shift_assign_targets(s: Stmt, shift: u32) -> Stmt {
    match s {
        Stmt::Assign(v, e) => Stmt::Assign(shift_var(v, shift), e),
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond,
            then_body: then_body
                .into_iter()
                .map(|s| shift_assign_targets(s, shift))
                .collect(),
            else_body: else_body
                .into_iter()
                .map(|s| shift_assign_targets(s, shift))
                .collect(),
        },
        Stmt::While { cond, body } => Stmt::While {
            cond,
            body: body
                .into_iter()
                .map(|s| shift_assign_targets(s, shift))
                .collect(),
        },
        other => other,
    }
}

/// Fuse consumer `b` after producer `a`, with `intermediate` the stream id
/// `a` writes and `b` reads. On success the returned kernel expects the
/// concatenation of `a`'s device buffers, `b`'s device buffers and — last —
/// the intermediate buffer (size it with [`intermediate_extent`]).
///
/// Refusals are conservative: anything the dependence analysis cannot prove
/// safe returns a [`FuseError`] and the caller runs the passes unfused.
pub fn fuse(a: &KernelIr, b: &KernelIr, intermediate: u32) -> Result<KernelIr, FuseError> {
    if a.record_size.is_none() || a.record_size != b.record_size {
        return Err(FuseError::RecordSizeMismatch);
    }
    let sa = derive_summary(a).ok_or(FuseError::Unanalyzable { pass: 0 })?;
    let sb = derive_summary(b).ok_or(FuseError::Unanalyzable { pass: 1 })?;

    let inter = StreamId(intermediate);
    let produced: Vec<&StreamAccess> = sa.writes.iter().filter(|w| w.stream == inter).collect();
    if produced.is_empty() || produced.iter().any(|w| !w.exact) {
        return Err(FuseError::NotProduced {
            stream: intermediate,
        });
    }
    if sb.writes.iter().any(|w| w.stream == inter) {
        return Err(FuseError::ConsumerWrites {
            stream: intermediate,
        });
    }
    let consumed: Vec<&StreamAccess> = sb.reads.iter().filter(|r| r.stream == inter).collect();
    if consumed.is_empty() {
        return Err(FuseError::Uncovered {
            stream: intermediate,
        });
    }
    for r in &consumed {
        if !produced.iter().any(|w| w.covers(r)) {
            return Err(FuseError::Uncovered {
                stream: intermediate,
            });
        }
    }

    // Stitch: producer body with intermediate writes lowered to the device
    // buffer, then consumer body with renumbered locals and shifted buffers.
    let buf = a.num_dev_bufs + b.num_dev_bufs; // intermediate appended LAST
    let var_shift = max_var(&a.body).saturating_sub(FIRST_LOCAL - 1);
    let mut body = rewrite_producer(&a.body, intermediate, buf);
    body.extend(rewrite_consumer(
        &b.body,
        intermediate,
        buf,
        var_shift,
        a.num_dev_bufs,
    ));

    Ok(KernelIr {
        name: Box::leak(format!("{}+{}", a.name, b.name).into_boxed_str()),
        record_size: a.record_size,
        halo_bytes: a.halo_bytes.max(b.halo_bytes),
        num_dev_bufs: a.num_dev_bufs + b.num_dev_bufs + 1,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_kernel;
    use crate::ir::BinOp;
    use bk_runtime::{DevBufId, KernelCtx, Machine};
    use std::collections::HashMap;

    /// In-memory byte-addressed context: streams and device buffers as maps,
    /// so fused and unfused kernels run against identical storage semantics.
    #[derive(Default)]
    pub(super) struct MockCtx {
        pub(super) streams: HashMap<(u32, u64), u8>,
        dev: HashMap<(DevBufId, u64), u8>,
    }

    impl MockCtx {
        pub(super) fn load_stream(&mut self, s: u32, bytes: &[u8]) {
            for (i, b) in bytes.iter().enumerate() {
                self.streams.insert((s, i as u64), *b);
            }
        }

        pub(super) fn dev_u64(&mut self, b: DevBufId, offset: u64) -> u64 {
            self.dev_read(b, offset, 8)
        }
    }

    impl KernelCtx for MockCtx {
        fn stream_read(&mut self, s: StreamId, offset: u64, width: u32) -> u64 {
            let mut buf = [0u8; 8];
            for i in 0..width as u64 {
                buf[i as usize] = *self.streams.get(&(s.0, offset + i)).unwrap_or(&0);
            }
            u64::from_le_bytes(buf)
        }
        fn stream_write(&mut self, s: StreamId, offset: u64, width: u32, value: u64) {
            for (i, b) in value.to_le_bytes().iter().take(width as usize).enumerate() {
                self.streams.insert((s.0, offset + i as u64), *b);
            }
        }
        fn dev_read(&mut self, b: DevBufId, offset: u64, width: u32) -> u64 {
            let mut buf = [0u8; 8];
            for i in 0..width as u64 {
                buf[i as usize] = *self.dev.get(&(b, offset + i)).unwrap_or(&0);
            }
            u64::from_le_bytes(buf)
        }
        fn dev_write(&mut self, b: DevBufId, offset: u64, width: u32, value: u64) {
            for (i, byte) in value.to_le_bytes().iter().take(width as usize).enumerate() {
                self.dev.insert((b, offset + i as u64), *byte);
            }
        }
        fn dev_atomic_add_u32(&mut self, b: DevBufId, offset: u64, v: u32) -> u32 {
            let old = self.dev_read(b, offset, 4) as u32;
            self.dev_write(b, offset, 4, old.wrapping_add(v) as u64);
            old
        }
        fn dev_atomic_add_u64(&mut self, b: DevBufId, offset: u64, v: u64) -> u64 {
            let old = self.dev_read(b, offset, 8);
            self.dev_write(b, offset, 8, old.wrapping_add(v));
            old
        }
        fn dev_atomic_cas_u64(&mut self, b: DevBufId, offset: u64, expected: u64, new: u64) -> u64 {
            let old = self.dev_read(b, offset, 8);
            if old == expected {
                self.dev_write(b, offset, 8, new);
            }
            old
        }
        fn alu(&mut self, _n: u64) {}
        fn shared(&mut self, _n: u64) {}
        fn thread_id(&self) -> u32 {
            0
        }
        fn num_threads(&self) -> u32 {
            1
        }
    }

    /// `(i / unit) * m` — the re-pitched record address.
    pub(super) fn repitch(i: Var, unit: u64, m: u64) -> Expr {
        Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Div, Expr::var(i), Expr::int(unit)),
            Expr::int(m),
        )
    }

    /// Producer over `rs`-byte primary records: reads 8 bytes at `field`,
    /// writes `v * mul + 7` into an `m`-byte intermediate record on stream 1.
    pub(super) fn producer_ir_p(rs: u64, field: u64, m: u64, mul: u64) -> KernelIr {
        let i = Var(2);
        let v = Var(3);
        KernelIr {
            name: "prod",
            record_size: Some(rs),
            halo_bytes: 0,
            num_dev_bufs: 0,
            body: vec![
                Stmt::Assign(i, Expr::var(RANGE_START)),
                Stmt::While {
                    cond: Expr::lt(Expr::var(i), Expr::var(RANGE_END)),
                    body: vec![
                        Stmt::Assign(
                            v,
                            Expr::stream_read(0, Expr::add(Expr::var(i), Expr::int(field)), 8),
                        ),
                        Stmt::StreamWrite {
                            stream: 1,
                            offset: repitch(i, rs, m),
                            width: 8,
                            value: Expr::add(
                                Expr::bin(BinOp::Mul, Expr::var(v), Expr::int(mul)),
                                Expr::int(7),
                            ),
                        },
                        Stmt::Assign(i, Expr::add(Expr::var(i), Expr::int(rs))),
                    ],
                },
            ],
        }
    }

    /// Consumer over the same partition: sums the `m`-byte intermediate
    /// records of stream 1 into device buffer 0.
    pub(super) fn consumer_ir_p(rs: u64, m: u64) -> KernelIr {
        let i = Var(2);
        let sum = Var(3);
        KernelIr {
            name: "cons",
            record_size: Some(rs),
            halo_bytes: 0,
            num_dev_bufs: 1,
            body: vec![
                Stmt::Assign(i, Expr::var(RANGE_START)),
                Stmt::Assign(sum, Expr::int(0)),
                Stmt::While {
                    cond: Expr::lt(Expr::var(i), Expr::var(RANGE_END)),
                    body: vec![
                        Stmt::Assign(
                            sum,
                            Expr::add(
                                Expr::var(sum),
                                Expr::StreamRead {
                                    stream: 1,
                                    offset: Box::new(repitch(i, rs, m)),
                                    width: 8,
                                },
                            ),
                        ),
                        Stmt::Assign(i, Expr::add(Expr::var(i), Expr::int(rs))),
                    ],
                },
                Stmt::If {
                    cond: Expr::bin(BinOp::Ne, Expr::var(RANGE_START), Expr::var(RANGE_END)),
                    then_body: vec![Stmt::DevAtomicAdd {
                        buf: 0,
                        offset: Expr::int(0),
                        value: Expr::var(sum),
                    }],
                    else_body: vec![],
                },
            ],
        }
    }

    fn producer_ir() -> KernelIr {
        producer_ir_p(16, 0, 8, 3)
    }

    fn consumer_ir() -> KernelIr {
        consumer_ir_p(16, 8)
    }

    /// Reference result: run the pair *unfused* on one mock, stream 1
    /// carrying the intermediate exactly as the unfused pipeline would.
    pub(super) fn sequential_on_mock(
        a: &KernelIr,
        b: &KernelIr,
        data: &[u8],
        acc: DevBufId,
    ) -> u64 {
        let mut ctx = MockCtx::default();
        ctx.load_stream(0, data);
        let n = data.len() as u64;
        run_kernel(a, &mut ctx, &[], 0..n);
        run_kernel(b, &mut ctx, &[acc], 0..n);
        ctx.dev_u64(acc, 0)
    }

    fn record_data(values: &[u64], rs: u64, field: u64) -> Vec<u8> {
        let mut data = vec![0u8; values.len() * rs as usize];
        for (r, v) in values.iter().enumerate() {
            data[r * rs as usize + field as usize..][..8].copy_from_slice(&v.to_le_bytes());
        }
        data
    }

    #[test]
    fn summary_of_producer_is_record_periodic() {
        let s = derive_summary(&producer_ir()).expect("canonical loop");
        assert_eq!(s.reads.len(), 1);
        assert_eq!(
            (s.reads[0].stream, s.reads[0].unit, s.reads[0].stride),
            (StreamId(0), 16, 16)
        );
        assert_eq!(
            s.reads[0].fields,
            vec![FieldSpan {
                offset: 0,
                width: 8
            }]
        );
        assert!(s.reads[0].exact);
        assert_eq!(s.writes.len(), 1);
        let w = &s.writes[0];
        assert_eq!((w.stream, w.unit, w.stride), (StreamId(1), 16, 8));
        assert_eq!(
            w.fields,
            vec![FieldSpan {
                offset: 0,
                width: 8
            }]
        );
        assert!(w.exact, "unconditional loop write is exact");
    }

    #[test]
    fn conditional_writes_are_inexact() {
        let mut a = producer_ir();
        if let Stmt::While { body, .. } = &mut a.body[1] {
            let w = body.remove(1);
            body.insert(
                1,
                Stmt::If {
                    cond: Expr::bin(BinOp::Lt, Expr::var(Var(3)), Expr::int(100)),
                    then_body: vec![w],
                    else_body: vec![],
                },
            );
        }
        let s = derive_summary(&a).expect("still canonical");
        assert!(!s.writes[0].exact, "write under If control is inexact");
        assert_eq!(
            fuse(&a, &consumer_ir(), 1),
            Err(FuseError::NotProduced { stream: 1 })
        );
    }

    #[test]
    fn non_affine_addressing_defeats_the_summary() {
        let mut a = producer_ir();
        if let Stmt::While { body, .. } = &mut a.body[1] {
            body[0] = Stmt::Assign(
                Var(3),
                Expr::stream_read(
                    0,
                    Expr::bin(BinOp::Mul, Expr::var(Var(2)), Expr::var(Var(2))),
                    8,
                ),
            );
        }
        assert!(derive_summary(&a).is_none());
    }

    #[test]
    fn data_dependent_addressing_defeats_the_summary() {
        let mut a = producer_ir();
        if let Stmt::While { body, .. } = &mut a.body[1] {
            body[0] = Stmt::Assign(
                Var(3),
                Expr::stream_read(0, Expr::stream_read(0, Expr::var(Var(2)), 8), 8),
            );
        }
        assert!(derive_summary(&a).is_none());
        assert_eq!(
            fuse(&a, &consumer_ir(), 1),
            Err(FuseError::Unanalyzable { pass: 0 })
        );
    }

    #[test]
    fn emit_statements_defeat_the_summary() {
        let k = KernelIr {
            name: "slice",
            record_size: Some(16),
            halo_bytes: 0,
            num_dev_bufs: 0,
            body: vec![Stmt::EmitRead {
                stream: 0,
                offset: Expr::var(RANGE_START),
                width: 8,
            }],
        };
        assert!(derive_summary(&k).is_none());
    }

    #[test]
    fn refuses_record_size_mismatch() {
        let mut b = consumer_ir();
        b.record_size = Some(32);
        assert_eq!(
            fuse(&producer_ir(), &b, 1),
            Err(FuseError::RecordSizeMismatch)
        );
    }

    #[test]
    fn refuses_consumer_writes_to_intermediate() {
        let mut b = consumer_ir();
        if let Stmt::While { body, .. } = &mut b.body[2] {
            body.insert(
                1,
                Stmt::StreamWrite {
                    stream: 1,
                    offset: repitch(Var(2), 16, 8),
                    width: 8,
                    value: Expr::int(0),
                },
            );
        }
        assert_eq!(
            fuse(&producer_ir(), &b, 1),
            Err(FuseError::ConsumerWrites { stream: 1 })
        );
    }

    #[test]
    fn refuses_uncovered_reads() {
        // Producer writes only 4 bytes per intermediate record; the
        // consumer reads 8 — partial coverage must refuse.
        let mut a = producer_ir();
        if let Stmt::While { body, .. } = &mut a.body[1] {
            if let Stmt::StreamWrite { width, .. } = &mut body[1] {
                *width = 4;
            }
        }
        assert_eq!(
            fuse(&a, &consumer_ir(), 1),
            Err(FuseError::Uncovered { stream: 1 })
        );
    }

    #[test]
    fn refuses_mismatched_intermediate_pitch() {
        // Producer re-pitches to 8 B/record, consumer expects 16 B/record.
        assert_eq!(
            fuse(&producer_ir(), &consumer_ir_p(16, 16), 1),
            Err(FuseError::Uncovered { stream: 1 })
        );
    }

    #[test]
    fn intermediate_extent_bounds_the_repitched_stream() {
        let extent = intermediate_extent(&producer_ir(), 1, 512 * 16).expect("writes stream 1");
        assert!(extent >= 512 * 8, "one 8-byte record per primary record");
        assert!(extent <= 513 * 8 + 8, "tight upper bound");
        assert!(intermediate_extent(&producer_ir(), 9, 512 * 16).is_none());
    }

    #[test]
    fn fused_matches_sequential_on_the_interpreter() {
        let mut m = Machine::test_platform();
        let acc = m.gmem.alloc(8);
        let inter = m.gmem.alloc(1024);
        let values: Vec<u64> = (0..37).map(|r| r * 5 + 1).collect();
        let data = record_data(&values, 16, 0);
        let expected = sequential_on_mock(&producer_ir(), &consumer_ir(), &data, acc);
        assert_eq!(expected, values.iter().map(|v| v * 3 + 7).sum::<u64>());

        let fused = fuse(&producer_ir(), &consumer_ir(), 1).expect("fusable pair");
        assert_eq!(fused.name, "prod+cons");
        assert_eq!(
            fused.num_dev_bufs, 2,
            "consumer acc + appended intermediate"
        );
        let mut ctx = MockCtx::default();
        ctx.load_stream(0, &data);
        run_kernel(&fused, &mut ctx, &[acc, inter], 0..data.len() as u64);
        assert_eq!(
            ctx.dev_u64(acc, 0),
            expected,
            "fused result is bit-identical"
        );
        assert!(
            ctx.streams.keys().all(|(s, _)| *s == 0),
            "the fused kernel never touches the intermediate stream"
        );
    }

    #[test]
    fn fused_kernel_runs_on_the_pipeline() {
        use bk_runtime::{run_bigkernel, BigKernelConfig, LaunchConfig, StreamArray, StreamId};
        let mut m = Machine::test_platform();
        let n_records = 512u64;
        let region = m.hmem.alloc(n_records * 16);
        let mut values = Vec::new();
        for r in 0..n_records {
            let v = r * 11 + 3;
            m.hmem.write_u64(region, r * 16, v);
            values.push(v);
        }
        let stream = StreamArray::map(&m, StreamId(0), region);
        let acc = m.gmem.alloc(8);
        let data = record_data(&values, 16, 0);
        let expected = sequential_on_mock(&producer_ir(), &consumer_ir(), &data, acc);

        let fused = fuse(&producer_ir(), &consumer_ir(), 1).unwrap();
        let extent = intermediate_extent(&producer_ir(), 1, n_records * 16).unwrap();
        let inter = m.gmem.alloc(extent);
        let kernel = crate::adapter::IrKernel::compile(fused, vec![acc, inter])
            .expect("fused kernel slices: the intermediate is device-resident");

        let cfg = BigKernelConfig {
            chunk_input_bytes: 2048,
            ..BigKernelConfig::default()
        };
        let _ = run_bigkernel(&mut m, &kernel, &[stream], LaunchConfig::new(1, 32), &cfg);
        assert_eq!(m.gmem.read_u64(acc, 0), expected);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{consumer_ir_p, producer_ir_p, sequential_on_mock, MockCtx};
    use super::*;
    use crate::interp::run_kernel;
    use bk_runtime::Machine;
    use proptest::prelude::*;

    proptest! {
        // Random fusable pairs must survive fusion with interpreter results
        // equal to the sequential two-pass execution.
        #[test]
        fn random_fusable_pairs_preserve_results(
            rs_pow in 3u32..=5,                      // record size 8/16/32
            field_slot in 0u64..=3,                  // 8-byte field offset
            m_pow in 3u32..=4,                       // intermediate pitch 8/16
            mul in 1u64..=1000,
            values in proptest::collection::vec(any::<u32>(), 1..40),
        ) {
            let rs = 1u64 << rs_pow;
            let field = (field_slot * 8).min(rs - 8);
            let m = 1u64 << m_pow;
            let a = producer_ir_p(rs, field, m, mul);
            let b = consumer_ir_p(rs, m);

            let mut data = vec![0u8; values.len() * rs as usize];
            for (r, v) in values.iter().enumerate() {
                data[r * rs as usize + field as usize..][..4]
                    .copy_from_slice(&v.to_le_bytes());
            }

            let mut machine = Machine::test_platform();
            let acc = machine.gmem.alloc(8);
            let inter = machine.gmem.alloc(8);
            let expected = sequential_on_mock(&a, &b, &data, acc);

            let fused = fuse(&a, &b, 1).expect("random canonical pair must fuse");
            let mut ctx = MockCtx::default();
            ctx.load_stream(0, &data);
            run_kernel(&fused, &mut ctx, &[acc, inter], 0..data.len() as u64);
            prop_assert_eq!(ctx.dev_u64(acc, 0), expected);
        }
    }
}
