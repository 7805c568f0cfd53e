//! MasterCard Affinity (paper §V): find all merchants frequently visited by
//! customers of a target merchant X.
//!
//! Mapped data: newline-delimited, variable-length purchase transactions
//! (card number, terminal id, merchant id, amount, date, free-form memo).
//! Two passes over the data, each a separate kernel launch:
//!
//! 1. extract the set of customers (card numbers) that visited merchant X;
//! 2. count, for transactions by those customers, the merchants visited.
//!
//! **Plain variant:** the variable-length records force every byte to be
//! scanned to find record boundaries — 100% of the mapped data is read
//! (Table I), so BigKernel cannot reduce the transfer volume and wins only
//! through overlap and coalescing, exactly the paper's finding.
//!
//! **Indexed variant:** an index of record offsets lets the kernel fetch
//! only the card and merchant fields (~25% of the data, Table I). Address
//! generation walks the device-resident index, so the emitted addresses are
//! data-dependent — stride patterns never apply (Table II lists "NA").
//!
//! **Fusable pass pair:** the plain variant is re-expressed for mega-kernel
//! fusion (DESIGN.md §15) as a *slot-compacting* pair. Pass 1 scans the
//! text once, collects the target merchant's customers as before, **and**
//! compacts every record's `(card_key, merchant_key)` into a fixed 16-byte
//! slot of a scratch stream (one slot per [`SLOT_UNIT`] bytes of text —
//! injective because records are longer than a slot unit). Pass 2 counts
//! straight from the compacted slots and never rescans the text. The pair
//! is record-periodic and exact on the scratch stream, so dependence
//! analysis proves the slots device-resident under fusion; the
//! customers-table join makes pass 2 declare a
//! [`barrier_dependence`](bk_runtime::StreamKernel::barrier_dependence).

use crate::harness::{AppSpec, BenchApp, Instance};
use crate::util::{fnv1a_step, DevHashTable, FNV_OFFSET};
use bk_runtime::ctx::AddrGenCtx;
use bk_runtime::fusion::{AccessSummary, FieldSpan, StreamAccess};
use bk_runtime::{DevBufId, KernelCtx, Machine, StreamArray, StreamId, ValueExt};
use bk_simcore::{SplitMix64, Zipf};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Field geometry within a transaction record (fixed offsets, variable
/// total length because of the trailing memo).
pub const CARD_LEN: u64 = 16; // digits at offset 0..16
pub const MERCH_OFF: u64 = 26; // 8 chars at 26..34
pub const MERCH_LEN: u64 = 8;
/// Worst-case record length (fields + memo + newline).
pub const MAX_RECORD: u64 = 116;
/// Minimum record length (fields + shortest memo + newline); must exceed
/// [`SLOT_UNIT`] so at most one record starts per slot unit.
pub const MIN_RECORD: u64 = 72;
/// Primary-text bytes per compaction slot (fusable pair): the record
/// starting in `((k-1)*SLOT_UNIT, k*SLOT_UNIT]` owns slot `k`.
pub const SLOT_UNIT: u64 = 64;
/// Scratch-stream bytes per slot: `(card_key, merchant_key)`, both u64.
pub const SLOT_BYTES: u64 = 16;
/// Halo of the compacting scan: the owned record range rounds up to the
/// next slot boundary (`+ SLOT_UNIT - 1`) and the record starting there
/// extends at most [`MAX_RECORD`] further.
pub const HALO_F: u64 = 192;

#[inline]
fn key(h: u64) -> u64 {
    h | 1
}

/// Hash a field's bytes into a table key.
pub fn field_key(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = fnv1a_step(h, b);
    }
    key(h)
}

/// Parse all records of `text` host-side (reference path). Yields
/// `(record_offset, card_key, merchant_key)` with byte-identical hashing to
/// the kernels.
pub fn parse_records(text: &[u8]) -> Vec<(u64, u64, u64)> {
    let mut out = Vec::new();
    let mut p = 0usize;
    while p < text.len() {
        let rec_start = p;
        let mut card_h = FNV_OFFSET;
        let mut merch_h = FNV_OFFSET;
        while p < text.len() {
            let c = text[p];
            if c == b'\n' {
                p += 1;
                break;
            }
            let rel = (p - rec_start) as u64;
            if rel < CARD_LEN {
                card_h = fnv1a_step(card_h, c);
            } else if (MERCH_OFF..MERCH_OFF + MERCH_LEN).contains(&rel) {
                merch_h = fnv1a_step(merch_h, c);
            }
            p += 1;
        }
        out.push((rec_start as u64, key(card_h), key(merch_h)));
    }
    out
}

/// What a pass does with each parsed record.
enum PassAction {
    /// Pass 1: collect customers of the target merchant.
    Collect {
        customers: DevHashTable,
        target: u64,
    },
    /// Pass 2: count merchants visited by collected customers.
    Count {
        customers: DevHashTable,
        counts: DevHashTable,
    },
}

impl PassAction {
    /// Counting joins against the *complete* customers table the collect
    /// pass accumulates globally, so a kernel running this action must
    /// declare a [`barrier_dependence`](bk_runtime::StreamKernel::barrier_dependence):
    /// under streaming it forces pass-major order (count nothing until the
    /// collect pass has drained every window).
    fn needs_barrier(&self) -> bool {
        matches!(self, PassAction::Count { .. })
    }

    fn handle(&self, ctx: &mut dyn KernelCtx, card: u64, merch: u64) {
        match self {
            PassAction::Collect { customers, target } => {
                ctx.alu(1);
                if merch == *target {
                    customers.add(ctx, card, 1);
                }
            }
            PassAction::Count { customers, counts } => {
                if customers.contains(ctx, card) {
                    counts.add(ctx, merch, 1);
                }
            }
        }
    }
}

/// Compaction slots owned by a primary-range partition `[start, end)`:
/// record starts in `(64·⌈start/64⌉, 64·⌈end/64⌉]` — plus offset 0 for the
/// first partition — land in slots `(⌈start/64⌉, ⌈end/64⌉]` (plus slot 0).
/// Adjacent partitions tile the slot space exactly, and record spacing
/// `>= MIN_RECORD > SLOT_UNIT` puts at most one record start in each slot.
fn owned_slots(range: &Range<u64>) -> Range<u64> {
    let first = if range.start == 0 {
        0
    } else {
        range.start.div_ceil(SLOT_UNIT) + 1
    };
    first..range.end.div_ceil(SLOT_UNIT) + 1
}

/// Pass 1 of the fusable pair: one scan that collects the target merchant's
/// customers and compacts every owned record's `(card_key, merchant_key)`
/// into its scratch-stream slot, zero-filling slots with no record start.
/// Every owned slot is written exactly once, so the write is
/// record-periodic and *exact* — the property fusion dependence analysis
/// needs to keep the slots device-resident.
pub struct CompactScanKernel {
    customers: DevHashTable,
    target: u64,
    text_len: u64,
}

impl CompactScanKernel {
    /// Parse one record starting at `*p`, advancing past its newline.
    fn parse_record(&self, ctx: &mut dyn KernelCtx, p: &mut u64) -> (u64, u64) {
        let rec_start = *p;
        let mut card_h = FNV_OFFSET;
        let mut merch_h = FNV_OFFSET;
        while *p < self.text_len {
            let c = ctx.stream_read_u8(StreamId(0), *p);
            ctx.alu(2);
            if c == b'\n' {
                *p += 1;
                break;
            }
            let rel = *p - rec_start;
            if rel < CARD_LEN {
                card_h = fnv1a_step(card_h, c);
            } else if (MERCH_OFF..MERCH_OFF + MERCH_LEN).contains(&rel) {
                merch_h = fnv1a_step(merch_h, c);
            }
            *p += 1;
        }
        (key(card_h), key(merch_h))
    }
}

impl bk_runtime::StreamKernel for CompactScanKernel {
    fn name(&self) -> &'static str {
        "affinity-fused-pass1"
    }

    fn record_size(&self) -> Option<u64> {
        None
    }

    fn halo_bytes(&self) -> u64 {
        HALO_F
    }

    fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
        if range.is_empty() {
            return;
        }
        let end = (range.end + HALO_F).min(self.text_len);
        let mut p = range.start;
        while p < end {
            ctx.emit_read(StreamId(0), p, 1);
            p += 1;
        }
        for k in owned_slots(&range) {
            ctx.emit_write(StreamId(1), k * SLOT_BYTES, 8);
            ctx.emit_write(StreamId(1), k * SLOT_BYTES + 8, 8);
        }
    }

    fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
        if range.is_empty() {
            return;
        }
        let len = self.text_len;
        // Slot ownership boundaries (see `owned_slots`).
        let lo = range.start.div_ceil(SLOT_UNIT) * SLOT_UNIT;
        let hi = range.end.div_ceil(SLOT_UNIT) * SLOT_UNIT;
        let mut p = range.start;
        // Skip the record in progress at the range start (the previous
        // thread parses it).
        if p > 0 {
            while p < len {
                let c = ctx.stream_read_u8(StreamId(0), p);
                ctx.alu(1);
                p += 1;
                if c == b'\n' {
                    break;
                }
            }
        }
        // One contiguous scan serves both ownership rules: records starting
        // at `<= range.end` get the customer-collect action (the classic
        // scan partition), records starting in `(lo, hi]` get compacted.
        let mut recs: Vec<(u64, u64, u64)> = Vec::new();
        while p < len && p <= hi {
            let rec_start = p;
            let (card, merch) = self.parse_record(ctx, &mut p);
            if rec_start <= range.end {
                ctx.alu(1);
                if merch == self.target {
                    self.customers.add(ctx, card, 1);
                }
            }
            recs.push((rec_start, card, merch));
        }
        // Emit every owned slot exactly once, in ascending order.
        let slot_owned = |rs: u64| rs > lo || (range.start == 0 && rs == 0);
        let mut ri = 0usize;
        for k in owned_slots(&range) {
            while ri < recs.len() && (!slot_owned(recs[ri].0) || recs[ri].0.div_ceil(SLOT_UNIT) < k)
            {
                ri += 1;
            }
            let (card, merch) = match recs.get(ri) {
                Some(&(rs, c, m)) if slot_owned(rs) && rs.div_ceil(SLOT_UNIT) == k => {
                    ri += 1;
                    (c, m)
                }
                _ => (0, 0),
            };
            ctx.alu(2);
            ctx.stream_write(StreamId(1), k * SLOT_BYTES, 8, card);
            ctx.stream_write(StreamId(1), k * SLOT_BYTES + 8, 8, merch);
        }
    }

    fn access_summary(&self) -> Option<AccessSummary> {
        Some(AccessSummary {
            reads: vec![StreamAccess {
                stream: StreamId(0),
                unit: 1,
                stride: 1,
                fields: vec![FieldSpan {
                    offset: 0,
                    width: 1,
                }],
                exact: true,
            }],
            writes: vec![StreamAccess {
                stream: StreamId(1),
                unit: SLOT_UNIT,
                stride: SLOT_BYTES,
                fields: vec![FieldSpan {
                    offset: 0,
                    width: SLOT_BYTES,
                }],
                exact: true,
            }],
        })
    }
}

/// Pass 2 of the fusable pair: count merchants visited by collected
/// customers, reading only the compacted `(card_key, merchant_key)` slots —
/// never the text. Zero-filled slots (no record start in that unit) are
/// skipped: real card keys are odd (`key()` sets bit 0), so 0 is
/// unambiguous. Declares a barrier dependence: the customers table must be
/// complete before any counting starts.
pub struct SlotCountKernel {
    customers: DevHashTable,
    counts: DevHashTable,
}

impl bk_runtime::StreamKernel for SlotCountKernel {
    fn name(&self) -> &'static str {
        "affinity-fused-pass2"
    }

    fn record_size(&self) -> Option<u64> {
        None
    }

    fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
        if range.is_empty() {
            return;
        }
        for k in owned_slots(&range) {
            ctx.emit_read(StreamId(1), k * SLOT_BYTES, 8);
            ctx.emit_read(StreamId(1), k * SLOT_BYTES + 8, 8);
        }
    }

    fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
        if range.is_empty() {
            return;
        }
        for k in owned_slots(&range) {
            let card = ctx.stream_read(StreamId(1), k * SLOT_BYTES, 8);
            let merch = ctx.stream_read(StreamId(1), k * SLOT_BYTES + 8, 8);
            ctx.alu(2);
            if card != 0 && self.customers.contains(ctx, card) {
                self.counts.add(ctx, merch, 1);
            }
        }
    }

    fn access_summary(&self) -> Option<AccessSummary> {
        Some(AccessSummary {
            reads: vec![StreamAccess {
                stream: StreamId(1),
                unit: SLOT_UNIT,
                stride: SLOT_BYTES,
                fields: vec![
                    FieldSpan {
                        offset: 0,
                        width: 8,
                    },
                    FieldSpan {
                        offset: 8,
                        width: 8,
                    },
                ],
                exact: true,
            }],
            writes: vec![],
        })
    }

    fn barrier_dependence(&self) -> bool {
        true
    }
}

/// An indexed pass kernel: walks the device-resident offset index and
/// fetches only the card and merchant fields.
pub struct IndexedPassKernel {
    action: PassAction,
    /// Device buffer of u32 record offsets, ascending.
    index: DevBufId,
    num_records: u64,
    name: &'static str,
}

impl IndexedPassKernel {
    /// First index entry with offset >= `pos` (binary search over device
    /// reads issued through `read_entry`).
    fn lower_bound(&self, read_entry: &mut dyn FnMut(u64) -> u64, pos: u64) -> u64 {
        let mut lo = 0u64;
        let mut hi = self.num_records;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if read_entry(mid) < pos {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl bk_runtime::StreamKernel for IndexedPassKernel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn record_size(&self) -> Option<u64> {
        None
    }

    fn halo_bytes(&self) -> u64 {
        64
    }

    fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
        if range.is_empty() {
            return;
        }
        let index = self.index;
        let mut read_entry = |i: u64| ctx.dev_read_u32(index, i * 4) as u64;
        let mut i = self.lower_bound(&mut read_entry, range.start);
        loop {
            if i >= self.num_records {
                break;
            }
            let off = ctx.dev_read_u32(index, i * 4) as u64;
            if off >= range.end {
                break;
            }
            // card as two packed u64 reads, merchant as one
            ctx.emit_read(StreamId(0), off, 8);
            ctx.emit_read(StreamId(0), off + 8, 8);
            ctx.emit_read(StreamId(0), off + MERCH_OFF, 8);
            ctx.alu(3);
            i += 1;
        }
    }

    fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
        if range.is_empty() {
            return;
        }
        let index = self.index;
        let mut i = {
            let mut read_entry = |j: u64| ctx.dev_read(index, j * 4, 4);
            self.lower_bound(&mut read_entry, range.start)
        };
        loop {
            if i >= self.num_records {
                break;
            }
            let off = ctx.dev_read(index, i * 4, 4);
            if off >= range.end {
                break;
            }
            let w0 = ctx.stream_read(StreamId(0), off, 8);
            let w1 = ctx.stream_read(StreamId(0), off + 8, 8);
            let wm = ctx.stream_read(StreamId(0), off + MERCH_OFF, 8);
            ctx.alu(6);
            let mut card_h = FNV_OFFSET;
            for b in w0.to_le_bytes().into_iter().chain(w1.to_le_bytes()) {
                card_h = fnv1a_step(card_h, b);
            }
            let mut merch_h = FNV_OFFSET;
            for b in wm.to_le_bytes() {
                merch_h = fnv1a_step(merch_h, b);
            }
            self.action.handle(ctx, key(card_h), key(merch_h));
            i += 1;
        }
    }

    fn barrier_dependence(&self) -> bool {
        self.action.needs_barrier()
    }
}

// ---------------------------------------------------------------------------

/// Generated transaction data plus reference results.
struct Generated {
    text: Vec<u8>,
    /// Record offsets (the index file of the indexed variant).
    index: Vec<u32>,
    target_merchant: u64,
    expected_customers: HashSet<u64>,
    expected_counts: HashMap<u64, u64>,
}

fn generate(bytes: u64, seed: u64, merchants: usize, cards: usize) -> Generated {
    let mut rng = SplitMix64::new(seed);
    let digits = |rng: &mut SplitMix64, n: usize| -> Vec<u8> {
        (0..n).map(|_| b'0' + rng.next_below(10) as u8).collect()
    };
    let merchant_ids: Vec<Vec<u8>> = (0..merchants).map(|_| digits(&mut rng, 8)).collect();
    let card_ids: Vec<Vec<u8>> = (0..cards).map(|_| digits(&mut rng, 16)).collect();
    let merchant_zipf = Zipf::new(merchants, 1.0);

    let mut text = Vec::with_capacity(bytes as usize);
    let mut index = Vec::new();
    while (text.len() as u64) < bytes {
        let memo_len = rng.range_inclusive(20, 64) as usize;
        let rec_len = 51 + memo_len + 1;
        if text.len() + rec_len > bytes as usize {
            break;
        }
        index.push(text.len() as u32);
        text.extend_from_slice(&card_ids[rng.next_below(cards as u64) as usize]);
        text.push(b',');
        text.extend_from_slice(&digits(&mut rng, 8)); // terminal
        text.push(b',');
        text.extend_from_slice(&merchant_ids[merchant_zipf.sample(&mut rng)]);
        text.push(b',');
        text.extend_from_slice(&digits(&mut rng, 6)); // amount
        text.push(b',');
        text.extend_from_slice(&digits(&mut rng, 8)); // date
        text.push(b',');
        for _ in 0..memo_len {
            text.push(b'a' + rng.next_below(26) as u8);
        }
        text.push(b'\n');
    }
    // Pad to the exact size with a comment-like spacer record.
    text.resize(bytes as usize, b' ');

    // Reference: target = a frequently-visited merchant (zipf rank 2).
    let target_merchant = field_key(&merchant_ids[2]);
    let records = parse_records(&text);
    let mut expected_customers = HashSet::new();
    for &(_, card, merch) in &records {
        if merch == target_merchant {
            expected_customers.insert(card);
        }
    }
    let mut expected_counts = HashMap::new();
    for &(_, card, merch) in &records {
        if expected_customers.contains(&card) {
            *expected_counts.entry(merch).or_insert(0u64) += 1;
        }
    }
    Generated {
        text,
        index,
        target_merchant,
        expected_customers,
        expected_counts,
    }
}

/// Reference results for the *indexed* variant (only indexed records
/// participate; the space-padding pseudo-record is not in the index).
fn indexed_reference(g: &Generated) -> (HashSet<u64>, HashMap<u64, u64>) {
    let recs: Vec<(u64, u64)> = g
        .index
        .iter()
        .map(|&off| {
            let off = off as usize;
            let card = field_key(&g.text[off..off + CARD_LEN as usize]);
            let merch = field_key(
                &g.text[off + MERCH_OFF as usize..off + (MERCH_OFF + MERCH_LEN) as usize],
            );
            (card, merch)
        })
        .collect();
    let customers: HashSet<u64> = recs
        .iter()
        .filter(|&&(_, m)| m == g.target_merchant)
        .map(|&(c, _)| c)
        .collect();
    let mut counts = HashMap::new();
    for &(c, m) in &recs {
        if customers.contains(&c) {
            *counts.entry(m).or_insert(0u64) += 1;
        }
    }
    (customers, counts)
}

fn alloc_tables(machine: &mut Machine, n_hint: u64) -> (DevHashTable, DevHashTable) {
    let slots = (n_hint * 4).next_power_of_two().max(1024);
    let cbuf = machine.gmem.alloc(DevHashTable::bytes_for(slots));
    let mbuf = machine.gmem.alloc(DevHashTable::bytes_for(slots));
    (
        DevHashTable { buf: cbuf, slots },
        DevHashTable { buf: mbuf, slots },
    )
}

fn verify_tables(
    m: &Machine,
    customers: DevHashTable,
    counts: DevHashTable,
    expected_customers: &HashSet<u64>,
    expected_counts: &HashMap<u64, u64>,
) -> Result<(), String> {
    if customers.occupied(&m.gmem) != expected_customers.len() as u64 {
        return Err(format!(
            "customer set size {} != expected {}",
            customers.occupied(&m.gmem),
            expected_customers.len()
        ));
    }
    for &c in expected_customers {
        if customers.get(&m.gmem, c) == 0 {
            return Err(format!("missing customer {c:#x}"));
        }
    }
    let total: u64 = expected_counts.values().sum();
    if counts.total(&m.gmem) != total {
        return Err(format!(
            "count total {} != {}",
            counts.total(&m.gmem),
            total
        ));
    }
    for (&merch, &n) in expected_counts {
        let got = counts.get(&m.gmem, merch);
        if got != n {
            return Err(format!("merchant {merch:#x}: {got} != {n}"));
        }
    }
    Ok(())
}

/// The plain MasterCard Affinity benchmark.
pub struct Affinity {
    pub merchants: usize,
    pub cards: usize,
}

impl Default for Affinity {
    fn default() -> Self {
        Affinity {
            merchants: 512,
            cards: 4096,
        }
    }
}

impl BenchApp for Affinity {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "MasterCard Affinity",
            paper_data_size: "6.4GB",
            record_type: "Variable-length",
            paper_read_pct: 100,
            paper_modified_pct: 0,
            pattern_applicable: true,
        }
    }

    fn instantiate(&self, machine: &mut Machine, bytes: u64, seed: u64) -> Instance {
        let g = generate(bytes, seed, self.merchants, self.cards);
        let region = machine.hmem.alloc_from(&g.text);
        let stream = StreamArray::map(machine, StreamId(0), region);
        let n_hint = (g.index.len() as u64).max(64);
        let (customers, counts) = alloc_tables(machine, n_hint);

        // Scratch stream of compaction slots: one 16-byte slot per
        // SLOT_UNIT bytes of text (slot indices 0 ..= ceil(bytes/64)).
        let slot_count = bytes.div_ceil(SLOT_UNIT) + 1;
        let slots_region = machine.hmem.alloc(slot_count * SLOT_BYTES);
        let slots = StreamArray::map(machine, StreamId(1), slots_region);

        let pass1 = CompactScanKernel {
            customers,
            target: g.target_merchant,
            text_len: bytes,
        };
        let pass2 = SlotCountKernel { customers, counts };

        let (ec, en) = (g.expected_customers, g.expected_counts);
        let verify = move |m: &Machine| verify_tables(m, customers, counts, &ec, &en);

        Instance {
            kernels: vec![Box::new(pass1), Box::new(pass2)],
            streams: vec![stream, slots],
            scratch_streams: vec![StreamId(1)],
            fused: None,
            verify: Box::new(verify),
        }
    }
}

/// The indexed MasterCard Affinity benchmark.
pub struct AffinityIndexed {
    pub merchants: usize,
    pub cards: usize,
}

impl Default for AffinityIndexed {
    fn default() -> Self {
        AffinityIndexed {
            merchants: 512,
            cards: 4096,
        }
    }
}

impl BenchApp for AffinityIndexed {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "MasterCard Affinity (indexed)",
            paper_data_size: "6.4GB",
            record_type: "Variable-length (indexed)",
            paper_read_pct: 25,
            paper_modified_pct: 0,
            pattern_applicable: false,
        }
    }

    fn instantiate(&self, machine: &mut Machine, bytes: u64, seed: u64) -> Instance {
        let g = generate(bytes, seed, self.merchants, self.cards);
        let region = machine.hmem.alloc_from(&g.text);
        let stream = StreamArray::map(machine, StreamId(0), region);
        let n_hint = (g.index.len() as u64).max(64);
        let (customers, counts) = alloc_tables(machine, n_hint);

        // The index lives in device memory (it is small relative to the
        // data and is uploaded once before the run, like the paper's
        // "extra index file").
        let index_buf = machine.gmem.alloc((g.index.len() as u64 * 4).max(4));
        for (i, &off) in g.index.iter().enumerate() {
            machine.gmem.write_u32(index_buf, i as u64 * 4, off);
        }
        let num_records = g.index.len() as u64;

        let pass1 = IndexedPassKernel {
            action: PassAction::Collect {
                customers,
                target: g.target_merchant,
            },
            index: index_buf,
            num_records,
            name: "affinity-indexed-pass1",
        };
        let pass2 = IndexedPassKernel {
            action: PassAction::Count { customers, counts },
            index: index_buf,
            num_records,
            name: "affinity-indexed-pass2",
        };

        let (ec, en) = indexed_reference(&g);
        let verify = move |m: &Machine| verify_tables(m, customers, counts, &ec, &en);

        Instance {
            kernels: vec![Box::new(pass1), Box::new(pass2)],
            streams: vec![stream],
            scratch_streams: vec![],
            fused: None,
            verify: Box::new(verify),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_all, HarnessConfig, Implementation};

    #[test]
    fn parse_records_fields() {
        let text = b"1111222233334444,TERMINAL,MERCHANT,000123,20140101,memo\n\
                     5555666677778888,TERMINAL,OTHERMRC,000456,20140102,x\n";
        let recs = parse_records(text);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0, 0);
        assert_eq!(recs[0].1, field_key(b"1111222233334444"));
        assert_eq!(recs[0].2, field_key(b"MERCHANT"));
        assert_eq!(recs[1].1, field_key(b"5555666677778888"));
        assert_eq!(recs[1].2, field_key(b"OTHERMRC"));
    }

    #[test]
    fn generation_reference_is_consistent() {
        let g = generate(32 * 1024, 9, 64, 256);
        assert!(
            !g.expected_customers.is_empty(),
            "target merchant must have customers"
        );
        assert!(!g.expected_counts.is_empty());
        // Counts include the target merchant itself.
        assert!(g.expected_counts.contains_key(&g.target_merchant));
        let total: u64 = g.expected_counts.values().sum();
        assert!(total >= g.expected_counts[&g.target_merchant]);
    }

    #[test]
    fn plain_all_implementations_agree() {
        let app = Affinity {
            merchants: 64,
            cards: 256,
        };
        let cfg = HarnessConfig::test_small();
        run_all(&app, 48 * 1024, 42, &cfg, &Implementation::FIG4A);
    }

    #[test]
    fn indexed_all_implementations_agree() {
        let app = AffinityIndexed {
            merchants: 64,
            cards: 256,
        };
        let cfg = HarnessConfig::test_small();
        run_all(&app, 48 * 1024, 42, &cfg, &Implementation::FIG4A);
    }

    #[test]
    fn plain_reads_everything_indexed_reads_quarter() {
        let cfg = HarnessConfig::test_small();
        let bytes = 64 * 1024u64;
        let plain = run_all(
            &Affinity {
                merchants: 64,
                cards: 256,
            },
            bytes,
            3,
            &cfg,
            &[Implementation::BigKernel],
        );
        let indexed = run_all(
            &AffinityIndexed {
                merchants: 64,
                cards: 256,
            },
            bytes,
            3,
            &cfg,
            &[Implementation::BigKernel],
        );
        // The compacting pair scans the text once (pass 1, plus per-slice
        // skip/halo overshoot) and counts from the ~25% compacted slots
        // (pass 2) → well over one full read of the data, but below the
        // classic two-scan 200%.
        let plain_read = plain[0].1.metrics.get("stream.bytes_read") as f64 / bytes as f64;
        assert!(
            (1.2..1.9).contains(&plain_read),
            "plain read fraction {plain_read}"
        );
        let idx_read = indexed[0].1.metrics.get("stream.bytes_read") as f64 / bytes as f64;
        // Two passes of ~25% each.
        assert!(
            (0.3..0.9).contains(&idx_read),
            "indexed read fraction {idx_read}"
        );
    }

    #[test]
    fn fused_pair_verifies_and_cuts_transfer() {
        let app = Affinity {
            merchants: 64,
            cards: 256,
        };
        let bytes = 64 * 1024u64;
        let mut cfg = HarnessConfig::test_small();
        let unfused = run_all(&app, bytes, 7, &cfg, &[Implementation::BigKernel]);
        cfg.fuse = true;
        // run_all panics on verification failure, so a passing call proves
        // the fused outputs match the reference exactly.
        let fused = run_all(&app, bytes, 7, &cfg, &[Implementation::BigKernel]);
        assert_eq!(fused[0].1.metrics.get("fusion.fused"), 1);
        assert_eq!(fused[0].1.metrics.get("fusion.refused"), 0);
        let transfer = |r: &bk_runtime::RunResult| {
            r.metrics.get("pcie.h2d_bytes") + r.metrics.get("pcie.d2h_bytes")
        };
        let (un, fu) = (transfer(&unfused[0].1), transfer(&fused[0].1));
        // The resident slots elide pass 2's gather (~bytes/4) and the
        // scratch write-back (~bytes/4).
        assert!(
            fu + bytes / 4 < un,
            "fused transfer {fu} not well below unfused {un}"
        );
        assert!(fused[0].1.metrics.get("fusion.h2d_saved_bytes") > 0);
        assert!(fused[0].1.metrics.get("fusion.d2h_saved_bytes") > 0);
    }

    #[test]
    fn indexed_pair_refuses_fusion_and_falls_back() {
        // Data-dependent addressing publishes no access summary, so the
        // planner must refuse and the harness must fall back to the unfused
        // loop — still verifying.
        let app = AffinityIndexed {
            merchants: 64,
            cards: 256,
        };
        let mut cfg = HarnessConfig::test_small();
        cfg.fuse = true;
        let r = run_all(&app, 48 * 1024, 11, &cfg, &[Implementation::BigKernel]);
        assert_eq!(r[0].1.metrics.get("fusion.refused"), 1);
        assert_eq!(r[0].1.metrics.get("fusion.fused"), 0);
    }

    #[test]
    fn indexed_addresses_are_not_pattern_compressible() {
        let cfg = HarnessConfig::test_small();
        let r = run_all(
            &AffinityIndexed {
                merchants: 64,
                cards: 256,
            },
            48 * 1024,
            5,
            &cfg,
            &[Implementation::BigKernel],
        );
        let c = &r[0].1.metrics;
        // A degenerate lane-chunk holding only one or two records can
        // legitimately match a trivial pattern; the overwhelming majority of
        // lanes must fall back to raw address streams.
        let found = c.get("addr.patterns_found");
        let missed = c.get("addr.patterns_missed");
        assert!(missed > 0);
        assert!(
            found * 10 < found + missed,
            "too many compressed lanes: {found} found vs {missed} missed"
        );
    }

    #[test]
    fn plain_scan_is_pattern_compressible() {
        let cfg = HarnessConfig::test_small();
        let r = run_all(
            &Affinity {
                merchants: 64,
                cards: 256,
            },
            48 * 1024,
            5,
            &cfg,
            &[Implementation::BigKernel],
        );
        assert!(r[0].1.metrics.get("addr.patterns_found") > 0);
    }
}
