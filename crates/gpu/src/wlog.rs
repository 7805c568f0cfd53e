//! Per-block device-memory write logs for deterministic parallel replay.
//!
//! The buffered baselines simulate a window's kernel granules concurrently,
//! but the sequential schedule they must reproduce bit-for-bit interleaves
//! the granules' device-memory effects in granule order. (The BigKernel
//! runner needs no log: only its pure address half runs concurrently, and
//! every kernel body runs live in block order.) A [`BlockLog`] gives each
//! granule an isolated view of [`GpuMemory`]: reads come from a shared
//! immutable snapshot (the memory as of the start of the window) merged
//! with the granule's own writes, and every externally visible operation is
//! recorded. After the concurrent phase, each granule's [`BlockEffects`] is
//! replayed against the live memory *in order*; recorded read/CAS
//! observations are validated against the live values, and a mismatch
//! (another granule wrote data this one consumed) rolls the partial replay
//! back and reports a [`ReplayOutcome::Conflict`] so the caller can
//! re-execute that granule against live memory.
//!
//! Two kinds of buffer get different treatment:
//!
//! * **Block-private buffers** (buffers no other concurrently logged block
//!   can touch) are registered via [`BlockLog::register_private`]: the log
//!   keeps a dense byte mirror and reads/writes it directly, without
//!   recording ops — no other block can touch them, so there is nothing to
//!   validate. The mirror is committed wholesale on successful replay.
//! * **Shared buffers** (kernel device state: hash tables, accumulators) use
//!   a sparse word-masked overlay for the block's own writes plus an op log.
//!   Plain writes and atomic adds replay blindly (adds commute); reads and
//!   CAS results are validated against the observations made during logging.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::mem::{BufferId, GpuMemory};

/// Multiply-fold hasher for the overlay map. The keys are `(buffer index,
/// word address)` pairs the simulator generates itself, so HashDoS
/// resistance buys nothing here and SipHash showed up as a top-5 cost in
/// profiles of hash-table-heavy kernels (word count, affinity). One odd
/// multiply per word mixes the low bits — where word addresses vary — into
/// the high bits hashbrown uses for bucket selection.
#[derive(Default)]
pub struct OverlayHasher(u64);

impl Hasher for OverlayHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only reached for non-u64 key parts; fold bytes in 8-byte chunks.
        for c in bytes.chunks(8) {
            let mut b = [0u8; 8];
            b[..c.len()].copy_from_slice(c);
            self.write_u64(u64::from_le_bytes(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply concentrates entropy in the high bits; rotate some
        // back down for the bucket index.
        self.0.rotate_left(26)
    }
}

type OverlayMap = HashMap<(usize, u64), (u64, u8), BuildHasherDefault<OverlayHasher>>;
type AddCache = HashMap<(usize, u64), usize, BuildHasherDefault<OverlayHasher>>;
type ReadCache = HashMap<(usize, u64, u32), u64, BuildHasherDefault<OverlayHasher>>;

/// One logged externally-visible device-memory operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DevOp {
    /// A device read whose observed value must still hold at replay time.
    Read {
        /// Buffer read from.
        buf: BufferId,
        /// Byte offset of the access.
        offset: u64,
        /// Access width in bytes (1..=8).
        width: u32,
        /// Little-endian value observed at logging time.
        observed: u64,
    },
    /// A blind store (last-writer-wins in block order).
    Write {
        /// Buffer written to.
        buf: BufferId,
        /// Byte offset of the access.
        offset: u64,
        /// Access width in bytes (1..=8).
        width: u32,
        /// Little-endian value stored.
        value: u64,
    },
    /// Atomic 32-bit add; commutes, so it replays blindly.
    AddU32 {
        /// Buffer holding the cell.
        buf: BufferId,
        /// Byte offset of the cell.
        offset: u64,
        /// Amount added (wrapping).
        delta: u32,
    },
    /// Atomic 64-bit add; commutes, so it replays blindly.
    AddU64 {
        /// Buffer holding the cell.
        buf: BufferId,
        /// Byte offset of the cell.
        offset: u64,
        /// Amount added (wrapping).
        delta: u64,
    },
    /// Atomic CAS; the observed old value is validated at replay time.
    CasU64 {
        /// Buffer holding the cell.
        buf: BufferId,
        /// Byte offset of the cell.
        offset: u64,
        /// Value the CAS compared against.
        expected: u64,
        /// Value stored when the comparison succeeded.
        new: u64,
        /// Old value observed at logging time.
        observed: u64,
    },
}

/// Result of replaying one block's effects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub enum ReplayOutcome {
    /// All observations held; effects are applied.
    Committed,
    /// A validated observation no longer holds; the live memory is unchanged
    /// (partial replay rolled back) and the block must re-execute live.
    Conflict,
}

#[inline]
fn le_load(bytes: &[u8]) -> u64 {
    match bytes.len() {
        8 => u64::from_le_bytes(bytes.try_into().unwrap()),
        4 => u32::from_le_bytes(bytes.try_into().unwrap()) as u64,
        n => {
            let mut b = [0u8; 8];
            b[..n].copy_from_slice(bytes);
            u64::from_le_bytes(b)
        }
    }
}

/// A block's isolated, logged view of device memory.
///
/// `base` is the shared snapshot every concurrent block reads from; it must
/// not change while logs against it are live (the caller guarantees this by
/// holding `&GpuMemory` for the whole concurrent phase).
pub struct BlockLog<'m> {
    base: &'m GpuMemory,
    /// Dense mirrors of block-private buffers: `(buf, bytes)`.
    privs: Vec<(BufferId, Vec<u8>)>,
    /// Word-masked overlay of this block's shared-buffer writes:
    /// `(buffer index, byte_addr / 8)` → `(little-endian word, byte mask)`.
    overlay: OverlayMap,
    /// Buffer indices with at least one overlay entry (almost always 0–2:
    /// the kernel's device state). Reads of other shared buffers — notably
    /// the per-byte prefetch-buffer loads of scanning kernels — skip the
    /// overlay probe entirely.
    overlay_bufs: Vec<usize>,
    ops: Vec<DevOp>,
    /// Per-cell index into `ops` of a mergeable atomic add. Adds commute, so
    /// repeat adds to the same cell fold their deltas into one logged op —
    /// but only within an uninterrupted run of adds: the cache is cleared
    /// whenever a `Read`/`Write`/`CasU64` op lands, since adds must not be
    /// reordered across a validation or a blind store to the same cell.
    add_cache: AddCache,
    /// Memoized `Read` observations: a repeat load of the same cell returns
    /// the cached value without logging a duplicate validation op (the first
    /// `Read` already validates it at replay). Cleared on every overlay
    /// store, since any own write may change the observed value.
    read_cache: ReadCache,
}

impl<'m> BlockLog<'m> {
    /// Start an empty log over the shared snapshot `base`.
    pub fn new(base: &'m GpuMemory) -> Self {
        BlockLog {
            base,
            privs: Vec::new(),
            overlay: OverlayMap::default(),
            overlay_bufs: Vec::new(),
            ops: Vec::new(),
            add_cache: AddCache::default(),
            read_cache: ReadCache::default(),
        }
    }

    /// Declare `buf` block-private: reads and writes bypass the op log and
    /// go to a dense mirror committed wholesale on successful replay.
    pub fn register_private(&mut self, buf: BufferId) {
        debug_assert!(
            self.privs.iter().all(|(b, _)| *b != buf),
            "buffer registered twice"
        );
        let mirror = self.base.read(buf, 0, self.base.len(buf) as usize).to_vec();
        self.privs.push((buf, mirror));
    }

    fn priv_index(&self, buf: BufferId) -> Option<usize> {
        self.privs.iter().position(|(b, _)| *b == buf)
    }

    /// Pseudo-virtual address of `offset` within `buf` (see
    /// [`GpuMemory::vaddr`]).
    #[inline]
    pub fn vaddr(&self, buf: BufferId, offset: u64) -> u64 {
        self.base.vaddr(buf, offset)
    }

    /// Expand an 8-bit byte mask to a 64-bit mask with `0xFF` per set bit
    /// (bit `i` selects byte lane `i`). Aligned full-word accesses — the
    /// overwhelmingly common case — short-circuit to all-ones.
    #[inline]
    fn byte_mask(mask: u8) -> u64 {
        if mask == 0xFF {
            return u64::MAX;
        }
        let mut m = 0u64;
        let mut bits = mask;
        while bits != 0 {
            let i = bits.trailing_zeros();
            m |= 0xFFu64 << (i * 8);
            bits &= bits - 1;
        }
        m
    }

    /// Read `width` (1..=8) bytes as a little-endian value, merging this
    /// block's overlay writes over the snapshot. Whole words merge with one
    /// mask operation; a load straddling a word boundary merges both words.
    fn load_merged(&self, buf: BufferId, offset: u64, width: u32) -> u64 {
        let mut v = le_load(self.base.read(buf, offset, width as usize));
        if self.overlay_bufs.contains(&buf.0) {
            let w0 = offset / 8;
            let w1 = (offset + width as u64 - 1) / 8;
            for w in w0..=w1 {
                if let Some(&(val, mask)) = self.overlay.get(&(buf.0, w)) {
                    // Byte lanes of word `w` covered by this load: lane `l`
                    // of the word is byte `w*8 + l - offset` of the value.
                    let lo = (w * 8).max(offset);
                    let hi = (w * 8 + 8).min(offset + width as u64);
                    let lanes =
                        ((1u16 << (hi - w * 8)) - 1) as u8 & !(((1u16 << (lo - w * 8)) - 1) as u8);
                    let m = Self::byte_mask(mask & lanes);
                    // Align the word's bytes to the value's byte lanes.
                    if w * 8 >= offset {
                        let sh = ((w * 8 - offset) * 8) as u32;
                        v = (v & !(m << sh)) | ((val & m) << sh);
                    } else {
                        let sh = ((offset - w * 8) * 8) as u32;
                        v = (v & !(m >> sh)) | ((val & m) >> sh);
                    }
                }
            }
        }
        v
    }

    fn store_overlay(&mut self, buf: BufferId, offset: u64, width: u32, value: u64) {
        if !self.read_cache.is_empty() {
            self.read_cache.clear();
        }
        if !self.overlay_bufs.contains(&buf.0) {
            self.overlay_bufs.push(buf.0);
        }
        let w0 = offset / 8;
        let w1 = (offset + width as u64 - 1) / 8;
        for w in w0..=w1 {
            let lo = (w * 8).max(offset);
            let hi = (w * 8 + 8).min(offset + width as u64);
            let lanes = ((1u16 << (hi - w * 8)) - 1) as u8 & !(((1u16 << (lo - w * 8)) - 1) as u8);
            let m = Self::byte_mask(lanes);
            // Word lane `l` holds value byte `l + (w*8 - offset)`.
            let word_val = if w * 8 >= offset {
                value >> ((w * 8 - offset) * 8)
            } else {
                value << ((offset - w * 8) * 8)
            };
            let e = self.overlay.entry((buf.0, w)).or_insert((0, 0));
            e.0 = (e.0 & !m) | (word_val & m);
            e.1 |= lanes;
        }
    }

    /// Load from a mapped-stream staging buffer. Never logged: private
    /// buffers read their mirror, shared buffers read the merged view — the
    /// caller only routes stream loads here for buffers whose contents
    /// other blocks cannot change before this block's replay.
    pub fn stream_load(&self, buf: BufferId, offset: u64, width: u32) -> u64 {
        match self.priv_index(buf) {
            Some(i) => le_load(&self.privs[i].1[offset as usize..(offset + width as u64) as usize]),
            None => self.load_merged(buf, offset, width),
        }
    }

    /// [`BlockLog::stream_load`] of `out.len() / width` elements at
    /// `offset`, `offset + stride`, ..., packed into `out`.
    pub fn stream_load_strided(
        &self,
        buf: BufferId,
        offset: u64,
        stride: u64,
        width: u32,
        out: &mut [u8],
    ) {
        let w = width as usize;
        match self.priv_index(buf) {
            Some(i) => {
                crate::mem::copy_strided(&self.privs[i].1[offset as usize..], stride, w, out)
            }
            None => {
                for (e, dst) in out.chunks_exact_mut(w).enumerate() {
                    let v = self.load_merged(buf, offset + e as u64 * stride, width);
                    dst.copy_from_slice(&v.to_le_bytes()[..w]);
                }
            }
        }
    }

    /// Store `width` bytes. Private buffers update their mirror; shared
    /// buffers record a blind `Write` op (last writer in block order wins).
    pub fn store(&mut self, buf: BufferId, offset: u64, width: u32, value: u64) {
        match self.priv_index(buf) {
            Some(i) => {
                let bytes = value.to_le_bytes();
                self.privs[i].1[offset as usize..(offset + width as u64) as usize]
                    .copy_from_slice(&bytes[..width as usize]);
            }
            None => {
                self.store_overlay(buf, offset, width, value);
                self.add_cache.clear();
                self.ops.push(DevOp::Write {
                    buf,
                    offset,
                    width,
                    value,
                });
            }
        }
    }

    /// Load from a device buffer. Shared-buffer loads log the observed value
    /// for replay-time validation.
    pub fn dev_load(&mut self, buf: BufferId, offset: u64, width: u32) -> u64 {
        match self.priv_index(buf) {
            Some(i) => le_load(&self.privs[i].1[offset as usize..(offset + width as u64) as usize]),
            None => {
                let key = (buf.0, offset, width);
                if let Some(&v) = self.read_cache.get(&key) {
                    return v;
                }
                let observed = self.load_merged(buf, offset, width);
                self.add_cache.clear();
                self.ops.push(DevOp::Read {
                    buf,
                    offset,
                    width,
                    observed,
                });
                self.read_cache.insert(key, observed);
                observed
            }
        }
    }

    /// Atomic add on a u32 cell; returns the old value *as seen by this
    /// block* (snapshot + own effects). Kernels whose results depend on the
    /// cross-block old value must declare themselves non-replayable.
    pub fn atomic_add_u32(&mut self, buf: BufferId, offset: u64, delta: u32) -> u32 {
        match self.priv_index(buf) {
            Some(i) => {
                let old = le_load(&self.privs[i].1[offset as usize..offset as usize + 4]) as u32;
                self.privs[i].1[offset as usize..offset as usize + 4]
                    .copy_from_slice(&old.wrapping_add(delta).to_le_bytes());
                old
            }
            None => {
                let old = self.load_merged(buf, offset, 4) as u32;
                self.store_overlay(buf, offset, 4, old.wrapping_add(delta) as u64);
                let key = (buf.0, offset);
                if let Some(&idx) = self.add_cache.get(&key) {
                    if let DevOp::AddU32 { delta: d, .. } = &mut self.ops[idx] {
                        *d = d.wrapping_add(delta);
                        return old;
                    }
                }
                self.add_cache.insert(key, self.ops.len());
                self.ops.push(DevOp::AddU32 { buf, offset, delta });
                old
            }
        }
    }

    /// Atomic add on a u64 cell; same semantics as [`Self::atomic_add_u32`].
    pub fn atomic_add_u64(&mut self, buf: BufferId, offset: u64, delta: u64) -> u64 {
        match self.priv_index(buf) {
            Some(i) => {
                let old = le_load(&self.privs[i].1[offset as usize..offset as usize + 8]);
                self.privs[i].1[offset as usize..offset as usize + 8]
                    .copy_from_slice(&old.wrapping_add(delta).to_le_bytes());
                old
            }
            None => {
                let old = if offset & 7 == 0 {
                    // Aligned full-word cell — the common atomic-table shape.
                    // One overlay entry lookup serves both the merged load
                    // and the store; the bookkeeping (read-cache
                    // invalidation, overlay-buffer registration) matches
                    // `load_merged` + `store_overlay` exactly.
                    if !self.read_cache.is_empty() {
                        self.read_cache.clear();
                    }
                    if !self.overlay_bufs.contains(&buf.0) {
                        self.overlay_bufs.push(buf.0);
                    }
                    let base_v = le_load(self.base.read(buf, offset, 8));
                    let e = self.overlay.entry((buf.0, offset / 8)).or_insert((0, 0));
                    let m = Self::byte_mask(e.1);
                    let old = (base_v & !m) | (e.0 & m);
                    *e = (old.wrapping_add(delta), 0xFF);
                    old
                } else {
                    let old = self.load_merged(buf, offset, 8);
                    self.store_overlay(buf, offset, 8, old.wrapping_add(delta));
                    old
                };
                let key = (buf.0, offset);
                if let Some(&idx) = self.add_cache.get(&key) {
                    if let DevOp::AddU64 { delta: d, .. } = &mut self.ops[idx] {
                        *d = d.wrapping_add(delta);
                        return old;
                    }
                }
                self.add_cache.insert(key, self.ops.len());
                self.ops.push(DevOp::AddU64 { buf, offset, delta });
                old
            }
        }
    }

    /// Atomic CAS with CUDA semantics (returns the old value). The observed
    /// old value is validated at replay, so CAS-consuming kernels (hash
    /// inserts) stay replayable: if another block won the slot first, replay
    /// detects the stale observation and the block re-executes live.
    pub fn atomic_cas_u64(&mut self, buf: BufferId, offset: u64, expected: u64, new: u64) -> u64 {
        match self.priv_index(buf) {
            Some(i) => {
                let old = le_load(&self.privs[i].1[offset as usize..offset as usize + 8]);
                if old == expected {
                    self.privs[i].1[offset as usize..offset as usize + 8]
                        .copy_from_slice(&new.to_le_bytes());
                }
                old
            }
            None => {
                let observed = self.load_merged(buf, offset, 8);
                if observed == expected {
                    self.store_overlay(buf, offset, 8, new);
                }
                self.add_cache.clear();
                self.ops.push(DevOp::CasU64 {
                    buf,
                    offset,
                    expected,
                    new,
                    observed,
                });
                observed
            }
        }
    }

    /// Consume the log into its replayable effects.
    pub fn finish(self) -> BlockEffects {
        BlockEffects {
            privs: self.privs,
            ops: self.ops,
        }
    }
}

/// The externally visible effects of one logged block, ready for in-order
/// replay.
pub struct BlockEffects {
    privs: Vec<(BufferId, Vec<u8>)>,
    ops: Vec<DevOp>,
}

impl BlockEffects {
    /// Apply this block's effects to live memory. On a validation failure
    /// every op applied so far is rolled back (byte-exact) and `Conflict` is
    /// returned with `gmem` unchanged.
    pub fn replay(&self, gmem: &mut GpuMemory) -> ReplayOutcome {
        let mut undo: Vec<(BufferId, u64, u32, [u8; 8])> = Vec::new();
        let save = |gmem: &GpuMemory, buf: BufferId, offset: u64, width: u32| {
            let mut bytes = [0u8; 8];
            bytes[..width as usize].copy_from_slice(gmem.read(buf, offset, width as usize));
            (buf, offset, width, bytes)
        };
        for op in &self.ops {
            match *op {
                DevOp::Read {
                    buf,
                    offset,
                    width,
                    observed,
                } => {
                    let live = le_load(gmem.read(buf, offset, width as usize));
                    if live != observed {
                        Self::rollback(gmem, &undo);
                        return ReplayOutcome::Conflict;
                    }
                }
                DevOp::Write {
                    buf,
                    offset,
                    width,
                    value,
                } => {
                    undo.push(save(gmem, buf, offset, width));
                    gmem.write(buf, offset, &value.to_le_bytes()[..width as usize]);
                }
                DevOp::AddU32 { buf, offset, delta } => {
                    undo.push(save(gmem, buf, offset, 4));
                    let _ = gmem.atomic_add_u32(buf, offset, delta);
                }
                DevOp::AddU64 { buf, offset, delta } => {
                    undo.push(save(gmem, buf, offset, 8));
                    let _ = gmem.atomic_add_u64(buf, offset, delta);
                }
                DevOp::CasU64 {
                    buf,
                    offset,
                    expected,
                    new,
                    observed,
                } => {
                    let live = gmem.read_u64(buf, offset);
                    if live != observed {
                        Self::rollback(gmem, &undo);
                        return ReplayOutcome::Conflict;
                    }
                    undo.push(save(gmem, buf, offset, 8));
                    let _ = gmem.atomic_cas_u64(buf, offset, expected, new);
                }
            }
        }
        for (buf, bytes) in &self.privs {
            gmem.write(*buf, 0, bytes);
        }
        ReplayOutcome::Committed
    }

    fn rollback(gmem: &mut GpuMemory, undo: &[(BufferId, u64, u32, [u8; 8])]) {
        for &(buf, offset, width, bytes) in undo.iter().rev() {
            gmem.write(buf, offset, &bytes[..width as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceSpec;

    fn mem() -> GpuMemory {
        GpuMemory::new(&DeviceSpec::test_tiny())
    }

    #[test]
    fn private_buffer_roundtrip_and_commit() {
        let mut m = mem();
        let b = m.alloc(64);
        m.write_u64(b, 0, 11);
        let mut log = BlockLog::new(&m);
        log.register_private(b);
        assert_eq!(log.stream_load(b, 0, 8), 11);
        log.store(b, 8, 8, 22);
        assert_eq!(log.stream_load(b, 8, 8), 22);
        assert_eq!(log.atomic_add_u32(b, 16, 5), 0);
        assert_eq!(log.atomic_add_u32(b, 16, 5), 5);
        let fx = log.finish();
        // Nothing hit gmem yet; replay commits the mirror wholesale.
        assert_eq!(m.read_u64(b, 8), 0);
        assert_eq!(fx.replay(&mut m), ReplayOutcome::Committed);
        assert_eq!(m.read_u64(b, 8), 22);
        assert_eq!(m.read_u32(b, 16), 10);
    }

    #[test]
    fn shared_overlay_merges_own_writes() {
        let mut m = mem();
        let b = m.alloc(64);
        m.write_u64(b, 0, 0x8877665544332211);
        let mut log = BlockLog::new(&m);
        // Own 4-byte write at offset 2 straddles nothing; merged load at
        // offset 0 must mix base and overlay bytes.
        log.store(b, 2, 4, 0xDDCCBBAA);
        assert_eq!(log.stream_load(b, 0, 8), 0x8877DDCCBBAA2211);
        // Base memory untouched until replay.
        assert_eq!(m.read_u64(b, 0), 0x8877665544332211);
        let outcome = log.finish().replay(&mut m);
        assert_eq!(outcome, ReplayOutcome::Committed);
        assert_eq!(m.read_u64(b, 0), 0x8877DDCCBBAA2211);
    }

    #[test]
    fn word_straddling_store_merges_across_words() {
        let mut m = mem();
        let b = m.alloc(64);
        let mut log = BlockLog::new(&m);
        // 4-byte store at offset 6 straddles the word boundary at 8.
        log.store(b, 6, 4, 0x44332211);
        assert_eq!(log.stream_load(b, 6, 4), 0x44332211);
        assert_eq!(log.stream_load(b, 0, 8), 0x2211_0000_0000_0000);
        assert_eq!(log.stream_load(b, 8, 8), 0x4433);
        let outcome = log.finish().replay(&mut m);
        assert_eq!(outcome, ReplayOutcome::Committed);
        assert_eq!(m.read_u32(b, 6), 0x44332211);
    }

    #[test]
    fn adds_chain_locally_and_replay_applies_on_top_of_live() {
        let mut m = mem();
        let b = m.alloc(16);
        m.write_u64(b, 0, 100);
        let mut log = BlockLog::new(&m);
        assert_eq!(log.atomic_add_u64(b, 0, 7), 100);
        assert_eq!(log.atomic_add_u64(b, 0, 3), 107);
        let fx = log.finish();
        // Another (earlier) block bumped the cell before replay: adds
        // commute, so replay lands on top without conflict.
        m.atomic_add_u64(b, 0, 1000);
        assert_eq!(fx.replay(&mut m), ReplayOutcome::Committed);
        assert_eq!(m.read_u64(b, 0), 1110);
    }

    #[test]
    fn stale_read_conflicts_and_rolls_back() {
        let mut m = mem();
        let b = m.alloc(32);
        m.write_u64(b, 0, 5);
        let mut log = BlockLog::new(&m);
        log.store(b, 8, 8, 0xFEED); // applied before the read during replay
        assert_eq!(log.dev_load(b, 0, 8), 5);
        let fx = log.finish();
        m.write_u64(b, 0, 6); // earlier block invalidates the observation
        assert_eq!(fx.replay(&mut m), ReplayOutcome::Conflict);
        // The already-applied write was rolled back byte-exactly.
        assert_eq!(m.read_u64(b, 8), 0);
        assert_eq!(m.read_u64(b, 0), 6);
    }

    #[test]
    fn stale_cas_conflicts() {
        let mut m = mem();
        let b = m.alloc(16);
        let mut log = BlockLog::new(&m);
        // Block claims an empty slot.
        assert_eq!(log.atomic_cas_u64(b, 0, 0, 42), 0);
        let fx = log.finish();
        // An earlier block claimed it first.
        assert_eq!(m.atomic_cas_u64(b, 0, 0, 7), 0);
        assert_eq!(fx.replay(&mut m), ReplayOutcome::Conflict);
        assert_eq!(m.read_u64(b, 0), 7);
    }

    #[test]
    fn adds_do_not_merge_across_a_validated_read() {
        let mut m = mem();
        let b = m.alloc(16);
        m.write_u64(b, 0, 10);
        let mut log = BlockLog::new(&m);
        // If the second add folded into the first, replay would apply +3
        // before the read validation and spuriously conflict.
        assert_eq!(log.atomic_add_u64(b, 0, 1), 10);
        assert_eq!(log.dev_load(b, 0, 8), 11);
        assert_eq!(log.atomic_add_u64(b, 0, 2), 11);
        let fx = log.finish();
        assert_eq!(fx.replay(&mut m), ReplayOutcome::Committed);
        assert_eq!(m.read_u64(b, 0), 13);
    }

    #[test]
    fn adds_do_not_merge_across_a_blind_write() {
        let mut m = mem();
        let b = m.alloc(16);
        let mut log = BlockLog::new(&m);
        log.atomic_add_u64(b, 0, 1);
        log.store(b, 0, 8, 100);
        log.atomic_add_u64(b, 0, 2);
        let fx = log.finish();
        assert_eq!(fx.replay(&mut m), ReplayOutcome::Committed);
        // Replay order must stay add, write, add: 1 → 100 → 102.
        assert_eq!(m.read_u64(b, 0), 102);
    }

    #[test]
    fn coalesced_adds_replay_with_the_summed_delta() {
        let mut m = mem();
        let b = m.alloc(32);
        let mut log = BlockLog::new(&m);
        for i in 0..100u64 {
            assert_eq!(log.atomic_add_u64(b, 0, 1), i);
            log.atomic_add_u32(b, 8, 2);
        }
        let fx = log.finish();
        // An earlier block's adds land first; commuting adds stack on top.
        m.atomic_add_u64(b, 0, 1000);
        assert_eq!(fx.replay(&mut m), ReplayOutcome::Committed);
        assert_eq!(m.read_u64(b, 0), 1100);
        assert_eq!(m.read_u32(b, 8), 200);
    }

    #[test]
    fn repeat_reads_see_own_writes_between_them() {
        let mut m = mem();
        let b = m.alloc(16);
        m.write_u64(b, 0, 7);
        let mut log = BlockLog::new(&m);
        assert_eq!(log.dev_load(b, 0, 8), 7);
        assert_eq!(log.dev_load(b, 0, 8), 7, "memoized repeat read");
        log.store(b, 0, 8, 99);
        assert_eq!(log.dev_load(b, 0, 8), 99, "own write invalidates memo");
        let fx = log.finish();
        assert_eq!(fx.replay(&mut m), ReplayOutcome::Committed);
        assert_eq!(m.read_u64(b, 0), 99);
    }

    #[test]
    fn successful_cas_replays() {
        let mut m = mem();
        let b = m.alloc(16);
        let mut log = BlockLog::new(&m);
        assert_eq!(log.atomic_cas_u64(b, 0, 0, 42), 0);
        // A second CAS by the same block sees its own claim.
        assert_eq!(log.atomic_cas_u64(b, 0, 0, 9), 42);
        let fx = log.finish();
        assert_eq!(fx.replay(&mut m), ReplayOutcome::Committed);
        assert_eq!(m.read_u64(b, 0), 42);
    }
}
