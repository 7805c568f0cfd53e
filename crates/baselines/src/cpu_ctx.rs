//! CPU-side kernel context: runs the unchanged kernel body against host
//! memory with CPU cost accounting.
//!
//! "Device-resident" buffers (hash tables, dictionaries, output tables) are
//! functionally the same `GpuMemory` storage the GPU variants use — for the
//! CPU implementation they just represent tables in host RAM, and their
//! accesses are costed like any other host memory access. Their cache-sim
//! addresses are displaced into a disjoint half of the address space so they
//! never alias the mapped host arrays.

use bk_gpu::GpuMemory;
use bk_host::{CacheSim, CpuCost, HostMemory};
use bk_runtime::{DevBufId, KernelCtx, StreamArray, StreamId};
use std::collections::HashMap;

/// Displacement separating device-buffer addresses from host-region
/// addresses in the cache simulator's flat address space.
const DEV_ADDR_BASE: u64 = 1 << 44;

/// Instructions charged per 8-byte-or-less memory access (address math +
/// load/store).
const INSTRS_PER_ACCESS: u64 = 2;

/// The CPU execution context.
pub struct CpuCtx<'a> {
    hmem: &'a mut HostMemory,
    gmem: &'a mut GpuMemory,
    streams: &'a [StreamArray],
    cache: &'a mut CacheSim,
    pub cost: CpuCost,
    thread_id: u32,
    num_threads: u32,
    pub stream_bytes_read: u64,
    pub stream_bytes_written: u64,
    /// Per-address atomic counts (across the whole run; the caller folds
    /// the maximum into `CpuCost::hot_atomic_chain`).
    pub atomic_counts: HashMap<u64, u64>,
}

impl<'a> CpuCtx<'a> {
    pub fn new(
        hmem: &'a mut HostMemory,
        gmem: &'a mut GpuMemory,
        streams: &'a [StreamArray],
        cache: &'a mut CacheSim,
        thread_id: u32,
        num_threads: u32,
    ) -> Self {
        CpuCtx {
            hmem,
            gmem,
            streams,
            cache,
            cost: CpuCost::new(),
            thread_id,
            num_threads,
            stream_bytes_read: 0,
            stream_bytes_written: 0,
            atomic_counts: HashMap::new(),
        }
    }

    /// Re-aim the context at another logical thread (contexts are reused
    /// across the sequential functional execution of all threads).
    pub fn set_thread(&mut self, thread_id: u32) {
        self.thread_id = thread_id;
    }

    #[inline]
    fn charge(&mut self, vaddr: u64, len: u64) {
        let (h, m) = self.cache.access_range(vaddr, len);
        self.cost.cache_hits += h;
        self.cost.cache_misses += m;
        self.cost.dram_bytes += m * self.cache.line_bytes();
        self.cost.instructions += INSTRS_PER_ACCESS;
    }

    fn region_of(&self, s: StreamId) -> bk_host::RegionId {
        self.streams[s.0 as usize].region
    }
}

#[inline]
fn le_load(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

impl KernelCtx for CpuCtx<'_> {
    fn stream_read(&mut self, s: StreamId, offset: u64, width: u32) -> u64 {
        let region = self.region_of(s);
        self.charge(self.hmem.vaddr(region, offset), width as u64);
        self.stream_bytes_read += width as u64;
        le_load(self.hmem.read(region, offset, width as usize))
    }

    fn stream_write(&mut self, s: StreamId, offset: u64, width: u32, value: u64) {
        let region = self.region_of(s);
        self.charge(self.hmem.vaddr(region, offset), width as u64);
        self.stream_bytes_written += width as u64;
        let bytes = value.to_le_bytes();
        self.hmem.write(region, offset, &bytes[..width as usize]);
    }

    fn dev_read(&mut self, b: DevBufId, offset: u64, width: u32) -> u64 {
        self.charge(DEV_ADDR_BASE + self.gmem.vaddr(b, offset), width as u64);
        le_load(self.gmem.read(b, offset, width as usize))
    }

    fn dev_write(&mut self, b: DevBufId, offset: u64, width: u32, value: u64) {
        self.charge(DEV_ADDR_BASE + self.gmem.vaddr(b, offset), width as u64);
        let bytes = value.to_le_bytes();
        self.gmem.write(b, offset, &bytes[..width as usize]);
    }

    fn dev_atomic_add_u32(&mut self, b: DevBufId, offset: u64, v: u32) -> u32 {
        let addr = DEV_ADDR_BASE + self.gmem.vaddr(b, offset);
        self.charge(addr, 4);
        *self.atomic_counts.entry(addr).or_insert(0) += 1;
        self.gmem.atomic_add_u32(b, offset, v)
    }

    fn dev_atomic_add_u64(&mut self, b: DevBufId, offset: u64, v: u64) -> u64 {
        let addr = DEV_ADDR_BASE + self.gmem.vaddr(b, offset);
        self.charge(addr, 8);
        *self.atomic_counts.entry(addr).or_insert(0) += 1;
        self.gmem.atomic_add_u64(b, offset, v)
    }

    fn dev_atomic_cas_u64(&mut self, b: DevBufId, offset: u64, expected: u64, new: u64) -> u64 {
        let addr = DEV_ADDR_BASE + self.gmem.vaddr(b, offset);
        self.charge(addr, 8);
        *self.atomic_counts.entry(addr).or_insert(0) += 1;
        self.gmem.atomic_cas_u64(b, offset, expected, new)
    }

    fn alu(&mut self, n: u64) {
        self.cost.instructions += n;
    }

    fn shared(&mut self, n: u64) {
        // No shared memory on the CPU; treat as cheap local scratch.
        self.cost.instructions += n;
    }

    fn thread_id(&self) -> u32 {
        self.thread_id
    }

    fn num_threads(&self) -> u32 {
        self.num_threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bk_runtime::{Machine, ValueExt};

    fn setup(machine: &mut Machine, data: &[u8]) -> Vec<StreamArray> {
        let r = machine.hmem.alloc_from(data);
        vec![StreamArray::map(machine, StreamId(0), r)]
    }

    #[test]
    fn stream_rw_functional_and_costed() {
        let mut m = Machine::test_platform();
        let streams = setup(&mut m, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut cache = CacheSim::xeon_llc();
        let mut ctx = CpuCtx::new(&mut m.hmem, &mut m.gmem, &streams, &mut cache, 0, 1);
        assert_eq!(
            ctx.stream_read(StreamId(0), 0, 4),
            u32::from_le_bytes([1, 2, 3, 4]) as u64
        );
        ctx.stream_write_u32(StreamId(0), 4, 0xDEAD);
        assert_eq!(ctx.stream_read_u32(StreamId(0), 4), 0xDEAD);
        assert!(ctx.cost.instructions >= 3 * INSTRS_PER_ACCESS);
        assert!(ctx.cost.cache_misses >= 1);
        assert_eq!(ctx.stream_bytes_read, 8);
        assert_eq!(ctx.stream_bytes_written, 4);
    }

    #[test]
    fn dev_ops_functional_on_gpu_storage() {
        let mut m = Machine::test_platform();
        let table = m.gmem.alloc(64);
        let streams = setup(&mut m, &[0u8; 16]);
        let mut cache = CacheSim::xeon_llc();
        let mut ctx = CpuCtx::new(&mut m.hmem, &mut m.gmem, &streams, &mut cache, 0, 1);
        ctx.dev_write(table, 0, 8, 99);
        assert_eq!(ctx.dev_read(table, 0, 8), 99);
        assert_eq!(ctx.dev_atomic_add_u32(table, 8, 7), 0);
        assert_eq!(ctx.dev_atomic_add_u64(table, 16, 5), 0);
        assert_eq!(ctx.dev_atomic_cas_u64(table, 24, 0, 1), 0);
        drop(ctx);
        assert_eq!(m.gmem.read_u32(table, 8), 7);
    }

    #[test]
    fn dev_and_host_addresses_do_not_alias_in_cache() {
        let mut m = Machine::test_platform();
        let table = m.gmem.alloc(64);
        let streams = setup(&mut m, &[0u8; 4096]);
        let mut cache = CacheSim::new(512, 64, 2); // tiny
        let mut ctx = CpuCtx::new(&mut m.hmem, &mut m.gmem, &streams, &mut cache, 0, 1);
        // Device vaddr and host vaddr can both be small numbers; ensure
        // the displaced device access does not produce a bogus hit.
        let _ = ctx.stream_read(StreamId(0), 0, 8);
        let _ = ctx.dev_read(table, 0, 8);
        assert_eq!(ctx.cost.cache_misses, 2);
    }

    #[test]
    fn thread_identity() {
        let mut m = Machine::test_platform();
        let streams = setup(&mut m, &[0u8; 8]);
        let mut cache = CacheSim::xeon_llc();
        let mut ctx = CpuCtx::new(&mut m.hmem, &mut m.gmem, &streams, &mut cache, 3, 8);
        assert_eq!(ctx.thread_id(), 3);
        assert_eq!(ctx.num_threads(), 8);
        ctx.set_thread(5);
        assert_eq!(ctx.thread_id(), 5);
        ctx.alu(10);
        ctx.shared(2);
        assert_eq!(ctx.cost.instructions, 12);
    }
}
