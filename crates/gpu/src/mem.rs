//! Functional GPU global memory.
//!
//! Buffers are real byte vectors; every kernel in the reproduction reads and
//! writes actual data through this module, so output correctness is checked
//! end-to-end against the CPU reference implementations. Each buffer is
//! assigned a base *virtual address* in a flat device address space; the
//! coalescing analyzer operates on those addresses, which makes layout
//! effects (interleaved prefetch buffers vs original record layout) visible
//! to the timing model.

use crate::spec::DeviceSpec;

/// Handle to an allocated global-memory buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

/// Alignment of buffer base addresses in the virtual device address space.
/// 256 bytes matches CUDA's `cudaMalloc` guarantee and keeps segment math
/// simple.
pub const BASE_ALIGN: u64 = 256;

struct Buffer {
    base: u64,
    data: Vec<u8>,
}

/// The device's global memory: an allocator plus functional byte storage.
pub struct GpuMemory {
    capacity: u64,
    next_base: u64,
    used: u64,
    buffers: Vec<Buffer>,
    /// Storage reclaimed by [`Self::free`], reused by the next [`Self::alloc`]
    /// so the steady-state chunk loop stops churning the host heap. Held
    /// largest-last so `pop` hands back the biggest spare first.
    spares: Vec<Vec<u8>>,
}

impl GpuMemory {
    /// Fresh, empty memory of the device's configured capacity.
    pub fn new(spec: &DeviceSpec) -> Self {
        GpuMemory {
            capacity: spec.mem_capacity,
            next_base: BASE_ALIGN, // keep address 0 unmapped to catch bugs
            used: 0,
            buffers: Vec::new(),
            spares: Vec::new(),
        }
    }

    /// Allocate a zero-initialized buffer. Panics when the device is out of
    /// memory — the runtime is responsible for sizing chunks to fit, and an
    /// overflow here is always a configuration bug in this codebase.
    pub fn alloc(&mut self, len: u64) -> BufferId {
        assert!(
            self.used + len <= self.capacity,
            "GPU out of memory: capacity {} used {} request {}",
            self.capacity,
            self.used,
            len
        );
        let id = BufferId(self.buffers.len());
        let base = self.next_base;
        let padded = len.div_ceil(BASE_ALIGN) * BASE_ALIGN;
        self.next_base = base + padded;
        self.used += len;
        let data = match self.spares.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(len as usize, 0);
                v
            }
            None => vec![0u8; len as usize],
        };
        self.buffers.push(Buffer { base, data });
        id
    }

    /// Free a buffer's storage (the id remains valid but empty; device
    /// address space is not recycled — ids are cheap and runs are finite —
    /// but the backing bytes are kept as spares for later `alloc`s).
    pub fn free(&mut self, id: BufferId) {
        let b = &mut self.buffers[id.0];
        self.used -= b.data.len() as u64;
        let spare = std::mem::take(&mut b.data);
        if spare.capacity() > 0 {
            let at = self
                .spares
                .partition_point(|s| s.capacity() <= spare.capacity());
            self.spares.insert(at, spare);
        }
    }

    /// Bytes currently allocated across live buffers.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Total device memory capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Virtual device address of `offset` within the buffer (used by the
    /// coalescing model).
    #[inline]
    pub fn vaddr(&self, id: BufferId, offset: u64) -> u64 {
        self.buffers[id.0].base + offset
    }

    /// Borrow `len` bytes starting at `offset`.
    #[inline]
    pub fn read(&self, id: BufferId, offset: u64, len: usize) -> &[u8] {
        let b = &self.buffers[id.0];
        &b.data[offset as usize..offset as usize + len]
    }

    /// Copy `out.len() / width` elements of `width` bytes at `offset`,
    /// `offset + stride`, ... into `out`, packed (one strided gather).
    #[inline]
    pub fn read_strided(
        &self,
        id: BufferId,
        offset: u64,
        stride: u64,
        width: usize,
        out: &mut [u8],
    ) {
        copy_strided(
            &self.buffers[id.0].data[offset as usize..],
            stride,
            width,
            out,
        );
    }

    /// Overwrite bytes starting at `offset`.
    #[inline]
    pub fn write(&mut self, id: BufferId, offset: u64, bytes: &[u8]) {
        let b = &mut self.buffers[id.0];
        b.data[offset as usize..offset as usize + bytes.len()].copy_from_slice(bytes);
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn read_u32(&self, id: BufferId, offset: u64) -> u32 {
        u32::from_le_bytes(self.read(id, offset, 4).try_into().unwrap())
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn read_u64(&self, id: BufferId, offset: u64) -> u64 {
        u64::from_le_bytes(self.read(id, offset, 8).try_into().unwrap())
    }

    /// Read a little-endian `f64`.
    #[inline]
    pub fn read_f64(&self, id: BufferId, offset: u64) -> f64 {
        f64::from_le_bytes(self.read(id, offset, 8).try_into().unwrap())
    }

    /// Write a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, id: BufferId, offset: u64, v: u32) {
        self.write(id, offset, &v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, id: BufferId, offset: u64, v: u64) {
        self.write(id, offset, &v.to_le_bytes());
    }

    /// Write a little-endian `f64`.
    #[inline]
    pub fn write_f64(&mut self, id: BufferId, offset: u64, v: f64) {
        self.write(id, offset, &v.to_le_bytes());
    }

    /// Functional atomic add on a little-endian u32 cell; returns the old
    /// value. (Kernel threads run sequentially in the simulator, so this is
    /// trivially linearizable; the *cost* of contention is modelled in
    /// `timing`, not here.)
    pub fn atomic_add_u32(&mut self, id: BufferId, offset: u64, v: u32) -> u32 {
        let old = self.read_u32(id, offset);
        self.write_u32(id, offset, old.wrapping_add(v));
        old
    }

    /// Functional atomic add on a u64 cell; see [`Self::atomic_add_u32`].
    pub fn atomic_add_u64(&mut self, id: BufferId, offset: u64, v: u64) -> u64 {
        let old = self.read_u64(id, offset);
        self.write_u64(id, offset, old.wrapping_add(v));
        old
    }

    /// Functional atomic compare-and-swap on a u64 cell; returns the old
    /// value (CUDA `atomicCAS` semantics).
    pub fn atomic_cas_u64(&mut self, id: BufferId, offset: u64, expected: u64, new: u64) -> u64 {
        let old = self.read_u64(id, offset);
        if old == expected {
            self.write_u64(id, offset, new);
        }
        old
    }

    /// Copy raw bytes into the buffer starting at `offset` (DMA landing).
    pub fn dma_in(&mut self, id: BufferId, offset: u64, bytes: &[u8]) {
        self.write(id, offset, bytes);
    }

    /// Copy raw bytes out of the buffer (DMA to host).
    pub fn dma_out(&self, id: BufferId, offset: u64, len: usize) -> Vec<u8> {
        self.read(id, offset, len).to_vec()
    }
}

/// Copy `out.len() / width` elements of `width` bytes from `src` at byte 0,
/// `stride`, `2 * stride`, ... into `out`, packed.
#[inline]
pub(crate) fn copy_strided(src: &[u8], stride: u64, width: usize, out: &mut [u8]) {
    if stride == width as u64 {
        out.copy_from_slice(&src[..out.len()]);
        return;
    }
    let stride = stride as usize;
    if width == 1 {
        for (e, dst) in out.iter_mut().enumerate() {
            *dst = src[e * stride];
        }
        return;
    }
    for (e, dst) in out.chunks_exact_mut(width).enumerate() {
        dst.copy_from_slice(&src[e * stride..e * stride + width]);
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
    fn alloc_zeroed_and_rw_roundtrip() {
        let mut m = mem();
        let b = m.alloc(1024);
        assert_eq!(m.read(b, 0, 16), &[0u8; 16]);
        m.write_u64(b, 8, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.read_u64(b, 8), 0xDEAD_BEEF_CAFE_F00D);
        m.write_f64(b, 16, -2.5);
        assert_eq!(m.read_f64(b, 16), -2.5);
        m.write_u32(b, 4, 99);
        assert_eq!(m.read_u32(b, 4), 99);
    }

    #[test]
    fn vaddrs_are_disjoint_and_aligned() {
        let mut m = mem();
        let a = m.alloc(100);
        let b = m.alloc(100);
        assert_eq!(m.vaddr(a, 0) % BASE_ALIGN, 0);
        assert_eq!(m.vaddr(b, 0) % BASE_ALIGN, 0);
        assert!(m.vaddr(b, 0) >= m.vaddr(a, 0) + 100);
        assert_ne!(m.vaddr(a, 0), 0, "address 0 must stay unmapped");
    }

    #[test]
    fn free_releases_capacity() {
        let mut m = mem();
        let cap = m.capacity();
        let b = m.alloc(cap / 2);
        assert_eq!(m.used(), cap / 2);
        m.free(b);
        assert_eq!(m.used(), 0);
        let _ = m.alloc(cap); // fits again
    }

    #[test]
    fn recycled_storage_comes_back_zeroed() {
        let mut m = mem();
        let a = m.alloc(64);
        m.write_u64(a, 0, 0xFFFF_FFFF_FFFF_FFFF);
        m.write_u64(a, 56, 0xAAAA_AAAA_AAAA_AAAA);
        m.free(a);
        // The next alloc reuses the freed storage; the dirty bytes must not
        // leak through the zero-initialization contract — including past the
        // smaller new length after a later grow.
        let b = m.alloc(32);
        assert_eq!(m.read(b, 0, 32), &[0u8; 32]);
        let c = m.alloc(128);
        assert_eq!(m.read(c, 0, 128), &[0u8; 128]);
    }

    #[test]
    #[should_panic(expected = "GPU out of memory")]
    fn oom_panics() {
        let mut m = mem();
        let _ = m.alloc(m.capacity() + 1);
    }

    #[test]
    fn atomic_add_returns_old() {
        let mut m = mem();
        let b = m.alloc(16);
        assert_eq!(m.atomic_add_u32(b, 0, 5), 0);
        assert_eq!(m.atomic_add_u32(b, 0, 3), 5);
        assert_eq!(m.read_u32(b, 0), 8);
        assert_eq!(m.atomic_add_u64(b, 8, 10), 0);
        assert_eq!(m.read_u64(b, 8), 10);
    }

    #[test]
    fn atomic_cas_semantics() {
        let mut m = mem();
        let b = m.alloc(8);
        // empty cell: CAS(0 -> 42) succeeds
        assert_eq!(m.atomic_cas_u64(b, 0, 0, 42), 0);
        // occupied: CAS(0 -> 7) fails, returns current
        assert_eq!(m.atomic_cas_u64(b, 0, 0, 7), 42);
        assert_eq!(m.read_u64(b, 0), 42);
    }

    #[test]
    fn dma_roundtrip() {
        let mut m = mem();
        let b = m.alloc(32);
        m.dma_in(b, 4, &[1, 2, 3, 4]);
        assert_eq!(m.dma_out(b, 4, 4), vec![1, 2, 3, 4]);
    }
}
