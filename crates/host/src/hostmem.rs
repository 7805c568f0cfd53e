//! Functional host memory: the mapped source arrays.
//!
//! Regions are real byte vectors with stable virtual addresses (used by the
//! cache simulator when costing gathers). The pinned DMA staging buffers
//! live in [`crate::arena::PinnedArena`] instead.

/// Handle to a host memory region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RegionId(pub(crate) usize);

/// Alignment of region base addresses; 4 KiB pages.
pub const PAGE: u64 = 4096;

struct Region {
    base: u64,
    data: Vec<u8>,
}

/// Host DRAM: allocator + functional storage.
pub struct HostMemory {
    next_base: u64,
    regions: Vec<Region>,
}

impl Default for HostMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl HostMemory {
    pub fn new() -> Self {
        HostMemory {
            next_base: PAGE,
            regions: Vec::new(),
        }
    }

    /// Allocate ordinary pageable memory (mapped source arrays).
    pub fn alloc(&mut self, len: u64) -> RegionId {
        let id = RegionId(self.regions.len());
        let base = self.next_base;
        self.next_base = base + len.div_ceil(PAGE) * PAGE;
        self.regions.push(Region {
            base,
            data: vec![0u8; len as usize],
        });
        id
    }

    /// Allocate and fill from `bytes`.
    pub fn alloc_from(&mut self, bytes: &[u8]) -> RegionId {
        let id = self.alloc(bytes.len() as u64);
        self.regions[id.0].data.copy_from_slice(bytes);
        id
    }

    pub fn len(&self, id: RegionId) -> u64 {
        self.regions[id.0].data.len() as u64
    }

    pub fn is_empty(&self, id: RegionId) -> bool {
        self.regions[id.0].data.is_empty()
    }

    /// Virtual address of `offset` within the region (cache-sim input).
    #[inline]
    pub fn vaddr(&self, id: RegionId, offset: u64) -> u64 {
        self.regions[id.0].base + offset
    }

    #[inline]
    pub fn read(&self, id: RegionId, offset: u64, len: usize) -> &[u8] {
        let r = &self.regions[id.0];
        &r.data[offset as usize..offset as usize + len]
    }

    #[inline]
    pub fn write(&mut self, id: RegionId, offset: u64, bytes: &[u8]) {
        let r = &mut self.regions[id.0];
        r.data[offset as usize..offset as usize + bytes.len()].copy_from_slice(bytes);
    }

    #[inline]
    pub fn read_u8(&self, id: RegionId, offset: u64) -> u8 {
        self.regions[id.0].data[offset as usize]
    }

    #[inline]
    pub fn read_u32(&self, id: RegionId, offset: u64) -> u32 {
        u32::from_le_bytes(self.read(id, offset, 4).try_into().unwrap())
    }

    #[inline]
    pub fn read_u64(&self, id: RegionId, offset: u64) -> u64 {
        u64::from_le_bytes(self.read(id, offset, 8).try_into().unwrap())
    }

    #[inline]
    pub fn read_f64(&self, id: RegionId, offset: u64) -> f64 {
        f64::from_le_bytes(self.read(id, offset, 8).try_into().unwrap())
    }

    #[inline]
    pub fn write_u32(&mut self, id: RegionId, offset: u64, v: u32) {
        self.write(id, offset, &v.to_le_bytes());
    }

    #[inline]
    pub fn write_u64(&mut self, id: RegionId, offset: u64, v: u64) {
        self.write(id, offset, &v.to_le_bytes());
    }

    #[inline]
    pub fn write_f64(&mut self, id: RegionId, offset: u64, v: f64) {
        self.write(id, offset, &v.to_le_bytes());
    }

    /// Borrow the whole region read-only (for verification and DMA sourcing).
    pub fn bytes(&self, id: RegionId) -> &[u8] {
        &self.regions[id.0].data
    }

    /// Borrow the whole region mutably (generators fill regions in place).
    pub fn bytes_mut(&mut self, id: RegionId) -> &mut [u8] {
        &mut self.regions[id.0].data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_zeroed_rw_roundtrip() {
        let mut m = HostMemory::new();
        let r = m.alloc(100);
        assert_eq!(m.len(r), 100);
        m.write_u64(r, 0, 7);
        m.write_f64(r, 8, 1.5);
        m.write_u32(r, 16, 9);
        assert_eq!(m.read_u64(r, 0), 7);
        assert_eq!(m.read_f64(r, 8), 1.5);
        assert_eq!(m.read_u32(r, 16), 9);
        assert_eq!(m.read_u8(r, 20), 0);
    }

    #[test]
    fn vaddrs_page_aligned_and_disjoint() {
        let mut m = HostMemory::new();
        let a = m.alloc(10);
        let b = m.alloc(10);
        assert_eq!(m.vaddr(a, 0) % PAGE, 0);
        assert!(m.vaddr(b, 0) >= m.vaddr(a, 0) + PAGE);
        assert_ne!(m.vaddr(a, 0), 0);
    }

    #[test]
    fn alloc_from_copies() {
        let mut m = HostMemory::new();
        let r = m.alloc_from(b"hello");
        assert_eq!(m.bytes(r), b"hello");
        m.bytes_mut(r)[0] = b'j';
        assert_eq!(m.read(r, 0, 5), b"jello");
    }
}
