//! PCIe link and DMA engine cost model.
//!
//! The paper's machine connects the GTX 680 over PCIe Gen3 x16: 15.75 GB/s
//! theoretical, "difficult to exploit in practice" (§I). We model the link as
//! full-duplex bandwidth + per-transfer latency, and the GeForce-class single
//! copy engine as one pipeline resource shared by host-to-device and
//! device-to-host DMA. Two details the paper leans on:
//!
//! * the DMA engine requires **pinned** host memory (the assembly stage's
//!   prefetch buffers live in [`crate::arena::PinnedArena`]);
//! * transfers complete **in order**, which is what lets BigKernel signal
//!   kernel threads by queueing a flag copy right after the data copy
//!   (§IV.C) — modelled as one extra small transfer.

use bk_simcore::{Bandwidth, SimTime};

/// Transfer direction over the link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DmaDirection {
    HostToDevice,
    DeviceToHost,
}

/// The PCIe link + copy-engine cost model.
#[derive(Clone, Debug)]
pub struct PcieLink {
    /// Achievable DMA bandwidth host→device.
    pub bw_h2d: Bandwidth,
    /// Achievable DMA bandwidth device→host.
    pub bw_d2h: Bandwidth,
    /// Achievable bandwidth of GPU-thread stores directly into pinned host
    /// memory (zero-copy writes, used by the address-generation stage).
    /// Considerably lower than DMA bandwidth on real hardware.
    pub bw_zero_copy: Bandwidth,
    /// Per-DMA-transfer setup latency (driver + engine kickoff).
    pub latency: SimTime,
    /// Cost of the flag-copy completion signal (a minimal transfer).
    pub flag_latency: SimTime,
}

impl PcieLink {
    /// The paper's PCIe Gen3 x16 link. 15.75 GB/s theoretical; ~12 GB/s is a
    /// typical achievable pinned-memory DMA rate; zero-copy writes reach
    /// roughly half of that.
    pub fn gen3_x16() -> Self {
        PcieLink {
            bw_h2d: Bandwidth::gb_per_sec(12.0),
            bw_d2h: Bandwidth::gb_per_sec(12.0),
            bw_zero_copy: Bandwidth::gb_per_sec(6.0),
            latency: SimTime::from_micros(8.0),
            flag_latency: SimTime::from_micros(2.0),
        }
    }

    /// PCIe Gen2 x16 (8 GB/s theoretical, ~6 GB/s achievable) — the
    /// previous-generation link many of the paper's contemporaries used.
    pub fn gen2_x16() -> Self {
        PcieLink {
            bw_h2d: Bandwidth::gb_per_sec(6.0),
            bw_d2h: Bandwidth::gb_per_sec(6.0),
            bw_zero_copy: Bandwidth::gb_per_sec(3.0),
            latency: SimTime::from_micros(10.0),
            flag_latency: SimTime::from_micros(2.5),
        }
    }

    /// PCIe Gen1 x16 (~3 GB/s achievable): the starved end of the spectrum.
    pub fn gen1_x16() -> Self {
        PcieLink {
            bw_h2d: Bandwidth::gb_per_sec(3.0),
            bw_d2h: Bandwidth::gb_per_sec(3.0),
            bw_zero_copy: Bandwidth::gb_per_sec(1.5),
            latency: SimTime::from_micros(12.0),
            flag_latency: SimTime::from_micros(3.0),
        }
    }

    /// An NVLink-class interconnect (~40 GB/s effective): the hypothetical
    /// future where the paper's PCIe bottleneck is mostly gone.
    pub fn nvlink_class() -> Self {
        PcieLink {
            bw_h2d: Bandwidth::gb_per_sec(40.0),
            bw_d2h: Bandwidth::gb_per_sec(40.0),
            bw_zero_copy: Bandwidth::gb_per_sec(20.0),
            latency: SimTime::from_micros(2.0),
            flag_latency: SimTime::from_micros(0.5),
        }
    }

    /// DMA transfer time for `bytes` in `dir` (latency + bandwidth), without
    /// the completion flag.
    pub fn dma_time(&self, dir: DmaDirection, bytes: u64) -> SimTime {
        let bw = match dir {
            DmaDirection::HostToDevice => self.bw_h2d,
            DmaDirection::DeviceToHost => self.bw_d2h,
        };
        if bytes == 0 {
            return SimTime::ZERO;
        }
        self.latency + bw.transfer_time(bytes)
    }

    /// DMA transfer followed by the in-order flag copy that signals the
    /// waiting kernel threads (paper §IV.C).
    pub fn dma_time_with_flag(&self, dir: DmaDirection, bytes: u64) -> SimTime {
        self.dma_time(dir, bytes) + self.flag_latency
    }

    /// Time for GPU threads to store `bytes` directly into pinned host
    /// memory (the address-buffer writes of pipeline stage 1).
    pub fn zero_copy_write_time(&self, bytes: u64) -> SimTime {
        self.bw_zero_copy.transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_transfer_is_bandwidth_dominated() {
        let l = PcieLink::gen3_x16();
        let t = l.dma_time(DmaDirection::HostToDevice, 12_000_000_000);
        assert!((t.secs() - 1.0).abs() < 0.01, "{t}");
    }

    #[test]
    fn small_transfer_is_latency_dominated() {
        let l = PcieLink::gen3_x16();
        let t = l.dma_time(DmaDirection::DeviceToHost, 64);
        assert!(t >= l.latency);
        assert!(t.secs() < l.latency.secs() * 1.01);
    }

    #[test]
    fn zero_bytes_is_free() {
        let l = PcieLink::gen3_x16();
        assert_eq!(l.dma_time(DmaDirection::HostToDevice, 0), SimTime::ZERO);
    }

    #[test]
    fn flag_adds_fixed_cost() {
        let l = PcieLink::gen3_x16();
        let without = l.dma_time(DmaDirection::HostToDevice, 1 << 20);
        let with = l.dma_time_with_flag(DmaDirection::HostToDevice, 1 << 20);
        assert_eq!(with, without + l.flag_latency);
    }

    #[test]
    fn generations_are_ordered() {
        let g1 = PcieLink::gen1_x16();
        let g2 = PcieLink::gen2_x16();
        let g3 = PcieLink::gen3_x16();
        let nv = PcieLink::nvlink_class();
        let t = |l: &PcieLink| l.dma_time(DmaDirection::HostToDevice, 1 << 30);
        assert!(t(&g1) > t(&g2));
        assert!(t(&g2) > t(&g3));
        assert!(t(&g3) > t(&nv));
    }

    #[test]
    fn zero_copy_slower_than_dma() {
        let l = PcieLink::gen3_x16();
        let bytes = 100 << 20;
        assert!(
            l.zero_copy_write_time(bytes)
                > l.dma_time(DmaDirection::DeviceToHost, bytes)
                    .saturating_sub(l.latency)
        );
    }
}
