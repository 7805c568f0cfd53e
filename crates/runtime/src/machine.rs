//! The simulated machine: GPU(s) + host + interconnect, bundled.

use bk_gpu::{DeviceSpec, GpuMemory};
use bk_host::{CpuSpec, HostMemory, PcieLink};

/// Maximum simulated device count: a machine cap, not a naming cap (per-
/// device track and metric names are interned on demand by
/// [`bk_obs::names`]). [`Machine::replicate_gpus`] and
/// [`crate::graph::Executor::new`] enforce it.
pub const MAX_DEVICES: usize = 8;

/// One CPU/GPU system. All implementations (BigKernel, the GPU baselines,
/// the CPU baselines) run against the same `Machine` so that functional
/// state (mapped arrays, device buffers) and the cost model are shared.
///
/// `devices` holds one [`DeviceSpec`] per simulated GPU; multi-GPU machines
/// are homogeneous (built by [`Machine::replicate_gpus`]). Device memory is
/// modelled as one unified `gmem` image shared by all devices (a UVA-style
/// simplification: functional state is common; *timing* is what the
/// chunk-sharding scheduler splits per device — see DESIGN.md §10).
pub struct Machine {
    /// One spec per simulated GPU (homogeneous).
    pub devices: Vec<DeviceSpec>,
    /// The host CPU's cost model.
    pub cpu: CpuSpec,
    /// The CPU-GPU interconnect.
    pub link: PcieLink,
    /// Unified functional device memory shared by all devices.
    pub gmem: GpuMemory,
    /// Host memory (mapped regions live here).
    pub hmem: HostMemory,
}

impl Machine {
    /// A single-GPU machine from its three component specs.
    pub fn new(gpu: DeviceSpec, cpu: CpuSpec, link: PcieLink) -> Self {
        let gmem = GpuMemory::new(&gpu);
        Machine {
            devices: vec![gpu],
            cpu,
            link,
            gmem,
            hmem: HostMemory::new(),
        }
    }

    /// The primary device (device 0). Cost-model code paths that are
    /// per-chunk rather than per-device use this spec; multi-GPU machines
    /// are homogeneous, so any device's spec would give the same costs.
    pub fn gpu(&self) -> &DeviceSpec {
        &self.devices[0]
    }

    /// Number of simulated GPUs.
    pub fn num_gpus(&self) -> usize {
        self.devices.len()
    }

    /// Make this a homogeneous `n`-GPU machine by replicating device 0's
    /// spec. Panics if `n` is zero or exceeds [`MAX_DEVICES`].
    pub fn replicate_gpus(&mut self, n: usize) {
        assert!(n >= 1, "need at least one device");
        assert!(n <= MAX_DEVICES, "at most {MAX_DEVICES} simulated devices");
        let gpu = self.devices[0].clone();
        self.devices = vec![gpu; n];
    }

    /// The paper's evaluation platform: GTX 680 + Xeon E5 quad + PCIe3 x16.
    pub fn paper_platform() -> Self {
        Self::new(
            DeviceSpec::gtx680(),
            CpuSpec::xeon_e5_quad(),
            PcieLink::gen3_x16(),
        )
    }

    /// A small platform for fast unit tests.
    pub fn test_platform() -> Self {
        Self::new(
            DeviceSpec::test_tiny(),
            CpuSpec::xeon_e5_quad(),
            PcieLink::gen3_x16(),
        )
    }

    /// The paper platform with a Tesla-class GPU (two DMA engines) — used
    /// by the copy-engine ablation.
    pub fn tesla_platform() -> Self {
        Self::new(
            DeviceSpec::tesla_like(),
            CpuSpec::xeon_e5_quad(),
            PcieLink::gen3_x16(),
        )
    }

    /// Look up a platform preset by CLI name (`--machine` in the bench
    /// binaries). `None` for an unknown name.
    pub fn preset(name: &str) -> Option<fn() -> Machine> {
        match name {
            "gtx680" => Some(Machine::paper_platform),
            "tesla-like" => Some(Machine::tesla_platform),
            "test-tiny" => Some(Machine::test_platform),
            _ => None,
        }
    }

    /// Names accepted by [`Machine::preset`], for CLI help/error text.
    pub const PRESET_NAMES: [&'static str; 3] = ["gtx680", "tesla-like", "test-tiny"];

    /// Scale the platform's *fixed* per-operation latencies (DMA setup,
    /// flag signalling) by `factor`, flooring at 10 ns.
    ///
    /// Rationale: experiments run on datasets hundreds of times smaller
    /// than the paper's 4.5–6.4 GB; all bandwidth terms shrink
    /// proportionally but fixed per-transfer costs do not, so unscaled they
    /// would dominate and distort every shape. Scaling them by the same
    /// data ratio preserves the paper-scale balance (see DESIGN.md §8).
    pub fn scale_fixed_costs(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0, 1]"
        );
        let floor = bk_simcore::SimTime::from_nanos(10.0);
        self.link.latency = (self.link.latency * factor).max(floor);
        self.link.flag_latency = (self.link.flag_latency * factor).max(floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_matches_spec() {
        let m = Machine::paper_platform();
        assert_eq!(m.gpu().total_cores(), 1536);
        assert_eq!(m.cpu.cores, 4);
        assert_eq!(m.gmem.used(), 0);
        assert_eq!(m.num_gpus(), 1);
    }

    #[test]
    fn machines_are_independent() {
        let mut a = Machine::test_platform();
        let b = Machine::test_platform();
        a.gmem.alloc(1024);
        assert_eq!(a.gmem.used(), 1024);
        assert_eq!(b.gmem.used(), 0);
    }

    #[test]
    fn replicate_gpus_makes_homogeneous_devices() {
        let mut m = Machine::paper_platform();
        m.replicate_gpus(4);
        assert_eq!(m.num_gpus(), 4);
        for d in &m.devices {
            assert_eq!(d.name, m.gpu().name);
            assert_eq!(d.num_sms, m.devices[0].num_sms);
        }
        m.replicate_gpus(1);
        assert_eq!(m.num_gpus(), 1);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn replicate_beyond_cap_rejected() {
        Machine::test_platform().replicate_gpus(MAX_DEVICES + 1);
    }

    #[test]
    fn presets_resolve_by_name() {
        for name in Machine::PRESET_NAMES {
            assert!(Machine::preset(name).is_some(), "{name}");
        }
        assert_eq!(
            Machine::preset("tesla-like").unwrap()().gpu().copy_engines,
            2
        );
        assert!(Machine::preset("unknown").is_none());
    }
}

#[cfg(test)]
mod scaling_tests {
    use super::*;
    use bk_simcore::SimTime;

    #[test]
    fn fixed_cost_scaling_shrinks_latencies() {
        let mut m = Machine::paper_platform();
        let before = m.link.latency;
        m.scale_fixed_costs(0.01);
        assert!((m.link.latency.secs() - before.secs() * 0.01).abs() < 1e-12);
        assert!(m.link.flag_latency < SimTime::from_micros(1.0));
    }

    #[test]
    fn fixed_cost_scaling_floors_at_10ns() {
        let mut m = Machine::paper_platform();
        m.scale_fixed_costs(1e-4); // 8us * 1e-4 = 0.8ns < floor
        assert!((m.link.latency.nanos() - 10.0).abs() < 1e-9);
        assert!((m.link.flag_latency.nanos() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn unit_scale_is_identity() {
        let mut m = Machine::paper_platform();
        let before = m.link.latency;
        m.scale_fixed_costs(1.0);
        assert_eq!(m.link.latency, before);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn zero_scale_rejected() {
        Machine::paper_platform().scale_fixed_costs(0.0);
    }
}
