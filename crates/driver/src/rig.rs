//! Standard simulated machine construction (the "testbed").
//!
//! Wires a [`Machine`] the way the BIOS of Table 3's testbed would:
//! bridges forwarding the MMIO hole, GPUs with programmed BARs and the
//! built-in crypto kernels plus any workload kernels the caller
//! supplies. [`standard_rig`] hangs one GPU off the root port;
//! [`fabric_rig`] puts N GPUs behind PCIe switches.

use hix_gpu::device::{GpuConfig, GpuDevice};
use hix_gpu::GpuKernel;
use hix_pcie::addr::{Bdf, PhysAddr};
use hix_pcie::config::{offsets, ConfigSpace};
use hix_pcie::fabric::Provenance;
use hix_platform::{Machine, MachineConfig};

/// Physical address the BIOS assigns to BAR0 (registers, 16 MiB).
pub const BAR0_PA: PhysAddr = PhysAddr::new(0xc000_0000);
/// Physical address of BAR1 (VRAM aperture, 256 MiB).
pub const BAR1_PA: PhysAddr = PhysAddr::new(0xd000_0000);
/// The GPU's bus/device/function.
pub const GPU_BDF: Bdf = Bdf {
    bus: 1,
    device: 0,
    function: 0,
};
/// The root port's BDF.
pub const PORT_BDF: Bdf = Bdf {
    bus: 0,
    device: 1,
    function: 0,
};

/// Options for [`standard_rig`] and [`fabric_rig`].
#[derive(Default)]
pub struct RigOptions {
    /// Machine configuration (cost model, boot seed).
    pub machine: MachineConfig,
    /// GPU configuration (VRAM size, synthetic mode, seed).
    pub gpu: GpuConfig,
    /// Extra kernels to install (workloads).
    pub kernels: Vec<Box<dyn GpuKernel>>,
}

impl std::fmt::Debug for RigOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RigOptions")
            .field("gpu", &self.gpu)
            .field("extra_kernels", &self.kernels.len())
            .finish()
    }
}

/// BIOS: installs a type-1 bridge at `bdf` with bus numbers `[primary,
/// secondary, subordinate]` and a window over the whole MMIO hole. Bus-0
/// bridges are IOH3420 root ports, as in the paper's QEMU setup; the
/// rest are PLX-style switch ports.
fn install_bridge(machine: &mut Machine, bdf: Bdf, [primary, secondary, subordinate]: [u8; 3]) {
    let (vendor, device) = if bdf.bus == 0 {
        (0x8086, 0x3420)
    } else {
        (0x10b5, 0x8747)
    };
    let mut cfg = ConfigSpace::bridge(vendor, device);
    let w = cfg.bridge_window_mut();
    (w.primary_bus, w.secondary_bus, w.subordinate_bus) = (primary, secondary, subordinate);
    w.window = Some(hix_platform::mem::layout::MMIO);
    machine
        .fabric_mut()
        .add_bridge(bdf, cfg)
        .expect("fresh, routable slot");
}

/// BIOS: attaches a GPU enumerated at boot (hence Hardware provenance)
/// at `bdf` with the crypto kernels and `kernels` installed, programs
/// BAR0 and, where given, the BAR1 VRAM aperture, and enables memory
/// decode.
fn install_gpu(
    machine: &mut Machine,
    bdf: Bdf,
    config: GpuConfig,
    kernels: Vec<Box<dyn GpuKernel>>,
    bar0: PhysAddr,
    bar1: Option<PhysAddr>,
) {
    let mut gpu = GpuDevice::new(
        config,
        machine.clock().clone(),
        machine.model().clone(),
        machine.trace().clone(),
    );
    hix_gpu::crypto_kernels::install(&mut gpu);
    for kernel in kernels {
        gpu.install_kernel(kernel);
    }
    machine
        .fabric_mut()
        .add_endpoint(bdf, Box::new(gpu), Provenance::Hardware)
        .expect("fresh slot");
    let unlocked = "no lockdown at boot";
    machine
        .config_write(bdf, offsets::BAR0, bar0.value() as u32)
        .expect(unlocked);
    if let Some(bar1) = bar1 {
        machine
            .config_write(bdf, offsets::BAR0 + 4, bar1.value() as u32)
            .expect(unlocked);
    }
    machine
        .config_write(bdf, offsets::COMMAND, 0b10)
        .expect(unlocked);
}

/// Builds the standard machine: root port at 00:01.0 forwarding the MMIO
/// hole to bus 1, the GPU at 01:00.0 with BIOS-programmed BARs, crypto
/// kernels installed, and the IOMMU left in identity-passthrough (the
/// common boot configuration; attacks re-program it).
pub fn standard_rig(options: RigOptions) -> Machine {
    let mut machine = Machine::new(options.machine);
    install_bridge(&mut machine, PORT_BDF, [0, 1, 1]);
    install_gpu(
        &mut machine,
        GPU_BDF,
        options.gpu,
        options.kernels,
        BAR0_PA,
        Some(BAR1_PA),
    );
    machine.iommu_mut().set_passthrough(true);
    machine
}

/// One GPU slot of a [`fabric_rig`] topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricGpu {
    /// The GPU's bus/device/function.
    pub bdf: Bdf,
    /// Physical address the BIOS programmed into BAR0.
    pub bar0: PhysAddr,
    /// Index of the switch this GPU sits behind.
    pub switch: usize,
    /// Seed of the GPU's (genuine) BIOS image — each GPU in the fabric
    /// carries its own, so per-GPU digest pinning is exercised.
    pub bios_seed: u64,
}

/// The wiring plan of a [`fabric_rig`] machine: where every GPU, switch
/// and bridge landed. Purely derived from `(n_gpus, switch_fanout)`, so
/// two rigs built with the same parameters agree bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricTopology {
    /// Per-GPU slots, in fabric order.
    pub gpus: Vec<FabricGpu>,
    /// Upstream-port BDFs of the switches, in switch order.
    pub switches: Vec<Bdf>,
    /// Every bridge with its `[primary, secondary, subordinate]` bus
    /// numbers, parents first: the root port, then each switch's
    /// upstream port followed by its downstream ports.
    pub bridges: Vec<(Bdf, [u8; 3])>,
}

impl FabricTopology {
    /// Computes the topology for `n_gpus` GPUs grouped `switch_fanout`
    /// to a switch, without building a machine. Bus numbers use a fixed
    /// stride per switch so a GPU's BDF depends only on its index and
    /// the fanout, never on the population of other groups.
    pub fn plan(n_gpus: usize, switch_fanout: usize, bios_seed_base: u64) -> FabricTopology {
        let n_gpus = n_gpus.max(1);
        let fanout = switch_fanout.max(1);
        let n_switches = n_gpus.div_ceil(fanout);
        // Per switch: one internal bus plus one bus per (potential) GPU
        // slot; bus 1 holds the upstream ports.
        let internal_bus = |s: usize| (2 + s * (fanout + 1)) as u8;
        let mut switches = Vec::with_capacity(n_switches);
        let mut bridges = vec![(PORT_BDF, [0, 1, internal_bus(n_switches) - 1])];
        for s in 0..n_switches {
            let (up, bus) = (Bdf::new(1, s as u8, 0), internal_bus(s));
            switches.push(up);
            bridges.push((up, [1, bus, bus + fanout as u8]));
            for j in 0..fanout as u8 {
                let gpu_bus = bus + 1 + j;
                bridges.push((Bdf::new(bus, j, 0), [bus, gpu_bus, gpu_bus]));
            }
        }
        let gpus = (0..n_gpus)
            .map(|i| FabricGpu {
                bdf: Bdf::new(internal_bus(i / fanout) + 1 + (i % fanout) as u8, 0, 0),
                bar0: PhysAddr::new(0xc000_0000 + (i as u64) * 0x0100_0000),
                switch: i / fanout,
                bios_seed: bios_seed_base.wrapping_add(i as u64),
            })
            .collect();
        FabricTopology {
            gpus,
            switches,
            bridges,
        }
    }
}

/// Builds an N-GPU machine for the enclave fabric: GPUs grouped
/// `switch_fanout` to a PLX-style switch, every switch behind one root
/// port. Each GPU carries its own BIOS (seed = base seed + index) and a
/// BIOS-programmed BAR0 at a distinct physical address (registers only:
/// the MMIO hole is sized for one VRAM aperture). Returns the machine
/// plus the topology plan the fabric layer verifies paths against. Only
/// the built-in crypto kernels are installed per GPU; workload kernels
/// in [`RigOptions::kernels`] are ignored here (they cannot be cloned
/// per device — fabric traffic drives the transfer/memset built-ins).
pub fn fabric_rig(
    options: RigOptions,
    n_gpus: usize,
    switch_fanout: usize,
) -> (Machine, FabricTopology) {
    let topology = FabricTopology::plan(n_gpus, switch_fanout, options.gpu.seed);
    let mut machine = Machine::new(options.machine);
    for &(bdf, buses) in &topology.bridges {
        install_bridge(&mut machine, bdf, buses);
    }
    for slot in &topology.gpus {
        let config = GpuConfig {
            seed: slot.bios_seed,
            ..options.gpu.clone()
        };
        install_gpu(&mut machine, slot.bdf, config, Vec::new(), slot.bar0, None);
    }
    machine.iommu_mut().set_passthrough(true);
    (machine, topology)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hix_gpu::regs::{bar0, GPU_MAGIC};
    use hix_pcie::config::BarIndex;

    #[test]
    fn rig_routes_gpu_mmio() {
        let machine = standard_rig(RigOptions::default());
        let (bdf, bar, off) = machine.fabric().route_mem(BAR0_PA).unwrap();
        assert_eq!(bdf, GPU_BDF);
        assert_eq!(bar, BarIndex(0));
        assert_eq!(off, 0);
        let (_, bar, _) = machine.fabric().route_mem(BAR1_PA).unwrap();
        assert_eq!(bar, BarIndex(1));
    }

    #[test]
    fn rig_gpu_answers_with_magic() {
        let mut machine = standard_rig(RigOptions::default());
        let mut buf = [0u8; 8];
        machine
            .fabric_mut()
            .mmio_read(BAR0_PA.offset(bar0::ID), &mut buf)
            .unwrap();
        assert_eq!(u64::from_le_bytes(buf), GPU_MAGIC);
    }

    #[test]
    fn fabric_rig_routes_every_gpu() {
        let (mut machine, topo) = fabric_rig(RigOptions::default(), 4, 2);
        assert_eq!(topo.gpus.len(), 4);
        assert_eq!(topo.switches.len(), 2);
        for (i, slot) in topo.gpus.iter().enumerate() {
            let (bdf, bar, off) = machine.fabric().route_mem(slot.bar0).unwrap();
            assert_eq!(bdf, slot.bdf, "gpu {i} BAR0 routes to its own slot");
            assert_eq!(bar, BarIndex(0));
            assert_eq!(off, 0);
            let mut buf = [0u8; 8];
            machine
                .fabric_mut()
                .mmio_read(slot.bar0.offset(bar0::ID), &mut buf)
                .unwrap();
            assert_eq!(u64::from_le_bytes(buf), GPU_MAGIC, "gpu {i} answers");
            assert_eq!(slot.switch, i / 2);
        }
        // Distinct BIOS per GPU: expansion ROMs must differ pairwise.
        let roms: Vec<Vec<u8>> = topo
            .gpus
            .iter()
            .map(|g| machine.fabric().read_expansion_rom(g.bdf, 0, 256).unwrap())
            .collect();
        for a in 0..roms.len() {
            for b in a + 1..roms.len() {
                assert_ne!(roms[a], roms[b], "gpu {a} and {b} share a BIOS");
            }
        }
        // The plan is pure: recomputing it matches what the rig built.
        assert_eq!(topo, FabricTopology::plan(4, 2, GpuConfig::default().seed));
    }

    #[test]
    fn testbeds_rebuild_the_pinned_config_space() {
        // Recorded from the builders before they shared one bridge and
        // one GPU installer: each GPU's routing-path digest, the BIOS's
        // config writes, and the virtual clock after the build.
        let check = |machine: &Machine, gpus: &[Bdf], want: &[&str], writes: u64| {
            assert_eq!(gpus.len(), want.len());
            for (&bdf, want) in gpus.iter().zip(want) {
                let snapshot = machine.fabric().path_routing_snapshot(bdf).unwrap();
                let digest = hix_crypto::sha256::digest(&snapshot);
                let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
                assert_eq!(hex, *want, "{bdf}");
            }
            assert_eq!(machine.trace().metrics().counter("pcie.cfg_writes"), writes);
            assert_eq!(machine.clock().now().as_nanos(), 0);
        };
        let standard = ["e2e909520b27993b34b477f9b14c949b07d71875933b4a30ab53f1435e821384"];
        check(
            &standard_rig(RigOptions::default()),
            &[GPU_BDF],
            &standard,
            3,
        );
        // (GPUs, fanout, each GPU's digest, config writes)
        let fabrics: [(usize, usize, &[&str], u64); 4] = [
            (
                1,
                1,
                &["255d7f9370b3dfe8b070e243adfea0e94d74e8ca553915bc990d1a42d2ee5b0a"],
                2,
            ),
            (
                2,
                1,
                &[
                    "1297facb3b1b90829c2fb605d95735eb59405531eb1c0a61226374c14cfa8749",
                    "faf767a3a235ad069b6082219474ec4f5f55ce8e08b4d28995ba91115c6f5308",
                ],
                4,
            ),
            (
                2,
                2,
                &[
                    "ed78ce2771549061ec111f6d6a5f9114bf2677873df98cf9fb725db573247c17",
                    "04eeeb92cee38e014dfa1758c35867e580a84a72b8748e108f0693a92404fcfd",
                ],
                4,
            ),
            (
                4,
                2,
                &[
                    "0e7acfad63f289875ade1e3da58bde21337f9324daf9191f39ee011e87f9be49",
                    "e8cc2c2ec65a221339f793ea0ef38ad047b62233bed47d9fc4c1784ec13a2fcc",
                    "37da1a028498247bf0366ffc24eea8a69493b5b451f948caea83afa353f03c8f",
                    "fc83511d3fe7d742b4e7eb012a549e2eb5ed1d9c88f7bb75ee08441128af42da",
                ],
                8,
            ),
        ];
        for (n_gpus, fanout, want, writes) in fabrics {
            let (machine, topo) = fabric_rig(RigOptions::default(), n_gpus, fanout);
            let gpus: Vec<Bdf> = topo.gpus.iter().map(|g| g.bdf).collect();
            check(&machine, &gpus, want, writes);
        }
    }

    #[test]
    fn rig_bios_measurable() {
        let machine = standard_rig(RigOptions::default());
        let rom = machine.fabric().read_expansion_rom(GPU_BDF, 0, 8).unwrap();
        assert_eq!(&rom, b"HIXBIOS1");
    }
}
