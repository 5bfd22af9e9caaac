//! # hix-attacks — the privileged adversary, as executable scenarios
//!
//! Every attack from the paper's threat analysis (§5.5, Fig. 10 ①–⑥)
//! implemented against the simulated platform. Each scenario exercises a
//! *real* adversary capability (the `Os`-level methods of
//! [`hix_platform::Machine`]) and reports a [`Verdict`]: whether HIX's
//! defense held and what stopped the attack.
//!
//! The scenarios double as the enforcement tests behind Table 2's TCB
//! matrix and as the data source for the `fig10_attacks` harness.

#![warn(missing_docs)]

use hix_core::{GpuEnclave, GpuEnclaveOptions, HixCoreError, HixSession};
use hix_driver::driver::{os_map_bar0, GpuDriver};
use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF, PORT_BDF};
use hix_gpu::device::{GpuConfig, GpuDevice};
use hix_gpu::regs::bar0;
use hix_pcie::addr::{Bdf, PhysAddr};
use hix_pcie::config::{offsets, BarIndex};
use hix_pcie::fabric::{PcieError, Provenance};
use hix_platform::hix::HixError;
use hix_platform::mem::PAGE_SIZE;
use hix_platform::mmu::AccessFault;
use hix_platform::{Machine, VirtAddr};
use hix_sim::Payload;

/// Outcome of running an attack scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The attack was stopped; names the mechanism that stopped it.
    Blocked {
        /// The defense that fired (e.g. "TGMR walker check").
        mechanism: &'static str,
    },
    /// The attack succeeded — a security regression.
    Breached {
        /// What the adversary obtained.
        detail: String,
    },
}

impl Verdict {
    /// Whether the defense held.
    pub fn held(&self) -> bool {
        matches!(self, Verdict::Blocked { .. })
    }
}

/// A named scenario result for the Fig. 10 harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioReport {
    /// Fig. 10 label (①–⑥ mapped to 1-6, 0 for extras).
    pub figure_point: u8,
    /// Scenario name.
    pub name: &'static str,
    /// What the adversary attempted.
    pub attack: &'static str,
    /// The verdict.
    pub verdict: Verdict,
}

fn rig_with_enclave() -> (Machine, GpuEnclave) {
    let mut machine = standard_rig(RigOptions::default());
    let enclave = GpuEnclave::launch(&mut machine, GpuEnclaveOptions::default())
        .expect("enclave launches on a clean rig");
    (machine, enclave)
}

/// Fig. 10 ① — the adversary snoops and tampers with the inter-enclave
/// shared memory while a transfer is staged.
pub fn shared_memory_snoop_and_tamper() -> ScenarioReport {
    let (mut m, mut enclave) = rig_with_enclave();
    let mut s = HixSession::connect(&mut m, &mut enclave).expect("session");
    let dev = s.malloc(&mut m, &mut enclave, 8192).expect("malloc");
    let secret = b"FOUR-SCORE-AND-SEVEN-SECRETS".repeat(64);
    s.memcpy_htod(
        &mut m,
        &mut enclave,
        dev,
        &Payload::from_bytes(secret.clone()),
    )
    .expect("transfer");
    // Snoop: dump all physical frames an adversary could reach. The
    // secret must not appear anywhere outside the EPC and the GPU.
    let mut found = false;
    let needle = &secret[..24];
    for frame in 0x0..0x4000u64 {
        let pa = PhysAddr::new(0x1_000_000 + frame * PAGE_SIZE);
        if !hix_platform::mem::Ram::contains(pa) {
            break;
        }
        let mut page = vec![0u8; PAGE_SIZE as usize];
        m.os_read_phys(pa, &mut page);
        if page.windows(needle.len()).any(|w| w == needle) {
            found = true;
            break;
        }
    }
    if found {
        return ScenarioReport {
            figure_point: 1,
            name: "shared-memory snoop",
            attack: "dump all DRAM the OS can address",
            verdict: Verdict::Breached {
                detail: "plaintext found in unprotected DRAM".into(),
            },
        };
    }
    ScenarioReport {
        figure_point: 1,
        name: "shared-memory snoop",
        attack: "dump all DRAM the OS can address",
        verdict: Verdict::Blocked {
            mechanism: "OCB-AES sealing (only ciphertext leaves the enclaves)",
        },
    }
}

/// Fig. 10 ② — forcibly kill the GPU enclave and try to take over the
/// GPU with a fresh (attacker-controlled) GPU enclave.
pub fn kill_and_reclaim_gpu() -> ScenarioReport {
    let (mut m, enclave) = rig_with_enclave();
    m.kill_process(enclave.pid());
    // The dead owner's GECS entry must still lock the GPU.
    let second = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default());
    let still_locked = matches!(second, Err(HixCoreError::Hix(HixError::AlreadyOwned(_))));
    // Even the OS cannot touch the MMIO.
    let attacker = m.create_process();
    let va = os_map_bar0(&mut m, attacker, GPU_BDF, 1);
    let os_denied = matches!(
        m.read(attacker, va, &mut [0u8; 8]),
        Err(AccessFault::TgmrDenied(_))
    );
    // Only a cold boot releases the device (§4.2.3).
    m.cold_boot();
    let after_boot = GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).is_ok();
    if still_locked && os_denied && after_boot {
        ScenarioReport {
            figure_point: 2,
            name: "enclave kill & reclaim",
            attack: "kill the GPU enclave, start an impostor",
            verdict: Verdict::Blocked {
                mechanism: "GECS ownership persists past owner death until cold boot",
            },
        }
    } else {
        ScenarioReport {
            figure_point: 2,
            name: "enclave kill & reclaim",
            attack: "kill the GPU enclave, start an impostor",
            verdict: Verdict::Breached {
                detail: format!(
                    "locked={still_locked} os_denied={os_denied} after_boot={after_boot}"
                ),
            },
        }
    }
}

/// Fig. 10 ③ — MMIO address-translation attacks: map the GPU registers
/// into an attacker process, and remap the GPU enclave's own trusted
/// MMIO pages to attacker memory.
pub fn mmio_translation_attacks() -> ScenarioReport {
    let (mut m, enclave) = rig_with_enclave();
    // (a) Foreign mapping of the MMIO.
    let attacker = m.create_process();
    let va = os_map_bar0(&mut m, attacker, GPU_BDF, 1);
    let foreign_denied = matches!(
        m.read(attacker, va, &mut [0u8; 8]),
        Err(AccessFault::TgmrDenied(_))
    );
    let write_denied = matches!(
        m.write(attacker, va.offset(bar0::DOORBELL), &[1u8; 8]),
        Err(AccessFault::TgmrDenied(_))
    );
    // (b) PTE tamper: redirect the enclave's trusted MMIO va to a DRAM
    // frame the attacker controls, hoping the enclave writes commands
    // into attacker memory.
    let trusted_va = VirtAddr::new(0x7000_0000_0000);
    let evil_frame = m.alloc_frames(1)[0];
    m.os_map(enclave.pid(), trusted_va, evil_frame, true);
    m.flush_tlb(enclave.pid());
    let pte_denied = matches!(
        m.read(enclave.pid(), trusted_va, &mut [0u8; 8]),
        Err(AccessFault::TgmrDenied(_))
    );
    let verdict = if foreign_denied && write_denied && pte_denied {
        Verdict::Blocked {
            mechanism: "TGMR walker validation (§4.3.1's four checks)",
        }
    } else {
        Verdict::Breached {
            detail: format!("foreign={foreign_denied} write={write_denied} pte={pte_denied}"),
        }
    };
    ScenarioReport {
        figure_point: 3,
        name: "MMIO translation attack",
        attack: "foreign MMIO mapping + enclave PTE redirection",
        verdict,
    }
}

/// Fig. 10 ④ — PCIe routing attacks after lockdown: BAR rewrite, bridge
/// window rewrite, bus renumbering, BAR sizing probe.
pub fn pcie_routing_attacks() -> ScenarioReport {
    let (mut m, enclave) = rig_with_enclave();
    let bar = m.config_write(GPU_BDF, offsets::BAR0, 0xdead_0000);
    let window = m.config_write(PORT_BDF, offsets::MEMORY_WINDOW, 0);
    let buses = m.config_write(PORT_BDF, offsets::BUS_NUMBERS, 0x0005_0400);
    let sizing = m.config_write(GPU_BDF, offsets::BAR0, u32::MAX);
    let decode = m.config_write(GPU_BDF, offsets::COMMAND, 0);
    let all_locked = [bar, window, buses, sizing, decode]
        .iter()
        .all(|r| matches!(r, Err(PcieError::LockedDown(_))));
    // The routing path still measures identically.
    let path_ok = enclave.verify_path(&m);
    let verdict = if all_locked && path_ok {
        Verdict::Blocked {
            mechanism: "root-complex MMIO lockdown discards routing writes",
        }
    } else {
        Verdict::Breached {
            detail: format!("locked={all_locked} path_ok={path_ok}"),
        }
    };
    ScenarioReport {
        figure_point: 4,
        name: "PCIe routing attack",
        attack: "rewrite BARs / windows / bus numbers after lockdown",
        verdict,
    }
}

/// Fig. 10 ⑤ — DMA attacks: redirect the IOMMU so the GPU pulls
/// attacker-substituted data instead of the user's sealed chunks.
pub fn dma_redirection_attack() -> ScenarioReport {
    let (mut m, mut enclave) = rig_with_enclave();
    let mut s = HixSession::connect(&mut m, &mut enclave).expect("session");
    let dev = s.malloc(&mut m, &mut enclave, 8192).expect("malloc");
    // Learn the shared buffer's bus pages and remap the bulk area to an
    // attacker frame full of chosen data.
    let bus = s.shared_bus();
    let evil = m.alloc_frames(1)[0];
    m.os_write_phys(evil, &[0x41u8; PAGE_SIZE as usize]);
    let bulk_page = bus.offset(hix_core::channel::BULK_OFFSET);
    m.iommu_mut()
        .map(PhysAddr::new(bulk_page.value() & !(PAGE_SIZE - 1)), evil);
    let result = s.memcpy_htod(
        &mut m,
        &mut enclave,
        dev,
        &Payload::from_bytes(vec![7u8; 4096]),
    );
    let verdict = match result {
        Err(HixCoreError::IntegrityFailure) => Verdict::Blocked {
            mechanism: "in-GPU OCB tag verification aborts on substituted DMA data",
        },
        Ok(()) => Verdict::Breached {
            detail: "substituted data was accepted".into(),
        },
        Err(other) => Verdict::Blocked {
            mechanism: {
                let _ = other;
                "transfer aborted before data use"
            },
        },
    };
    ScenarioReport {
        figure_point: 5,
        name: "DMA redirection",
        attack: "IOMMU remap substitutes attacker data mid-transfer",
        verdict,
    }
}

/// Fig. 10 ⑥ — GPU emulation: the adversary hot-adds a software GPU and
/// tries to get a GPU enclave to bind to it (stealing keys and data).
pub fn emulated_gpu_attack() -> ScenarioReport {
    let mut m = standard_rig(RigOptions::default());
    // The adversary surfaces an emulated GPU at a free slot.
    let fake_bdf = Bdf::new(1, 1, 0);
    let fake = GpuDevice::new(
        GpuConfig::default(),
        m.clock().clone(),
        m.model().clone(),
        m.trace().clone(),
    );
    m.fabric_mut()
        .add_endpoint(fake_bdf, Box::new(fake), Provenance::Emulated)
        .expect("slot free");
    let result = GpuEnclave::launch(
        &mut m,
        GpuEnclaveOptions {
            bdf: fake_bdf,
            ..Default::default()
        },
    );
    let verdict = match result {
        Err(HixCoreError::Hix(HixError::NotHardware(_))) => Verdict::Blocked {
            mechanism: "EGCREATE verifies boot-enumerated hardware provenance",
        },
        Ok(_) => Verdict::Breached {
            detail: "enclave bound to an emulated GPU".into(),
        },
        Err(e) => Verdict::Breached {
            detail: format!("unexpected failure mode: {e}"),
        },
    };
    ScenarioReport {
        figure_point: 6,
        name: "emulated GPU",
        attack: "hot-add a software GPU and bind the enclave to it",
        verdict,
    }
}

/// Extra: the baseline's memory-leak behavior vs HIX's scrubbing (§4.5,
/// and the CUDA-leaks literature the paper cites).
pub fn residual_memory_leak() -> ScenarioReport {
    // Baseline: allocate, write, free without scrub, re-allocate in a
    // second context — the stale data is visible (the known leak).
    let mut m = standard_rig(RigOptions::default());
    let pid = m.create_process();
    let bar0_va = os_map_bar0(&mut m, pid, GPU_BDF, 16);
    let mut driver = GpuDriver::attach(&mut m, pid, GPU_BDF, bar0_va, None).expect("attach");
    let victim_ctx = driver.create_ctx(&mut m).expect("ctx");
    let a = driver.malloc(&mut m, victim_ctx, 4096).expect("malloc");
    // Write through DMA.
    let buf = hix_driver::DmaBuffer::alloc(&mut m, pid, 4096);
    buf.write(&mut m, pid, 0, &Payload::from_bytes(vec![0xEE; 4096]))
        .expect("host write");
    driver
        .dma_htod(&mut m, victim_ctx, a, &buf, 0, 4096)
        .expect("dma");
    driver.sync(&mut m).expect("sync");
    driver
        .free(&mut m, victim_ctx, a, false)
        .expect("free unscrubbed");
    let b = driver.malloc(&mut m, victim_ctx, 4096).expect("remalloc");
    let out = hix_driver::DmaBuffer::alloc(&mut m, pid, 4096);
    driver
        .dma_dtoh(&mut m, victim_ctx, b, &out, 0, 4096)
        .expect("dma out");
    driver.sync(&mut m).expect("sync");
    let leaked = out.read(&mut m, pid, 0, 16).expect("read")[0] == 0xEE;

    // HIX path: scrub-on-free means re-allocation reads zero.
    let scrubbed = {
        let c = driver.malloc(&mut m, victim_ctx, 4096).expect("malloc");
        driver
            .dma_htod(&mut m, victim_ctx, c, &buf, 0, 4096)
            .expect("dma");
        driver.sync(&mut m).expect("sync");
        driver
            .free(&mut m, victim_ctx, c, true)
            .expect("scrubbed free");
        let d = driver.malloc(&mut m, victim_ctx, 4096).expect("remalloc");
        driver
            .dma_dtoh(&mut m, victim_ctx, d, &out, 0, 4096)
            .expect("dma out");
        driver.sync(&mut m).expect("sync");
        out.read(&mut m, pid, 0, 16)
            .expect("read")
            .iter()
            .all(|&x| x == 0)
    };
    let verdict = if leaked && scrubbed {
        Verdict::Blocked {
            mechanism: "HIX runtime scrubs deallocated GPU memory (baseline demonstrably leaks)",
        }
    } else {
        Verdict::Breached {
            detail: format!("baseline_leaks={leaked} hix_scrubs={scrubbed}"),
        }
    };
    ScenarioReport {
        figure_point: 0,
        name: "residual VRAM leak",
        attack: "re-allocate freed GPU memory and read the residue",
        verdict,
    }
}

/// Extra: replay an old sealed bulk chunk into a newer transfer (the
/// freshness property of §5.5's incrementing nonces, applied to the data
/// stream rather than the message queue).
pub fn bulk_replay_attack() -> ScenarioReport {
    let (mut m, mut enclave) = rig_with_enclave();
    let mut s = HixSession::connect(&mut m, &mut enclave).expect("session");
    let dev = s.malloc(&mut m, &mut enclave, 4096).expect("malloc");
    // Transfer 1 completes normally; the adversary snapshots the sealed
    // chunk from the bulk area.
    s.memcpy_htod(
        &mut m,
        &mut enclave,
        dev,
        &Payload::from_bytes(vec![0x11; 4096]),
    )
    .expect("first transfer");
    let bulk_bus = s.shared_bus().offset(hix_core::channel::BULK_OFFSET);
    let pa = m
        .iommu_mut()
        .translate(PhysAddr::new(bulk_bus.value() & !(PAGE_SIZE - 1)))
        .expect("mapped")
        .offset(bulk_bus.value() % PAGE_SIZE);
    let mut snapshot = vec![0u8; 4096 + 16];
    m.os_read_phys(pa, &mut snapshot);
    // Transfer 2: after the user stages fresh sealed data but before the
    // GPU enclave consumes it, the adversary splices the old chunk back.
    // We emulate the race by corrupting after staging, using the manual
    // request path.
    use hix_core::protocol::Request;
    let dev2 = s.malloc(&mut m, &mut enclave, 4096).expect("malloc");
    // Stage transfer 2's data through the normal API pieces: seal with
    // nonce 1 (the session's next counter), then replay the old bytes.
    let chunk = m.model().pipeline_chunk;
    let req = Request::MemcpyHtoD {
        dst: dev2,
        len: 4096,
        chunk,
        nonce_start: 1,
    };
    m.os_write_phys(pa, &snapshot); // the replayed (nonce-0) chunk
    let send = s.send_raw_request_for_test(&mut m, &req.encode());
    assert!(send.is_ok());
    let verdict = match enclave.poll(&mut m, s.id()) {
        Err(HixCoreError::IntegrityFailure) => Verdict::Blocked {
            mechanism:
                "per-chunk counter nonces: a replayed chunk fails its tag under the new nonce",
        },
        Ok(_) => Verdict::Breached {
            detail: "stale data accepted into a fresh transfer".into(),
        },
        Err(e) => Verdict::Breached {
            detail: format!("unexpected failure mode: {e}"),
        },
    };
    ScenarioReport {
        figure_point: 0,
        name: "bulk-data replay",
        attack: "splice a previous transfer's sealed chunk into a new one",
        verdict,
    }
}

/// Reliability extra: the bulk-replay attack repeated `n` times
/// mid-stream while a fault plan batters the channel between rounds.
/// Every round must be detected and aborted, every aborted session's
/// GPU context and staging VRAM must be reclaimed at the next admission
/// (no resource creep across aborts), and the healthy transfer opening
/// each round must complete despite the active faults.
pub fn repeated_bulk_replay_under_faults(n: u32) -> ScenarioReport {
    use hix_core::protocol::Request;
    use hix_sim::fault::{FaultConfig, FaultPlan};
    let (mut m, mut enclave) = rig_with_enclave();
    let mut failures: Vec<String> = Vec::new();
    for round in 0..n {
        // Background noise for the legitimate traffic of this round.
        m.set_fault_plan(FaultPlan::new(
            0x00A7_7AC4 + round as u64,
            FaultConfig::light(),
        ));
        let mut s = match HixSession::connect(&mut m, &mut enclave) {
            Ok(s) => s,
            Err(e) => {
                failures.push(format!("round {round}: connect failed: {e}"));
                break;
            }
        };
        let dev = s.malloc(&mut m, &mut enclave, 4096).expect("malloc");
        s.memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(vec![round as u8; 4096]),
        )
        .expect("transfer under faults");
        let bulk_bus = s.shared_bus().offset(hix_core::channel::BULK_OFFSET);
        let pa = m
            .iommu_mut()
            .translate(PhysAddr::new(bulk_bus.value() & !(PAGE_SIZE - 1)))
            .expect("mapped")
            .offset(bulk_bus.value() % PAGE_SIZE);
        let mut snapshot = vec![0u8; 4096 + 16];
        m.os_read_phys(pa, &mut snapshot);
        // Precision phase: the replay splice itself runs without
        // background faults so the verdict is about the replay, not the
        // weather.
        m.clear_fault_plan();
        let dev2 = s.malloc(&mut m, &mut enclave, 4096).expect("malloc");
        let chunk = m.model().pipeline_chunk;
        let req = Request::MemcpyHtoD {
            dst: dev2,
            len: 4096,
            chunk,
            nonce_start: 1,
        };
        m.os_write_phys(pa, &snapshot);
        s.send_raw_request_for_test(&mut m, &req.encode())
            .expect("raw send");
        match enclave.poll(&mut m, s.id()) {
            Err(HixCoreError::IntegrityFailure) => {}
            Ok(_) => failures.push(format!("round {round}: stale data accepted")),
            Err(e) => failures.push(format!("round {round}: unexpected failure mode: {e}")),
        }
        // The aborted session is abandoned without close; the next
        // round's admission must reap it.
    }
    m.clear_fault_plan();
    // Only the final aborted session may still await reaping.
    if enclave.session_count() > 1 {
        failures.push(format!(
            "aborted sessions leak: {} still held",
            enclave.session_count()
        ));
    }
    let reaped = m.trace().metrics().counter("enclave.sessions_reaped");
    if n > 1 && reaped < u64::from(n) - 1 {
        failures.push(format!("expected ≥{} reaps, saw {reaped}", n - 1));
    }
    let verdict = if failures.is_empty() {
        Verdict::Blocked {
            mechanism:
                "per-chunk nonces detect every replay; aborted sessions are reaped on re-admission",
        }
    } else {
        Verdict::Breached {
            detail: failures.join("; "),
        }
    };
    ScenarioReport {
        figure_point: 0,
        name: "repeated bulk replay under faults",
        attack: "splice stale sealed chunks into successive sessions on a faulty wire",
        verdict,
    }
}

/// How much of VRAM [`vram_holds`] reads: the low 64 MiB, where the
/// bump allocator places every buffer.
const PROBE_BYTES: u64 = 64 << 20;
/// The probe's BAR1 read size.
const PROBE_READ: usize = 1 << 20;

/// Whether `needle` occurs anywhere in the low 64 MiB (`PROBE_BYTES`) of VRAM,
/// read through BAR1 straight off the device model — the bus-analyzer
/// probe that works regardless of MMIO lockdown.
pub fn vram_holds(m: &mut Machine, needle: &[u8]) -> bool {
    let dev = m.device_mut(GPU_BDF).expect("gpu present");
    let mut saved_aperture = [0u8; 8];
    dev.mmio_read(BarIndex(0), bar0::APERTURE, &mut saved_aperture);
    dev.mmio_write(BarIndex(0), bar0::APERTURE, &0u64.to_le_bytes());
    // Each read lands behind the previous read's last `needle.len() - 1`
    // bytes, so a secret straddling two reads is still seen whole.
    let carry = needle.len() - 1;
    let mut window = vec![0u8; carry + PROBE_READ];
    let found = (0..PROBE_BYTES).step_by(PROBE_READ).any(|offset| {
        window.copy_within(PROBE_READ.., 0);
        dev.mmio_read(BarIndex(1), offset, &mut window[carry..]);
        contains(
            if offset == 0 {
                &window[carry..]
            } else {
                &window
            },
            needle,
        )
    });
    dev.mmio_write(BarIndex(0), bar0::APERTURE, &saved_aperture);
    found
}

/// Substring search that looks at every `needle.len()`-th byte only:
/// any occurrence covers exactly one of those positions, so trying the
/// needle's offsets of that byte finds it.
fn contains(hay: &[u8], needle: &[u8]) -> bool {
    let mut in_needle = [false; 256];
    for &b in needle {
        in_needle[usize::from(b)] = true;
    }
    let mut p = 0;
    while p < hay.len() {
        if in_needle[usize::from(hay[p])]
            && needle.iter().enumerate().any(|(j, &b)| {
                b == hay[p] && p >= j && hay.get(p - j..p - j + needle.len()) == Some(needle)
            })
        {
            return true;
        }
        p += needle.len();
    }
    false
}

/// Watchdog extra: a secret planted in a victim session's VRAM must be
/// unrecoverable after a secure TDR reset, while the Gdev baseline's
/// TDR recovery (context teardown with unscrubbed frees) demonstrably
/// leaks the same plant to the next allocation.
pub fn tdr_reset_scrub() -> ScenarioReport {
    use hix_sim::fault::{FaultConfig, FaultPlan};
    let needle = b"TDR-RESIDUE-A5A5-SENTINEL";
    let secret: Vec<u8> = needle.iter().copied().cycle().take(4096).collect();
    let report = |verdict| ScenarioReport {
        figure_point: 0,
        name: "TDR reset scrub",
        attack: "wedge the GPU, then scan VRAM for a victim's secret after the reset",
        verdict,
    };

    // Gdev baseline: plant, then recover from the "hang" the Gdev way —
    // tear down and rebuild the context. Its frees are unscrubbed, so
    // the frame pool hands the secret to the next allocation.
    let mut m = standard_rig(RigOptions::default());
    let pid = m.create_process();
    let bar0_va = os_map_bar0(&mut m, pid, GPU_BDF, 16);
    let mut driver = GpuDriver::attach(&mut m, pid, GPU_BDF, bar0_va, None).expect("attach");
    let ctx = driver.create_ctx(&mut m).expect("ctx");
    let planted = driver.malloc(&mut m, ctx, 4096).expect("malloc");
    let buf = hix_driver::DmaBuffer::alloc(&mut m, pid, 4096);
    buf.write(&mut m, pid, 0, &Payload::from_bytes(secret.clone()))
        .expect("host write");
    driver
        .dma_htod(&mut m, ctx, planted, &buf, 0, 4096)
        .expect("dma in");
    driver.sync(&mut m).expect("sync");
    driver.free(&mut m, ctx, planted, false).expect("gdev free");
    driver.destroy_ctx(&mut m, ctx).expect("teardown");
    let ctx2 = driver.create_ctx(&mut m).expect("rebuilt ctx");
    let reused = driver.malloc(&mut m, ctx2, 4096).expect("remalloc");
    let out = hix_driver::DmaBuffer::alloc(&mut m, pid, 4096);
    driver
        .dma_dtoh(&mut m, ctx2, reused, &out, 0, 4096)
        .expect("dma out");
    driver.sync(&mut m).expect("sync");
    let residue = out.read(&mut m, pid, 0, 4096).expect("read");
    let baseline_leaks = residue
        .windows(needle.len())
        .any(|w| w == needle.as_slice());

    // Secure stack: victim session A plants the secret, offender B
    // wedges the device until the watchdog's secure resets (and, at the
    // cap, B's eviction) have scrubbed all of VRAM. A stays idle across
    // the incident, so nothing legitimately re-uploads its data.
    let (mut m, mut enclave) = rig_with_enclave();
    let mut victim = HixSession::connect(&mut m, &mut enclave).expect("victim session");
    let dev = victim.malloc(&mut m, &mut enclave, 4096).expect("malloc");
    victim
        .memcpy_htod(
            &mut m,
            &mut enclave,
            dev,
            &Payload::from_bytes(secret.clone()),
        )
        .expect("plant");
    if !vram_holds(&mut m, needle) {
        return report(Verdict::Breached {
            detail: "probe failed to see the plant before the reset".into(),
        });
    }
    let mut offender = HixSession::connect(&mut m, &mut enclave).expect("offender session");
    let src = offender.malloc(&mut m, &mut enclave, 4096).expect("malloc");
    let dst = offender.malloc(&mut m, &mut enclave, 4096).expect("malloc");
    m.set_fault_plan(FaultPlan::new(
        0x7D12,
        FaultConfig {
            gpu_hang_pm: 1000,
            gpu_wedge_pm: 1000,
            ..FaultConfig::none()
        },
    ));
    let outcome = offender.memcpy_dtod(&mut m, &mut enclave, src, dst, 4096);
    m.clear_fault_plan();
    if !matches!(outcome, Err(HixCoreError::Evicted)) {
        return report(Verdict::Breached {
            detail: format!("offender not evicted, got {outcome:?}"),
        });
    }
    if m.trace().metrics().counter("watchdog.resets") == 0 {
        return report(Verdict::Breached {
            detail: "no secure reset happened".into(),
        });
    }
    if vram_holds(&mut m, needle) {
        return report(Verdict::Breached {
            detail: "victim secret survived the secure TDR reset".into(),
        });
    }
    // The victim's next use transparently rebuilds and replays — the
    // secret returns only inside the re-established session.
    let back = victim
        .memcpy_dtoh(&mut m, &mut enclave, dev, 4096)
        .expect("victim recovers");
    if back.bytes() != secret.as_slice() {
        return report(Verdict::Breached {
            detail: "victim data lost across the reset".into(),
        });
    }
    if !baseline_leaks {
        return report(Verdict::Breached {
            detail: "Gdev baseline failed to demonstrate the leak (probe broken?)".into(),
        });
    }
    report(Verdict::Blocked {
        mechanism: "secure reset scrubs VRAM before re-use (Gdev TDR demonstrably leaks the plant)",
    })
}

/// Reliability extra: kill-and-reclaim repeated `n` times across cold
/// boots — the GECS lockdown must re-arm identically every cycle, with
/// no state bleeding from the previous owner's death.
pub fn repeated_kill_and_reclaim(n: u32) -> ScenarioReport {
    let mut m = standard_rig(RigOptions::default());
    let mut failures: Vec<String> = Vec::new();
    for round in 0..n {
        let enclave = match GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()) {
            Ok(e) => e,
            Err(e) => {
                failures.push(format!("round {round}: relaunch after boot failed: {e}"));
                break;
            }
        };
        m.kill_process(enclave.pid());
        match GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()) {
            Err(HixCoreError::Hix(HixError::AlreadyOwned(_))) => {}
            Ok(_) => failures.push(format!("round {round}: impostor took the GPU")),
            Err(e) => failures.push(format!("round {round}: wrong refusal: {e}")),
        }
        m.cold_boot();
    }
    let verdict = if failures.is_empty() {
        Verdict::Blocked {
            mechanism: "GECS ownership survives owner death and re-arms after every cold boot",
        }
    } else {
        Verdict::Breached {
            detail: failures.join("; "),
        }
    };
    ScenarioReport {
        figure_point: 2,
        name: "repeated kill & reclaim",
        attack: "cycle kill/impostor/cold-boot to find lockdown state that fails to re-arm",
        verdict,
    }
}

/// Runs every scenario (the Fig. 10 sweep).
pub fn run_all() -> Vec<ScenarioReport> {
    vec![
        shared_memory_snoop_and_tamper(),
        kill_and_reclaim_gpu(),
        mmio_translation_attacks(),
        pcie_routing_attacks(),
        dma_redirection_attack(),
        emulated_gpu_attack(),
        residual_memory_leak(),
        bulk_replay_attack(),
        tdr_reset_scrub(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_point1_shared_memory() {
        assert!(shared_memory_snoop_and_tamper().verdict.held());
    }

    #[test]
    fn fig10_point2_termination() {
        assert!(kill_and_reclaim_gpu().verdict.held());
    }

    #[test]
    fn fig10_point3_mmio_translation() {
        assert!(mmio_translation_attacks().verdict.held());
    }

    #[test]
    fn fig10_point4_pcie_routing() {
        assert!(pcie_routing_attacks().verdict.held());
    }

    #[test]
    fn fig10_point5_dma() {
        assert!(dma_redirection_attack().verdict.held());
    }

    #[test]
    fn fig10_point6_emulated_gpu() {
        assert!(emulated_gpu_attack().verdict.held());
    }

    #[test]
    fn residual_leak_contrast() {
        assert!(residual_memory_leak().verdict.held());
    }

    #[test]
    fn bulk_replay_rejected() {
        assert!(bulk_replay_attack().verdict.held());
    }

    #[test]
    fn repeated_replay_rounds_all_detected_and_reaped() {
        let r = repeated_bulk_replay_under_faults(3);
        assert!(r.verdict.held(), "{:?}", r.verdict);
    }

    #[test]
    fn tdr_reset_scrub_differential() {
        let r = tdr_reset_scrub();
        assert!(r.verdict.held(), "{:?}", r.verdict);
    }

    #[test]
    fn repeated_kill_cycles_all_blocked() {
        let r = repeated_kill_and_reclaim(3);
        assert!(r.verdict.held(), "{:?}", r.verdict);
    }

    /// What the probe tests look for.
    const NEEDLE: &[u8] = b"TDR-SOAK-RESIDUE-SENTINEL";

    #[test]
    fn stride_search_matches_the_naive_scan() {
        let mut rng = hix_testkit::Rng::new(0x5EA2C4);
        let alphabet = b"TDR-SOAK\0";
        for _ in 0..4000 {
            let len = rng.gen_range_usize(0..160);
            let mut hay: Vec<u8> = (0..len)
                .map(|_| alphabet[rng.gen_range_usize(0..alphabet.len())])
                .collect();
            if len >= NEEDLE.len() && rng.u32().is_multiple_of(2) {
                let at = rng.gen_range_usize(0..len - NEEDLE.len() + 1);
                hay[at..at + NEEDLE.len()].copy_from_slice(NEEDLE);
            }
            let naive = hay.windows(NEEDLE.len()).any(|w| w == NEEDLE);
            assert_eq!(contains(&hay, NEEDLE), naive, "{hay:?}");
        }
    }

    #[test]
    fn probe_sees_a_secret_anywhere_in_the_low_64_mib() {
        let len = NEEDLE.len() as u64;
        let read = PROBE_READ as u64;
        for (at, seen) in [
            (0, true),
            (read - 10, true),
            (read * 5 - len, true),
            (PROBE_BYTES - len, true),
            (PROBE_BYTES - 10, false),
        ] {
            let mut m = standard_rig(RigOptions::default());
            let dev = m.device_mut(GPU_BDF).expect("gpu present");
            dev.mmio_write(BarIndex(1), at, NEEDLE);
            assert_eq!(vram_holds(&mut m, NEEDLE), seen, "secret at {at:#x}");
        }
    }

    #[test]
    fn all_defenses_hold() {
        for report in run_all() {
            assert!(
                report.verdict.held(),
                "{} breached: {:?}",
                report.name,
                report.verdict
            );
        }
    }
}
