//! Demand paging — the §5.6 future-work extension: managed GPU
//! allocations commit VRAM on first touch via recoverable page faults.
//! (The paper's prototype lacks this because Gdev does; we implement the
//! conventional-model-compatible subset: zero-fill on-demand commit.)

use hix_driver::driver::{os_map_bar0, os_map_bar1, DriverError, GpuDriver};
use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF};
use hix_driver::DmaBuffer;
use hix_gpu::cmd::GpuCommand;
use hix_gpu::vram::GPU_PAGE_SIZE;
use hix_platform::Machine;
use hix_sim::Payload;

fn setup() -> (Machine, GpuDriver) {
    let mut m = standard_rig(RigOptions::default());
    let pid = m.create_process();
    let bar0_va = os_map_bar0(&mut m, pid, GPU_BDF, 16);
    let bar1_va = os_map_bar1(&mut m, pid, GPU_BDF, 16);
    let driver = GpuDriver::attach(&mut m, pid, GPU_BDF, bar0_va, Some(bar1_va)).unwrap();
    (m, driver)
}

#[test]
fn managed_alloc_commits_on_dma_touch() {
    let (mut m, mut driver) = setup();
    let ctx = driver.create_ctx(&mut m).unwrap();
    let managed = driver
        .malloc_managed(&mut m, ctx, 3 * GPU_PAGE_SIZE)
        .unwrap();
    let pid = driver.pid();
    let data: Vec<u8> = (0..3 * GPU_PAGE_SIZE as u32)
        .map(|i| (i * 7) as u8)
        .collect();
    let buf = DmaBuffer::alloc(&mut m, pid, data.len() as u64);
    buf.write(&mut m, pid, 0, &Payload::from_bytes(data.clone()))
        .unwrap();
    // The DMA faults on the first (unmapped) page; sync_paged services
    // the fault and re-submits.
    let cmd = GpuCommand::DmaHtoD {
        ctx,
        bus: buf.bus(),
        va: managed,
        len: data.len() as u64,
    };
    driver.submit(&mut m, &cmd).unwrap();
    driver.sync_paged(&mut m, &cmd).unwrap();
    // Read back through a regular DMA (all pages now resident).
    let out = DmaBuffer::alloc(&mut m, pid, data.len() as u64);
    driver
        .dma_dtoh(&mut m, ctx, managed, &out, 0, data.len() as u64)
        .unwrap();
    driver.sync(&mut m).unwrap();
    assert_eq!(out.read(&mut m, pid, 0, data.len() as u64).unwrap(), data);
}

#[test]
fn managed_pages_read_zero_before_first_write() {
    let (mut m, mut driver) = setup();
    let ctx = driver.create_ctx(&mut m).unwrap();
    let managed = driver.malloc_managed(&mut m, ctx, GPU_PAGE_SIZE).unwrap();
    let pid = driver.pid();
    let out = DmaBuffer::alloc(&mut m, pid, 64);
    let cmd = GpuCommand::DmaDtoH {
        ctx,
        va: managed,
        bus: out.bus(),
        len: 64,
    };
    driver.submit(&mut m, &cmd).unwrap();
    driver.sync_paged(&mut m, &cmd).unwrap();
    assert_eq!(out.read(&mut m, pid, 0, 64).unwrap(), vec![0u8; 64]);
}

#[test]
fn wild_access_is_not_recoverable() {
    // A fault outside any managed allocation must surface as an error,
    // not be silently mapped.
    let (mut m, mut driver) = setup();
    let ctx = driver.create_ctx(&mut m).unwrap();
    let pid = driver.pid();
    let buf = DmaBuffer::alloc(&mut m, pid, 64);
    let cmd = GpuCommand::DmaHtoD {
        ctx,
        bus: buf.bus(),
        va: hix_gpu::vram::DevAddr(0xdead_0000),
        len: 64,
    };
    driver.submit(&mut m, &cmd).unwrap();
    let err = driver.sync_paged(&mut m, &cmd);
    assert!(
        matches!(err, Err(DriverError::BadAllocation(_))),
        "wild access must not be paged in: {err:?}"
    );
}

#[test]
fn faulting_kernel_launch_retries_to_completion() {
    use hix_gpu::kernel::kernel_hash;
    let (mut m, mut driver) = setup();
    let ctx = driver.create_ctx(&mut m).unwrap();
    // Input is a committed buffer; output is managed (the common ML
    // pattern: fresh output tensors).
    let input = driver.malloc(&mut m, ctx, 4096).unwrap();
    let output = driver.malloc_managed(&mut m, ctx, 4096 + 16).unwrap();
    driver.mmio_htod(&mut m, ctx, input, &[9u8; 64]).unwrap();
    driver.sync(&mut m).unwrap();
    // Use the built-in encrypt kernel as a stand-in compute kernel —
    // give the context a key first via the DH path.
    let group = hix_crypto::dh::DhGroup::sim();
    let mut rng = hix_crypto::drbg::HmacDrbg::new(b"dp");
    let a = group.generate(&mut rng);
    let b = group.generate(&mut rng);
    let g_ab = group.agree(&b, &a.public).unwrap();
    driver.dh_exp(&mut m, ctx, g_ab.as_bytes(), true).unwrap();
    let cmd = GpuCommand::Launch {
        ctx,
        kernel: kernel_hash(hix_gpu::crypto_kernels::ENCRYPT_KERNEL),
        args: vec![input.value(), 64, output.value(), 1],
    };
    driver.submit(&mut m, &cmd).unwrap();
    driver.sync_paged(&mut m, &cmd).unwrap();
    // The sealed output landed in the (now committed) managed buffer.
    let pid = driver.pid();
    let out = DmaBuffer::alloc(&mut m, pid, 80);
    driver.dma_dtoh(&mut m, ctx, output, &out, 0, 80).unwrap();
    driver.sync(&mut m).unwrap();
    let sealed = out.read(&mut m, pid, 0, 80).unwrap();
    assert_ne!(&sealed[..64], &[9u8; 64][..], "output is ciphertext");
}

#[test]
fn managed_free_reclaims_only_resident_pages() {
    let (mut m, mut driver) = setup();
    let ctx = driver.create_ctx(&mut m).unwrap();
    let managed = driver
        .malloc_managed(&mut m, ctx, 8 * GPU_PAGE_SIZE)
        .unwrap();
    // Touch only the first page.
    let pid = driver.pid();
    let buf = DmaBuffer::alloc(&mut m, pid, 16);
    let cmd = GpuCommand::DmaHtoD {
        ctx,
        bus: buf.bus(),
        va: managed,
        len: 16,
    };
    driver.submit(&mut m, &cmd).unwrap();
    driver.sync_paged(&mut m, &cmd).unwrap();
    // Freeing must not panic on the non-resident tail; it scrubs and
    // reclaims what exists.
    driver.free(&mut m, ctx, managed, true).unwrap();
}
