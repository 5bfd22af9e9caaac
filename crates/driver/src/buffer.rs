//! Pinned DMA-able host buffers.
//!
//! A `DmaBuffer` is contiguous in *bus* address space: physical frames
//! allocated by the OS, mapped into the owning process's address space
//! and into the IOMMU at consecutive bus pages. Both the baseline runtime
//! and HIX's inter-enclave shared memory use these.

use hix_pcie::addr::PhysAddr;
use hix_platform::mem::PAGE_SIZE;
use hix_platform::mmu::AccessFault;
use hix_platform::{Machine, ProcessId, VirtAddr};
use hix_sim::Payload;

/// A pinned, DMA-visible host buffer.
#[derive(Debug, Clone)]
pub struct DmaBuffer {
    pid: ProcessId,
    va: VirtAddr,
    bus: PhysAddr,
    len: u64,
}

impl DmaBuffer {
    /// Allocates a `len`-byte buffer for `pid`: physical frames, process
    /// mapping, and IOMMU entries at contiguous bus pages. VA and bus
    /// ranges come from [`Machine::reserve_dma_pages`], so they are never
    /// reused on one machine: a buffer built on a released buffer's
    /// recycled frames cannot overlap a live buffer's IOMMU entries or
    /// reuse a VA another process still has mapped or cached.
    pub fn alloc(machine: &mut Machine, pid: ProcessId, len: u64) -> Self {
        let pages = len.div_ceil(PAGE_SIZE).max(1);
        let frames = machine.alloc_frames(pages as usize);
        let first = machine.reserve_dma_pages(pages) * PAGE_SIZE;
        let va = VirtAddr::new(0x5000_0000_0000 + first);
        let bus = PhysAddr::new(0x10_0000_0000 + first);
        for (i, frame) in frames.iter().enumerate() {
            machine.os_map(pid, va.offset(i as u64 * PAGE_SIZE), *frame, true);
            machine
                .iommu_mut()
                .map(bus.offset(i as u64 * PAGE_SIZE), *frame);
        }
        DmaBuffer { pid, va, bus, len }
    }

    /// Maps the same buffer into another process (shared memory). The
    /// mapping is at the same virtual address for simplicity.
    pub fn share_with(&self, machine: &mut Machine, other: ProcessId) {
        let pages = self.len.div_ceil(PAGE_SIZE).max(1);
        for i in 0..pages {
            let va = self.va.offset(i * PAGE_SIZE);
            // Re-derive the frame from the owner's mapping via the bus
            // address (identity of construction).
            let frame = machine
                .iommu_mut()
                .translate(self.bus.offset(i * PAGE_SIZE))
                .expect("buffer is IOMMU-mapped");
            machine.os_map(other, va, frame, true);
        }
    }

    /// The buffer's bus address (what DMA descriptors use).
    pub fn bus(&self) -> PhysAddr {
        self.bus
    }

    /// The buffer's virtual address in the owning process.
    pub fn va(&self) -> VirtAddr {
        self.va
    }

    /// Capacity in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the buffer has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `payload` into the buffer as process `pid` (no-op for
    /// synthetic payloads — the time plane charges elsewhere).
    ///
    /// # Errors
    ///
    /// Propagates [`AccessFault`]; panics if the payload exceeds capacity.
    pub fn write(
        &self,
        machine: &mut Machine,
        pid: ProcessId,
        offset: u64,
        payload: &Payload,
    ) -> Result<(), AccessFault> {
        if payload.is_synthetic() {
            assert!(offset + payload.len() <= self.len, "payload exceeds buffer");
            return Ok(());
        }
        self.write_bytes(machine, pid, offset, payload.bytes())
    }

    /// Writes `data` into the buffer as process `pid`.
    ///
    /// # Errors
    ///
    /// Propagates [`AccessFault`]; panics if the data exceeds capacity.
    pub fn write_bytes(
        &self,
        machine: &mut Machine,
        pid: ProcessId,
        offset: u64,
        data: &[u8],
    ) -> Result<(), AccessFault> {
        assert!(offset + data.len() as u64 <= self.len, "payload exceeds buffer");
        machine.write(pid, self.va.offset(offset), data)
    }

    /// Reads `len` bytes from the buffer as process `pid`.
    ///
    /// # Errors
    ///
    /// Propagates [`AccessFault`]; panics if the span exceeds capacity.
    pub fn read(
        &self,
        machine: &mut Machine,
        pid: ProcessId,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, AccessFault> {
        let mut buf = vec![0u8; len as usize];
        self.read_into(machine, pid, offset, &mut buf)?;
        Ok(buf)
    }

    /// Fills `buf` from the buffer at `offset` as process `pid`.
    ///
    /// # Errors
    ///
    /// Propagates [`AccessFault`]; panics if the span exceeds capacity.
    pub fn read_into(
        &self,
        machine: &mut Machine,
        pid: ProcessId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), AccessFault> {
        assert!(offset + buf.len() as u64 <= self.len, "read exceeds buffer");
        machine.read(pid, self.va.offset(offset), buf)
    }

    /// The process that allocated the buffer.
    pub fn owner(&self) -> ProcessId {
        self.pid
    }

    /// Releases the buffer: IOMMU entries removed, the mapping torn down
    /// in the owner and every process it was shared with, frames
    /// returned to the OS allocator.
    pub fn release(self, machine: &mut Machine) {
        let pages = self.len.div_ceil(PAGE_SIZE).max(1);
        let mut frames = Vec::with_capacity(pages as usize);
        for i in 0..pages {
            let bus = self.bus.offset(i * PAGE_SIZE);
            if let Some(frame) = machine.iommu_mut().translate(bus) {
                frames.push(frame);
            }
            machine.iommu_mut().unmap(bus);
        }
        machine.os_unmap_shared(self.va, pages);
        machine.free_frames(&frames);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{standard_rig, RigOptions};

    #[test]
    fn alloc_write_read() {
        let mut m = standard_rig(RigOptions::default());
        let pid = m.create_process();
        let buf = DmaBuffer::alloc(&mut m, pid, 10_000);
        let payload = Payload::from_bytes((0..255u8).cycle().take(10_000).collect());
        buf.write(&mut m, pid, 0, &payload).unwrap();
        let back = buf.read(&mut m, pid, 0, 10_000).unwrap();
        assert_eq!(back, payload.bytes());
    }

    #[test]
    fn synthetic_write_is_noop() {
        let mut m = standard_rig(RigOptions::default());
        let pid = m.create_process();
        let buf = DmaBuffer::alloc(&mut m, pid, 4096);
        buf.write(&mut m, pid, 0, &Payload::synthetic(4096)).unwrap();
        let back = buf.read(&mut m, pid, 0, 16).unwrap();
        assert_eq!(back, vec![0u8; 16]);
    }

    #[test]
    fn shared_mapping_sees_same_bytes() {
        let mut m = standard_rig(RigOptions::default());
        let a = m.create_process();
        let b = m.create_process();
        let buf = DmaBuffer::alloc(&mut m, a, 4096);
        buf.share_with(&mut m, b);
        buf.write(&mut m, a, 10, &Payload::from_bytes(b"shared".to_vec()))
            .unwrap();
        let back = buf.read(&mut m, b, 10, 6).unwrap();
        assert_eq!(back, b"shared");
        // Releasing the buffer unmaps it from every process sharing it.
        let va = buf.va();
        buf.release(&mut m);
        for pid in [a, b] {
            assert!(matches!(m.read(pid, va, &mut [0u8; 1]), Err(AccessFault::NotMapped(_))));
        }
    }

    #[test]
    fn distinct_buffers_do_not_overlap() {
        let mut m = standard_rig(RigOptions::default());
        let pid = m.create_process();
        let b1 = DmaBuffer::alloc(&mut m, pid, 8192);
        let b2 = DmaBuffer::alloc(&mut m, pid, 8192);
        assert_ne!(b1.bus(), b2.bus());
        b1.write(&mut m, pid, 0, &Payload::from_bytes(vec![1; 8192])).unwrap();
        b2.write(&mut m, pid, 0, &Payload::from_bytes(vec![2; 8192])).unwrap();
        assert_eq!(b1.read(&mut m, pid, 0, 1).unwrap(), vec![1]);
        assert_eq!(b2.read(&mut m, pid, 0, 1).unwrap(), vec![2]);

        // Releasing b1 recycles its frames; a larger buffer built on them
        // must not claim b2's bus pages or virtual range.
        let frames_of = |m: &mut Machine, b: &DmaBuffer| -> Vec<Option<PhysAddr>> {
            (0..b.len() / PAGE_SIZE)
                .map(|i| m.iommu_mut().translate(b.bus().offset(i * PAGE_SIZE)))
                .collect()
        };
        let b2_frames = frames_of(&mut m, &b2);
        b1.release(&mut m);
        let b3 = DmaBuffer::alloc(&mut m, pid, 64 << 10);
        b3.write(&mut m, pid, 0, &Payload::from_bytes(vec![3; 64 << 10])).unwrap();
        assert_eq!(frames_of(&mut m, &b2), b2_frames, "b2's bus pages were remapped");
        assert_eq!(b2.read(&mut m, pid, 0, 8192).unwrap(), vec![2; 8192]);
        assert_eq!(b3.read(&mut m, pid, 0, 1).unwrap(), vec![3]);
    }
}
