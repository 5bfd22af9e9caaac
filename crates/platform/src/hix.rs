//! The HIX hardware extensions: GECS, TGMR, `EGCREATE`, `EGADD` (§4.2).
//!
//! Like the SGX internal structures they are modeled after (SECS/EPCM),
//! the GECS and TGMR live in processor-reserved memory: no software path
//! in the simulator can read or write them — they are only manipulated by
//! the instruction handlers below and consulted by the page-table walker.

use std::collections::BTreeMap;
use std::fmt;

use hix_pcie::addr::{Bdf, PhysAddr, PhysRange};

use crate::mem::VirtAddr;
use crate::sgx::EnclaveId;

/// Errors from the HIX instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HixError {
    /// The device is already owned by a GPU enclave (alive or killed —
    /// ownership survives forced termination until cold boot, §4.2.3).
    AlreadyOwned(Bdf),
    /// The device was not enumerated as hardware at boot (emulated-GPU
    /// attack, Fig. 10 ⑥).
    NotHardware(Bdf),
    /// The calling enclave is not initialized.
    EnclaveNotReady(EnclaveId),
    /// The calling enclave does not own this GPU.
    NotOwner(EnclaveId),
    /// The physical address is outside the device's BARs.
    NotDeviceMmio(PhysAddr),
    /// The virtual or physical page is already registered.
    DuplicateRegistration,
    /// The enclave already owns another GPU (one GPU per GPU enclave).
    OwnerBusy(EnclaveId),
}

impl fmt::Display for HixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HixError::AlreadyOwned(bdf) => write!(f, "GPU {bdf} is already owned by a GPU enclave"),
            HixError::NotHardware(bdf) => {
                write!(f, "{bdf} is not a boot-enumerated hardware device")
            }
            HixError::EnclaveNotReady(id) => write!(f, "enclave {id:?} is not initialized"),
            HixError::NotOwner(id) => write!(f, "enclave {id:?} does not own this GPU"),
            HixError::NotDeviceMmio(pa) => write!(f, "{pa} is not inside the device's MMIO BARs"),
            HixError::DuplicateRegistration => {
                f.write_str("virtual or physical page already registered")
            }
            HixError::OwnerBusy(id) => write!(f, "enclave {id:?} already owns a GPU"),
        }
    }
}

impl std::error::Error for HixError {}

/// One GECS entry: which enclave owns which GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GecsEntry {
    /// The owning GPU enclave.
    pub enclave: EnclaveId,
    /// Whether the owner has been destroyed (ownership persists!).
    pub owner_dead: bool,
}

/// One TGMR entry: a validated (virtual page, MMIO page) pair for a GPU
/// enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TgmrEntry {
    /// The GPU enclave the mapping belongs to.
    pub enclave: EnclaveId,
    /// Virtual page base.
    pub va: VirtAddr,
    /// MMIO physical page base.
    pub pa: PhysAddr,
}

/// The HIX hardware state (GECS + TGMR tables).
#[derive(Debug, Default)]
pub struct HixState {
    gecs: BTreeMap<Bdf, GecsEntry>,
    tgmr: Vec<TgmrEntry>,
    /// BAR ranges of owned devices, cached for the walker's fast check.
    protected: Vec<(Bdf, PhysRange)>,
}

impl HixState {
    /// Empty state (cold boot).
    pub fn new() -> Self {
        HixState::default()
    }

    /// `EGCREATE` — registers `enclave` as the exclusive owner of the GPU
    /// at `bdf`. The caller (machine layer) supplies the hardware facts:
    /// whether the device was boot-enumerated and its BAR ranges.
    ///
    /// # Errors
    ///
    /// See [`HixError`] variants; notably a GPU whose owner was killed
    /// stays unownable until cold boot.
    pub fn egcreate(
        &mut self,
        enclave: EnclaveId,
        enclave_initialized: bool,
        bdf: Bdf,
        is_hardware: bool,
        bar_ranges: &[PhysRange],
    ) -> Result<(), HixError> {
        if !enclave_initialized {
            return Err(HixError::EnclaveNotReady(enclave));
        }
        if !is_hardware {
            return Err(HixError::NotHardware(bdf));
        }
        if self.gecs.contains_key(&bdf) {
            return Err(HixError::AlreadyOwned(bdf));
        }
        if self.gecs.values().any(|g| g.enclave == enclave) {
            return Err(HixError::OwnerBusy(enclave));
        }
        self.gecs.insert(
            bdf,
            GecsEntry {
                enclave,
                owner_dead: false,
            },
        );
        for r in bar_ranges {
            self.protected.push((bdf, *r));
        }
        Ok(())
    }

    /// `EGADD` — registers a `(va, pa)` page pair in the TGMR after
    /// validating that `pa` lies inside the owned device's BARs.
    ///
    /// # Errors
    ///
    /// See [`HixError`].
    pub fn egadd(
        &mut self,
        enclave: EnclaveId,
        bdf: Bdf,
        va: VirtAddr,
        pa: PhysAddr,
    ) -> Result<(), HixError> {
        let gecs = self.gecs.get(&bdf).ok_or(HixError::NotOwner(enclave))?;
        if gecs.enclave != enclave || gecs.owner_dead {
            return Err(HixError::NotOwner(enclave));
        }
        let in_bars = self
            .protected
            .iter()
            .any(|(b, r)| *b == bdf && r.contains(pa));
        if !in_bars {
            return Err(HixError::NotDeviceMmio(pa));
        }
        let va = VirtAddr::new(va.vpn() * crate::mem::PAGE_SIZE);
        let pa = PhysAddr::new(pa.value() & !(crate::mem::PAGE_SIZE - 1));
        if self
            .tgmr
            .iter()
            .any(|t| (t.enclave == enclave && t.va == va) || t.pa == pa)
        {
            return Err(HixError::DuplicateRegistration);
        }
        self.tgmr.push(TgmrEntry { enclave, va, pa });
        Ok(())
    }

    /// Marks the owner of `bdf` as dead without releasing ownership
    /// (forced termination, §4.2.3: the GPU stays locked until cold
    /// boot).
    pub fn owner_killed(&mut self, enclave: EnclaveId) {
        for gecs in self.gecs.values_mut() {
            if gecs.enclave == enclave {
                gecs.owner_dead = true;
            }
        }
    }

    /// Graceful release: clears the GECS entry and TGMR entries for
    /// `bdf`, returning the GPU to the OS (§4.2.3).
    ///
    /// # Errors
    ///
    /// Fails with [`HixError::NotOwner`] unless `enclave` is the live
    /// owner.
    pub fn release(&mut self, enclave: EnclaveId, bdf: Bdf) -> Result<(), HixError> {
        match self.gecs.get(&bdf) {
            Some(g) if g.enclave == enclave && !g.owner_dead => {
                self.gecs.remove(&bdf);
                self.tgmr.retain(|t| t.enclave != enclave);
                self.protected.retain(|(b, _)| *b != bdf);
                Ok(())
            }
            _ => Err(HixError::NotOwner(enclave)),
        }
    }

    /// Cold boot: every ownership record is cleared.
    pub fn cold_boot(&mut self) {
        self.gecs.clear();
        self.tgmr.clear();
        self.protected.clear();
    }

    /// The GECS entry for `bdf`.
    pub fn gecs(&self, bdf: Bdf) -> Option<&GecsEntry> {
        self.gecs.get(&bdf)
    }

    /// The device owned by `enclave`, if any.
    pub fn owned_device(&self, enclave: EnclaveId) -> Option<Bdf> {
        self.gecs
            .iter()
            .find(|(_, g)| g.enclave == enclave && !g.owner_dead)
            .map(|(bdf, _)| *bdf)
    }

    /// Number of TGMR entries (for tests/diagnostics).
    pub fn tgmr_len(&self) -> usize {
        self.tgmr.len()
    }

    /// The walker's HIX check for a candidate translation `(va -> pa)`
    /// by `accessor` (§4.3.1's four comparisons):
    ///
    /// 1. the accessor is the GPU enclave recorded in the GECS;
    /// 2. the virtual address is one the GPU enclave registered;
    /// 3. the virtual address matches the TGMR entry;
    /// 4. the physical address matches the TGMR entry.
    ///
    /// Addresses not covered by any protected BAR pass trivially.
    pub fn check_access(&self, accessor: Option<EnclaveId>, va: VirtAddr, pa: PhysAddr) -> bool {
        let va_page_of = va.vpn() * crate::mem::PAGE_SIZE;
        // Comparison (2): if the accessor is a GPU enclave and this
        // virtual page is one it registered, the translation must hit the
        // registered MMIO frame — an OS redirect of a trusted-MMIO VA to
        // attacker memory is refused at TLB fill.
        if let Some(id) = accessor {
            if let Some(entry) = self
                .tgmr
                .iter()
                .find(|t| t.enclave == id && t.va.value() == va_page_of)
            {
                let pa_page = pa.value() & !(crate::mem::PAGE_SIZE - 1);
                if entry.pa.value() != pa_page {
                    return false;
                }
            }
        }
        let Some((bdf, _)) = self.protected.iter().find(|(_, r)| r.contains(pa)) else {
            return true; // not protected MMIO
        };
        let gecs = &self.gecs[bdf];
        // (1) accessor must be the (live) owning GPU enclave.
        if gecs.owner_dead || accessor != Some(gecs.enclave) {
            return false;
        }
        // (2)-(4) exact (va, pa) pair must be registered.
        let va_page = va.vpn() * crate::mem::PAGE_SIZE;
        let pa_page = pa.value() & !(crate::mem::PAGE_SIZE - 1);
        self.tgmr.iter().any(|t| {
            t.enclave == gecs.enclave && t.va.value() == va_page && t.pa.value() == pa_page
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bdf() -> Bdf {
        Bdf::new(1, 0, 0)
    }

    fn bars() -> Vec<PhysRange> {
        vec![PhysRange::new(PhysAddr::new(0xc000_0000), 16 << 20)]
    }

    fn owned() -> (HixState, EnclaveId) {
        let mut h = HixState::new();
        let e = EnclaveId(7);
        h.egcreate(e, true, bdf(), true, &bars()).unwrap();
        (h, e)
    }

    #[test]
    fn egcreate_checks() {
        let mut h = HixState::new();
        let e = EnclaveId(1);
        assert_eq!(
            h.egcreate(e, false, bdf(), true, &bars()),
            Err(HixError::EnclaveNotReady(e))
        );
        assert_eq!(
            h.egcreate(e, true, bdf(), false, &bars()),
            Err(HixError::NotHardware(bdf()))
        );
        h.egcreate(e, true, bdf(), true, &bars()).unwrap();
        // Second enclave cannot take the same GPU.
        assert_eq!(
            h.egcreate(EnclaveId(2), true, bdf(), true, &bars()),
            Err(HixError::AlreadyOwned(bdf()))
        );
        // Same enclave cannot take a second GPU.
        assert_eq!(
            h.egcreate(e, true, Bdf::new(2, 0, 0), true, &bars()),
            Err(HixError::OwnerBusy(e))
        );
    }

    #[test]
    fn egadd_validates_ownership_and_range() {
        let (mut h, e) = owned();
        let va = VirtAddr::new(0x7000_0000);
        let mmio = PhysAddr::new(0xc000_2000);
        // Non-owner rejected.
        assert_eq!(
            h.egadd(EnclaveId(9), bdf(), va, mmio),
            Err(HixError::NotOwner(EnclaveId(9)))
        );
        // Outside BARs rejected.
        assert_eq!(
            h.egadd(e, bdf(), va, PhysAddr::new(0xd000_0000)),
            Err(HixError::NotDeviceMmio(PhysAddr::new(0xd000_0000)))
        );
        h.egadd(e, bdf(), va, mmio).unwrap();
        // Duplicate va or pa rejected.
        assert_eq!(
            h.egadd(e, bdf(), va, PhysAddr::new(0xc000_3000)),
            Err(HixError::DuplicateRegistration)
        );
        assert_eq!(
            h.egadd(e, bdf(), VirtAddr::new(0x7000_1000), mmio),
            Err(HixError::DuplicateRegistration)
        );
        assert_eq!(h.tgmr_len(), 1);
    }

    #[test]
    fn walker_check_four_comparisons() {
        let (mut h, e) = owned();
        let va = VirtAddr::new(0x7000_0000);
        let pa = PhysAddr::new(0xc000_2000);
        h.egadd(e, bdf(), va, pa).unwrap();
        // Registered owner + exact pair: allowed (any offset in page).
        assert!(h.check_access(Some(e), va.offset(0x10), pa.offset(0x10)));
        // (1) wrong accessor: denied.
        assert!(!h.check_access(None, va, pa));
        assert!(!h.check_access(Some(EnclaveId(9)), va, pa));
        // (3) wrong va: denied.
        assert!(!h.check_access(Some(e), VirtAddr::new(0x8000_0000), pa));
        // (4) wrong pa (same BAR, unregistered page): denied.
        assert!(!h.check_access(Some(e), va, PhysAddr::new(0xc000_3000)));
        // Unprotected MMIO: anyone may map it.
        assert!(h.check_access(None, va, PhysAddr::new(0xd000_0000)));
    }

    #[test]
    fn trusted_va_cannot_be_redirected_to_dram() {
        // Comparison (2): a registered trusted-MMIO virtual page must map
        // to its registered frame; pointing it at DRAM is refused.
        let (mut h, e) = owned();
        let va = VirtAddr::new(0x7000_0000);
        let pa = PhysAddr::new(0xc000_2000);
        h.egadd(e, bdf(), va, pa).unwrap();
        assert!(!h.check_access(Some(e), va, PhysAddr::new(0x20_0000)));
        // Other enclaves' unrelated DRAM mappings at that va are fine.
        assert!(h.check_access(Some(EnclaveId(99)), va, PhysAddr::new(0x20_0000)));
    }

    #[test]
    fn forced_kill_keeps_gpu_locked() {
        let (mut h, e) = owned();
        let va = VirtAddr::new(0x7000_0000);
        let pa = PhysAddr::new(0xc000_2000);
        h.egadd(e, bdf(), va, pa).unwrap();
        h.owner_killed(e);
        // Even the (dead) owner's translations are now refused.
        assert!(!h.check_access(Some(e), va, pa));
        // And the GPU cannot be re-owned...
        assert_eq!(
            h.egcreate(EnclaveId(8), true, bdf(), true, &bars()),
            Err(HixError::AlreadyOwned(bdf()))
        );
        // ...until cold boot.
        h.cold_boot();
        h.egcreate(EnclaveId(8), true, bdf(), true, &bars())
            .unwrap();
    }

    #[test]
    fn graceful_release_returns_gpu() {
        let (mut h, e) = owned();
        h.egadd(
            e,
            bdf(),
            VirtAddr::new(0x7000_0000),
            PhysAddr::new(0xc000_2000),
        )
        .unwrap();
        // Only the live owner may release.
        assert!(h.release(EnclaveId(9), bdf()).is_err());
        h.release(e, bdf()).unwrap();
        assert!(h.gecs(bdf()).is_none());
        assert_eq!(h.tgmr_len(), 0);
        // OS software can now map the (unprotected) MMIO again.
        assert!(h.check_access(None, VirtAddr::new(0x1000), PhysAddr::new(0xc000_2000)));
        // And a new enclave can own it.
        h.egcreate(EnclaveId(8), true, bdf(), true, &bars())
            .unwrap();
    }

    #[test]
    fn owned_device_lookup() {
        let (h, e) = owned();
        assert_eq!(h.owned_device(e), Some(bdf()));
        assert_eq!(h.owned_device(EnclaveId(9)), None);
    }
}
