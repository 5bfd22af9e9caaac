//! The SGX architectural model: EPC, EPCM, enclaves, measurement, and
//! local attestation.
//!
//! Modeled at the level HIX depends on (§2.1): the EPC is a carve-out of
//! DRAM whose pages are tracked in the EPCM; `ECREATE`/`EADD`/`EINIT`
//! build a measured enclave; the hardware denies EPC accesses that do not
//! come from the owning enclave at the registered virtual address; and
//! `EREPORT`/report-key verification provide local attestation.
//!
//! Deliberate simplifications (documented in DESIGN.md): memory
//! encryption (MEE) is not byte-simulated — the EPC access-control rules
//! make plaintext unreachable in the model, which is the property HIX
//! builds on; reads that real SGX would turn into abort-page semantics
//! are hard faults here (strictly safer).

use std::collections::BTreeMap;
use std::fmt;

use hix_crypto::hmac::HmacSha256;
use hix_crypto::sha256::Sha256;
use hix_pcie::addr::PhysAddr;

use crate::mem::{Ram, VirtAddr, PAGE_SIZE};

/// Identifies an enclave instance. IDs are never reused within a boot,
/// which is what makes the GPU-enclave termination protection of §4.2.3
/// sound (a re-created enclave cannot impersonate the dead owner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnclaveId(pub u64);

/// An enclave measurement (MRENCLAVE).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement(pub [u8; 32]);

impl fmt::Debug for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Measurement(")?;
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

/// Errors from SGX instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SgxError {
    /// Unknown enclave id.
    NoSuchEnclave(EnclaveId),
    /// The enclave is already initialized (no further `EADD`).
    AlreadyInitialized(EnclaveId),
    /// The enclave is not yet initialized (cannot enter / report).
    NotInitialized(EnclaveId),
    /// The enclave has been destroyed.
    Dead(EnclaveId),
    /// The virtual page is already part of the enclave.
    PageExists(VirtAddr),
}

impl fmt::Display for SgxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SgxError::NoSuchEnclave(id) => write!(f, "no such enclave {id:?}"),
            SgxError::AlreadyInitialized(id) => write!(f, "enclave {id:?} already initialized"),
            SgxError::NotInitialized(id) => write!(f, "enclave {id:?} not initialized"),
            SgxError::Dead(id) => write!(f, "enclave {id:?} is dead"),
            SgxError::PageExists(va) => write!(f, "page {va} already added"),
        }
    }
}

impl std::error::Error for SgxError {}

/// One EPCM entry: ownership and expected mapping of an EPC page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpcmEntry {
    /// Owning enclave.
    pub enclave: EnclaveId,
    /// The linear address the page was added at.
    pub va: VirtAddr,
    /// Write permission.
    pub writable: bool,
}

/// SECS — per-enclave control structure.
#[derive(Debug)]
pub struct Secs {
    id: EnclaveId,
    hasher: Option<Sha256>,
    mrenclave: Option<Measurement>,
    pages: BTreeMap<u64, u64>, // vpn -> ppn
    alive: bool,
}

impl Secs {
    /// The enclave's id.
    pub fn id(&self) -> EnclaveId {
        self.id
    }

    /// The enclave's measurement, once initialized.
    pub fn mrenclave(&self) -> Option<Measurement> {
        self.mrenclave
    }

    /// Whether `EINIT` has run.
    pub fn initialized(&self) -> bool {
        self.mrenclave.is_some()
    }

    /// Whether the enclave is still alive.
    pub fn alive(&self) -> bool {
        self.alive
    }

    /// The EPC frame backing the enclave page at `va`, if any.
    pub fn page_frame(&self, va: VirtAddr) -> Option<PhysAddr> {
        self.pages
            .get(&va.vpn())
            .map(|ppn| PhysAddr::new(ppn * PAGE_SIZE))
    }

    /// Whether `va` lies inside the enclave's measured pages (ELRANGE
    /// membership in this model).
    pub fn owns_va(&self, va: VirtAddr) -> bool {
        self.pages.contains_key(&va.vpn())
    }
}

/// A remote-attestation quote (modeled EPID/DCAP signature over a
/// report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// Measurement of the quoted enclave.
    pub mrenclave: Measurement,
    /// Caller-chosen data bound into the quote.
    pub report_data: Vec<u8>,
    signature: [u8; 32],
}

impl Quote {
    /// Verifies the quote with the platform's provisioning key (obtained
    /// out of band, standing in for the attestation service) and checks
    /// the enclave identity against `expected`.
    pub fn verify(&self, provisioning_key: &[u8; 32], expected: &Measurement) -> bool {
        if self.mrenclave != *expected {
            return false;
        }
        let mut mac = HmacSha256::new(provisioning_key);
        mac.update(b"quote");
        mac.update(&self.mrenclave.0);
        mac.update(&(self.report_data.len() as u64).to_le_bytes());
        mac.update(&self.report_data);
        hix_crypto::ct_eq(&mac.finish(), &self.signature)
    }
}

/// A local-attestation report (`EREPORT` output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Measurement of the reporting enclave.
    pub mrenclave: Measurement,
    /// 64 bytes of caller-chosen data (DH public values travel here).
    pub report_data: Vec<u8>,
    /// MAC over the report, keyed for the target enclave.
    mac: [u8; 32],
}

/// The SGX hardware state of a machine.
pub struct SgxState {
    enclaves: BTreeMap<EnclaveId, Secs>,
    epcm: BTreeMap<u64, EpcmEntry>, // ppn -> entry
    machine_secret: [u8; 32],
    next_id: u64,
}

impl fmt::Debug for SgxState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SgxState")
            .field("enclaves", &self.enclaves.len())
            .field("epc_pages", &self.epcm.len())
            .finish()
    }
}

impl SgxState {
    /// Fresh SGX state with a per-boot machine secret.
    pub fn new(boot_seed: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(b"hix-machine-secret");
        h.update(boot_seed);
        SgxState {
            enclaves: BTreeMap::new(),
            epcm: BTreeMap::new(),
            machine_secret: h.finish(),
            next_id: 1,
        }
    }

    /// `ECREATE` — allocates a SECS, returning the new enclave id.
    pub fn ecreate(&mut self) -> EnclaveId {
        let id = EnclaveId(self.next_id);
        self.next_id += 1;
        let mut hasher = Sha256::new();
        hasher.update(b"ECREATE");
        self.enclaves.insert(
            id,
            Secs {
                id,
                hasher: Some(hasher),
                mrenclave: None,
                pages: BTreeMap::new(),
                alive: true,
            },
        );
        id
    }

    /// `EADD` — copies a page into a fresh EPC frame at linear address
    /// `va`, records the EPCM entry, and extends the measurement.
    ///
    /// # Errors
    ///
    /// Fails if the enclave is unknown, dead, initialized, or already has
    /// the page.
    pub fn eadd(
        &mut self,
        ram: &mut Ram,
        enclave: EnclaveId,
        va: VirtAddr,
        data: &[u8],
        writable: bool,
    ) -> Result<PhysAddr, SgxError> {
        assert!(
            data.len() as u64 <= PAGE_SIZE,
            "EADD takes at most one page"
        );
        let secs = self
            .enclaves
            .get_mut(&enclave)
            .ok_or(SgxError::NoSuchEnclave(enclave))?;
        if !secs.alive {
            return Err(SgxError::Dead(enclave));
        }
        if secs.initialized() {
            return Err(SgxError::AlreadyInitialized(enclave));
        }
        if secs.pages.contains_key(&va.vpn()) {
            return Err(SgxError::PageExists(va));
        }
        let frame = ram.alloc_epc_frame();
        let mut page = vec![0u8; PAGE_SIZE as usize];
        page[..data.len()].copy_from_slice(data);
        ram.write(frame, &page);
        let ppn = frame.value() / PAGE_SIZE;
        self.epcm.insert(
            ppn,
            EpcmEntry {
                enclave,
                va: VirtAddr::new(va.vpn() * PAGE_SIZE),
                writable,
            },
        );
        secs.pages.insert(va.vpn(), ppn);
        let hasher = secs
            .hasher
            .as_mut()
            .expect("uninitialized enclave has hasher");
        hasher.update(b"EADD");
        hasher.update(&va.vpn().to_le_bytes());
        hasher.update(&[writable as u8]);
        hasher.update(&hix_crypto::sha256::digest(&page));
        Ok(frame)
    }

    /// `EINIT` — finalizes the measurement; the enclave becomes
    /// enterable.
    ///
    /// # Errors
    ///
    /// Fails if the enclave is unknown, dead, or already initialized.
    pub fn einit(&mut self, enclave: EnclaveId) -> Result<Measurement, SgxError> {
        let secs = self
            .enclaves
            .get_mut(&enclave)
            .ok_or(SgxError::NoSuchEnclave(enclave))?;
        if !secs.alive {
            return Err(SgxError::Dead(enclave));
        }
        if secs.initialized() {
            return Err(SgxError::AlreadyInitialized(enclave));
        }
        let hasher = secs
            .hasher
            .take()
            .expect("uninitialized enclave has hasher");
        let mr = Measurement(hasher.finish());
        secs.mrenclave = Some(mr);
        Ok(mr)
    }

    /// Destroys an enclave (the OS may do this at any time — availability
    /// is out of scope). EPC pages are retired; the id is burned.
    pub fn destroy(&mut self, enclave: EnclaveId) {
        if let Some(secs) = self.enclaves.get_mut(&enclave) {
            secs.alive = false;
            let ppns: Vec<u64> = secs.pages.values().copied().collect();
            for ppn in ppns {
                self.epcm.remove(&ppn);
            }
        }
    }

    /// The SECS for `enclave`, if it exists.
    pub fn secs(&self, enclave: EnclaveId) -> Option<&Secs> {
        self.enclaves.get(&enclave)
    }

    /// EPCM lookup by physical address.
    pub fn epcm_entry(&self, pa: PhysAddr) -> Option<&EpcmEntry> {
        self.epcm.get(&(pa.value() / PAGE_SIZE))
    }

    /// The hardware access check for a translation `(va -> pa)` requested
    /// by `accessor` (the enclave the executing thread is inside of, if
    /// any). Returns `true` if the TLB fill may proceed.
    ///
    /// Rules (from §2.1 and the SGX reference):
    /// 1. EPC frames are only reachable by their owning enclave, at the
    ///    exact linear address the page was added with.
    /// 2. An enclave's own linear range must map to the matching EPC
    ///    frame — the OS cannot silently redirect enclave addresses.
    pub fn check_access(&self, accessor: Option<EnclaveId>, va: VirtAddr, pa: PhysAddr) -> bool {
        if Ram::is_epc(pa) {
            let Some(entry) = self.epcm_entry(pa) else {
                return false; // unassigned EPC frame
            };
            if accessor != Some(entry.enclave) {
                return false;
            }
            if entry.va.vpn() != va.vpn() {
                return false;
            }
        }
        if let Some(id) = accessor {
            if let Some(secs) = self.enclaves.get(&id) {
                if secs.owns_va(va) {
                    // Enclave linear range must hit the recorded frame.
                    let expected = secs.pages[&va.vpn()];
                    if pa.value() / PAGE_SIZE != expected {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn report_key(&self, target: &Measurement) -> [u8; 32] {
        let mut mac = HmacSha256::new(&self.machine_secret);
        mac.update(b"report-key");
        mac.update(&target.0);
        mac.finish()
    }

    /// `EREPORT` — produces a report of `enclave`, MACed for the enclave
    /// whose measurement is `target`.
    ///
    /// # Errors
    ///
    /// Fails if the reporting enclave is unknown, dead, or uninitialized.
    pub fn ereport(
        &self,
        enclave: EnclaveId,
        target: &Measurement,
        report_data: &[u8],
    ) -> Result<Report, SgxError> {
        let secs = self
            .enclaves
            .get(&enclave)
            .ok_or(SgxError::NoSuchEnclave(enclave))?;
        if !secs.alive {
            return Err(SgxError::Dead(enclave));
        }
        let mr = secs.mrenclave.ok_or(SgxError::NotInitialized(enclave))?;
        let key = self.report_key(target);
        let mut mac = HmacSha256::new(&key);
        mac.update(&mr.0);
        mac.update(&(report_data.len() as u64).to_le_bytes());
        mac.update(report_data);
        Ok(Report {
            mrenclave: mr,
            report_data: report_data.to_vec(),
            mac: mac.finish(),
        })
    }

    /// Verifies a report from inside `verifier` (which retrieves its own
    /// report key, as in SGX local attestation).
    ///
    /// # Errors
    ///
    /// Fails if `verifier` is unknown or uninitialized.
    pub fn everify(&self, verifier: EnclaveId, report: &Report) -> Result<bool, SgxError> {
        let secs = self
            .enclaves
            .get(&verifier)
            .ok_or(SgxError::NoSuchEnclave(verifier))?;
        let mr = secs.mrenclave.ok_or(SgxError::NotInitialized(verifier))?;
        let key = self.report_key(&mr);
        let mut mac = HmacSha256::new(&key);
        mac.update(&report.mrenclave.0);
        mac.update(&(report.report_data.len() as u64).to_le_bytes());
        mac.update(&report.report_data);
        Ok(hix_crypto::ct_eq(&mac.finish(), &report.mac))
    }

    /// Produces a *quote* for remote attestation: a report over
    /// `report_data` signed (MACed) with the platform's provisioning
    /// secret, which a remote verifier checks against the expected
    /// MRENCLAVE (§5.5: the user "leverages SGX to perform a remote
    /// attestation on the code running within the GPU enclave"). The
    /// Intel attestation service is modeled as knowledge of the
    /// per-machine provisioning key.
    ///
    /// # Errors
    ///
    /// Fails if the enclave is unknown, dead, or uninitialized.
    pub fn equote(&self, enclave: EnclaveId, report_data: &[u8]) -> Result<Quote, SgxError> {
        let secs = self
            .enclaves
            .get(&enclave)
            .ok_or(SgxError::NoSuchEnclave(enclave))?;
        if !secs.alive {
            return Err(SgxError::Dead(enclave));
        }
        let mr = secs.mrenclave.ok_or(SgxError::NotInitialized(enclave))?;
        let mut mac = HmacSha256::new(&self.provisioning_key());
        mac.update(b"quote");
        mac.update(&mr.0);
        mac.update(&(report_data.len() as u64).to_le_bytes());
        mac.update(report_data);
        Ok(Quote {
            mrenclave: mr,
            report_data: report_data.to_vec(),
            signature: mac.finish(),
        })
    }

    /// The platform provisioning key a (modeled) attestation service
    /// derives for this machine. A remote verifier that obtained it out
    /// of band (the IAS role) can check quotes with
    /// [`Quote::verify`].
    pub fn provisioning_key(&self) -> [u8; 32] {
        let mut mac = HmacSha256::new(&self.machine_secret);
        mac.update(b"provisioning-key");
        mac.finish()
    }

    /// `EGETKEY(SealKey)` — a key bound to the enclave's measurement and
    /// this machine.
    ///
    /// # Errors
    ///
    /// Fails if `enclave` is unknown or uninitialized.
    pub fn seal_key(&self, enclave: EnclaveId) -> Result<[u8; 32], SgxError> {
        let secs = self
            .enclaves
            .get(&enclave)
            .ok_or(SgxError::NoSuchEnclave(enclave))?;
        let mr = secs.mrenclave.ok_or(SgxError::NotInitialized(enclave))?;
        let mut mac = HmacSha256::new(&self.machine_secret);
        mac.update(b"seal-key");
        mac.update(&mr.0);
        Ok(mac.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SgxState, Ram) {
        (SgxState::new(b"test-boot"), Ram::new())
    }

    fn build_enclave(sgx: &mut SgxState, ram: &mut Ram, tag: u8) -> (EnclaveId, Measurement) {
        let id = sgx.ecreate();
        sgx.eadd(ram, id, VirtAddr::new(0x10_0000), &[tag; 64], true)
            .unwrap();
        let mr = sgx.einit(id).unwrap();
        (id, mr)
    }

    #[test]
    fn measurement_is_deterministic_and_content_sensitive() {
        let (mut sgx, mut ram) = setup();
        let (_, mr1) = build_enclave(&mut sgx, &mut ram, 1);
        let (_, mr1b) = build_enclave(&mut sgx, &mut ram, 1);
        let (_, mr2) = build_enclave(&mut sgx, &mut ram, 2);
        assert_eq!(mr1, mr1b, "same content, same measurement");
        assert_ne!(mr1, mr2, "different content, different measurement");
    }

    #[test]
    fn lifecycle_enforced() {
        let (mut sgx, mut ram) = setup();
        let id = sgx.ecreate();
        sgx.eadd(&mut ram, id, VirtAddr::new(0x1000), b"x", false)
            .unwrap();
        assert_eq!(
            sgx.eadd(&mut ram, id, VirtAddr::new(0x1000), b"y", false),
            Err(SgxError::PageExists(VirtAddr::new(0x1000)))
        );
        sgx.einit(id).unwrap();
        assert_eq!(
            sgx.eadd(&mut ram, id, VirtAddr::new(0x2000), b"z", false),
            Err(SgxError::AlreadyInitialized(id))
        );
        assert_eq!(sgx.einit(id), Err(SgxError::AlreadyInitialized(id)));
    }

    #[test]
    fn epc_access_rules() {
        let (mut sgx, mut ram) = setup();
        let id = sgx.ecreate();
        let va = VirtAddr::new(0x10_0000);
        let frame = sgx.eadd(&mut ram, id, va, &[1; 16], true).unwrap();
        sgx.einit(id).unwrap();
        // Owner at the right va: allowed.
        assert!(sgx.check_access(Some(id), va, frame));
        // Non-enclave software: denied.
        assert!(!sgx.check_access(None, va, frame));
        // Another enclave: denied.
        let other = sgx.ecreate();
        assert!(!sgx.check_access(Some(other), va, frame));
        // Owner at the wrong va (OS aliased the frame elsewhere): denied.
        assert!(!sgx.check_access(Some(id), VirtAddr::new(0x20_0000), frame));
        // Unassigned EPC frame: denied even to enclaves.
        let free_epc = PhysAddr::new(crate::mem::layout::EPC.base.value() + 0x100_000);
        assert!(!sgx.check_access(Some(id), va, free_epc));
    }

    #[test]
    fn enclave_va_cannot_be_redirected() {
        let (mut sgx, mut ram) = setup();
        let id = sgx.ecreate();
        let va = VirtAddr::new(0x10_0000);
        let frame = sgx.eadd(&mut ram, id, va, &[1; 16], true).unwrap();
        sgx.einit(id).unwrap();
        // OS points the enclave's own va at ordinary DRAM: denied.
        assert!(!sgx.check_access(Some(id), va, PhysAddr::new(0x20_0000)));
        // Non-enclave va in DRAM: fine.
        assert!(sgx.check_access(Some(id), VirtAddr::new(0x50_0000), PhysAddr::new(0x20_0000)));
        let _ = frame;
    }

    #[test]
    fn local_attestation_roundtrip() {
        let (mut sgx, mut ram) = setup();
        let (a, _mr_a) = build_enclave(&mut sgx, &mut ram, 1);
        let (b, mr_b) = build_enclave(&mut sgx, &mut ram, 2);
        let report = sgx.ereport(a, &mr_b, b"dh-public-bytes").unwrap();
        assert!(sgx.everify(b, &report).unwrap());
        // A third enclave cannot verify a report targeted at B.
        let (c, _) = build_enclave(&mut sgx, &mut ram, 3);
        assert!(!sgx.everify(c, &report).unwrap());
    }

    #[test]
    fn tampered_report_rejected() {
        let (mut sgx, mut ram) = setup();
        let (a, _) = build_enclave(&mut sgx, &mut ram, 1);
        let (b, mr_b) = build_enclave(&mut sgx, &mut ram, 2);
        let mut report = sgx.ereport(a, &mr_b, b"data").unwrap();
        report.report_data[0] ^= 1;
        assert!(!sgx.everify(b, &report).unwrap());
    }

    #[test]
    fn remote_attestation_quote_verifies() {
        let (mut sgx, mut ram) = setup();
        let (a, mr_a) = build_enclave(&mut sgx, &mut ram, 1);
        let quote = sgx.equote(a, b"gpu-enclave-identity").unwrap();
        let pk = sgx.provisioning_key();
        assert!(quote.verify(&pk, &mr_a));
        // Wrong expected identity: rejected.
        let (_, mr_b) = build_enclave(&mut sgx, &mut ram, 2);
        assert!(!quote.verify(&pk, &mr_b));
        // Tampered data: rejected.
        let mut bad = quote.clone();
        bad.report_data.push(0);
        assert!(!bad.verify(&pk, &mr_a));
        // Wrong platform key: rejected.
        assert!(!quote.verify(&[0u8; 32], &mr_a));
    }

    #[test]
    fn destroy_burns_id_and_frees_epcm() {
        let (mut sgx, mut ram) = setup();
        let (a, mr) = build_enclave(&mut sgx, &mut ram, 1);
        let frame = sgx
            .secs(a)
            .unwrap()
            .page_frame(VirtAddr::new(0x10_0000))
            .unwrap();
        sgx.destroy(a);
        assert!(!sgx.secs(a).unwrap().alive());
        assert!(sgx.epcm_entry(frame).is_none());
        assert_eq!(sgx.ereport(a, &mr, b"x"), Err(SgxError::Dead(a)));
        // New enclaves never reuse the id.
        let b = sgx.ecreate();
        assert_ne!(a, b);
    }

    #[test]
    fn seal_key_stable_per_measurement() {
        let (mut sgx, mut ram) = setup();
        let (a, _) = build_enclave(&mut sgx, &mut ram, 1);
        let (b, _) = build_enclave(&mut sgx, &mut ram, 1);
        let (c, _) = build_enclave(&mut sgx, &mut ram, 2);
        assert_eq!(sgx.seal_key(a).unwrap(), sgx.seal_key(b).unwrap());
        assert_ne!(sgx.seal_key(a).unwrap(), sgx.seal_key(c).unwrap());
    }

    #[test]
    fn different_boots_different_report_keys() {
        let mut ram = Ram::new();
        let mut sgx1 = SgxState::new(b"boot1");
        let mut sgx2 = SgxState::new(b"boot2");
        let (a1, mr1) = build_enclave(&mut sgx1, &mut ram, 1);
        let (b2, _) = build_enclave(&mut sgx2, &mut ram, 1);
        let report = sgx1.ereport(a1, &mr1, b"d").unwrap();
        // Same measurements, different machine secret: fails on machine 2.
        assert!(!sgx2.everify(b2, &report).unwrap());
    }
}
