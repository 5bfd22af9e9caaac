//! Attestation and key agreement (§4.4.1, §5.5).
//!
//! * **Pairwise**: the user enclave and the GPU enclave run SGX local
//!   attestation — each sends an `EREPORT` targeted at the other, with
//!   its ephemeral Diffie–Hellman public value as the report data. After
//!   verification both derive the *channel key* protecting the message
//!   queue.
//! * **Three-party**: the GPU joins the exchange through `DhExp` commands
//!   over the trusted MMIO path (the device holds a per-context secret
//!   *c*). The resulting *data key* `g^abc` is shared by the user
//!   enclave, the GPU enclave, and the GPU — exactly what the single-copy
//!   design needs (§4.4.2).

use hix_crypto::dh::{DhError, DhGroup, DhPublic};
use hix_crypto::drbg::HmacDrbg;
use hix_crypto::kdf;
use hix_driver::driver::{DriverError, GpuDriver};
use hix_gpu::ctx::CtxId;
use hix_platform::sgx::SgxError;
use hix_platform::{Machine, ProcessId};
use hix_sim::Counter;

/// Attestation/key-agreement failures.
#[derive(Debug)]
pub enum AttestError {
    /// SGX instruction failure.
    Sgx(SgxError),
    /// A report failed verification — the peer is not the enclave it
    /// claims to be (or the OS tampered with the exchange).
    BadReport,
    /// A peer supplied a degenerate DH value.
    Dh(DhError),
    /// The GPU-side exchange failed.
    Driver(DriverError),
    /// A peer enclave is missing its measurement.
    NotInitialized,
}

impl std::fmt::Display for AttestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttestError::Sgx(e) => write!(f, "attestation SGX failure: {e}"),
            AttestError::BadReport => f.write_str("report verification failed"),
            AttestError::Dh(e) => write!(f, "key agreement failed: {e}"),
            AttestError::Driver(e) => write!(f, "GPU-side key agreement failed: {e}"),
            AttestError::NotInitialized => f.write_str("peer enclave not initialized"),
        }
    }
}

impl std::error::Error for AttestError {}

impl From<SgxError> for AttestError {
    fn from(e: SgxError) -> Self {
        AttestError::Sgx(e)
    }
}

impl From<DhError> for AttestError {
    fn from(e: DhError) -> Self {
        AttestError::Dh(e)
    }
}

impl From<DriverError> for AttestError {
    fn from(e: DriverError) -> Self {
        AttestError::Driver(e)
    }
}

/// Runs mutual local attestation + DH between two enclaves, returning the
/// channel key. Both sides' DRBGs supply the ephemeral secrets.
///
/// # Errors
///
/// Fails when either report does not verify or a DH value is degenerate.
pub fn pairwise_channel_key(
    machine: &mut Machine,
    user: ProcessId,
    enclave: ProcessId,
    user_rng: &mut HmacDrbg,
    enclave_rng: &mut HmacDrbg,
) -> Result<[u8; 16], AttestError> {
    machine.trace().metrics().inc(Counter::AttestHandshakes);
    machine.in_span("attestation", "pairwise channel key", &[], |machine| {
        let group = DhGroup::sim();
        let user_kp = group.generate(user_rng);
        let encl_kp = group.generate(enclave_rng);
        let mr_user = machine
            .measurement_of(user)
            .ok_or(AttestError::NotInitialized)?;
        let mr_encl = machine
            .measurement_of(enclave)
            .ok_or(AttestError::NotInitialized)?;

        // User -> GPU enclave: report carrying g^a.
        let report_u = machine.ereport(user, &mr_encl, &user_kp.public.to_be_bytes())?;
        if !machine.everify(enclave, &report_u)? {
            return Err(AttestError::BadReport);
        }
        // The GPU enclave would also check WHO it is talking to; here the
        // expected user measurement is whatever the report carries, which the
        // caller can policy-check. (The paper's remote-attestation step is
        // out of simulation scope.)

        // GPU enclave -> user: report carrying g^b.
        let report_e = machine.ereport(enclave, &mr_user, &encl_kp.public.to_be_bytes())?;
        if !machine.everify(user, &report_e)? {
            return Err(AttestError::BadReport);
        }

        let peer_of_user = DhPublic::from_be_bytes(&report_e.report_data);
        let peer_of_encl = DhPublic::from_be_bytes(&report_u.report_data);
        let s_user = group.agree(&user_kp, &peer_of_user)?;
        let s_encl = group.agree(&encl_kp, &peer_of_encl)?;
        debug_assert_eq!(s_user.as_bytes(), s_encl.as_bytes());
        Ok(s_user.derive_key(b"hix-channel"))
    })
}

/// Output of the three-party exchange.
#[derive(Debug)]
pub struct DataKey {
    /// The key as derived on the user side.
    pub user: [u8; 16],
    /// The key as derived inside the GPU enclave.
    pub enclave: [u8; 16],
}

/// Runs the three-party DH among user enclave (secret *a*), GPU enclave
/// (secret *b*), and the GPU (per-context secret *c*), finalizing the
/// session key inside the device for context `ctx`.
///
/// Message flow (relays go over the already-authenticated channel):
/// 1. user sends `g^a`; enclave forwards it to the GPU, which answers
///    `g^ac`; the enclave derives `(g^ac)^b = g^abc`.
/// 2. enclave sends `g^b` to the GPU, gets `g^bc`, relays it to the
///    user, who derives `(g^bc)^a = g^abc`.
/// 3. enclave computes `g^ab` and finalizes on the GPU, which installs
///    `KDF(g^abc)` as the context session key.
///
/// # Errors
///
/// Propagates DH and driver failures.
pub fn three_party_data_key(
    machine: &mut Machine,
    driver: &GpuDriver,
    ctx: CtxId,
    user_rng: &mut HmacDrbg,
    enclave_rng: &mut HmacDrbg,
) -> Result<DataKey, AttestError> {
    machine.trace().metrics().inc(Counter::AttestHandshakes);
    machine.in_span("attestation", "three-party data key", &[], |machine| {
        let group = DhGroup::sim();
        let a = group.generate(user_rng); // user enclave
        let b = group.generate(enclave_rng); // GPU enclave

        // Step 1: g^a -> GPU -> g^ac; enclave key.
        let g_ac = driver
            .dh_exp(machine, ctx, &a.public.to_be_bytes(), false)?
            .expect("non-final step returns a value");
        let enclave_shared = group.agree(&b, &DhPublic::from_be_bytes(&g_ac))?;

        // Step 2: g^b -> GPU -> g^bc; user key.
        let g_bc = driver
            .dh_exp(machine, ctx, &b.public.to_be_bytes(), false)?
            .expect("non-final step returns a value");
        let user_shared = group.agree(&a, &DhPublic::from_be_bytes(&g_bc))?;

        // Step 3: g^ab finalizes the device.
        let g_ab = group.agree(&b, &a.public)?;
        driver.dh_exp(machine, ctx, g_ab.as_bytes(), true)?;

        Ok(DataKey {
            user: kdf::derive_aes128(b"hix-3dh", user_shared.as_bytes(), b"session"),
            enclave: kdf::derive_aes128(b"hix-3dh", enclave_shared.as_bytes(), b"session"),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hix_driver::driver::os_map_bar0;
    use hix_driver::rig::{standard_rig, RigOptions, GPU_BDF};
    use hix_platform::VirtAddr;

    fn enclave_proc(machine: &mut Machine, tag: u8) -> ProcessId {
        let pid = machine.create_process();
        machine.ecreate(pid);
        machine
            .eadd(pid, VirtAddr::new(0x10_0000), &[tag; 32], true)
            .unwrap();
        machine.einit(pid).unwrap();
        machine.eenter(pid).unwrap();
        pid
    }

    #[test]
    fn pairwise_keys_match_and_depend_on_parties() {
        let mut m = standard_rig(RigOptions::default());
        let u = enclave_proc(&mut m, 1);
        let e = enclave_proc(&mut m, 2);
        let mut ur = HmacDrbg::new(b"user");
        let mut er = HmacDrbg::new(b"encl");
        let k1 = pairwise_channel_key(&mut m, u, e, &mut ur, &mut er).unwrap();
        // Fresh randomness -> fresh key.
        let k2 = pairwise_channel_key(&mut m, u, e, &mut ur, &mut er).unwrap();
        assert_ne!(k1, k2);
    }

    #[test]
    fn pairwise_fails_for_uninitialized_enclave() {
        let mut m = standard_rig(RigOptions::default());
        let u = enclave_proc(&mut m, 1);
        let e = m.create_process();
        m.ecreate(e);
        let mut ur = HmacDrbg::new(b"user");
        let mut er = HmacDrbg::new(b"encl");
        assert!(matches!(
            pairwise_channel_key(&mut m, u, e, &mut ur, &mut er),
            Err(AttestError::NotInitialized)
        ));
    }

    #[test]
    fn three_party_agreement_through_the_device() {
        let mut m = standard_rig(RigOptions::default());
        let pid = m.create_process();
        let bar0 = os_map_bar0(&mut m, pid, GPU_BDF, 16);
        let mut driver = GpuDriver::attach(&mut m, pid, GPU_BDF, bar0, None).unwrap();
        let ctx = driver.create_ctx(&mut m).unwrap();
        let keys = three_party_data_key(
            &mut m,
            &driver,
            ctx,
            &mut HmacDrbg::new(b"u"),
            &mut HmacDrbg::new(b"e"),
        )
        .unwrap();
        assert_eq!(keys.user, keys.enclave, "all parties agree");
        // The device installed the same key.
        let gpu = m
            .device_mut(GPU_BDF)
            .and_then(|d| d.as_any_mut().downcast_mut::<hix_gpu::device::GpuDevice>())
            .unwrap();
        assert_eq!(gpu.context(ctx).unwrap().session_key(), Some(keys.user));
    }
}
