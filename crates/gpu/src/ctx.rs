//! GPU contexts: isolated device address spaces with their own page
//! tables and (under HIX) their own session keys.
//!
//! §4.5: unlike pre-Volta MPS (which merges all clients into one context),
//! HIX creates one context per user enclave so a kernel can never address
//! another user's memory. The isolation is enforced here: every kernel and
//! DMA access translates through the owning context's page table.

use std::collections::BTreeMap;

use hix_crypto::ocb::{Key, Ocb};

use crate::vram::{DevAddr, GPU_PAGE_SIZE};

/// Identifies a GPU context (address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtxId(pub u32);

/// A translation fault inside the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuFault {
    /// The faulting device-virtual address.
    pub addr: DevAddr,
    /// The context that faulted.
    pub ctx: CtxId,
}

impl std::fmt::Display for GpuFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GPU page fault in ctx {} at {}", self.ctx.0, self.addr)
    }
}

impl std::error::Error for GpuFault {}

/// One GPU context.
#[derive(Debug)]
pub struct GpuContext {
    id: CtxId,
    page_table: BTreeMap<u64, u64>, // dev vpn -> vram ppn
    session_key: Option<[u8; 16]>,
    // Keyed OCB context derived from `session_key`, built once per key
    // install. Every rekey/epoch bump goes through `set_session_key`, so
    // the cache can never serve a stale key: it lives and dies with the
    // key it was derived from.
    session_ocb: Option<Ocb>,
    dh_secret: Option<Vec<u8>>,
}

impl GpuContext {
    /// Creates an empty context.
    pub fn new(id: CtxId) -> Self {
        GpuContext {
            id,
            page_table: BTreeMap::new(),
            session_key: None,
            session_ocb: None,
            dh_secret: None,
        }
    }

    /// The context id.
    pub fn id(&self) -> CtxId {
        self.id
    }

    /// Maps device-virtual page of `va` to the VRAM frame at `pa`.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not page-aligned.
    pub fn map_page(&mut self, va: DevAddr, pa: u64) {
        assert_eq!(pa % GPU_PAGE_SIZE, 0, "VRAM frame must be page-aligned");
        self.page_table.insert(va.vpn(), pa / GPU_PAGE_SIZE);
    }

    /// Unmaps the page of `va`, returning the frame it pointed to.
    pub fn unmap_page(&mut self, va: DevAddr) -> Option<u64> {
        self.page_table
            .remove(&va.vpn())
            .map(|ppn| ppn * GPU_PAGE_SIZE)
    }

    /// Translates one device-virtual address.
    ///
    /// # Errors
    ///
    /// Returns [`GpuFault`] when unmapped.
    pub fn translate(&self, va: DevAddr) -> Result<u64, GpuFault> {
        self.page_table
            .get(&va.vpn())
            .map(|ppn| ppn * GPU_PAGE_SIZE + va.page_offset())
            .ok_or(GpuFault {
                addr: va,
                ctx: self.id,
            })
    }

    /// All VRAM frames owned by the context (for scrubbing at destroy).
    pub fn frames(&self) -> Vec<u64> {
        self.page_table
            .values()
            .map(|ppn| ppn * GPU_PAGE_SIZE)
            .collect()
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.page_table.len()
    }

    /// Installs the session key (set by the GPU at the end of the
    /// three-party key agreement), expanding the keyed OCB context once so
    /// the per-transfer crypto kernels never re-run the key schedule or
    /// L-table build. Called again on every rekey/epoch bump, which
    /// replaces (invalidates) the cached context atomically with the key.
    pub fn set_session_key(&mut self, key: [u8; 16]) {
        self.session_key = Some(key);
        self.session_ocb = Some(Ocb::new(&Key::from_bytes(key)));
    }

    /// The session key, if agreed.
    pub fn session_key(&self) -> Option<[u8; 16]> {
        self.session_key
    }

    /// The cached keyed OCB context for the current session key, if one
    /// was agreed. Always derived from [`Self::session_key`]; the two are
    /// set together.
    pub fn session_ocb(&self) -> Option<&Ocb> {
        self.session_ocb.as_ref()
    }

    /// Stores the intermediate/final DH value.
    pub fn set_dh_secret(&mut self, secret: Vec<u8>) {
        self.dh_secret = Some(secret);
    }

    /// The stored DH value.
    pub fn dh_secret(&self) -> Option<&[u8]> {
        self.dh_secret.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_unmap() {
        let mut ctx = GpuContext::new(CtxId(1));
        let va = DevAddr(0x10_0000);
        ctx.map_page(va, 0x4000);
        assert_eq!(ctx.translate(va.offset(0x34)).unwrap(), 0x4034);
        assert_eq!(ctx.unmap_page(va), Some(0x4000));
        assert!(ctx.translate(va).is_err());
    }

    #[test]
    fn contexts_are_isolated() {
        let mut a = GpuContext::new(CtxId(1));
        let mut b = GpuContext::new(CtxId(2));
        a.map_page(DevAddr(0x1000), 0x8000);
        b.map_page(DevAddr(0x1000), 0x9000);
        // Same dev VA, different frames: the address spaces are disjoint.
        assert_eq!(a.translate(DevAddr(0x1000)).unwrap(), 0x8000);
        assert_eq!(b.translate(DevAddr(0x1000)).unwrap(), 0x9000);
        // b has no mapping at a's other addresses.
        a.map_page(DevAddr(0x2000), 0xa000);
        assert!(b.translate(DevAddr(0x2000)).is_err());
    }

    #[test]
    fn frames_listing() {
        let mut ctx = GpuContext::new(CtxId(1));
        ctx.map_page(DevAddr(0), 0x4000);
        ctx.map_page(DevAddr(0x1000), 0x8000);
        let mut frames = ctx.frames();
        frames.sort_unstable();
        assert_eq!(frames, vec![0x4000, 0x8000]);
        assert_eq!(ctx.mapped_pages(), 2);
    }

    #[test]
    fn session_key_storage() {
        let mut ctx = GpuContext::new(CtxId(1));
        assert!(ctx.session_key().is_none());
        assert!(ctx.session_ocb().is_none());
        ctx.set_session_key([7u8; 16]);
        assert_eq!(ctx.session_key(), Some([7u8; 16]));
        assert!(ctx.session_ocb().is_some());
    }

    #[test]
    fn session_ocb_cache_tracks_rekey() {
        use hix_crypto::ocb::Nonce;
        let mut ctx = GpuContext::new(CtxId(1));
        ctx.set_session_key([7u8; 16]);
        let before = ctx
            .session_ocb()
            .unwrap()
            .seal(&Nonce::from_counter(1), b"a", b"pt");
        // The cached context is exactly the one a fresh build would give.
        let fresh = Ocb::new(&Key::from_bytes([7u8; 16]));
        assert_eq!(before, fresh.seal(&Nonce::from_counter(1), b"a", b"pt"));
        // Rekey (epoch bump) replaces the cache: same nonce, different key,
        // different ciphertext, and the old context can no longer open it.
        ctx.set_session_key([8u8; 16]);
        let after = ctx
            .session_ocb()
            .unwrap()
            .seal(&Nonce::from_counter(1), b"a", b"pt");
        assert_ne!(before, after);
        assert!(fresh.open(&Nonce::from_counter(1), b"a", &after).is_err());
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_frame_rejected() {
        GpuContext::new(CtxId(1)).map_page(DevAddr(0), 0x123);
    }
}
