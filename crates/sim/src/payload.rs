//! Data-plane payloads: real bytes or size-only synthetic buffers.
//!
//! Tests and examples run the simulator *functionally*: payloads carry real
//! bytes, AES-OCB really encrypts them, GPU kernels really compute. The
//! paper-scale figure harnesses instead use [`Payload::Synthetic`] buffers,
//! which carry only a length so that an 11264×11264 matrix "exists" without
//! allocating 968 MB or burning wall-clock time on software AES; the *time
//! plane* (cost model) is charged identically in both modes.
//!
//! Materialized bytes are shared, not copied: cloning a payload (for a
//! command queue entry or a recovery journal) is a reference-count bump.

use std::fmt;
use std::sync::Arc;

/// A buffer that is either materialized (`Bytes`) or size-only
/// (`Synthetic`).
///
/// Operations that combine payloads follow a contagion rule: touching a
/// synthetic payload yields a synthetic result. Mixed-mode operations are
/// programming errors in harness code and panic loudly rather than
/// producing silently-wrong functional results.
///
/// ```
/// use hix_sim::Payload;
/// let p = Payload::from_bytes(vec![1, 2, 3]);
/// assert_eq!(p.len(), 3);
/// assert!(!p.is_synthetic());
/// let s = Payload::synthetic(1 << 30);
/// assert_eq!(s.len(), 1 << 30);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Payload {
    /// A materialized byte buffer, shared by every clone.
    Bytes(Arc<Vec<u8>>),
    /// A size-only buffer of the given length in bytes.
    Synthetic(u64),
}

impl Payload {
    /// Creates a materialized payload from bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Payload::Bytes(Arc::new(bytes))
    }

    /// Creates a size-only payload of `len` bytes.
    pub fn synthetic(len: u64) -> Self {
        Payload::Synthetic(len)
    }

    /// Creates a materialized payload of `len` zero bytes.
    pub fn zeroed(len: usize) -> Self {
        Payload::from_bytes(vec![0; len])
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::Synthetic(n) => *n,
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this payload is size-only.
    pub fn is_synthetic(&self) -> bool {
        matches!(self, Payload::Synthetic(_))
    }

    /// Borrows the bytes of a materialized payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload is synthetic; that indicates harness code
    /// leaked a synthetic buffer into a functional path.
    pub fn bytes(&self) -> &[u8] {
        match self {
            Payload::Bytes(b) => b,
            Payload::Synthetic(n) => {
                panic!("functional access to a synthetic payload of {n} bytes")
            }
        }
    }

    /// Consumes the payload, returning its bytes (copied only if another
    /// clone still shares them).
    ///
    /// # Panics
    ///
    /// Panics if the payload is synthetic.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            Payload::Bytes(b) => Arc::unwrap_or_clone(b),
            Payload::Synthetic(n) => {
                panic!("functional access to a synthetic payload of {n} bytes")
            }
        }
    }

    /// Splits the payload into chunks of at most `chunk` bytes, preserving
    /// mode. Used by the pipelined transfer path.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn chunks(&self, chunk: u64) -> Vec<Payload> {
        assert!(chunk > 0, "chunk size must be positive");
        match self {
            Payload::Bytes(b) => b
                .chunks(usize::try_from(chunk).expect("chunk fits usize"))
                .map(|c| Payload::from_bytes(c.to_vec()))
                .collect(),
            Payload::Synthetic(mut n) => {
                let mut out = Vec::new();
                while n > 0 {
                    let take = chunk.min(n);
                    out.push(Payload::Synthetic(take));
                    n -= take;
                }
                out
            }
        }
    }

    /// Concatenates payloads; all-bytes inputs yield bytes, otherwise the
    /// result is synthetic with the summed length.
    pub fn concat<I: IntoIterator<Item = Payload>>(parts: I) -> Payload {
        let parts: Vec<Payload> = parts.into_iter().collect();
        if parts.iter().all(|p| !p.is_synthetic()) {
            let mut out = Vec::with_capacity(parts.iter().map(|p| p.len() as usize).sum());
            for p in parts {
                out.extend_from_slice(p.bytes());
            }
            Payload::from_bytes(out)
        } else {
            Payload::Synthetic(parts.iter().map(Payload::len).sum())
        }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload::from_bytes(bytes)
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload::from_bytes(bytes.to_vec())
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Bytes(b) if b.len() <= 16 => write!(f, "Bytes({b:02x?})"),
            Payload::Bytes(b) => write!(f, "Bytes(len={})", b.len()),
            Payload::Synthetic(n) => write!(f, "Synthetic(len={n})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_concat_is_identity_for_arbitrary_payloads() {
        hix_testkit::prop::prop("payload_chunk_concat").run(|s| {
            let data = s.vec_u8(0..256);
            let chunk = s.in_range(1..64);
            let p = Payload::from_bytes(data.clone());
            assert_eq!(Payload::concat(p.chunks(chunk)).bytes(), &data[..]);
        });
    }

    #[test]
    fn lengths_and_modes() {
        let b = Payload::from_bytes(vec![0; 10]);
        assert_eq!(b.len(), 10);
        assert!(!b.is_synthetic());
        assert!(!b.is_empty());
        let s = Payload::synthetic(5);
        assert_eq!(s.len(), 5);
        assert!(s.is_synthetic());
        assert!(Payload::synthetic(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "synthetic")]
    fn bytes_of_synthetic_panics() {
        let _ = Payload::synthetic(4).bytes();
    }

    #[test]
    fn chunking_bytes() {
        let p = Payload::from_bytes((0u8..10).collect());
        let c = p.chunks(4);
        assert_eq!(c.len(), 3);
        assert_eq!(c[0].bytes(), &[0, 1, 2, 3]);
        assert_eq!(c[2].bytes(), &[8, 9]);
    }

    #[test]
    fn chunking_synthetic() {
        let p = Payload::synthetic(10);
        let c = p.chunks(4);
        assert_eq!(c.len(), 3);
        assert_eq!(c.iter().map(Payload::len).sum::<u64>(), 10);
        assert!(c.iter().all(Payload::is_synthetic));
    }

    #[test]
    fn concat_modes() {
        let all_bytes = Payload::concat([
            Payload::from_bytes(vec![1, 2]),
            Payload::from_bytes(vec![3]),
        ]);
        assert_eq!(all_bytes.bytes(), &[1, 2, 3]);
        let mixed = Payload::concat([Payload::from_bytes(vec![1]), Payload::synthetic(2)]);
        assert!(mixed.is_synthetic());
        assert_eq!(mixed.len(), 3);
    }

    #[test]
    fn clones_share_bytes() {
        let p = Payload::from_bytes(vec![1, 2, 3]);
        let q = p.clone();
        assert!(
            std::ptr::eq(p.bytes(), q.bytes()),
            "a clone is a reference, not a copy"
        );
        assert_eq!(
            q.into_bytes(),
            vec![1, 2, 3],
            "a shared payload still yields its bytes"
        );
        let addr = p.bytes().as_ptr();
        let owned = p.into_bytes();
        assert_eq!(
            owned.as_ptr(),
            addr,
            "the last owner takes the buffer as is"
        );
    }

    #[test]
    fn debug_is_nonempty_and_bounded() {
        let d = format!("{:?}", Payload::from_bytes(vec![0; 1000]));
        assert!(d.contains("len=1000"));
        let d = format!("{:?}", Payload::synthetic(7));
        assert!(d.contains("7"));
    }

    #[test]
    fn chunk_roundtrip_preserves_content() {
        let data: Vec<u8> = (0..=255).collect();
        let p = Payload::from_bytes(data.clone());
        let back = Payload::concat(p.chunks(7));
        assert_eq!(back.bytes(), &data[..]);
    }
}
