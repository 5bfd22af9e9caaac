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
    fn clones_share_bytes() {
        let p = Payload::from_bytes(vec![1, 2, 3]);
        let q = p.clone();
        assert!(
            std::ptr::eq(p.bytes(), q.bytes()),
            "a clone is a reference, not a copy"
        );
    }

    #[test]
    fn debug_is_nonempty_and_bounded() {
        let d = format!("{:?}", Payload::from_bytes(vec![0; 1000]));
        assert!(d.contains("len=1000"));
        let d = format!("{:?}", Payload::synthetic(7));
        assert!(d.contains("7"));
    }
}
