//! The plaintext mirror: a host-side copy of every device buffer the
//! workload allocates. Each HtoD, DtoD, memset and `matrix.mul` the
//! workload issues is applied here too, and every DtoH the program
//! returns is compared with the mirror byte for byte.

use std::collections::BTreeMap;

/// A readback that disagrees with the mirror.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    pub addr: u64,
    /// First differing byte, relative to `addr` (or the shorter length).
    pub offset: usize,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "readback of {:#x} differs at byte {}",
            self.addr, self.offset
        )
    }
}

#[derive(Debug, Default)]
pub struct Mirror {
    /// Allocation base → contents.
    allocs: BTreeMap<u64, Vec<u8>>,
}

impl Mirror {
    pub fn new() -> Self {
        Mirror::default()
    }

    /// A fresh allocation reads as zeros (device memory is scrubbed).
    pub fn alloc(&mut self, base: u64, len: u64) {
        self.allocs.insert(base, vec![0; len as usize]);
    }

    pub fn free(&mut self, base: u64) {
        self.allocs.remove(&base);
    }

    fn slice_mut(&mut self, addr: u64, len: u64) -> &mut [u8] {
        let (base, buf) = self
            .allocs
            .range_mut(..=addr)
            .next_back()
            .expect("address inside a mirrored allocation");
        let off = (addr - base) as usize;
        &mut buf[off..off + len as usize]
    }

    fn slice(&self, addr: u64, len: u64) -> &[u8] {
        let (base, buf) = self
            .allocs
            .range(..=addr)
            .next_back()
            .expect("address inside a mirrored allocation");
        let off = (addr - base) as usize;
        &buf[off..off + len as usize]
    }

    pub fn htod(&mut self, addr: u64, data: &[u8]) {
        self.slice_mut(addr, data.len() as u64)
            .copy_from_slice(data);
    }

    pub fn dtod(&mut self, src: u64, dst: u64, len: u64) {
        let bytes = self.slice(src, len).to_vec();
        self.slice_mut(dst, len).copy_from_slice(&bytes);
    }

    pub fn memset(&mut self, addr: u64, len: u64, value: u8) {
        self.slice_mut(addr, len).fill(value);
    }

    /// `C = A × B` over `n × n` little-endian i32 matrices, wrapping —
    /// the semantics of the device's `matrix.mul` kernel.
    pub fn matmul(&mut self, a: u64, b: u64, c: u64, n: u64) {
        let cells = n * n;
        let read = |m: &Mirror, addr| -> Vec<i32> {
            m.slice(addr, cells * 4)
                .chunks_exact(4)
                .map(|w| i32::from_le_bytes(w.try_into().expect("4-byte chunk")))
                .collect()
        };
        let (av, bv) = (read(self, a), read(self, b));
        let n = n as usize;
        let mut cv = vec![0i32; n * n];
        for i in 0..n {
            for k in 0..n {
                let aik = av[i * n + k];
                for j in 0..n {
                    cv[i * n + j] = cv[i * n + j].wrapping_add(aik.wrapping_mul(bv[k * n + j]));
                }
            }
        }
        let out = self.slice_mut(c, cells * 4);
        for (dst, v) in out.chunks_exact_mut(4).zip(cv) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Compares a DtoH readback of `addr` with the mirror.
    pub fn check(&self, addr: u64, got: &[u8]) -> Result<(), Mismatch> {
        let want = self.slice(addr, got.len() as u64);
        match want.iter().zip(got).position(|(w, g)| w != g) {
            None => Ok(()),
            Some(offset) => Err(Mismatch { addr, offset }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_transfers_fills_and_copies() {
        let mut m = Mirror::new();
        m.alloc(0x1000, 64);
        m.alloc(0x2000, 64);
        m.htod(0x1004, &[1, 2, 3, 4]);
        m.memset(0x1006, 4, 9);
        m.dtod(0x1004, 0x2010, 8);
        m.check(0x2010, &[1, 2, 9, 9, 9, 9, 0, 0]).unwrap();
        m.check(0x2000, &[0; 16]).unwrap();
    }

    #[test]
    fn planted_corrupted_byte_is_rejected() {
        let mut m = Mirror::new();
        m.alloc(0x1000, 4096);
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
        m.htod(0x1000, &data);
        m.check(0x1000, &data).unwrap();
        for at in [0usize, 1, 2047, 4095] {
            let mut bad = data.clone();
            bad[at] ^= 0x01;
            assert_eq!(
                m.check(0x1000, &bad),
                Err(Mismatch {
                    addr: 0x1000,
                    offset: at
                })
            );
        }
    }

    #[test]
    fn matmul_matches_the_device_kernel_semantics() {
        let mut m = Mirror::new();
        let n = 2u64;
        for base in [0x1000, 0x2000, 0x3000] {
            m.alloc(base, n * n * 4);
        }
        let enc = |v: &[i32]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        m.htod(0x1000, &enc(&[1, 2, 3, i32::MAX]));
        m.htod(0x2000, &enc(&[5, 6, 7, 2]));
        m.matmul(0x1000, 0x2000, 0x3000, n);
        let big = i32::MAX;
        let want = [
            5 + 2 * 7,
            6 + 2 * 2,
            15i32.wrapping_add(big.wrapping_mul(7)),
            18i32.wrapping_add(big.wrapping_mul(2)),
        ];
        m.check(0x3000, &enc(&want)).unwrap();
    }
}
