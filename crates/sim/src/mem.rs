use crate::SimError;

/// Byte-addressable little-endian memory.
///
/// Data accesses are 32-bit words (addresses masked to 4-byte
/// alignment, as the hardware datapath would); instruction fetches read
/// 16-bit parcels (masked to 2-byte alignment).
///
/// # Unaligned accesses
///
/// An unaligned address is **silently rounded down** to the containing
/// aligned unit — `read_word(17)` and `read_word(19)` both access the
/// word at 16. This is a deliberate architectural choice, not an
/// accident: the modelled datapath has no byte-steering, so the low
/// address bits simply do not reach the memory array, and no
/// `Unaligned` fault exists. Both simulation engines go through this
/// one implementation, so they agree on the masking by construction —
/// and the differential oracle proves it dynamically: the random
/// program generator emits deliberately unaligned absolute operands
/// (see `crisp_asm::rand_prog`) and the lockstep commit comparison
/// (`run_lockstep`) requires both engines to observe identical
/// addresses and values for every such access.
///
/// # Dirty pages
///
/// Memory keeps one dirty bit per 1 KiB page (the last page may be
/// short). [`Memory::write_word`] and [`Memory::write_parcel`] are the
/// only writers and each sets its page's bit, which gives the invariant
/// the reset and compare paths rest on: **a page whose bit is clear
/// holds only zeros.** So
/// [`Memory::zero`] clears only the dirty pages, and `==` compares
/// only the pages dirty on either side. A short campaign run touches a
/// few KiB of a 256 KiB memory, and pays for those pages alone.
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    /// One bit per page, page `p` at bit `p % 64` of word `p / 64`.
    dirty: Vec<u64>,
}

/// log2 of [`PAGE_BYTES`].
const PAGE_SHIFT: usize = 10;

/// Dirty-tracking granularity in bytes. A multiple of 4, so no word or
/// parcel access straddles two pages.
pub(crate) const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

impl Memory {
    /// Allocate `size` bytes of zeroed memory, all pages clean. The
    /// array comes from `vec![0; n]`, so pages a run never touches are
    /// never faulted in.
    pub fn new(size: u32) -> Memory {
        let pages = (size as usize).div_ceil(PAGE_BYTES);
        Memory {
            bytes: vec![0; size as usize],
            dirty: vec![0; pages.div_ceil(64)],
        }
    }

    /// Mark the page holding byte `a` dirty.
    #[inline]
    fn mark(&mut self, a: usize) {
        let page = a >> PAGE_SHIFT;
        self.dirty[page / 64] |= 1 << (page % 64);
    }

    /// The byte range of page `page`, clipped to the end of memory.
    fn page_range(&self, page: usize) -> std::ops::Range<usize> {
        let start = page << PAGE_SHIFT;
        start..(start + PAGE_BYTES).min(self.bytes.len())
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    fn check(&self, addr: u32, len: u32) -> Result<usize, SimError> {
        let end = addr.checked_add(len).filter(|&e| e <= self.size());
        match end {
            Some(_) => Ok(addr as usize),
            None => Err(SimError::MemOutOfBounds {
                addr,
                size: self.size(),
            }),
        }
    }

    /// Read the 32-bit word at `addr`. The low two address bits are
    /// ignored (masked to the containing aligned word — see the type
    /// docs on unaligned accesses); no alignment fault is raised.
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] when the word lies outside memory.
    #[inline]
    pub fn read_word(&self, addr: u32) -> Result<i32, SimError> {
        let a = (addr & !3) as usize;
        // Single bounds check; compiles to one aligned 32-bit load.
        match self.bytes.get(a..a + 4) {
            Some(w) => Ok(i32::from_le_bytes(w.try_into().expect("length 4"))),
            None => Err(SimError::MemOutOfBounds {
                addr,
                size: self.size(),
            }),
        }
    }

    /// Write the 32-bit word at `addr`. The low two address bits are
    /// ignored (masked to the containing aligned word — see the type
    /// docs on unaligned accesses); no alignment fault is raised.
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] when the word lies outside memory.
    #[inline]
    pub fn write_word(&mut self, addr: u32, value: i32) -> Result<(), SimError> {
        let a = (addr & !3) as usize;
        let size = self.size();
        match self.bytes.get_mut(a..a + 4) {
            Some(w) => {
                w.copy_from_slice(&value.to_le_bytes());
                self.mark(a);
                Ok(())
            }
            None => Err(SimError::MemOutOfBounds { addr, size }),
        }
    }

    /// Read the 16-bit instruction parcel at `addr` (low bit ignored).
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] when the parcel lies outside memory.
    pub fn read_parcel(&self, addr: u32) -> Result<u16, SimError> {
        let a = self.check(addr & !1, 2)?;
        Ok(u16::from_le_bytes([self.bytes[a], self.bytes[a + 1]]))
    }

    /// Write the 16-bit parcel at `addr` (used by the loader).
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] when the parcel lies outside memory.
    pub fn write_parcel(&mut self, addr: u32, value: u16) -> Result<(), SimError> {
        let a = self.check(addr & !1, 2)?;
        self.bytes[a..a + 2].copy_from_slice(&value.to_le_bytes());
        self.mark(a);
        Ok(())
    }

    /// Read up to `max` consecutive parcels starting at `addr`, stopping
    /// at the end of memory. Used by decode paths that need a lookahead
    /// window.
    pub fn parcel_window(&self, addr: u32, max: usize) -> Vec<u16> {
        let mut out = vec![0u16; max];
        let n = self.parcel_window_into(addr, &mut out);
        out.truncate(n);
        out
    }

    /// Fill `buf` with consecutive parcels starting at `addr` and return
    /// how many were read (bounds-checked against the end of memory: the
    /// count is short exactly when the window runs off physical memory).
    ///
    /// This is the allocation-free form of [`Memory::parcel_window`]:
    /// decode paths pass a stack-allocated `[u16; N]` window instead of
    /// building a fresh `Vec` per miss. Memory is byte-addressed and
    /// little-endian, so parcels cannot be *borrowed* as a `&[u16]`
    /// without alignment games; a bounded copy into a caller-owned
    /// buffer is the sound equivalent.
    pub fn parcel_window_into(&self, addr: u32, buf: &mut [u16]) -> usize {
        let start = (addr & !1) as usize;
        if start >= self.bytes.len() {
            return 0;
        }
        let avail_parcels = (self.bytes.len() - start) / 2;
        let n = buf.len().min(avail_parcels);
        for (i, slot) in buf.iter_mut().take(n).enumerate() {
            let a = start + i * 2;
            *slot = u16::from_le_bytes([self.bytes[a], self.bytes[a + 1]]);
        }
        n
    }

    /// Indices of the pages set in `bits`, a bitmap laid out like
    /// `dirty`.
    fn pages(bits: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
        bits.enumerate().flat_map(|(w, mut b)| {
            std::iter::from_fn(move || {
                (b != 0).then(|| {
                    let bit = b.trailing_zeros() as usize;
                    b &= b - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// Zero memory in place, keeping the allocation — the reset path
    /// behind [`crate::Machine::reset_from`]. Only dirty pages are
    /// cleared (clean pages are already zero), then every page is
    /// marked clean.
    pub fn zero(&mut self) {
        for page in Self::pages(self.dirty.iter().copied()) {
            let r = self.page_range(page);
            self.bytes[r].fill(0);
        }
        self.dirty.fill(0);
    }
}

/// Equal sizes and equal bytes. Only pages dirty on either side are
/// compared: a page clean on both sides is zero on both.
impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        self.bytes.len() == other.bytes.len()
            && Self::pages(self.dirty.iter().zip(&other.dirty).map(|(a, b)| a | b)).all(|page| {
                let r = self.page_range(page);
                self.bytes[r.clone()] == other.bytes[r]
            })
    }
}

impl Eq for Memory {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_round_trip_little_endian() {
        let mut m = Memory::new(64);
        m.write_word(8, -1234).unwrap();
        assert_eq!(m.read_word(8).unwrap(), -1234);
        m.write_word(12, 0x1234_5678).unwrap();
        // Little-endian byte order: parcels see low half first.
        assert_eq!(m.read_parcel(12).unwrap(), 0x5678);
        assert_eq!(m.read_parcel(14).unwrap(), 0x1234);
    }

    #[test]
    fn alignment_masking() {
        let mut m = Memory::new(64);
        m.write_word(16, 42).unwrap();
        assert_eq!(m.read_word(17).unwrap(), 42);
        assert_eq!(m.read_word(19).unwrap(), 42);
        m.write_parcel(20, 7).unwrap();
        assert_eq!(m.read_parcel(21).unwrap(), 7);
    }

    #[test]
    fn bounds_checked() {
        let m = Memory::new(16);
        assert_eq!(m.read_word(12).unwrap(), 0);
        assert!(matches!(
            m.read_word(16),
            Err(SimError::MemOutOfBounds { .. })
        ));
        assert!(matches!(
            m.read_word(u32::MAX),
            Err(SimError::MemOutOfBounds { .. })
        ));
        assert!(matches!(
            m.read_parcel(16),
            Err(SimError::MemOutOfBounds { .. })
        ));
        let mut m = Memory::new(16);
        assert!(matches!(
            m.write_word(16, 0),
            Err(SimError::MemOutOfBounds { .. })
        ));
    }

    use crate::machine::DEFAULT_MEMORY_BYTES;
    use proptest::prelude::*;

    /// Sizes around the page and bitmap-word edges: sub-page, the
    /// default (256 pages, four bitmap words), and sizes above it that
    /// end mid-page and spill into a fifth bitmap word.
    const SIZES: [u32; 5] = [
        64,
        3 * PAGE_BYTES as u32 + 6,
        DEFAULT_MEMORY_BYTES,
        DEFAULT_MEMORY_BYTES + 6,
        DEFAULT_MEMORY_BYTES + PAGE_BYTES as u32 + 514,
    ];

    /// A splitmix64 stream.
    fn stream(seed: u64) -> impl FnMut() -> u64 + Clone {
        let mut x = seed;
        move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// A random address biased toward the edges: unaligned low bytes,
    /// the last words of memory, just past the end, and anywhere.
    fn addr(next: &mut impl FnMut() -> u64, size: u32) -> u32 {
        match next() % 4 {
            0 => (next() % 64) as u32,
            1 => size.saturating_sub(8) + (next() % 8) as u32,
            2 => size + (next() % 8) as u32,
            _ => (next() % u64::from(size)) as u32,
        }
    }

    /// One random write applied to memory and to its plain shadow with
    /// the same rounding and bounds rules.
    fn write(next: &mut impl FnMut() -> u64, m: &mut Memory, shadow: &mut [u8]) {
        let a = addr(next, m.size());
        let v = next();
        if v.is_multiple_of(2) {
            let r = m.write_word(a, v as i32);
            let at = (a & !3) as usize;
            match shadow.get_mut(at..at + 4) {
                Some(w) => {
                    r.unwrap();
                    w.copy_from_slice(&(v as i32).to_le_bytes());
                }
                None => assert!(r.is_err()),
            }
        } else {
            let r = m.write_parcel(a, v as u16);
            let at = (a & !1) as usize;
            match shadow.get_mut(at..at + 2) {
                Some(w) => {
                    r.unwrap();
                    w.copy_from_slice(&(v as u16).to_le_bytes());
                }
                None => assert!(r.is_err()),
            }
        }
    }

    /// Full scan through the read path, independent of `==`.
    fn assert_holds(m: &Memory, shadow: &[u8]) {
        assert_eq!(m.size() as usize, shadow.len());
        for (i, pair) in shadow.chunks_exact(2).enumerate() {
            let want = u16::from_le_bytes([pair[0], pair[1]]);
            assert_eq!(
                m.read_parcel(i as u32 * 2).unwrap(),
                want,
                "at {:#x}",
                i * 2
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Writes land where the plain shadow says, and `==` agrees
        /// with byte equality of the shadows — including pages written
        /// on one side only (back to their old value or to zero), and
        /// pages dirty on both sides with different contents.
        #[test]
        fn eq_matches_shadow_byte_equality(seed in 0u64..1_000_000) {
            let mut next = stream(seed);
            for size in SIZES {
                let mut a = Memory::new(size);
                let mut b = Memory::new(size);
                let mut sa = vec![0u8; size as usize];
                let mut sb = vec![0u8; size as usize];
                for _ in 0..(next() % 40) {
                    let mut fork = next.clone();
                    write(&mut next, &mut a, &mut sa);
                    write(&mut fork, &mut b, &mut sb);
                }
                prop_assert!(a == b);
                prop_assert!(b == a);
                // Diverge b with a few writes that may or may not
                // change a byte: rewrite the current value, write zero,
                // or write something random.
                for _ in 0..(next() % 4) {
                    let at = addr(&mut next, size);
                    let v = match next() % 3 {
                        0 => b.read_word(at).unwrap_or(0),
                        1 => 0,
                        _ => next() as i32,
                    };
                    let r = b.write_word(at, v);
                    let w = (at & !3) as usize;
                    if let Some(dst) = sb.get_mut(w..w + 4) {
                        r.unwrap();
                        dst.copy_from_slice(&v.to_le_bytes());
                    }
                }
                assert_holds(&a, &sa);
                assert_holds(&b, &sb);
                prop_assert_eq!(a == b, sa == sb, "size {}", size);
                prop_assert_eq!(b == a, sa == sb, "size {}", size);
            }
            // Different sizes never compare equal, even all-zero.
            prop_assert!(Memory::new(SIZES[2]) != Memory::new(SIZES[3]));
        }

        /// `zero()` clears every byte any write reached, and leaves the
        /// page bookkeeping ready for the next run: writes after a
        /// zero are cleared by the next zero too.
        #[test]
        fn zero_clears_every_written_byte(seed in 0u64..1_000_000) {
            let mut next = stream(seed);
            for size in SIZES {
                let mut m = Memory::new(size);
                let zeros = vec![0u8; size as usize];
                for _round in 0..3 {
                    let mut shadow = zeros.clone();
                    for _ in 0..(next() % 64) {
                        write(&mut next, &mut m, &mut shadow);
                    }
                    assert_holds(&m, &shadow);
                    m.zero();
                    assert_holds(&m, &zeros);
                    prop_assert!(m == Memory::new(size));
                }
            }
        }
    }

    #[test]
    fn parcel_window_stops_at_end() {
        let mut m = Memory::new(8);
        for i in 0..4u16 {
            m.write_parcel(i as u32 * 2, i + 1).unwrap();
        }
        assert_eq!(m.parcel_window(4, 10), vec![3, 4]);
        assert_eq!(m.parcel_window(0, 2), vec![1, 2]);
        assert!(m.parcel_window(8, 4).is_empty());
    }
}
