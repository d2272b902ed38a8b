//! Shared predecoded program images.
//!
//! The paper's central economy is that decode work is paid **once** and
//! amortized through the decoded instruction cache. The simulator enjoys
//! the same economy because every engine treats the loaded text segment
//! as **read-only to decode**: a store into text changes memory (loads
//! see it) but never the instruction stream. Each parcel-aligned PC
//! therefore decodes to the same entry for a given [`FoldPolicy`] for
//! the whole run — and for every run of the same image.
//!
//! [`PredecodedImage`] captures that: one pass over the text segment at
//! load time produces a dense direct-indexed table (PC → [`Decoded`]),
//! shared via [`Arc`] between the functional and threaded engines, the
//! cycle engine's PDU refill path, and every campaign worker.
//! Steady-state lookups become a bounds check plus an indexed load — no
//! hashing, no window re-slicing, no re-running `decode_and_fold`.
//!
//! Serving every engine from one table is also what makes them agree on
//! a program that overwrites its own text. A PDU that re-decoded live
//! memory on each miss would pick up the new bytes whenever the old
//! line had been evicted, so its answer would depend on the cache size,
//! while the functional engine kept executing what it decoded first.
//! Text PCs the table holds no `Ok` entry for (odd PCs, decode errors)
//! still decode on demand, but from the load-time bytes the table keeps
//! ([`PredecodedImage::text_window`]), never from live memory.

use std::sync::Arc;

use crisp_asm::Image;
use crisp_isa::{decode_and_fold, Decoded, FoldPolicy, IsaError};

use crate::{Machine, SimError};

/// Lookahead window, in parcels, used for each decode. Matches the
/// hardware's bounded fetch queue: the longest instruction is 5 parcels
/// and folding peeks at most 3 more.
pub const DECODE_WINDOW: usize = 8;

/// A program's text segment decoded once, under one [`FoldPolicy`],
/// into a dense table indexed by parcel-aligned PC.
///
/// The table is decoded from **post-load memory**, not the raw image:
/// the bytes after the end of text (a data segment, or zeroed memory)
/// participate in fold lookahead windows, and data blocks are loaded
/// over text. Each slot is therefore bit-identical to the on-demand
/// `decode_and_fold` of a freshly loaded machine (property tests in
/// `tests/prop_predecode.rs` check exactly this across policies, for
/// both constructors).
///
/// Slots hold `Result<Decoded, IsaError>` so decode *errors* are
/// predecoded too: an engine hitting an undecodable PC reports the same
/// error it would have found on demand. Odd (misaligned) PCs and PCs
/// outside the text segment are not covered — [`PredecodedImage::get`]
/// returns `None` and callers fall back to on-demand decode, preserving
/// exact behaviour for wild control flow.
#[derive(Debug, Clone)]
pub struct PredecodedImage {
    policy: FoldPolicy,
    base: u32,
    slots: Vec<Result<Decoded, IsaError>>,
    /// Post-load memory as parcels from `base & !1` through the end of
    /// the last slot's decode window, cut off at memory end.
    parcels: Vec<u16>,
}

impl PredecodedImage {
    /// Decode every parcel-aligned PC of `machine`'s text segment under
    /// `policy`.
    pub fn from_machine(machine: &Machine, policy: FoldPolicy) -> PredecodedImage {
        let base = machine.text_base();
        let n_slots = (machine.text_end().saturating_sub(base) / 2) as usize;
        let mut parcels = vec![0u16; n_slots + DECODE_WINDOW - 1];
        let n = machine.mem.parcel_window_into(base, &mut parcels);
        parcels.truncate(n);
        PredecodedImage::decode(policy, base, n_slots, parcels)
    }

    /// Predecode `image` under `policy` exactly as
    /// [`PredecodedImage::from_machine`] would after a
    /// [`Machine::load`], without building the machine: the text and
    /// the bytes its decode windows read past it are assembled from the
    /// image directly.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::load`].
    pub fn from_image(image: &Image, policy: FoldPolicy) -> Result<PredecodedImage, SimError> {
        let size = Machine::load_size(image);
        let base = image.code_base;
        let start = base & !1;
        let n_slots = image.parcels.len();
        // Parcels of memory from `start` on: a load that writes past
        // them fails, as `Memory::write_parcel` would.
        let fit = (size.saturating_sub(start) / 2) as usize;
        if n_slots > fit {
            return Err(SimError::MemOutOfBounds {
                addr: start + fit as u32 * 2,
                size,
            });
        }
        let mut parcels = image.parcels.clone();
        parcels.resize((n_slots + DECODE_WINDOW - 1).min(fit), 0);
        // Data loads after text, so it overwrites text and padding alike.
        for (addr, words) in &image.data {
            for (i, &w) in words.iter().enumerate() {
                let at = addr + i as u32 * 4;
                let word = at & !3;
                if u64::from(word) + 4 > u64::from(size) {
                    return Err(SimError::MemOutOfBounds { addr: at, size });
                }
                for (half, value) in [(word, w as u16), (word + 2, (w >> 16) as u16)] {
                    if let Some(slot) = half
                        .checked_sub(start)
                        .and_then(|off| parcels.get_mut((off / 2) as usize))
                    {
                        *slot = value;
                    }
                }
            }
        }
        Ok(PredecodedImage::decode(policy, base, n_slots, parcels))
    }

    /// [`PredecodedImage::from_image`], wrapped in an [`Arc`] for
    /// sharing across engines and campaign workers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::load`].
    pub fn shared(image: &Image, policy: FoldPolicy) -> Result<Arc<PredecodedImage>, SimError> {
        Ok(Arc::new(PredecodedImage::from_image(image, policy)?))
    }

    /// Decode `n_slots` slots from `parcels`, post-load memory from
    /// `base & !1` on.
    fn decode(policy: FoldPolicy, base: u32, n_slots: usize, parcels: Vec<u16>) -> PredecodedImage {
        let slots = (0..n_slots)
            .map(|i| {
                let window = &parcels[i..(i + DECODE_WINDOW).min(parcels.len())];
                decode_and_fold(window, 0, base + i as u32 * 2, policy)
            })
            .collect();
        PredecodedImage {
            policy,
            base,
            slots,
            parcels,
        }
    }

    /// The fold policy the table was decoded under.
    pub fn policy(&self) -> FoldPolicy {
        self.policy
    }

    /// First byte of the covered text segment.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// One past the last covered byte.
    pub fn end(&self) -> u32 {
        self.base + self.slots.len() as u32 * 2
    }

    /// Number of predecoded slots (one per text parcel).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the text segment was empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The predecoded slot for `pc`: `Some` for every parcel-aligned PC
    /// inside the text segment, `None` otherwise (odd PCs decode with a
    /// different entry PC, and out-of-text PCs see live memory — both
    /// must take the caller's on-demand path).
    #[inline]
    pub fn get(&self, pc: u32) -> Option<&Result<Decoded, IsaError>> {
        if pc < self.base || pc & 1 != 0 {
            return None;
        }
        self.slots.get(((pc - self.base) >> 1) as usize)
    }

    /// The successfully predecoded entry at `pc`, if any.
    #[inline]
    pub fn decoded(&self, pc: u32) -> Option<&Decoded> {
        match self.get(pc) {
            Some(Ok(d)) => Some(d),
            _ => None,
        }
    }

    /// The decode window at a text PC as it was loaded: fills `buf`
    /// (at most [`DECODE_WINDOW`] parcels) from `pc & !1` on and
    /// returns how many parcels it holds — short only at memory end,
    /// exactly like [`crate::Memory::parcel_window_into`] on the loaded
    /// machine. `None` for PCs outside the text segment, whose bytes
    /// only live memory holds. On-demand decode of a text PC reads this
    /// instead of live memory, so text stays read-only to decode even
    /// off the table.
    #[inline]
    pub fn text_window(&self, pc: u32, buf: &mut [u16]) -> Option<usize> {
        debug_assert!(buf.len() <= DECODE_WINDOW);
        if pc < self.base || pc >= self.end() {
            return None;
        }
        let i = (((pc & !1) - (self.base & !1)) / 2) as usize;
        let window = &self.parcels[i..(i + buf.len()).min(self.parcels.len())];
        buf[..window.len()].copy_from_slice(window);
        Some(window.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_asm::assemble_text;

    fn table(src: &str, policy: FoldPolicy) -> (Machine, PredecodedImage) {
        let img = assemble_text(src).unwrap();
        let m = Machine::load(&img).unwrap();
        let t = PredecodedImage::from_machine(&m, policy);
        (m, t)
    }

    #[test]
    fn agrees_with_on_demand_decode() {
        let (m, t) = table(
            "
            loop: add 0(sp),$1
            cmp.= 0(sp),$10
            ifjmpy.nt loop
            halt
            ",
            FoldPolicy::All,
        );
        assert_eq!(t.base(), m.text_base());
        assert_eq!(t.end(), m.text_end());
        let mut pc = t.base();
        while pc < t.end() {
            let window = m.mem.parcel_window(pc, DECODE_WINDOW);
            let want = decode_and_fold(&window, 0, pc, FoldPolicy::All);
            assert_eq!(t.get(pc), Some(&want), "pc={pc:#x}");
            pc += 2;
        }
    }

    #[test]
    fn decode_errors_are_predecoded() {
        // Opcode 46 is unassigned: the slot must hold the same error
        // on-demand decode reports.
        let (_, t) = table(".word 0x0000B800\nhalt", FoldPolicy::Host13);
        assert!(matches!(t.get(0), Some(Err(_))));
        assert!(matches!(t.get(4), Some(Ok(d)) if d.pc == 4));
    }

    #[test]
    fn out_of_range_and_odd_pcs_are_uncovered() {
        let (_, t) = table("halt", FoldPolicy::None);
        assert!(t.get(1).is_none());
        assert!(t.get(t.end()).is_none());
        assert!(t.get(u32::MAX).is_none());
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
        assert_eq!(t.policy(), FoldPolicy::None);
    }

    #[test]
    fn shared_wraps_in_arc() {
        let img = assemble_text("halt").unwrap();
        let t = PredecodedImage::shared(&img, FoldPolicy::All).unwrap();
        let t2 = Arc::clone(&t);
        assert!(matches!(t2.decoded(0), Some(d) if d.pc == 0));
    }
}
