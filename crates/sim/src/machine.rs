use crisp_asm::Image;
use crisp_isa::{BinOp, Decoded, ExecOp, FoldClass, NextPc, Operand, Psw};

use crate::observe::{Interest, PipeEvent, PipeObserver};
use crate::{Memory, SimError};

/// Default memory size: 256 KiB covers the default memory map (code at
/// 0, data at 64 KiB, stack top just below 256 KiB).
pub const DEFAULT_MEMORY_BYTES: u32 = 0x0004_0000;

/// The architectural state of the machine: memory, stack pointer,
/// accumulator, PSW flag and (for the functional engine) the PC.
///
/// Both simulation engines mutate a `Machine` exclusively through
/// [`Machine::execute`], which applies one decoded entry atomically —
/// the reconstruction's commit point (the hardware's result-write at the
/// end of the RR stage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// Simulated memory.
    pub mem: Memory,
    /// Stack pointer (byte address, grows down).
    pub sp: u32,
    /// The accumulator (the paper's `Accum`).
    pub accum: i32,
    /// Program status word (the condition flag).
    pub psw: Psw,
    /// Architectural program counter.
    pub pc: u32,
    /// Whether a `halt` has been executed.
    pub halted: bool,
    /// First byte of the loaded text segment (`image.code_base`).
    text_base: u32,
    /// One past the last byte of the loaded text segment.
    text_end: u32,
}

/// The result of executing one decoded entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The architecturally correct next PC.
    pub next_pc: u32,
    /// For conditional entries, whether the branch was taken.
    pub taken: Option<bool>,
    /// The memory word this entry wrote (word-aligned address, value),
    /// if any — the ISA writes at most one word per instruction.
    pub mem_write: Option<(u32, i32)>,
    /// Whether this entry halted the machine.
    pub halted: bool,
}

impl Machine {
    /// Build a machine with `size` bytes of memory and load `image`.
    ///
    /// # Errors
    ///
    /// [`SimError::ImageTooLarge`] when the image (code, data or stack
    /// top) does not fit.
    pub fn with_memory(image: &Image, size: u32) -> Result<Machine, SimError> {
        if image.min_memory_bytes() > size {
            return Err(SimError::ImageTooLarge {
                required: image.min_memory_bytes(),
                available: size,
            });
        }
        let mut mem = Memory::new(size);
        for (i, &parcel) in image.parcels.iter().enumerate() {
            mem.write_parcel(image.code_base + i as u32 * 2, parcel)?;
        }
        for (base, words) in &image.data {
            for (i, &w) in words.iter().enumerate() {
                mem.write_word(base + i as u32 * 4, w)?;
            }
        }
        Ok(Machine {
            mem,
            sp: image.stack_top.unwrap_or(Image::DEFAULT_STACK_TOP),
            accum: 0,
            psw: Psw::new(),
            pc: image.entry,
            halted: false,
            text_base: image.code_base,
            text_end: image.code_base + image.parcels.len() as u32 * 2,
        })
    }

    /// Build a machine with the default 256 KiB memory and load `image`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::with_memory`].
    pub fn load(image: &Image) -> Result<Machine, SimError> {
        Machine::with_memory(image, Machine::load_size(image))
    }

    /// The memory size [`Machine::load`] gives `image`: the default
    /// 256 KiB, or more when the image needs it.
    pub(crate) fn load_size(image: &Image) -> u32 {
        DEFAULT_MEMORY_BYTES.max(image.min_memory_bytes())
    }

    /// First byte of the loaded text segment.
    pub fn text_base(&self) -> u32 {
        self.text_base
    }

    /// One past the last byte of the loaded text segment.
    pub fn text_end(&self) -> u32 {
        self.text_end
    }

    /// Reinitialise this machine in place to the state a fresh
    /// [`Machine::load`] of `image` would produce, reusing the memory
    /// allocation. Campaign workers run millions of short cases;
    /// clearing and rewriting an existing buffer avoids a fresh
    /// multi-hundred-KiB allocation (and its page faults) per case, and
    /// [`Memory::zero`] clears only the pages the previous run wrote
    /// (see the dirty-page notes on [`Memory`]), so a reset costs what
    /// the last run touched, not the memory size.
    ///
    /// The result is bit-identical to a fresh load — including the
    /// memory *size*, which is `max(DEFAULT_MEMORY_BYTES,
    /// image.min_memory_bytes())` and therefore reallocated only when
    /// the target size actually differs from the current one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::with_memory`].
    pub fn reset_from(&mut self, image: &Image) -> Result<(), SimError> {
        let size = Machine::load_size(image);
        if image.min_memory_bytes() > size {
            return Err(SimError::ImageTooLarge {
                required: image.min_memory_bytes(),
                available: size,
            });
        }
        if self.mem.size() != size {
            self.mem = Memory::new(size);
        } else {
            self.mem.zero();
        }
        for (i, &parcel) in image.parcels.iter().enumerate() {
            self.mem
                .write_parcel(image.code_base + i as u32 * 2, parcel)?;
        }
        for (base, words) in &image.data {
            for (i, &w) in words.iter().enumerate() {
                self.mem.write_word(base + i as u32 * 4, w)?;
            }
        }
        self.sp = image.stack_top.unwrap_or(Image::DEFAULT_STACK_TOP);
        self.accum = 0;
        self.psw = Psw::new();
        self.pc = image.entry;
        self.halted = false;
        self.text_base = image.code_base;
        self.text_end = image.code_base + image.parcels.len() as u32 * 2;
        Ok(())
    }

    /// Read the value of an operand.
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] for wild addresses.
    pub fn read_operand(&self, op: Operand) -> Result<i32, SimError> {
        match op {
            Operand::Accum => Ok(self.accum),
            Operand::Imm(v) => Ok(v),
            Operand::SpOff(off) => self.mem.read_word(self.sp.wrapping_add(off as u32)),
            Operand::Abs(a) => self.mem.read_word(a),
            Operand::SpInd(off) => {
                let ptr = self.mem.read_word(self.sp.wrapping_add(off as u32))?;
                self.mem.read_word(ptr as u32)
            }
        }
    }

    /// Write a value to an operand location. Returns the memory write
    /// performed — `(word-aligned address, value)` — or `None` when the
    /// destination is the accumulator (or a discarded immediate).
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] for wild addresses. A write to an
    /// immediate destination is discarded: the encoder rejects such
    /// instructions, so it can only arise from a corrupted decoded
    /// entry (see [`crate::soft_error`]), where "the result goes
    /// nowhere" is the natural don't-care behaviour.
    pub fn write_operand(
        &mut self,
        op: Operand,
        value: i32,
    ) -> Result<Option<(u32, i32)>, SimError> {
        let store = |mem: &mut crate::Memory, addr: u32| -> Result<Option<(u32, i32)>, SimError> {
            mem.write_word(addr, value)?;
            Ok(Some((addr & !3, value)))
        };
        match op {
            Operand::Accum => {
                self.accum = value;
                Ok(None)
            }
            Operand::Imm(_) => Ok(None),
            Operand::SpOff(off) => store(&mut self.mem, self.sp.wrapping_add(off as u32)),
            Operand::Abs(a) => store(&mut self.mem, a),
            Operand::SpInd(off) => {
                let ptr = self.mem.read_word(self.sp.wrapping_add(off as u32))?;
                store(&mut self.mem, ptr as u32)
            }
        }
    }

    /// Resolve a `NextPc` against current state (after the entry's
    /// operation has executed).
    fn resolve_next(&self, next: NextPc) -> Result<u32, SimError> {
        Ok(match next {
            NextPc::Known(a) => a,
            NextPc::IndAbs(a) => self.mem.read_word(a)? as u32,
            NextPc::IndSp(off) => self.mem.read_word(self.sp.wrapping_add(off as u32))? as u32,
            // `FromRet` is resolved inside RetPop before SP moves; by the
            // time we get here SP has been incremented, so look below it.
            NextPc::FromRet => self.mem.read_word(self.sp.wrapping_sub(4))? as u32,
        })
    }

    /// Execute one decoded entry: apply its operation, update the PSW,
    /// and compute the architecturally correct next PC (following the
    /// *actual* branch direction, not the predicted one).
    ///
    /// This is the single commit point shared by the functional and
    /// cycle engines.
    ///
    /// # Errors
    ///
    /// [`SimError::MemOutOfBounds`] on wild data accesses.
    pub fn execute(&mut self, d: &Decoded) -> Result<Step, SimError> {
        let mut mem_write = None;
        match d.exec {
            ExecOp::Nop => {}
            ExecOp::Halt => {
                self.halted = true;
                self.pc = d.pc;
                return Ok(Step {
                    next_pc: d.pc,
                    taken: None,
                    mem_write: None,
                    halted: true,
                });
            }
            ExecOp::Op2 { op, dst, src } => {
                let b = self.read_operand(src)?;
                let value = if op == BinOp::Mov {
                    b
                } else {
                    let a = self.read_operand(dst)?;
                    op.eval(a, b)
                };
                mem_write = self.write_operand(dst, value)?;
            }
            ExecOp::Op3 { op, a, b } => {
                let av = self.read_operand(a)?;
                let bv = self.read_operand(b)?;
                self.accum = op.eval(av, bv);
            }
            ExecOp::Cmp { cond, a, b } => {
                let av = self.read_operand(a)?;
                let bv = self.read_operand(b)?;
                self.psw.flag = cond.eval(av, bv);
            }
            ExecOp::Enter { bytes } => self.sp = self.sp.wrapping_sub(bytes),
            ExecOp::Leave { bytes } => self.sp = self.sp.wrapping_add(bytes),
            ExecOp::CallPush { ret } => {
                self.sp = self.sp.wrapping_sub(4);
                self.mem.write_word(self.sp, ret as i32)?;
                mem_write = Some((self.sp & !3, ret as i32));
            }
            ExecOp::RetPop => {
                // Target is read before the pop; resolve_next compensates.
                self.sp = self.sp.wrapping_add(4);
            }
        }

        let (next_pc, taken) = match d.fold {
            FoldClass::Sequential | FoldClass::Uncond => (self.resolve_next(d.next_pc)?, None),
            FoldClass::Cond {
                on_true,
                predict_taken,
            } => {
                let taken = self.psw.flag == on_true;
                // Decoding always gives conditional entries an
                // alternate; only a corrupted entry (soft_error) lacks
                // one, and then both paths collapse onto Next-PC.
                let chosen = if taken == predict_taken {
                    d.next_pc
                } else {
                    d.alt_pc.unwrap_or(d.next_pc)
                };
                (self.resolve_next(chosen)?, Some(taken))
            }
        };
        self.pc = next_pc;
        Ok(Step {
            next_pc,
            taken,
            mem_write,
            halted: false,
        })
    }

    /// [`Machine::execute`] plus retirement events: emits
    /// [`PipeEvent::Issue`] and [`PipeEvent::Commit`] for the entry
    /// (and [`PipeEvent::Halt`] / [`PipeEvent::BranchRetire`] as
    /// applicable) at `cycle`. Both engines retire through this method
    /// so observers see an identical commit stream. `Commit` is built
    /// for [`Interest::Commits`] and above, the other three only for
    /// [`Interest::All`]; with [`crate::NullObserver`] it compiles to
    /// exactly `execute`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::execute`].
    pub fn execute_observed<O: PipeObserver>(
        &mut self,
        d: &Decoded,
        cycle: u64,
        obs: &mut O,
    ) -> Result<Step, SimError> {
        let step = self.execute(d)?;
        if O::INTEREST == Interest::All {
            obs.event(PipeEvent::Issue {
                cycle,
                pc: d.pc,
                folded: d.folded,
            });
        }
        if O::INTEREST >= Interest::Commits {
            obs.event(PipeEvent::Commit {
                cycle,
                pc: d.pc,
                next_pc: step.next_pc,
                branch_pc: d.branch_pc,
                folded: d.folded,
                taken: step.taken,
                accum: self.accum,
                sp: self.sp,
                flag: self.psw.flag,
                mem_write: step.mem_write,
                halted: step.halted,
            });
        }
        if O::INTEREST == Interest::All {
            if step.halted {
                obs.event(PipeEvent::Halt { cycle });
            }
            if let (Some(taken), FoldClass::Cond { predict_taken, .. }) = (step.taken, d.fold) {
                obs.event(PipeEvent::BranchRetire {
                    cycle,
                    branch_pc: d.branch_pc.unwrap_or(d.pc),
                    taken,
                    predicted: predict_taken,
                    folded: d.folded,
                });
            }
        }
        Ok(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_asm::assemble_text;
    use crisp_isa::{decode_and_fold, FoldPolicy};

    fn machine_with(src: &str) -> Machine {
        Machine::load(&assemble_text(src).unwrap()).unwrap()
    }

    fn entry(m: &Machine, pc: u32) -> Decoded {
        let window = m.mem.parcel_window(pc, 10);
        decode_and_fold(&window, 0, pc, FoldPolicy::Host13).unwrap()
    }

    #[test]
    fn loads_image() {
        let m = machine_with("mov 0(sp),$5\nhalt");
        assert_eq!(m.pc, 0);
        assert!(!m.halted);
        assert_eq!(m.sp, Image::DEFAULT_STACK_TOP);
    }

    #[test]
    fn op2_reads_and_writes_stack() {
        let mut m = machine_with("add 0(sp),$3\nhalt");
        m.mem.write_word(m.sp, 10).unwrap();
        let d = entry(&m, 0);
        let step = m.execute(&d).unwrap();
        assert_eq!(m.mem.read_word(m.sp).unwrap(), 13);
        assert_eq!(step.next_pc, 2);
        assert_eq!(step.taken, None);
    }

    #[test]
    fn cmp_sets_flag_and_cond_branch_follows_it() {
        let mut m = machine_with(
            "
            cmp.= Accum,$0
            ifjmpy.t .+10
            halt
            ",
        );
        // Accum starts 0, so flag becomes true and the fold (cmp hosts
        // the branch) follows the taken path.
        let d = entry(&m, 0);
        assert!(d.folded);
        let step = m.execute(&d).unwrap();
        assert!(m.psw.flag);
        assert_eq!(step.taken, Some(true));
        assert_eq!(step.next_pc, 2 + 10);
    }

    #[test]
    fn mispredicted_direction_still_architecturally_correct() {
        let mut m = machine_with(
            "
            cmp.= Accum,$1
            ifjmpy.t .+10
            halt
            ",
        );
        // Accum is 0 ≠ 1: flag false, branch (on_true) not taken even
        // though predicted taken.
        let d = entry(&m, 0);
        let step = m.execute(&d).unwrap();
        assert_eq!(step.taken, Some(false));
        assert_eq!(step.next_pc, 4); // fall-through past cmp(1)+branch(1)
    }

    #[test]
    fn call_pushes_and_ret_pops() {
        let mut m = machine_with(
            "
            call f
            halt
            f: ret
            ",
        );
        let sp0 = m.sp;
        let d = entry(&m, 0);
        let step = m.execute(&d).unwrap();
        assert_eq!(m.sp, sp0 - 4);
        assert_eq!(m.mem.read_word(m.sp).unwrap(), 2); // return address
        let f = step.next_pc;
        let d = entry(&m, f);
        let step = m.execute(&d).unwrap();
        assert_eq!(m.sp, sp0);
        assert_eq!(step.next_pc, 2); // back to the halt
    }

    #[test]
    fn enter_leave_move_sp() {
        let mut m = machine_with("enter 16\nleave 16\nhalt");
        let sp0 = m.sp;
        let d = entry(&m, 0);
        m.execute(&d).unwrap();
        assert_eq!(m.sp, sp0 - 16);
        let d = entry(&m, 2);
        m.execute(&d).unwrap();
        assert_eq!(m.sp, sp0);
    }

    #[test]
    fn halt_stops() {
        let mut m = machine_with("halt");
        let d = entry(&m, 0);
        let step = m.execute(&d).unwrap();
        assert!(step.halted);
        assert!(m.halted);
    }

    #[test]
    fn indirect_jump_through_memory() {
        let mut m = machine_with("jmp *0x10000\nhalt");
        m.mem.write_word(0x10000, 0x42).unwrap();
        let d = entry(&m, 0);
        let step = m.execute(&d).unwrap();
        assert_eq!(step.next_pc, 0x42);
    }

    #[test]
    fn indirect_jump_through_stack() {
        let mut m = machine_with("jmp *8(sp)\nhalt");
        let sp = m.sp;
        m.mem.write_word(sp + 8, 0x64).unwrap();
        let d = entry(&m, 0);
        let step = m.execute(&d).unwrap();
        assert_eq!(step.next_pc, 0x64);
    }

    #[test]
    fn spind_operands() {
        let mut m = machine_with("mov [0(sp)],$9\nhalt");
        let sp = m.sp;
        m.mem.write_word(sp, 0x11000).unwrap(); // pointer
        let d = entry(&m, 0);
        m.execute(&d).unwrap();
        assert_eq!(m.mem.read_word(0x11000).unwrap(), 9);
    }

    #[test]
    fn reset_from_matches_fresh_load() {
        let img_a = assemble_text("mov 0(sp),$5\nhalt").unwrap();
        let img_b = assemble_text("enter 8\nleave 8\nhalt").unwrap();
        let mut m = Machine::load(&img_a).unwrap();
        // Dirty every piece of state before resetting.
        let d = entry(&m, 0);
        m.execute(&d).unwrap();
        m.accum = 77;
        m.psw.flag = true;
        m.mem.write_word(0x11000, 123).unwrap();
        m.reset_from(&img_b).unwrap();
        assert_eq!(m, Machine::load(&img_b).unwrap());
        m.reset_from(&img_a).unwrap();
        assert_eq!(m, Machine::load(&img_a).unwrap());
    }

    /// Every byte of `a` and `b` agrees, by a full scan through the
    /// read path rather than the dirty-page `==`.
    fn assert_same_bytes(a: &Machine, b: &Machine) {
        assert_eq!(a.mem.size(), b.mem.size());
        for addr in (0..a.mem.size()).step_by(2) {
            assert_eq!(
                a.mem.read_parcel(addr).unwrap(),
                b.mem.read_parcel(addr).unwrap(),
                "at {addr:#x}"
            );
        }
    }

    /// An image needing `DEFAULT_MEMORY_BYTES + extra` bytes (a size
    /// that ends mid-page when `extra` is not a page multiple), with
    /// data on the last word below its stack top.
    fn big_image(extra: u32) -> Image {
        let mut img = assemble_text("enter 8\nmov 0(sp),$3\nhalt").unwrap();
        let top = DEFAULT_MEMORY_BYTES + extra - 4;
        img.stack_top = Some(top);
        img.data.push((top - 4, vec![-7]));
        img
    }

    #[test]
    fn reset_from_matches_fresh_load_by_byte_scan() {
        let images = [
            assemble_text("mov 0(sp),$5\nhalt").unwrap(),
            big_image(8),
            big_image(crate::mem::PAGE_BYTES as u32 + 516),
            assemble_text("enter 8\nleave 8\nhalt").unwrap(),
        ];
        let mut m = Machine::load(&images[0]).unwrap();
        for (i, img) in images.iter().chain(&images).enumerate() {
            // Dirty pages all over the current memory, the last word
            // included, then recycle the buffer for `img`.
            let size = m.mem.size();
            for k in 0..64u32 {
                let at = k.wrapping_mul(0x9E37_79B9) % size;
                m.mem.write_word(at, (k + 1) as i32 * 0x0101_0101).unwrap();
            }
            m.mem.write_word(size - 4, -1).unwrap();
            m.mem.write_parcel(size - 2, 0xBEEF).unwrap();
            m.reset_from(img).unwrap();
            let fresh = Machine::load(img).unwrap();
            assert_same_bytes(&m, &fresh);
            assert_eq!(m, fresh, "image {i}");

            // zero() alone leaves a machine whose memory is all zero.
            let mut z = m.clone();
            z.mem.zero();
            assert!((0..z.mem.size())
                .step_by(2)
                .all(|a| z.mem.read_parcel(a) == Ok(0)));
        }
    }

    #[test]
    fn text_bounds_recorded() {
        let img = assemble_text("enter 8\nhalt").unwrap();
        let m = Machine::load(&img).unwrap();
        assert_eq!(m.text_base(), img.code_base);
        assert_eq!(m.text_end(), img.code_base + img.parcels.len() as u32 * 2);
    }

    #[test]
    fn image_too_large_detected() {
        let img = assemble_text("halt").unwrap();
        let e = Machine::with_memory(&img, 16).unwrap_err();
        assert!(matches!(e, SimError::ImageTooLarge { .. }));
    }

    #[test]
    fn cmp_is_only_flag_writer() {
        let mut m = machine_with("cmp.= Accum,$0\nadd 0(sp),$1\nhalt");
        let d = entry(&m, 0);
        m.execute(&d).unwrap();
        assert!(m.psw.flag);
        // An add must not clear it.
        let d = entry(&m, 2);
        m.execute(&d).unwrap();
        assert!(m.psw.flag);
    }
}
