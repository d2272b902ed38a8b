//! Property tests for the shared predecode table and the pooled
//! machine-reset path — the two invariants the hot-path batch kernel
//! leans on:
//!
//! 1. [`PredecodedImage`] agrees with on-demand `decode_and_fold` at
//!    every parcel-aligned PC of the text segment, under every
//!    [`FoldPolicy`], for randomly generated programs. This is what
//!    lets the functional engine and the PDU's miss path read one
//!    shared table instead of re-decoding.
//! 2. [`Machine::reset_from`] on an arbitrarily dirtied machine is
//!    bit-identical to a fresh [`Machine::load`] of the same image, so
//!    campaign workers can recycle machine buffers without any
//!    cross-case state leak.
//! 3. [`PredecodedImage::from_image`], which never builds a machine,
//!    equals [`PredecodedImage::from_machine`] of the loaded image at
//!    every slot and every load-time decode window — with data
//!    segments after or over the text, and with text running into the
//!    end of memory.

use crisp::asm::rand_prog::GenProgram;
use crisp::asm::Image;
use crisp::isa::{decode_and_fold, FoldPolicy};
use crisp::sim::{FunctionalSim, Machine, PredecodedImage, DECODE_WINDOW};
use proptest::prelude::*;

const POLICIES: [FoldPolicy; 4] = [
    FoldPolicy::None,
    FoldPolicy::Host1,
    FoldPolicy::Host13,
    FoldPolicy::All,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Claim 1: every covered slot matches a demand decode of post-load
    /// memory, errors included, and nothing outside the text segment or
    /// off parcel alignment is covered.
    #[test]
    fn predecode_agrees_with_on_demand_decode(
        seed in 0u64..10_000,
        max_blocks in 1usize..12,
    ) {
        let prog = GenProgram::generate(seed, max_blocks);
        let image = prog.image().expect("generated programs assemble");
        let machine = Machine::load(&image).expect("generated programs load");
        for policy in POLICIES {
            let table = PredecodedImage::from_machine(&machine, policy);
            prop_assert_eq!(table.base(), machine.text_base());
            prop_assert_eq!(table.end(), machine.text_end());
            let mut pc = table.base();
            while pc < table.end() {
                let window = machine.mem.parcel_window(pc, DECODE_WINDOW);
                let want = decode_and_fold(&window, 0, pc, policy);
                prop_assert_eq!(
                    table.get(pc),
                    Some(&want),
                    "seed {} policy {:?} pc {:#x}",
                    seed,
                    policy,
                    pc
                );
                prop_assert!(table.get(pc + 1).is_none(), "odd pc covered");
                pc += 2;
            }
            prop_assert!(table.get(table.end()).is_none());
        }
    }

    /// Claim 2: resetting a dirtied machine from another image is
    /// indistinguishable from loading that image fresh — including
    /// memory size, every byte of memory, registers and halt state.
    #[test]
    fn reset_from_is_bit_identical_to_fresh_load(
        seed_a in 0u64..10_000,
        seed_b in 0u64..10_000,
        max_blocks in 1usize..10,
    ) {
        let image_a = GenProgram::generate(seed_a, max_blocks)
            .image()
            .expect("assembles");
        let image_b = GenProgram::generate(seed_b, max_blocks)
            .image()
            .expect("assembles");

        // Dirty a machine by actually running program A for a while:
        // real register values, stack traffic and data writes.
        let mut run = FunctionalSim::new(Machine::load(&image_a).unwrap())
            .max_steps(500)
            .run()
            .expect("bounded run");
        run.machine.reset_from(&image_b).expect("reset");
        prop_assert_eq!(&run.machine, &Machine::load(&image_b).unwrap());

        // And back again: the recycled buffer round-trips to image A.
        run.machine.reset_from(&image_a).expect("reset back");
        prop_assert_eq!(&run.machine, &Machine::load(&image_a).unwrap());
    }

    /// Claim 3: the machine-free build reads exactly the bytes a load
    /// would leave in memory. `data_at` places one data block relative
    /// to the end of text (negative offsets overwrite text), and
    /// `near_end` moves the text so it ends `shift` parcels from the
    /// default memory top (past it, memory ends with the text or the
    /// data, and the last windows are cut short).
    #[test]
    fn from_image_agrees_with_from_machine(
        seed in 0u64..10_000,
        max_blocks in 1usize..8,
        data_at in -24i32..24,
        data in prop::collection::vec(any::<i32>(), 0..6),
        near_end in any::<bool>(),
        shift in -8i32..8,
    ) {
        let mut image: Image = GenProgram::generate(seed, max_blocks)
            .image()
            .expect("generated programs assemble");
        if near_end {
            image.code_base = (MEMORY_TOP - image.code_bytes()).saturating_add_signed(shift * 2) & !1;
            image.entry = image.code_base;
        }
        let text_end = image.code_base + image.code_bytes();
        image.data.push((text_end.saturating_add_signed(data_at), data));
        let machine = Machine::load(&image).expect("image loads");
        for policy in POLICIES {
            let built = PredecodedImage::from_image(&image, policy).expect("image predecodes");
            let loaded = PredecodedImage::from_machine(&machine, policy);
            prop_assert_eq!(built.base(), loaded.base());
            prop_assert_eq!(built.end(), loaded.end());
            for pc in built.base()..built.end() {
                prop_assert_eq!(built.get(pc), loaded.get(pc), "policy {:?} pc {:#x}", policy, pc);
                let (mut a, mut b) = ([0u16; DECODE_WINDOW], [0u16; DECODE_WINDOW]);
                let (na, nb) = (built.text_window(pc, &mut a), loaded.text_window(pc, &mut b));
                prop_assert_eq!(na, nb, "window length at pc {:#x}", pc);
                let n = na.expect("text pc has a window");
                prop_assert_eq!(&a[..n], &b[..n], "window at pc {:#x}", pc);
                let mut live = [0u16; DECODE_WINDOW];
                let nl = machine.mem.parcel_window_into(pc, &mut live);
                prop_assert_eq!(&a[..n], &live[..nl], "window vs memory at pc {:#x}", pc);
            }
        }
    }
}

/// The default memory size of a loaded machine (256 KiB).
const MEMORY_TOP: u32 = 0x4_0000;
