//! A store into the text segment changes memory (loads see it) but
//! never the instruction stream: every engine decodes the text as it
//! was loaded. The cycle engine must agree with the functional engine
//! on such a program at every decoded-cache size — a PDU that
//! re-decoded live memory on a refill would execute the overwritten
//! bytes once the original line had been evicted, so its answer would
//! depend on the cache size.

use std::sync::Arc;

use crisp::asm::assemble_text;
use crisp::isa::FoldPolicy;
use crisp::sim::{
    run_lockstep, CycleSim, FunctionalSim, LockstepOutcome, Machine, NullObserver, PredecodedImage,
    SimConfig,
};

/// `mov *4,$0` zeroes the text word at byte 4, inside the loop's own
/// code, on every iteration.
const SELF_STORE: &str = "
    mov 0(sp),$0
top:
    mov *4,$0
    add 0(sp),$1
    cmp.s< 0(sp),$3
    ifjmpy.t top
    halt
";

const POLICIES: [FoldPolicy; 4] = [
    FoldPolicy::None,
    FoldPolicy::Host1,
    FoldPolicy::Host13,
    FoldPolicy::All,
];

/// Decoded-cache sizes from one line (every refill a miss) up to the
/// default.
const ICACHE_ENTRIES: [usize; 4] = [1, 2, 4, 32];

#[test]
fn stores_into_text_never_reach_the_instruction_stream() {
    let image = assemble_text(SELF_STORE).expect("assembles");
    let loaded = Machine::load(&image).expect("loads");
    assert_ne!(
        loaded.mem.read_word(4).unwrap(),
        0,
        "text word 4 starts nonzero"
    );
    for policy in POLICIES {
        let reference = FunctionalSim::with_policy(Machine::load(&image).unwrap(), policy)
            .run()
            .expect("functional run");
        assert!(reference.halted, "{policy:?}: functional run halts");
        assert_eq!(
            reference.machine.mem.read_word(4).unwrap(),
            0,
            "{policy:?}: the store landed in text"
        );
        let table = PredecodedImage::shared(&image, policy).expect("predecodes");
        for icache_entries in ICACHE_ENTRIES {
            let cfg = SimConfig {
                fold_policy: policy,
                icache_entries,
                ..SimConfig::default()
            };
            let own = CycleSim::new(Machine::load(&image).unwrap(), cfg)
                .run()
                .expect("cycle run");
            let shared = CycleSim::with_predecoded(
                Machine::load(&image).unwrap(),
                cfg,
                NullObserver,
                Arc::clone(&table),
            )
            .run()
            .expect("cycle run");
            for (label, run) in [("own table", &own), ("shared table", &shared)] {
                let at = format!("{policy:?}, {icache_entries} entries, {label}");
                assert!(run.halted, "{at}: cycle run halts");
                assert_eq!(
                    run.stats.program_instrs, reference.stats.program_instrs,
                    "{at}: program_instrs"
                );
                assert_eq!(run.machine, reference.machine, "{at}: final state");
            }
            match run_lockstep(&image, cfg).expect("image loads") {
                LockstepOutcome::Agree { commits, .. } => assert_eq!(
                    commits, reference.stats.entries,
                    "{policy:?}, {icache_entries} entries: lockstep commits"
                ),
                LockstepOutcome::Diverge(d) => {
                    panic!("{policy:?}, {icache_entries} entries: lockstep diverged:\n{d}")
                }
            }
        }
    }
}
