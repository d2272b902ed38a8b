//! Structured observability for the cycle-level simulator.
//!
//! The pipeline, PDU and decoded cache report their per-cycle activity
//! as typed [`PipeEvent`]s through the [`PipeObserver`] trait. The
//! default observer, [`NullObserver`], is a set of empty inlined
//! methods that monomorphize away — the uninstrumented simulator pays
//! nothing — and commit-only observers ([`Interest::Commits`]) pay
//! only for the commit stream. Real observers collect events into a
//! bounded ring ([`EventRing`]), aggregate them per branch site
//! ([`crate::BranchProfiler`]), or both at once (observers compose as
//! tuples).
//!
//! On top of the event stream this module provides three renderings:
//!
//! * [`write_jsonl`] / [`parse_jsonl`] — one flat JSON object per
//!   event, the machine-readable trace format;
//! * [`write_chrome_trace`] — Chrome `trace_event` JSON that opens
//!   directly in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev);
//! * [`render_timeline`] — a Konata-style ASCII lane diagram of the
//!   IR→OR→RR flow around a window of cycles, with squash markers.
//!
//! Event ↔ counter contract: every [`crate::CycleStats`] counter bump
//! has a corresponding event, so an [`EventRing`] large enough to hold
//! the whole run reconciles *exactly* with the end-of-run stats (the
//! `prop_observer` property test enforces this):
//!
//! | counter                  | events                                  |
//! |--------------------------|-----------------------------------------|
//! | `issued`                 | `Issue`                                 |
//! | `program_instrs`         | `Issue` + folded `Issue`                |
//! | `cond_branches`          | `BranchRetire`                          |
//! | `mispredicts_by_stage[s]`| `BranchResolve { stage: s, mispredicted }`|
//! | `resolved_at_fetch`      | `BranchResolve { stage: 0, .. }`        |
//! | `flushed_slots`          | `Squash`                                |
//! | `icache_hits`/`misses`   | `FetchHit` / `FetchMiss`                |
//! | `miss_stall_cycles`      | `StallBegin`/`StallEnd` (kind Miss)     |
//! | `indirect_stall_cycles`  | `StallBegin`/`StallEnd` (kind Indirect) |
//! | `pdu_decodes`            | `Decode`                                |
//! | `cache_inserts` + `cache_refills` | `CacheFill`                    |
//! | `cache_evictions`        | `CacheFill { evicted: Some(_), .. }`    |
//! | `faults_injected`        | `FaultInject`                           |
//! | `parity_invalidates`     | `ParityError`                           |
//! | `degraded_ways`          | `Degrade`                               |
//!
//! `Commit` events sit outside the counter table: they carry the
//! architectural state at the shared commit point and back the
//! differential oracle (see [`crate::CommitRecord`]).

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;

use crisp_isa::FoldFailure;

use crate::geometry::PipelineGeometry;

/// What the Execution Unit is stalled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Decoded-cache miss: waiting for the PDU to fill the entry.
    Miss,
    /// Waiting for an indirect branch target to resolve at retire.
    Indirect,
}

impl StallKind {
    fn name(self) -> &'static str {
        match self {
            StallKind::Miss => "miss",
            StallKind::Indirect => "indirect",
        }
    }

    fn from_name(s: &str) -> Option<StallKind> {
        match s {
            "miss" => Some(StallKind::Miss),
            "indirect" => Some(StallKind::Indirect),
            _ => None,
        }
    }
}

/// Which front-end structure the degrade policy took a unit out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeUnit {
    /// A decoded-cache slot (traffic remaps onto the partner slot).
    Cache,
    /// A BTB way (the set associativity shrinks by one).
    Btb,
}

impl DegradeUnit {
    fn name(self) -> &'static str {
        match self {
            DegradeUnit::Cache => "cache",
            DegradeUnit::Btb => "btb",
        }
    }

    fn from_name(s: &str) -> Option<DegradeUnit> {
        match s {
            "cache" => Some(DegradeUnit::Cache),
            "btb" => Some(DegradeUnit::Btb),
            _ => None,
        }
    }
}

/// One typed observation from the simulator.
///
/// Stage indices follow the mispredict-penalty convention of
/// [`crate::CycleStats::mispredicts_by_stage`]: at the default
/// [`crate::PipelineGeometry`], 0 = cache-read time, 1 = IR, 2 = OR,
/// 3 = RR; at EU depth `D` in general, 0 is still cache-read time and
/// the retire stage carries index `D`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeEvent {
    /// EU fetch hit the decoded cache; the entry enters IR this cycle.
    FetchHit {
        /// Cycle of the fetch.
        cycle: u64,
        /// Address of the fetched entry.
        pc: u32,
        /// Whether the entry carries a folded branch.
        folded: bool,
    },
    /// EU fetch missed the decoded cache (counted once per missing
    /// address, like [`crate::CycleStats::icache_misses`]).
    FetchMiss {
        /// Cycle of the first stalled fetch.
        cycle: u64,
        /// The missing address.
        pc: u32,
    },
    /// The PDU decoded one instruction (possibly on the wrong path).
    Decode {
        /// Cycle of the decode.
        cycle: u64,
        /// Address of the decoded instruction.
        pc: u32,
        /// Whether a branch was folded into the entry.
        folded: bool,
    },
    /// The PDU folded the branch at `branch_pc` into the entry at `pc`.
    Fold {
        /// Cycle of the decode.
        cycle: u64,
        /// Host entry address.
        pc: u32,
        /// Address of the absorbed branch.
        branch_pc: u32,
    },
    /// A branch directly followed the entry at `pc` but could not fold.
    FoldFail {
        /// Cycle of the decode.
        cycle: u64,
        /// Host entry address.
        pc: u32,
        /// Address of the branch that stayed separate.
        branch_pc: u32,
        /// Which folding rule blocked it.
        reason: FoldFailure,
    },
    /// The PDU wrote an entry into the decoded cache.
    CacheFill {
        /// Cycle the entry became visible.
        cycle: u64,
        /// Address of the entry.
        pc: u32,
        /// Address of a conflicting entry this fill evicted, if any.
        evicted: Option<u32>,
    },
    /// A valid entry retired from RR (an EU issue).
    Issue {
        /// Cycle of the retirement.
        cycle: u64,
        /// Address of the entry.
        pc: u32,
        /// Whether the entry carried a folded branch.
        folded: bool,
    },
    /// A conditional branch retired, reporting its direction.
    BranchRetire {
        /// Cycle of the retirement.
        cycle: u64,
        /// Address of the branch instruction.
        branch_pc: u32,
        /// The actual direction.
        taken: bool,
        /// The static prediction bit.
        predicted: bool,
        /// Whether the branch was folded with its host.
        folded: bool,
    },
    /// A live dynamic predictor ([`crate::SimConfig::predictor`], any
    /// non-static variant) was consulted for a conditional entry at
    /// cache-read time. Emitted at the guess, before the outcome is
    /// known; together with the [`PipeEvent::BranchRetire`] stream
    /// (the training points) it lets a trace-driven model replay the
    /// pipeline's exact predict/update interleaving — the
    /// cross-validation in `tests/prop_predictor_xval.rs`. Never
    /// emitted under the static bit, which consults no table.
    Predict {
        /// Cycle of the lookup.
        cycle: u64,
        /// Address of the branch instruction (the predictor's key).
        branch_pc: u32,
        /// The predicted direction.
        guess: bool,
        /// Whether the guess was the table's miss default (no resident
        /// entry) rather than a trained direction.
        miss: bool,
    },
    /// A conditional branch's direction became certain.
    BranchResolve {
        /// Cycle of the resolution.
        cycle: u64,
        /// Address of the branch instruction.
        branch_pc: u32,
        /// Where it resolved: 0 = cache read, then one index per EU
        /// stage up to retire (1 = IR, 2 = OR, 3 = RR at the default
        /// geometry). The mispredict penalty equals this index.
        stage: u8,
        /// Whether the followed path was wrong (recovery required).
        mispredicted: bool,
    },
    /// A wrong-path slot was cancelled (valid bit cleared).
    Squash {
        /// Cycle of the cancellation.
        cycle: u64,
        /// Address of the killed entry.
        pc: u32,
        /// The stage holding it, as a resolve index: `1..=depth-1`
        /// (1 = IR, 2 = OR at the default geometry — the retire stage
        /// cannot be squashed).
        stage: u8,
    },
    /// The EU began stalling.
    StallBegin {
        /// First stalled cycle.
        cycle: u64,
        /// What it stalls on.
        kind: StallKind,
    },
    /// The EU stopped stalling; stalled cycles = `cycle` − begin cycle.
    StallEnd {
        /// First non-stalled cycle.
        cycle: u64,
        /// What it was stalling on.
        kind: StallKind,
    },
    /// A transient fault ([`crate::SimConfig::fault_plan`]) flipped
    /// bits in a live decoded-cache entry.
    FaultInject {
        /// Cycle of the strike.
        cycle: u64,
        /// The struck cache slot.
        slot: u32,
        /// Address of the entry that was resident (and corrupted).
        pc: u32,
    },
    /// A parity check caught a corrupted decoded-cache entry at read
    /// time; the entry was invalidated and will be redecoded.
    ParityError {
        /// Cycle of the failed fetch.
        cycle: u64,
        /// The fetch address whose slot failed its check.
        pc: u32,
        /// The invalidated cache slot.
        slot: u32,
    },
    /// The degrade policy ([`crate::SimConfig::degrade`]) took a unit
    /// out of service after repeated parity detections: the machine
    /// keeps running — slower — on the surviving capacity.
    Degrade {
        /// Cycle of the disablement.
        cycle: u64,
        /// Which structure lost capacity.
        unit: DegradeUnit,
        /// The disabled cache slot or BTB way position.
        way: u32,
    },
    /// `halt` retired; the run is over.
    Halt {
        /// Cycle of the halt.
        cycle: u64,
    },
    /// One entry retired at the shared commit point
    /// ([`crate::Machine::execute_observed`]), carrying the
    /// architectural state the commit produced. Both engines emit an
    /// identical `Commit` stream for the same program — the invariant
    /// the differential oracle ([`crate::run_lockstep`]) checks.
    Commit {
        /// Cycle (cycle engine) or step index (functional engine).
        cycle: u64,
        /// Address of the (host) entry that committed.
        pc: u32,
        /// The architecturally correct next PC.
        next_pc: u32,
        /// Address of the branch the entry carried, if any (folded
        /// branches and standalone branch entries alike).
        branch_pc: Option<u32>,
        /// Whether the entry carried a folded branch.
        folded: bool,
        /// For conditional entries, the actual direction taken.
        taken: Option<bool>,
        /// Accumulator after the commit.
        accum: i32,
        /// Stack pointer after the commit.
        sp: u32,
        /// PSW condition flag after the commit.
        flag: bool,
        /// The memory word this instruction wrote (word-aligned
        /// address, value), if any. The ISA writes at most one word
        /// per instruction.
        mem_write: Option<(u32, i32)>,
        /// Whether this commit was a `halt`.
        halted: bool,
    },
}

impl PipeEvent {
    /// The cycle the event belongs to.
    pub fn cycle(&self) -> u64 {
        match *self {
            PipeEvent::FetchHit { cycle, .. }
            | PipeEvent::FetchMiss { cycle, .. }
            | PipeEvent::Decode { cycle, .. }
            | PipeEvent::Fold { cycle, .. }
            | PipeEvent::FoldFail { cycle, .. }
            | PipeEvent::CacheFill { cycle, .. }
            | PipeEvent::Issue { cycle, .. }
            | PipeEvent::BranchRetire { cycle, .. }
            | PipeEvent::Predict { cycle, .. }
            | PipeEvent::BranchResolve { cycle, .. }
            | PipeEvent::Squash { cycle, .. }
            | PipeEvent::StallBegin { cycle, .. }
            | PipeEvent::StallEnd { cycle, .. }
            | PipeEvent::FaultInject { cycle, .. }
            | PipeEvent::ParityError { cycle, .. }
            | PipeEvent::Degrade { cycle, .. }
            | PipeEvent::Halt { cycle }
            | PipeEvent::Commit { cycle, .. } => cycle,
        }
    }
}

/// How much of the event stream an observer consumes.
///
/// Levels are ordered: an observer at a level receives every event a
/// lower level would, and call sites build an event only when the
/// observer's level asks for it. The level is a compile-time constant
/// ([`PipeObserver::INTEREST`]), so skipped emission paths fold away at
/// monomorphization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Interest {
    /// No events at all: the run compiles to the uninstrumented code.
    Off,
    /// Only [`PipeEvent::Commit`], built at the shared commit point
    /// ([`crate::Machine::execute_observed`]). Fetch, decode, fold,
    /// resolve, stall and fault events are never constructed — nor
    /// is the PDU's [`PipeEvent::FoldFail`] re-decode.
    Commits,
    /// Every event.
    All,
}

impl Interest {
    /// The larger of two levels: what a tuple of observers consumes.
    pub const fn max(self, other: Interest) -> Interest {
        if self as u8 >= other as u8 {
            self
        } else {
            other
        }
    }
}

/// A sink for pipeline events.
///
/// Implementations should be cheap: the simulator calls [`event`] from
/// its inner loop. The associated [`INTEREST`] level lets call sites
/// skip event construction for events the observer would discard:
///
/// * [`Interest::Off`] ([`NullObserver`]) — the simulator compiles to
///   exactly the uninstrumented code;
/// * [`Interest::Commits`] ([`crate::CommitLog`],
///   [`crate::PrefixCheck`]) — only [`PipeEvent::Commit`] is built,
///   so commit-checking campaign lanes pay for nothing else;
/// * [`Interest::All`] (the default) — every event.
///
/// No level changes the simulation itself: cycle counts, statistics
/// and architectural state are identical under every observer.
///
/// [`event`]: PipeObserver::event
/// [`INTEREST`]: PipeObserver::INTEREST
pub trait PipeObserver {
    /// Which events this observer consumes. Call sites guard event
    /// construction on it; an observer must not rely on events above
    /// its level.
    const INTEREST: Interest = Interest::All;

    /// Receive one event.
    fn event(&mut self, ev: PipeEvent);
}

/// The zero-overhead default observer: does nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl PipeObserver for NullObserver {
    const INTEREST: Interest = Interest::Off;

    #[inline(always)]
    fn event(&mut self, _ev: PipeEvent) {}
}

/// Observers compose: a tuple forwards every event to both members,
/// and consumes the larger of their two interest levels.
impl<A: PipeObserver, B: PipeObserver> PipeObserver for (A, B) {
    const INTEREST: Interest = A::INTEREST.max(B::INTEREST);

    #[inline]
    fn event(&mut self, ev: PipeEvent) {
        self.0.event(ev);
        self.1.event(ev);
    }
}

/// A bounded ring buffer of events: keeps the most recent `capacity`
/// and counts what it had to drop.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: VecDeque<PipeEvent>,
    capacity: usize,
    /// Events discarded because the ring was full (oldest first).
    pub dropped: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(1);
        EventRing {
            buf: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity,
            dropped: 0,
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &PipeEvent> {
        self.buf.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the ring into a `Vec`, oldest first.
    pub fn into_vec(self) -> Vec<PipeEvent> {
        self.buf.into()
    }
}

impl PipeObserver for EventRing {
    #[inline]
    fn event(&mut self, ev: PipeEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

// ---------------------------------------------------------------------
// JSONL serialization
// ---------------------------------------------------------------------

/// A malformed trace line encountered by [`parse_jsonl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

impl PipeEvent {
    /// One flat JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        let _ = match *self {
            PipeEvent::FetchHit { cycle, pc, folded } => write!(
                s,
                r#"{{"ev":"fetch_hit","cycle":{cycle},"pc":{pc},"folded":{folded}}}"#
            ),
            PipeEvent::FetchMiss { cycle, pc } => {
                write!(s, r#"{{"ev":"fetch_miss","cycle":{cycle},"pc":{pc}}}"#)
            }
            PipeEvent::Decode { cycle, pc, folded } => {
                write!(
                    s,
                    r#"{{"ev":"decode","cycle":{cycle},"pc":{pc},"folded":{folded}}}"#
                )
            }
            PipeEvent::Fold {
                cycle,
                pc,
                branch_pc,
            } => write!(
                s,
                r#"{{"ev":"fold","cycle":{cycle},"pc":{pc},"branch_pc":{branch_pc}}}"#
            ),
            PipeEvent::FoldFail {
                cycle,
                pc,
                branch_pc,
                reason,
            } => write!(
                s,
                r#"{{"ev":"fold_fail","cycle":{cycle},"pc":{pc},"branch_pc":{branch_pc},"reason":"{reason}"}}"#
            ),
            PipeEvent::CacheFill { cycle, pc, evicted } => match evicted {
                Some(e) => write!(
                    s,
                    r#"{{"ev":"cache_fill","cycle":{cycle},"pc":{pc},"evicted":{e}}}"#
                ),
                None => write!(
                    s,
                    r#"{{"ev":"cache_fill","cycle":{cycle},"pc":{pc},"evicted":null}}"#
                ),
            },
            PipeEvent::Issue { cycle, pc, folded } => {
                write!(
                    s,
                    r#"{{"ev":"issue","cycle":{cycle},"pc":{pc},"folded":{folded}}}"#
                )
            }
            PipeEvent::BranchRetire {
                cycle,
                branch_pc,
                taken,
                predicted,
                folded,
            } => write!(
                s,
                r#"{{"ev":"branch_retire","cycle":{cycle},"branch_pc":{branch_pc},"taken":{taken},"predicted":{predicted},"folded":{folded}}}"#
            ),
            PipeEvent::Predict {
                cycle,
                branch_pc,
                guess,
                miss,
            } => write!(
                s,
                r#"{{"ev":"predict","cycle":{cycle},"branch_pc":{branch_pc},"guess":{guess},"miss":{miss}}}"#
            ),
            PipeEvent::BranchResolve {
                cycle,
                branch_pc,
                stage,
                mispredicted,
            } => write!(
                s,
                r#"{{"ev":"branch_resolve","cycle":{cycle},"branch_pc":{branch_pc},"stage":{stage},"mispredicted":{mispredicted}}}"#
            ),
            PipeEvent::Squash { cycle, pc, stage } => {
                write!(
                    s,
                    r#"{{"ev":"squash","cycle":{cycle},"pc":{pc},"stage":{stage}}}"#
                )
            }
            PipeEvent::StallBegin { cycle, kind } => write!(
                s,
                r#"{{"ev":"stall_begin","cycle":{cycle},"kind":"{}"}}"#,
                kind.name()
            ),
            PipeEvent::StallEnd { cycle, kind } => write!(
                s,
                r#"{{"ev":"stall_end","cycle":{cycle},"kind":"{}"}}"#,
                kind.name()
            ),
            PipeEvent::FaultInject { cycle, slot, pc } => write!(
                s,
                r#"{{"ev":"fault_inject","cycle":{cycle},"slot":{slot},"pc":{pc}}}"#
            ),
            PipeEvent::ParityError { cycle, pc, slot } => write!(
                s,
                r#"{{"ev":"parity_error","cycle":{cycle},"pc":{pc},"slot":{slot}}}"#
            ),
            PipeEvent::Degrade { cycle, unit, way } => write!(
                s,
                r#"{{"ev":"degrade","cycle":{cycle},"unit":"{}","way":{way}}}"#,
                unit.name()
            ),
            PipeEvent::Halt { cycle } => write!(s, r#"{{"ev":"halt","cycle":{cycle}}}"#),
            PipeEvent::Commit {
                cycle,
                pc,
                next_pc,
                branch_pc,
                folded,
                taken,
                accum,
                sp,
                flag,
                mem_write,
                halted,
            } => {
                let opt = |v: Option<u32>| match v {
                    Some(n) => n.to_string(),
                    None => "null".to_string(),
                };
                let (mw_addr, mw_val) = match mem_write {
                    Some((a, v)) => (a.to_string(), v.to_string()),
                    None => ("null".to_string(), "null".to_string()),
                };
                let taken = match taken {
                    Some(b) => b.to_string(),
                    None => "null".to_string(),
                };
                write!(
                    s,
                    r#"{{"ev":"commit","cycle":{cycle},"pc":{pc},"next_pc":{next_pc},"branch_pc":{},"folded":{folded},"taken":{taken},"accum":{accum},"sp":{sp},"flag":{flag},"mw_addr":{mw_addr},"mw_val":{mw_val},"halted":{halted}}}"#,
                    opt(branch_pc)
                )
            }
        };
        s
    }

    /// Parse one line produced by [`PipeEvent::to_json`].
    ///
    /// # Errors
    ///
    /// A message describing the malformation.
    pub fn from_json(line: &str) -> Result<PipeEvent, String> {
        let fields = parse_flat_object(line)?;
        let get = |k: &str| {
            fields
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{k}`"))
        };
        let num = |k: &str| -> Result<u64, String> {
            match get(k)? {
                JsonValue::Num(n) => {
                    u64::try_from(*n).map_err(|_| format!("field `{k}`: negative"))
                }
                v => Err(format!("field `{k}`: expected number, got {v:?}")),
            }
        };
        let signed = |k: &str| -> Result<i32, String> {
            match get(k)? {
                JsonValue::Num(n) => {
                    i32::try_from(*n).map_err(|_| format!("field `{k}`: out of range"))
                }
                v => Err(format!("field `{k}`: expected number, got {v:?}")),
            }
        };
        let opt_pc = |k: &str| -> Result<Option<u32>, String> {
            match get(k)? {
                JsonValue::Null => Ok(None),
                JsonValue::Num(n) => u32::try_from(*n)
                    .map(Some)
                    .map_err(|_| format!("field `{k}`: out of range")),
                v => Err(format!("field `{k}`: expected number/null, got {v:?}")),
            }
        };
        let opt_bool = |k: &str| -> Result<Option<bool>, String> {
            match get(k)? {
                JsonValue::Null => Ok(None),
                JsonValue::Bool(b) => Ok(Some(*b)),
                v => Err(format!("field `{k}`: expected bool/null, got {v:?}")),
            }
        };
        let boolean = |k: &str| -> Result<bool, String> {
            match get(k)? {
                JsonValue::Bool(b) => Ok(*b),
                v => Err(format!("field `{k}`: expected bool, got {v:?}")),
            }
        };
        let string = |k: &str| -> Result<&str, String> {
            match get(k)? {
                JsonValue::Str(s) => Ok(s.as_str()),
                v => Err(format!("field `{k}`: expected string, got {v:?}")),
            }
        };
        let pc = |k: &str| -> Result<u32, String> {
            u32::try_from(num(k)?).map_err(|_| format!("field `{k}`: out of range"))
        };
        let cycle = num("cycle")?;
        match string("ev")? {
            "fetch_hit" => Ok(PipeEvent::FetchHit {
                cycle,
                pc: pc("pc")?,
                folded: boolean("folded")?,
            }),
            "fetch_miss" => Ok(PipeEvent::FetchMiss {
                cycle,
                pc: pc("pc")?,
            }),
            "decode" => Ok(PipeEvent::Decode {
                cycle,
                pc: pc("pc")?,
                folded: boolean("folded")?,
            }),
            "fold" => Ok(PipeEvent::Fold {
                cycle,
                pc: pc("pc")?,
                branch_pc: pc("branch_pc")?,
            }),
            "fold_fail" => {
                let reason = string("reason")?;
                Ok(PipeEvent::FoldFail {
                    cycle,
                    pc: pc("pc")?,
                    branch_pc: pc("branch_pc")?,
                    reason: reason
                        .parse()
                        .map_err(|()| format!("unknown fold-fail reason `{reason}`"))?,
                })
            }
            "cache_fill" => Ok(PipeEvent::CacheFill {
                cycle,
                pc: pc("pc")?,
                evicted: opt_pc("evicted")?,
            }),
            "commit" => Ok(PipeEvent::Commit {
                cycle,
                pc: pc("pc")?,
                next_pc: pc("next_pc")?,
                branch_pc: opt_pc("branch_pc")?,
                folded: boolean("folded")?,
                taken: opt_bool("taken")?,
                accum: signed("accum")?,
                sp: pc("sp")?,
                flag: boolean("flag")?,
                mem_write: match (opt_pc("mw_addr")?, get("mw_val")?) {
                    (None, _) => None,
                    (Some(a), _) => Some((a, signed("mw_val")?)),
                },
                halted: boolean("halted")?,
            }),
            "issue" => Ok(PipeEvent::Issue {
                cycle,
                pc: pc("pc")?,
                folded: boolean("folded")?,
            }),
            "branch_retire" => Ok(PipeEvent::BranchRetire {
                cycle,
                branch_pc: pc("branch_pc")?,
                taken: boolean("taken")?,
                predicted: boolean("predicted")?,
                folded: boolean("folded")?,
            }),
            "predict" => Ok(PipeEvent::Predict {
                cycle,
                branch_pc: pc("branch_pc")?,
                guess: boolean("guess")?,
                miss: boolean("miss")?,
            }),
            "branch_resolve" => Ok(PipeEvent::BranchResolve {
                cycle,
                branch_pc: pc("branch_pc")?,
                stage: num("stage")? as u8,
                mispredicted: boolean("mispredicted")?,
            }),
            "squash" => Ok(PipeEvent::Squash {
                cycle,
                pc: pc("pc")?,
                stage: num("stage")? as u8,
            }),
            "stall_begin" => Ok(PipeEvent::StallBegin {
                cycle,
                kind: StallKind::from_name(string("kind")?)
                    .ok_or_else(|| format!("unknown stall kind `{}`", string("kind").unwrap()))?,
            }),
            "stall_end" => Ok(PipeEvent::StallEnd {
                cycle,
                kind: StallKind::from_name(string("kind")?)
                    .ok_or_else(|| format!("unknown stall kind `{}`", string("kind").unwrap()))?,
            }),
            "fault_inject" => Ok(PipeEvent::FaultInject {
                cycle,
                slot: pc("slot")?,
                pc: pc("pc")?,
            }),
            "parity_error" => Ok(PipeEvent::ParityError {
                cycle,
                pc: pc("pc")?,
                slot: pc("slot")?,
            }),
            "degrade" => Ok(PipeEvent::Degrade {
                cycle,
                unit: DegradeUnit::from_name(string("unit")?)
                    .ok_or_else(|| format!("unknown degrade unit `{}`", string("unit").unwrap()))?,
                way: pc("way")?,
            }),
            other => Err(format!("unknown event type `{other}`")),
        }
        .or_else(|e: String| {
            if string("ev") == Ok("halt") {
                Ok(PipeEvent::Halt { cycle })
            } else {
                Err(e)
            }
        })
    }
}

#[derive(Debug)]
enum JsonValue {
    Num(i64),
    Bool(bool),
    Str(String),
    Null,
}

/// Parse a single-level `{"key":value,...}` object with (possibly
/// negative) integer, bool, string and null values — exactly the shape
/// [`PipeEvent::to_json`] emits. Not a general JSON parser.
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let line = line.trim();
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| "not a JSON object".to_string())?;
    let mut fields = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let after_key = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected key at `{rest}`"))?;
        let end = after_key
            .find('"')
            .ok_or_else(|| "unterminated key".to_string())?;
        let key = &after_key[..end];
        rest = after_key[end + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("expected `:` after key `{key}`"))?
            .trim_start();
        let (value, remainder) = if let Some(after) = rest.strip_prefix('"') {
            let end = after
                .find('"')
                .ok_or_else(|| "unterminated string".to_string())?;
            (JsonValue::Str(after[..end].to_string()), &after[end + 1..])
        } else if let Some(after) = rest.strip_prefix("true") {
            (JsonValue::Bool(true), after)
        } else if let Some(after) = rest.strip_prefix("false") {
            (JsonValue::Bool(false), after)
        } else if let Some(after) = rest.strip_prefix("null") {
            (JsonValue::Null, after)
        } else {
            let digits = rest.strip_prefix('-').unwrap_or(rest);
            let end = digits
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(digits.len());
            if end == 0 {
                return Err(format!("bad value at `{rest}`"));
            }
            let lit = &rest[..rest.len() - (digits.len() - end)];
            let n = lit.parse().map_err(|_| format!("bad number `{lit}`"))?;
            (JsonValue::Num(n), &digits[end..])
        };
        fields.push((key.to_string(), value));
        rest = remainder.trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("expected `,` at `{rest}`"));
        }
    }
    Ok(fields)
}

/// Write events as JSON Lines (one object per line).
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_jsonl<'a, W, I>(w: &mut W, events: I) -> io::Result<()>
where
    W: io::Write + ?Sized,
    I: IntoIterator<Item = &'a PipeEvent>,
{
    for ev in events {
        writeln!(w, "{}", ev.to_json())?;
    }
    Ok(())
}

/// The `ev` value of the trace footer line (see [`TraceFooter`]).
const TRACE_FOOTER_EV: &str = "trace_footer";

/// End-of-trace summary line written by `crisp-run --trace`: how many
/// events the file holds and how many the capturing [`EventRing`]
/// dropped. A non-zero `dropped` flags the trace as truncated — any
/// attribution derived from its events covers only the captured tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFooter {
    /// Events written to the trace.
    pub events: u64,
    /// Events the ring discarded (oldest first) during capture.
    pub dropped: u64,
}

impl TraceFooter {
    /// The footer as one JSONL line (same flat shape as the events).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"ev":"{TRACE_FOOTER_EV}","events":{},"dropped":{}}}"#,
            self.events, self.dropped
        )
    }
}

/// Write the end-of-trace footer line after the events of a JSONL
/// trace.
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_trace_footer<W: io::Write + ?Sized>(w: &mut W, footer: TraceFooter) -> io::Result<()> {
    writeln!(w, "{}", footer.to_json())
}

/// Parse a JSONL trace back into events. Blank lines and the
/// [`TraceFooter`] summary line are skipped, so traces written with and
/// without a footer both round-trip.
///
/// # Errors
///
/// [`TraceParseError`] naming the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<PipeEvent>, TraceParseError> {
    let mut out = Vec::new();
    let footer_tag = format!(r#""ev":"{TRACE_FOOTER_EV}""#);
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.contains(&footer_tag) {
            continue;
        }
        out.push(
            PipeEvent::from_json(line).map_err(|message| TraceParseError {
                line: i + 1,
                message,
            })?,
        );
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------

/// Write a Chrome `trace_event` JSON document for the event stream of
/// a default-geometry (3-stage EU) run. See [`write_chrome_trace_for`].
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_chrome_trace<W: io::Write + ?Sized>(
    w: &mut W,
    events: &[PipeEvent],
) -> io::Result<()> {
    write_chrome_trace_for(w, events, PipelineGeometry::crisp())
}

/// Write a Chrome `trace_event` JSON document for the event stream of
/// a run at geometry `geo`.
///
/// One simulated cycle maps to one microsecond of trace time.
/// Instructions appear as depth-cycle spans (IR→OR→RR on the paper's
/// machine) rotated over depth lanes so overlapping lifetimes stay
/// readable; squashes, mispredict resolutions and stalls get their own
/// lanes. Open the file in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_chrome_trace_for<W: io::Write + ?Sized>(
    w: &mut W,
    events: &[PipeEvent],
    geo: PipelineGeometry,
) -> io::Result<()> {
    // Lanes (thread ids) of the exported trace: one per EU stage, then
    // branch events / stalls / the PDU.
    let instr_lanes = geo.depth() as u64;
    let lane_events = instr_lanes;
    let lane_stalls = instr_lanes + 1;
    let lane_pdu = instr_lanes + 2;
    let mut items: Vec<String> = Vec::new();
    // The process name carries the geometry and its stage legend, so a
    // non-default depth is visible in the viewer without decoding lane
    // counts by eye.
    items.push(format!(
        r#"{{"ph":"M","name":"process_name","pid":0,"args":{{"name":"crisp EU {geo} ({})"}}}}"#,
        geo.stage_legend()
    ));
    for lane in 0..instr_lanes {
        items.push(format!(
            r#"{{"ph":"M","name":"thread_name","pid":0,"tid":{lane},"args":{{"name":"pipeline lane {lane} of {instr_lanes}"}}}}"#
        ));
    }
    items.push(format!(
        r#"{{"ph":"M","name":"thread_name","pid":0,"tid":{lane_events},"args":{{"name":"branch events"}}}}"#
    ));
    items.push(format!(
        r#"{{"ph":"M","name":"thread_name","pid":0,"tid":{lane_stalls},"args":{{"name":"stalls"}}}}"#
    ));
    items.push(format!(
        r#"{{"ph":"M","name":"thread_name","pid":0,"tid":{lane_pdu},"args":{{"name":"pdu"}}}}"#
    ));

    let mut open_stall: Option<(StallKind, u64)> = None;
    for ev in events {
        match *ev {
            PipeEvent::FetchHit { cycle, pc, folded } => {
                let lane = cycle % instr_lanes;
                let name = if folded {
                    format!("{pc:#x}+fold")
                } else {
                    format!("{pc:#x}")
                };
                items.push(format!(
                    r#"{{"ph":"X","name":"{name}","cat":"instr","pid":0,"tid":{lane},"ts":{cycle},"dur":{}}}"#,
                    geo.depth()
                ));
            }
            PipeEvent::Squash { cycle, pc, stage } => {
                items.push(format!(
                    r#"{{"ph":"i","name":"squash {pc:#x} @{}","cat":"squash","pid":0,"tid":{lane_events},"ts":{cycle},"s":"t"}}"#,
                    geo.stage_name(stage as usize)
                ));
            }
            PipeEvent::BranchResolve {
                cycle,
                branch_pc,
                stage,
                mispredicted,
            } => {
                let verdict = if mispredicted {
                    "MISPREDICT"
                } else {
                    "resolve"
                };
                items.push(format!(
                    r#"{{"ph":"i","name":"{verdict} {branch_pc:#x} @{}","cat":"branch","pid":0,"tid":{lane_events},"ts":{cycle},"s":"t"}}"#,
                    geo.stage_name(stage as usize)
                ));
            }
            PipeEvent::StallBegin { cycle, kind } => open_stall = Some((kind, cycle)),
            PipeEvent::StallEnd { cycle, kind } => {
                if let Some((k, begin)) = open_stall.take() {
                    if k == kind && cycle >= begin {
                        items.push(format!(
                            r#"{{"ph":"X","name":"{} stall","cat":"stall","pid":0,"tid":{lane_stalls},"ts":{begin},"dur":{}}}"#,
                            kind.name(),
                            cycle - begin
                        ));
                    }
                }
            }
            PipeEvent::Decode { cycle, pc, .. } => {
                items.push(format!(
                    r#"{{"ph":"X","name":"decode {pc:#x}","cat":"pdu","pid":0,"tid":{lane_pdu},"ts":{cycle},"dur":1}}"#
                ));
            }
            PipeEvent::Halt { cycle } => {
                items.push(format!(
                    r#"{{"ph":"i","name":"halt","cat":"instr","pid":0,"tid":{lane_events},"ts":{cycle},"s":"g"}}"#
                ));
            }
            _ => {}
        }
    }
    write!(w, r#"{{"displayTimeUnit":"ms","traceEvents":["#)?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            write!(w, ",")?;
        }
        write!(w, "{item}")?;
    }
    write!(w, "]}}")
}

// ---------------------------------------------------------------------
// ASCII timeline
// ---------------------------------------------------------------------

/// Cycles at which a mispredicted branch resolved, oldest first —
/// the interesting centers for [`render_timeline`] windows.
pub fn mispredict_cycles(events: &[PipeEvent]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|ev| match *ev {
            PipeEvent::BranchResolve {
                cycle,
                mispredicted: true,
                ..
            } => Some(cycle),
            _ => None,
        })
        .collect()
}

struct TimelineRow {
    pc: u32,
    fetch: u64,
    folded: bool,
    /// `(cycle, stage)` of the squash, if the instance was killed.
    squashed: Option<(u64, u8)>,
}

/// Render the ASCII lane diagram for a default-geometry (3-stage EU)
/// run. See [`render_timeline_for`].
pub fn render_timeline(events: &[PipeEvent], from: u64, to: u64) -> String {
    render_timeline_for(events, from, to, PipelineGeometry::crisp())
}

/// Render a Konata-style ASCII lane diagram of cycles
/// `[from, to]` for a run at geometry `geo`: one row per fetched
/// instruction, columns per cycle, one glyph per EU stage occupied
/// (`I`/`O`/`R` on the paper's machine), `x` where a squash killed the
/// slot, and a `v` header marking mispredict-resolution cycles.
pub fn render_timeline_for(
    events: &[PipeEvent],
    from: u64,
    to: u64,
    geo: PipelineGeometry,
) -> String {
    let (from, to) = (from.min(to), from.max(to));
    let last_offset = (geo.depth() - 1) as u64;
    let mut rows: Vec<TimelineRow> = Vec::new();
    let mut mispredicts: Vec<u64> = Vec::new();
    for ev in events {
        match *ev {
            PipeEvent::FetchHit { cycle, pc, folded }
                if cycle <= to && cycle + last_offset >= from =>
            {
                rows.push(TimelineRow {
                    pc,
                    fetch: cycle,
                    folded,
                    squashed: None,
                });
            }
            PipeEvent::Squash { cycle, pc, stage } => {
                // The slot in stage s at cycle c was fetched at c - s.
                let fetch = cycle.saturating_sub(u64::from(stage));
                if let Some(row) = rows
                    .iter_mut()
                    .rev()
                    .find(|r| r.pc == pc && r.fetch == fetch && r.squashed.is_none())
                {
                    row.squashed = Some((cycle, stage));
                }
            }
            PipeEvent::BranchResolve {
                cycle,
                mispredicted: true,
                ..
            } if (from..=to).contains(&cycle) => {
                mispredicts.push(cycle);
            }
            _ => {}
        }
    }

    let width = (to - from + 1) as usize;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cycles {from}..{to}  ({} x=squashed v=mispredict)",
        geo.stage_legend()
    );
    let mut header = String::from("            ");
    for c in from..=to {
        header.push(if mispredicts.contains(&c) { 'v' } else { ' ' });
    }
    out.push_str(header.trim_end());
    out.push('\n');
    for row in &rows {
        let mut lane = vec![' '; width];
        let mark = |lane: &mut Vec<char>, cycle: u64, ch: char| {
            if (from..=to).contains(&cycle) {
                lane[(cycle - from) as usize] = ch;
            }
        };
        let end = match row.squashed {
            Some((cycle, _)) => cycle,
            None => row.fetch + last_offset,
        };
        for offset in 0..geo.depth() {
            let ch = geo.stage_char(offset);
            let cycle = row.fetch + offset as u64;
            if cycle < end || (row.squashed.is_none() && cycle == end) {
                mark(&mut lane, cycle, ch);
            }
        }
        if let Some((cycle, _)) = row.squashed {
            mark(&mut lane, cycle, 'x');
        }
        let tag = if row.folded { "+f" } else { "  " };
        let lane: String = lane.into_iter().collect();
        let _ = writeln!(out, "{:#08x}{tag}  {}", row.pc, lane.trim_end());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<PipeEvent> {
        vec![
            PipeEvent::FetchMiss { cycle: 0, pc: 0 },
            PipeEvent::StallBegin {
                cycle: 0,
                kind: StallKind::Miss,
            },
            PipeEvent::Decode {
                cycle: 1,
                pc: 0,
                folded: true,
            },
            PipeEvent::Fold {
                cycle: 1,
                pc: 0,
                branch_pc: 2,
            },
            PipeEvent::FoldFail {
                cycle: 2,
                pc: 4,
                branch_pc: 8,
                reason: FoldFailure::HostTooLong,
            },
            PipeEvent::CacheFill {
                cycle: 3,
                pc: 0,
                evicted: None,
            },
            PipeEvent::CacheFill {
                cycle: 4,
                pc: 64,
                evicted: Some(0),
            },
            PipeEvent::StallEnd {
                cycle: 4,
                kind: StallKind::Miss,
            },
            PipeEvent::FetchHit {
                cycle: 4,
                pc: 0,
                folded: true,
            },
            PipeEvent::Predict {
                cycle: 4,
                branch_pc: 2,
                guess: true,
                miss: false,
            },
            PipeEvent::Predict {
                cycle: 4,
                branch_pc: 6,
                guess: false,
                miss: true,
            },
            PipeEvent::BranchResolve {
                cycle: 5,
                branch_pc: 2,
                stage: 1,
                mispredicted: true,
            },
            PipeEvent::Squash {
                cycle: 6,
                pc: 12,
                stage: 2,
            },
            PipeEvent::Issue {
                cycle: 7,
                pc: 0,
                folded: true,
            },
            PipeEvent::BranchRetire {
                cycle: 7,
                branch_pc: 2,
                taken: true,
                predicted: false,
                folded: true,
            },
            PipeEvent::StallBegin {
                cycle: 8,
                kind: StallKind::Indirect,
            },
            PipeEvent::StallEnd {
                cycle: 9,
                kind: StallKind::Indirect,
            },
            PipeEvent::FaultInject {
                cycle: 9,
                slot: 1,
                pc: 2,
            },
            PipeEvent::ParityError {
                cycle: 9,
                pc: 2,
                slot: 1,
            },
            PipeEvent::Degrade {
                cycle: 10,
                unit: DegradeUnit::Btb,
                way: 3,
            },
            PipeEvent::Commit {
                cycle: 7,
                pc: 0,
                next_pc: 12,
                branch_pc: Some(2),
                folded: true,
                taken: Some(true),
                accum: -5,
                sp: 0x3_fffc,
                flag: true,
                mem_write: Some((0x1_0000, -42)),
                halted: false,
            },
            PipeEvent::Commit {
                cycle: 10,
                pc: 12,
                next_pc: 12,
                branch_pc: None,
                folded: false,
                taken: None,
                accum: 0,
                sp: 0x4_0000,
                flag: false,
                mem_write: None,
                halted: true,
            },
            PipeEvent::Halt { cycle: 10 },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), events.len());
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err = parse_jsonl("{\"ev\":\"halt\",\"cycle\":1}\nnot json\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_jsonl(r#"{"ev":"warp","cycle":1}"#).unwrap_err();
        assert!(err.message.contains("warp"), "{err}");
    }

    #[test]
    fn trace_footer_round_trips_through_parser() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &events).unwrap();
        write_trace_footer(
            &mut buf,
            TraceFooter {
                events: events.len() as u64,
                dropped: 7,
            },
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let footer_line = text.lines().last().unwrap();
        assert_eq!(
            footer_line,
            format!(
                r#"{{"ev":"trace_footer","events":{},"dropped":7}}"#,
                events.len()
            )
        );
        // The footer is skipped on parse, so a footered trace yields
        // exactly the events a footerless one does.
        assert_eq!(parse_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut ring = EventRing::new(2);
        for c in 0..5 {
            ring.event(PipeEvent::Halt { cycle: c });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped, 3);
        let kept: Vec<u64> = ring.events().map(|e| e.cycle()).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn tuple_observer_fans_out() {
        let mut pair = (EventRing::new(8), EventRing::new(8));
        pair.event(PipeEvent::Halt { cycle: 1 });
        assert_eq!(pair.0.len(), 1);
        assert_eq!(pair.1.len(), 1);
        assert_eq!(<(EventRing, EventRing)>::INTEREST, Interest::All);
        assert_eq!(NullObserver::INTEREST, Interest::Off);
        assert_eq!(<(NullObserver, NullObserver)>::INTEREST, Interest::Off);
        assert_eq!(
            <(crate::CommitLog, NullObserver)>::INTEREST,
            Interest::Commits
        );
        assert_eq!(
            <(NullObserver, crate::CommitLog)>::INTEREST,
            Interest::Commits
        );
        assert_eq!(<(crate::CommitLog, EventRing)>::INTEREST, Interest::All);
        assert_eq!(<(EventRing, crate::PrefixCheck)>::INTEREST, Interest::All);
    }

    #[test]
    fn chrome_trace_is_json_shaped() {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &sample_events()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with('{') && text.ends_with('}'));
        assert!(text.contains(r#""traceEvents":["#));
        assert!(text.contains("MISPREDICT"));
        assert!(text.contains("miss stall"));
        // Balanced braces — cheap structural sanity without a parser.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn chrome_trace_tracks_name_the_geometry() {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &sample_events()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("crisp EU D=3 (I=IR O=OR R=RR)"), "{text}");
        assert!(text.contains("pipeline lane 0 of 3"), "{text}");

        // A deep pipe gets its own lane count, legend, and stage names
        // (a resolve at stage 4 of D=5 is E4, not an out-of-range RR).
        let deep = vec![
            PipeEvent::FetchHit {
                cycle: 0,
                pc: 0,
                folded: false,
            },
            PipeEvent::BranchResolve {
                cycle: 4,
                branch_pc: 0,
                stage: 4,
                mispredicted: true,
            },
        ];
        let mut buf = Vec::new();
        write_chrome_trace_for(&mut buf, &deep, PipelineGeometry::new(5)).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("crisp EU D=5"), "{text}");
        assert!(text.contains("pipeline lane 4 of 5"), "{text}");
        assert!(text.contains("MISPREDICT 0x0 @E4"), "{text}");
    }

    #[test]
    fn timeline_draws_stages_and_squashes() {
        let events = vec![
            PipeEvent::FetchHit {
                cycle: 4,
                pc: 0,
                folded: false,
            },
            PipeEvent::FetchHit {
                cycle: 5,
                pc: 2,
                folded: true,
            },
            // The pc=2 slot is killed in OR at cycle 7.
            PipeEvent::Squash {
                cycle: 7,
                pc: 2,
                stage: 2,
            },
            PipeEvent::BranchResolve {
                cycle: 7,
                branch_pc: 0,
                stage: 3,
                mispredicted: true,
            },
        ];
        let text = render_timeline(&events, 4, 8);
        assert!(
            text.contains("I O R".replace(' ', "").as_str()) || text.contains("IOR"),
            "{text}"
        );
        assert!(text.contains('x'), "{text}");
        assert!(text.contains('v'), "{text}");
        assert!(text.contains("+f"), "{text}");
        assert_eq!(mispredict_cycles(&events), vec![7]);
    }
}
