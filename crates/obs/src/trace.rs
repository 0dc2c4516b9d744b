//! The flight recorder: a fixed-capacity, generation-stamped ring
//! buffer of structured per-decision [`TraceEvent`]s.
//!
//! Counters answer *how often* (`core.channel.rejected{reason=…}` rose
//! by 41); the recorder answers *which* and *why*: every channel
//! candidate a solver accepted or rejected, every tree-growth round,
//! every protocol step the simulator bridged — one ordered stream,
//! stamped with a process-global sequence number.
//!
//! Recording only happens at [`ObsLevel::Trace`]; below that,
//! [`record_event`] is one relaxed atomic load. On the hot path a
//! record is: build a `Copy` event on the stack, take the ring lock,
//! write into a preallocated slot. No allocation, ever — when the ring
//! is full the oldest event is evicted and `obs.trace.dropped`
//! incremented, so the recorder holds the *latest* `capacity` decisions
//! of a run (a flight recorder, not an unbounded log).
//!
//! [`write_trace_jsonl`] exports the ring as JSON Lines alongside the
//! run reports, one event per line in sequence order.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use parking_lot::Mutex;
use serde_json::Value;

use crate::level::{enabled, ObsLevel};

/// Default ring capacity; override with `MUERP_OBS_TRACE_CAP` or
/// [`set_trace_capacity`].
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// One structured solver/protocol decision.
///
/// Variants are `Copy` and carry only scalars and `&'static str`s so
/// recording never allocates. Node ids are raw indices (`u32`), rates
/// are the exact `f64` the solver compared on, and `epoch` is the
/// [`CapacityMap` epoch] the decision was made under — joining an event
/// back to the exact residual-capacity state that produced it.
///
/// [`CapacityMap` epoch]: https://example.org/muerp (see DESIGN.md §8)
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A channel-candidate decision of Algorithm 1 / Yen: the max-rate
    /// channel between `source` and `destination` was produced
    /// (`accepted`, `reason = "ok"`/`"ksp"`, `cost` = entanglement
    /// rate) or refused (`reason = "disconnected"`, …).
    Candidate {
        /// Source user (raw node index).
        source: u32,
        /// Destination user (raw node index).
        destination: u32,
        /// Whether a channel was produced.
        accepted: bool,
        /// Why: `"ok"`, `"ksp"`, `"disconnected"`, …
        reason: &'static str,
        /// Entanglement rate of the produced channel; 0.0 on rejection.
        cost: f64,
        /// Capacity epoch the decision was made under.
        epoch: u64,
    },
    /// One single-source Algorithm-1 run: `rejected_full` distinct
    /// switches were unusable for relaying under capacity `epoch`.
    FinderRun {
        /// Source user of the run.
        source: u32,
        /// Distinct switches rejected for lack of free qubits.
        rejected_full: u64,
        /// Capacity epoch the run searched under.
        epoch: u64,
    },
    /// A tree-growth round committed a channel (Prim / Alg-3 phase 2).
    TreeStep {
        /// Algorithm family (`"alg3"`, `"alg4"`, …).
        algo: &'static str,
        /// 1-based growth round.
        round: u32,
        /// Source endpoint of the committed channel.
        source: u32,
        /// Destination endpoint of the committed channel.
        destination: u32,
        /// The committed channel's rate.
        rate: f64,
        /// Capacity epoch the round's candidates were ranked under.
        epoch: u64,
    },
    /// An Alg-3 phase-1 admission verdict on a precomputed channel.
    Admission {
        /// Algorithm family (`"alg3"`).
        algo: &'static str,
        /// `true` when the channel fit residual capacity and was kept.
        accepted: bool,
        /// The channel's rate.
        rate: f64,
        /// Capacity epoch the verdict was reached under.
        epoch: u64,
    },
    /// One beam-search round: `expanded` states generated, `kept`
    /// survived dedup + width pruning.
    BeamRound {
        /// 1-based growth round.
        round: u32,
        /// States generated this round.
        expanded: u32,
        /// States kept after pruning.
        kept: u32,
    },
    /// Local search accepted an exchange move.
    MoveAccepted {
        /// Channels exchanged simultaneously (1 or 2).
        arity: u32,
        /// Product rate of the removed channels.
        old_rate: f64,
        /// Product rate of the replacement channels.
        new_rate: f64,
    },
    /// A protocol step bridged from the simulator's slot traces:
    /// `kind` is `"link"`, `"swap"`, `"fusion"`, or `"slot"`.
    Protocol {
        /// Protocol step kind.
        kind: &'static str,
        /// Channel index within the plan (fusion: center node index).
        channel: u32,
        /// Step-specific index: link index, switch node, fusion arity.
        index: u32,
        /// Whether the step succeeded.
        success: bool,
    },
    /// A scheduled network fault was injected (survivability replay):
    /// `kind` is `"link-cut"`, `"switch-death"`, or `"capacity-loss"`.
    Failure {
        /// Fault kind tag.
        kind: &'static str,
        /// The failed subject: one endpoint node index for a link cut,
        /// the switch node index otherwise.
        subject: u32,
        /// Kind-specific detail: the other endpoint for a link cut,
        /// qubits lost for capacity loss, 0 for switch death.
        detail: u32,
        /// Protocol slot at which the fault fired.
        at_slot: u64,
    },
    /// The repair engine answered a fault: `method` is
    /// `"untouched"`, `"local-reroute"`, `"reattach"`,
    /// `"full-resolve"`, or `"unrepairable"`.
    Repair {
        /// Repair-ladder rung tag.
        method: &'static str,
        /// Channels of the running plan the fault broke.
        broken: u32,
        /// Channel-finder searches the repair spent (its latency).
        finder_runs: u64,
        /// Entanglement rate of the repaired plan; 0.0 when
        /// unrepairable.
        rate: f64,
    },
    /// A streaming admission request was rejected: `reason` is
    /// `"member-busy"` (a requested member is still in a session) or
    /// `"capacity"` (no capacity-respecting tree over the residual
    /// network).
    Blocked {
        /// Rejection reason tag.
        reason: &'static str,
        /// Requested group size.
        group_size: u32,
        /// Arrival slot of the rejected request.
        at_slot: u64,
    },
}

impl TraceEvent {
    /// Short kebab-case tag used as the JSONL `type` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Candidate { .. } => "candidate",
            TraceEvent::FinderRun { .. } => "finder_run",
            TraceEvent::TreeStep { .. } => "tree_step",
            TraceEvent::Admission { .. } => "admission",
            TraceEvent::BeamRound { .. } => "beam_round",
            TraceEvent::MoveAccepted { .. } => "move_accepted",
            TraceEvent::Protocol { .. } => "protocol",
            TraceEvent::Failure { .. } => "failure",
            TraceEvent::Repair { .. } => "repair",
            TraceEvent::Blocked { .. } => "blocked",
        }
    }

    /// The event as a flat JSON object (without the sequence stamp).
    pub fn to_json(&self) -> Value {
        let mut m = serde_json::Map::new();
        m.insert("type".into(), Value::from(self.kind()));
        match *self {
            TraceEvent::Candidate {
                source,
                destination,
                accepted,
                reason,
                cost,
                epoch,
            } => {
                m.insert("source".into(), Value::from(source));
                m.insert("destination".into(), Value::from(destination));
                m.insert("accepted".into(), Value::from(accepted));
                m.insert("reason".into(), Value::from(reason));
                m.insert("cost".into(), Value::from(cost));
                m.insert("epoch".into(), Value::from(epoch));
            }
            TraceEvent::FinderRun {
                source,
                rejected_full,
                epoch,
            } => {
                m.insert("source".into(), Value::from(source));
                m.insert("rejected_full".into(), Value::from(rejected_full));
                m.insert("epoch".into(), Value::from(epoch));
            }
            TraceEvent::TreeStep {
                algo,
                round,
                source,
                destination,
                rate,
                epoch,
            } => {
                m.insert("algo".into(), Value::from(algo));
                m.insert("round".into(), Value::from(round));
                m.insert("source".into(), Value::from(source));
                m.insert("destination".into(), Value::from(destination));
                m.insert("rate".into(), Value::from(rate));
                m.insert("epoch".into(), Value::from(epoch));
            }
            TraceEvent::Admission {
                algo,
                accepted,
                rate,
                epoch,
            } => {
                m.insert("algo".into(), Value::from(algo));
                m.insert("accepted".into(), Value::from(accepted));
                m.insert("rate".into(), Value::from(rate));
                m.insert("epoch".into(), Value::from(epoch));
            }
            TraceEvent::BeamRound {
                round,
                expanded,
                kept,
            } => {
                m.insert("round".into(), Value::from(round));
                m.insert("expanded".into(), Value::from(expanded));
                m.insert("kept".into(), Value::from(kept));
            }
            TraceEvent::MoveAccepted {
                arity,
                old_rate,
                new_rate,
            } => {
                m.insert("arity".into(), Value::from(arity));
                m.insert("old_rate".into(), Value::from(old_rate));
                m.insert("new_rate".into(), Value::from(new_rate));
            }
            TraceEvent::Protocol {
                kind,
                channel,
                index,
                success,
            } => {
                m.insert("kind".into(), Value::from(kind));
                m.insert("channel".into(), Value::from(channel));
                m.insert("index".into(), Value::from(index));
                m.insert("success".into(), Value::from(success));
            }
            TraceEvent::Failure {
                kind,
                subject,
                detail,
                at_slot,
            } => {
                m.insert("kind".into(), Value::from(kind));
                m.insert("subject".into(), Value::from(subject));
                m.insert("detail".into(), Value::from(detail));
                m.insert("at_slot".into(), Value::from(at_slot));
            }
            TraceEvent::Repair {
                method,
                broken,
                finder_runs,
                rate,
            } => {
                m.insert("method".into(), Value::from(method));
                m.insert("broken".into(), Value::from(broken));
                m.insert("finder_runs".into(), Value::from(finder_runs));
                m.insert("rate".into(), Value::from(rate));
            }
            TraceEvent::Blocked {
                reason,
                group_size,
                at_slot,
            } => {
                m.insert("reason".into(), Value::from(reason));
                m.insert("group_size".into(), Value::from(group_size));
                m.insert("at_slot".into(), Value::from(at_slot));
            }
        }
        Value::Object(m)
    }
}

/// A recorded event plus its generation stamp.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stamped {
    /// Process-global sequence number (0-based, never reused until
    /// [`FlightRecorder::reset`]).
    pub seq: u64,
    /// Microseconds since the process obs epoch — the same timebase as
    /// span `start_us`, so trace events and spans line up on one
    /// timeline (and in the Chrome-trace export).
    pub ts_us: u64,
    /// Obs-internal id of the recording thread (matches span `thread`).
    pub thread: u64,
    /// The event.
    pub event: TraceEvent,
}

struct Ring {
    /// Preallocated storage; grows to `capacity` once, then wraps.
    slots: Vec<Stamped>,
    /// Index of the oldest live event when `slots` is at capacity.
    head: usize,
    /// Next sequence number to hand out.
    next_seq: u64,
    /// Target capacity (slots.len() never exceeds this).
    capacity: usize,
}

/// A fixed-capacity, generation-stamped ring buffer of [`TraceEvent`]s.
///
/// Thread-safe; the process-global instance behind [`record_event`] is
/// reached via [`recorder`]. Private instances serve tests.
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    dropped: std::sync::atomic::AtomicU64,
}

impl FlightRecorder {
    /// An empty recorder holding at most `capacity` events
    /// (capacity 0 is clamped to 1).
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(Ring {
                slots: Vec::new(),
                head: 0,
                next_seq: 0,
                capacity: capacity.max(1),
            }),
            dropped: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Records one event unconditionally (level gating is the caller's
    /// job — [`record_event`] does it for the global instance). Returns
    /// `true` when an older event was evicted to make room.
    pub fn record(&self, event: TraceEvent) -> bool {
        let ts_us = crate::span::micros_since_epoch();
        let thread = crate::span::current_thread_id();
        let mut ring = self.ring.lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        let stamped = Stamped {
            seq,
            ts_us,
            thread,
            event,
        };
        if ring.slots.len() < ring.capacity {
            // Fill phase: the one-time allocation happens here, slot by
            // slot, never again once the ring has reached capacity.
            ring.slots.push(stamped);
            false
        } else {
            let head = ring.head;
            ring.slots[head] = stamped;
            ring.head = (head + 1) % ring.capacity;
            drop(ring);
            self.dropped
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            true
        }
    }

    /// Number of events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().slots.len()
    }

    /// `true` when nothing has been recorded (or everything was reset).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the live events, oldest first (sequence order).
    pub fn snapshot(&self) -> Vec<Stamped> {
        let ring = self.ring.lock();
        let mut out = Vec::with_capacity(ring.slots.len());
        out.extend_from_slice(&ring.slots[ring.head..]);
        out.extend_from_slice(&ring.slots[..ring.head]);
        out
    }

    /// Clears the ring, the sequence counter, and the dropped tally.
    pub fn reset(&self) {
        let mut ring = self.ring.lock();
        ring.slots.clear();
        ring.head = 0;
        ring.next_seq = 0;
        self.dropped.store(0, std::sync::atomic::Ordering::Relaxed);
    }

    /// Clears the ring and re-targets its capacity (storage for the new
    /// capacity is re-filled lazily by subsequent records).
    pub fn set_capacity(&self, capacity: usize) {
        let mut ring = self.ring.lock();
        ring.slots = Vec::new();
        ring.head = 0;
        ring.next_seq = 0;
        ring.capacity = capacity.max(1);
        self.dropped.store(0, std::sync::atomic::Ordering::Relaxed);
    }
}

/// The process-global flight recorder behind [`record_event`]. Its
/// capacity comes from `MUERP_OBS_TRACE_CAP` (default
/// [`DEFAULT_TRACE_CAPACITY`]) and can be re-targeted with
/// [`set_trace_capacity`].
pub fn recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let cap = std::env::var("MUERP_OBS_TRACE_CAP")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_TRACE_CAPACITY);
        FlightRecorder::with_capacity(cap)
    })
}

/// `true` when the current level admits trace events. Call sites use
/// this to skip even building the event:
///
/// ```
/// if qnet_obs::trace_enabled() {
///     qnet_obs::record_event(qnet_obs::TraceEvent::BeamRound {
///         round: 1,
///         expanded: 9,
///         kept: 3,
///     });
/// }
/// ```
#[inline]
pub fn trace_enabled() -> bool {
    enabled(ObsLevel::Trace)
}

/// Records `event` into the global recorder when the level admits
/// traces; below [`ObsLevel::Trace`] this is one relaxed atomic load.
/// Evictions surface as the `obs.trace.dropped` counter.
#[inline]
pub fn record_event(event: TraceEvent) {
    if !enabled(ObsLevel::Trace) {
        return;
    }
    if recorder().record(event) {
        crate::counter!("obs.trace.dropped");
    }
}

/// Copies out the global recorder's live events, oldest first.
pub fn trace_snapshot() -> Vec<Stamped> {
    recorder().snapshot()
}

/// Clears the global recorder (ring, sequence counter, dropped tally).
/// Pair with [`crate::global()`]`.reset()` / [`crate::reset_spans`]
/// between runs.
pub fn reset_trace() {
    recorder().reset();
}

/// Re-targets the global recorder's capacity, clearing it.
pub fn set_trace_capacity(capacity: usize) {
    recorder().set_capacity(capacity);
}

/// Writes the global recorder's events as JSON Lines to
/// `<dir>/<run>.trace.jsonl` (creating `dir`), one
/// `{"seq":…,"type":…,…}` object per line, oldest first. The run name
/// is sanitized like [`crate::write_report`]. Returns the written path.
pub fn write_trace_jsonl(dir: &Path, run: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let stem: String = run
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let path = dir.join(format!("{stem}.trace.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for stamped in trace_snapshot() {
        let mut obj = stamped.event.to_json();
        if let Value::Object(m) = &mut obj {
            // Present first in the rendered line for scannability.
            m.insert("seq".into(), Value::from(stamped.seq));
            m.insert("ts_us".into(), Value::from(stamped.ts_us));
            m.insert("thread".into(), Value::from(stamped.thread));
        }
        let line = serde_json::to_string(&obj)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(i: u32) -> TraceEvent {
        TraceEvent::Candidate {
            source: i,
            destination: i + 1,
            accepted: true,
            reason: "ok",
            cost: 0.5,
            epoch: 7,
        }
    }

    #[test]
    fn ring_keeps_the_latest_events_in_order() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..6 {
            rec.record(candidate(i));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(rec.dropped(), 2);
        let seqs: Vec<u64> = snap.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5], "oldest two evicted");
        assert_eq!(snap[0].event, candidate(2));
    }

    #[test]
    fn reset_restarts_sequencing() {
        let rec = FlightRecorder::with_capacity(2);
        rec.record(candidate(0));
        rec.record(candidate(1));
        rec.record(candidate(2));
        assert_eq!(rec.dropped(), 1);
        rec.reset();
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
        rec.record(candidate(9));
        assert_eq!(rec.snapshot()[0].seq, 0);
    }

    #[test]
    fn below_trace_level_records_nothing_globally() {
        let _serial = crate::serial_guard();
        crate::set_level(ObsLevel::Full);
        reset_trace();
        record_event(candidate(1));
        assert!(trace_snapshot().is_empty());
        crate::set_level(ObsLevel::Trace);
        record_event(candidate(1));
        assert_eq!(trace_snapshot().len(), 1);
        reset_trace();
        crate::set_level(ObsLevel::Counters);
    }

    #[test]
    fn every_variant_serializes_with_its_kind_tag() {
        let events = [
            candidate(0),
            TraceEvent::FinderRun {
                source: 1,
                rejected_full: 3,
                epoch: 5,
            },
            TraceEvent::TreeStep {
                algo: "alg4",
                round: 2,
                source: 0,
                destination: 4,
                rate: 0.25,
                epoch: 9,
            },
            TraceEvent::Admission {
                algo: "alg3",
                accepted: false,
                rate: 0.5,
                epoch: 2,
            },
            TraceEvent::BeamRound {
                round: 1,
                expanded: 9,
                kept: 3,
            },
            TraceEvent::MoveAccepted {
                arity: 2,
                old_rate: 0.2,
                new_rate: 0.6,
            },
            TraceEvent::Protocol {
                kind: "swap",
                channel: 0,
                index: 3,
                success: true,
            },
            TraceEvent::Failure {
                kind: "link-cut",
                subject: 2,
                detail: 7,
                at_slot: 40,
            },
            TraceEvent::Repair {
                method: "local-reroute",
                broken: 1,
                finder_runs: 4,
                rate: 0.125,
            },
            TraceEvent::Blocked {
                reason: "capacity",
                group_size: 3,
                at_slot: 17,
            },
        ];
        for e in events {
            let v = e.to_json();
            assert_eq!(v.get("type").and_then(|t| t.as_str()), Some(e.kind()));
        }
    }

    #[test]
    fn jsonl_export_writes_one_line_per_event() {
        let _serial = crate::serial_guard();
        crate::set_level(ObsLevel::Trace);
        reset_trace();
        record_event(candidate(1));
        record_event(TraceEvent::Protocol {
            kind: "link",
            channel: 0,
            index: 0,
            success: false,
        });
        let dir = std::env::temp_dir().join("qnet_obs_trace_test");
        let path = write_trace_jsonl(&dir, "unit run").expect("write succeeds");
        crate::set_level(ObsLevel::Counters);
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "unit_run.trace.jsonl"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let v: Value = serde_json::from_str(line).expect("line parses");
            assert_eq!(v.get("seq").and_then(|s| s.as_u64()), Some(i as u64));
        }
        reset_trace();
        let _ = std::fs::remove_file(&path);
    }
}
