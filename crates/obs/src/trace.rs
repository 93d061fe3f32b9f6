//! Deterministic structured event tracing.
//!
//! Events are stamped with the *virtual* clock ([`SimTime`]), carry a
//! stable [`EventKind`] id, and live on a *lane* (a global compute-blade
//! index, or the control lane past the last blade). Because every field
//! of a [`TraceEvent`] is a simulated quantity — and simulated quantities
//! are byte-identical across thread and shard counts by the workspace's
//! replay contract — the *multiset* of recorded events is
//! grouping-invariant. [`TraceData::canonicalize`] turns that multiset
//! into a canonical sequence (a total-order sort over the full event
//! tuple), which is what makes the rendered Chrome trace byte-identical
//! across every `(shards × threads)` execution cell.
//!
//! Two things are deliberately **excluded** from events: virtual
//! addresses and protection-domain ids. Both are assigned relative to a
//! shard's local slice (`mmap_in`), so they differ between a fused and a
//! sharded replay of the same scenario; recording them would silently
//! break cross-cell identity. Lanes are recorded shard-locally and
//! rebased to global blade indices at merge time
//! ([`TraceData::rebase_lanes`]).

use mind_sim::SimTime;

/// Default per-system event capacity (a safety valve, not a budget):
/// recording stops — with an exact drop count — rather than exhaust
/// memory on a pathological run. Traces with `dropped > 0` lose the
/// cross-cell identity guarantee (which events overflow depends on
/// recording order); the determinism tests assert zero drops.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Whether a system traces. A run's trace is part of its configuration:
/// nothing here reads the environment (the figure binaries turn
/// `MIND_TRACE` into a mode before their tables run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No events and no telemetry (the default).
    #[default]
    Off,
    /// The grouping-invariant event set and the windowed telemetry.
    On,
}

/// Tracing configuration, embedded in system configs (`MindConfig`) and
/// run configs (`RunConfig`, whose mode a replay applies to its rack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether to trace.
    pub mode: TraceMode,
    /// Maximum events retained per system ([`DEFAULT_CAPACITY`]).
    pub capacity: usize,
    /// Virtual bucket width for windowed telemetry
    /// ([`crate::timeseries::WindowSeries`]).
    pub interval: SimTime,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            mode: TraceMode::Off,
            capacity: DEFAULT_CAPACITY,
            interval: SimTime::from_millis(1),
        }
    }
}

impl TraceConfig {
    /// A config in `mode`, the other settings at their defaults.
    pub fn with_mode(mode: TraceMode) -> Self {
        TraceConfig {
            mode,
            ..Default::default()
        }
    }

    /// Whether tracing is on.
    pub fn enabled(&self) -> bool {
        self.mode == TraceMode::On
    }
}

/// Stable event ids. The discriminant is the wire id: renumbering an
/// existing kind is a breaking change to recorded traces (add new kinds
/// at the end). Id 12 is retired and stays unassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// One access through `CoherenceEngine::issue_probed` (which
    /// `CoherenceEngine::access` also goes through); spans the access's
    /// full latency. Args: `remote` (0/1), `invalidations`.
    Issue = 0,
    /// A directory state-machine transition admitted at the switch.
    /// Args: invalidation `requests`, `flushed` pages.
    DirTransition = 1,
    /// A protection-TCAM lookup that matched no permitting entry (the
    /// access was denied). Args: `write` (0/1).
    TcamMiss = 2,
    /// An invalidation round; spans admit-to-last-ACK. Args: `requests`,
    /// `false_inv`.
    Invalidation = 3,
    /// A cache-bypass access (no directory slot available). Args:
    /// `write` (0/1).
    Bypass = 4,
    /// An op admitted into the in-flight window. Args: `in_flight`
    /// occupancy after admission.
    WindowAdmit = 5,
    /// An issue stalled on a full window or a busy region; spans the
    /// wait. Args: `in_flight` occupancy at stall.
    WindowStall = 6,
    /// One service dispatch quantum. Args: `grants` issued, requests
    /// left `queued`.
    Dispatch = 7,
    /// A tenant admitted. Args: QoS `class`.
    TenantAdmit = 8,
    /// A tenant rejected by admission control. Args: QoS `class`.
    TenantReject = 9,
    /// A tenant departed. Args: QoS `class`.
    TenantDepart = 10,
    /// A request rejected at the queue bound. Args: QoS `class`.
    RequestReject = 11,
    /// An issue stalled on its blade's RNIC queue being at depth (the
    /// cluster engine's per-NIC bandwidth gate); spans the wait, on the
    /// stalled thread's lane. Args: `depth` (the configured queue depth
    /// it hit), `in_flight` (the blade's in-flight count at the stall).
    /// The blade is identified by the lane, which shard merging rebases;
    /// args deliberately carry no shard-local indices so sharded traces
    /// stay byte-identical to fused ones.
    NicStall = 13,
}

impl EventKind {
    /// The event's stable name (the Chrome-trace `name` field).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Issue => "issue",
            EventKind::DirTransition => "dir_transition",
            EventKind::TcamMiss => "tcam_miss",
            EventKind::Invalidation => "invalidation",
            EventKind::Bypass => "bypass",
            EventKind::WindowAdmit => "window_admit",
            EventKind::WindowStall => "window_stall",
            EventKind::Dispatch => "dispatch",
            EventKind::TenantAdmit => "tenant_admit",
            EventKind::TenantReject => "tenant_reject",
            EventKind::TenantDepart => "tenant_depart",
            EventKind::RequestReject => "request_reject",
            EventKind::NicStall => "nic_stall",
        }
    }

    /// Names of the two argument slots (the second may be empty: the
    /// renderer then omits it).
    pub fn arg_names(self) -> (&'static str, &'static str) {
        match self {
            EventKind::Issue => ("remote", "invalidations"),
            EventKind::DirTransition => ("requests", "flushed"),
            EventKind::TcamMiss => ("write", ""),
            EventKind::Invalidation => ("requests", "false_inv"),
            EventKind::Bypass => ("write", ""),
            EventKind::WindowAdmit => ("in_flight", ""),
            EventKind::WindowStall => ("in_flight", ""),
            EventKind::Dispatch => ("grants", "queued"),
            EventKind::TenantAdmit
            | EventKind::TenantReject
            | EventKind::TenantDepart
            | EventKind::RequestReject => ("class", ""),
            EventKind::NicStall => ("depth", "in_flight"),
        }
    }

    /// Whether the event spans a duration (Chrome `ph: "X"`) rather than
    /// marking an instant (`ph: "i"`).
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::Issue
                | EventKind::Invalidation
                | EventKind::WindowStall
                | EventKind::NicStall
        )
    }
}

/// One trace event. Field order matters: the derived [`Ord`] over
/// `(ts, lane, kind, dur, a0, a1)` is the canonical trace order — a total
/// order over the full tuple, so any two *equal* events are
/// interchangeable and the sorted sequence depends only on the event
/// multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceEvent {
    /// Virtual timestamp.
    pub ts: SimTime,
    /// Global compute-blade index, or the control lane (one past the
    /// last blade) for service/shard events.
    pub lane: u32,
    /// Stable event id.
    pub kind: EventKind,
    /// Virtual duration (zero for instant events).
    pub dur: SimTime,
    /// First argument (meaning per [`EventKind::arg_names`]).
    pub a0: u64,
    /// Second argument.
    pub a1: u64,
}

impl TraceEvent {
    /// Renders the event as one Chrome-trace-event JSON object (no
    /// trailing separator). `pid` is the scenario's index in its suite.
    /// Timestamps render in microseconds with nanosecond precision,
    /// formatted by hand so output is byte-stable.
    pub fn render_chrome(&self, pid: usize, out: &mut String) {
        use std::fmt::Write;
        let (n0, n1) = self.kind.arg_names();
        out.push_str("{\"name\":\"");
        out.push_str(self.kind.name());
        let _ = write!(out, "\",\"pid\":{pid},\"tid\":{}", self.lane);
        let _ = write!(out, ",\"ts\":{}", Micros(self.ts));
        if self.kind.is_span() {
            let _ = write!(out, ",\"ph\":\"X\",\"dur\":{}", Micros(self.dur));
        } else {
            out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
        }
        let _ = write!(out, ",\"args\":{{\"{n0}\":{}", self.a0);
        if !n1.is_empty() {
            let _ = write!(out, ",\"{n1}\":{}", self.a1);
        }
        out.push_str("}}");
    }
}

/// A [`SimTime`] rendered as decimal microseconds with full nanosecond
/// precision (`12.345`), the Chrome-trace time unit.
struct Micros(SimTime);

impl std::fmt::Display for Micros {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ns = self.0.as_nanos();
        write!(f, "{}.{:03}", ns / 1_000, ns % 1_000)
    }
}

/// The per-system event sink. Owned by the traced system (one per shard
/// sub-cluster in a sharded run), so recording is single-threaded and
/// lock-free; buffers are extracted with [`TraceBuf::take`] and merged
/// shard-by-shard.
#[derive(Debug, Default)]
pub struct TraceBuf {
    enabled: bool,
    capacity: usize,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl TraceBuf {
    /// A sink for the given config (empty and branch-only when tracing is
    /// off).
    pub fn new(cfg: TraceConfig) -> Self {
        TraceBuf {
            enabled: cfg.enabled(),
            capacity: cfg.capacity,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether this sink records anything. The hot-path gate: call sites
    /// with non-trivial argument computation should branch on this.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Records one event (no-op when disabled; counted-drop when full).
    #[inline]
    pub fn record(
        &mut self,
        ts: SimTime,
        lane: u32,
        kind: EventKind,
        dur: SimTime,
        a0: u64,
        a1: u64,
    ) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push(TraceEvent {
            ts,
            lane,
            kind,
            dur,
            a0,
            a1,
        });
    }

    /// Extracts the recorded events, leaving the sink empty but live.
    /// `None` when the sink is disabled (so reports omit trace sections
    /// entirely rather than carrying empty ones).
    pub fn take(&mut self) -> Option<TraceData> {
        if !self.enabled {
            return None;
        }
        Some(TraceData {
            events: std::mem::take(&mut self.events),
            dropped: std::mem::take(&mut self.dropped),
        })
    }
}

/// An extracted trace: the unit reports carry, merge, and render.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceData {
    /// The events (canonical order only after [`TraceData::canonicalize`]).
    pub events: Vec<TraceEvent>,
    /// Events lost to the capacity valve (0 in any trace the determinism
    /// contract covers).
    pub dropped: u64,
}

impl TraceData {
    /// Shifts every lane by `offset`: maps a shard sub-cluster's local
    /// blade indices onto the fused cluster's global ones (shard `s`
    /// passes `s × blades_per_shard`).
    pub fn rebase_lanes(&mut self, offset: u32) {
        if offset == 0 {
            return;
        }
        for e in &mut self.events {
            e.lane += offset;
        }
    }

    /// Absorbs another trace (merge before canonicalizing).
    pub fn merge(&mut self, other: TraceData) {
        if self.events.is_empty() {
            self.events = other.events;
        } else {
            self.events.extend(other.events);
        }
        self.dropped += other.dropped;
    }

    /// Sorts events into the canonical order: a total-order sort over the
    /// full `(ts, lane, kind, dur, args)` tuple. Unstable sort is sound
    /// here precisely because the order is total — equal events are
    /// bytewise interchangeable.
    pub fn canonicalize(&mut self) {
        self.events.sort_unstable();
    }

    /// Renders the canonicalized trace as Chrome-trace-event JSON
    /// objects, one string per event, appended to `out`.
    pub fn render_chrome(&self, pid: usize, out: &mut Vec<String>) {
        for e in &self.events {
            let mut s = String::with_capacity(96);
            e.render_chrome(pid, &mut s);
            out.push(s);
        }
    }
}

/// A Chrome-trace metadata record naming a process lane (`pid` →
/// scenario name). Rendered here so all trace JSON shares one escaper.
pub fn chrome_process_name(pid: usize, name: &str) -> String {
    let mut out = String::with_capacity(64 + name.len());
    out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
    use std::fmt::Write;
    let _ = write!(out, "{pid}");
    out.push_str(",\"args\":{\"name\":\"");
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push_str("\"}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    /// The default config is untraced, whatever the environment holds.
    #[test]
    fn disabled_sink_records_nothing() {
        let mut buf = TraceBuf::new(TraceConfig::default());
        assert!(!buf.enabled());
        buf.record(ns(1), 0, EventKind::Issue, ns(5), 1, 0);
        assert!(buf.is_empty());
        assert!(buf.take().is_none(), "disabled sinks yield no trace");
    }

    #[test]
    fn capacity_drops_newest_and_counts() {
        let cfg = TraceConfig {
            mode: TraceMode::On,
            capacity: 2,
            ..Default::default()
        };
        let mut buf = TraceBuf::new(cfg);
        for i in 0..5 {
            buf.record(ns(i), 0, EventKind::Issue, ns(1), 0, 0);
        }
        let data = buf.take().expect("enabled");
        assert_eq!(data.events.len(), 2);
        assert_eq!(data.dropped, 3);
        assert_eq!(data.events[0].ts, ns(0), "oldest kept");
    }

    /// Wire id 12 (the retired shard-step mark) is a gap, not a renumbering,
    /// and nothing renders under its name.
    #[test]
    fn retiring_the_shard_mark_moved_no_wire_id() {
        assert_eq!(EventKind::RequestReject as u8, 11);
        assert_eq!(EventKind::NicStall as u8, 13);
        let kinds = [
            EventKind::Issue,
            EventKind::DirTransition,
            EventKind::TcamMiss,
            EventKind::Invalidation,
            EventKind::Bypass,
            EventKind::WindowAdmit,
            EventKind::WindowStall,
            EventKind::Dispatch,
            EventKind::TenantAdmit,
            EventKind::TenantReject,
            EventKind::TenantDepart,
            EventKind::RequestReject,
            EventKind::NicStall,
        ];
        assert!(kinds.iter().all(|k| k.name() != "shard_epoch" && *k as u8 != 12));
    }

    #[test]
    fn canonical_order_is_grouping_invariant() {
        // The same multiset of events, arriving in two different
        // recording orders (as two shard groupings would produce),
        // canonicalizes to identical sequences.
        let e = |t: u64, lane: u32, a0: u64| TraceEvent {
            ts: ns(t),
            lane,
            kind: EventKind::Issue,
            dur: ns(3),
            a0,
            a1: 0,
        };
        let mut a = TraceData {
            events: vec![e(5, 1, 0), e(2, 0, 1), e(5, 0, 9), e(2, 0, 1)],
            dropped: 0,
        };
        let mut b = TraceData {
            events: vec![e(2, 0, 1), e(5, 0, 9)],
            dropped: 0,
        };
        b.merge(TraceData {
            events: vec![e(2, 0, 1), e(5, 1, 0)],
            dropped: 0,
        });
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a, b);
    }

    #[test]
    fn rebase_shifts_lanes() {
        let mut d = TraceData {
            events: vec![TraceEvent {
                ts: ns(1),
                lane: 2,
                kind: EventKind::Issue,
                dur: ns(1),
                a0: 0,
                a1: 0,
            }],
            dropped: 0,
        };
        d.rebase_lanes(8);
        assert_eq!(d.events[0].lane, 10);
    }

    #[test]
    fn chrome_rendering_is_byte_stable() {
        let span = TraceEvent {
            ts: ns(12_345),
            lane: 3,
            kind: EventKind::Issue,
            dur: ns(9_000),
            a0: 1,
            a1: 2,
        };
        let mut s = String::new();
        span.render_chrome(7, &mut s);
        assert_eq!(
            s,
            "{\"name\":\"issue\",\"pid\":7,\"tid\":3,\"ts\":12.345,\
             \"ph\":\"X\",\"dur\":9.000,\"args\":{\"remote\":1,\"invalidations\":2}}"
        );
        let instant = TraceEvent {
            ts: ns(42),
            lane: 0,
            kind: EventKind::TcamMiss,
            dur: SimTime::ZERO,
            a0: 1,
            a1: 0,
        };
        let mut s = String::new();
        instant.render_chrome(0, &mut s);
        assert_eq!(
            s,
            "{\"name\":\"tcam_miss\",\"pid\":0,\"tid\":0,\"ts\":0.042,\
             \"ph\":\"i\",\"s\":\"t\",\"args\":{\"write\":1}}"
        );
    }

    #[test]
    fn process_names_escape_json() {
        let meta = chrome_process_name(1, "suite/\"q\"\\x");
        assert_eq!(
            meta,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
             \"args\":{\"name\":\"suite/\\\"q\\\"\\\\x\"}}"
        );
    }
}
