//! The QXDM-style phone-side trace collector.
//!
//! §3.3: "we collect five types of information: (1) timestamp of the trace
//! item using the format of hh:mm:ss.ms, (2) trace type (e.g., STATE), (3)
//! network system (e.g., 3G or 4G), (4) the module generating the traces
//! (e.g., MM or CM/CC), and (5) the basic trace description."
//!
//! An entry stores the first four fields and a typed [`TraceEvent`]
//! payload. Consumers such as the signature automata of
//! [`crate::verify`] match on that structure (message kinds, state
//! transitions, fault markers). The fifth field, the description, is
//! rendered from the payload and the header fields only when it is read
//! ([`TraceEntry::desc`]): in a dump, a query, JSON output or an evidence
//! span. Recording an entry builds no text.

use std::fmt;

use serde::{Deserialize, Serialize, Value};

use cellstack::{AttachRejectCause, NasMessage, Protocol, RatSystem, StackNote};

use crate::fnv::Fnv1a;
use crate::inject::{Leg, NodeId};
use crate::time::SimTime;

/// Trace item category (field 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceType {
    /// A protocol state change.
    State,
    /// A signaling message sent or received.
    Signaling,
    /// A radio-configuration change (e.g. the Figure 10 modulation events).
    RadioConfig,
    /// A measurement sample (throughput, RSSI).
    Measurement,
    /// A user action (dial, hangup, data toggle).
    UserAction,
    /// An injected fault (adversary drop/corruption, node outage/restart).
    Fault,
}

/// Call lifecycle phase, as observed at the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CallPhase {
    /// The user dialed (MO) — CSFB fallback may still be ahead.
    Dialed,
    /// The network paged the device for an MT call.
    Incoming,
    /// The call connected end-to-end.
    Connected,
    /// The call was released.
    Released,
    /// Call setup failed before connecting.
    Failed,
}

/// A named cross-layer hazard the simulator detected — the observable
/// footprint of the paper's problematic instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HazardKind {
    /// S1: a 3G→4G switch completed without a usable PDP context.
    S1ContextLoss,
    /// S4: a CM service request was HOL-blocked behind a location update.
    S4HolBlocked,
    /// S6: a 3G location-update failure was propagated into a 4G detach.
    S6FailurePropagated,
    /// An in-service device received a network-caused implicit detach.
    ImplicitDetach,
}

/// What an injected fault did to a message (or node).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// The message was silently dropped.
    Drop,
    /// The message was corrupted in flight and discarded (or semantically
    /// rejected) by the receiver.
    Corrupt,
    /// The message was held back and delivered out of order.
    Reorder {
        /// How long the message was held, ms.
        hold_ms: u64,
    },
    /// A core node restarted after an outage, losing volatile state.
    NodeRestart,
}

/// A typed fault record: which kind, on which leg, to which message.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct FaultEvent {
    /// What happened.
    pub kind: FaultKind,
    /// The signaling leg the message travelled (None for node faults).
    pub leg: Option<Leg>,
    /// The affected NAS message (None for node faults).
    pub msg: Option<NasMessage>,
    /// The restarted node (NodeRestart only).
    pub node: Option<NodeId>,
}

impl FaultEvent {
    /// A message-level fault on a signaling leg.
    pub fn on_leg(kind: FaultKind, leg: Leg, msg: NasMessage) -> Self {
        Self {
            kind,
            leg: Some(leg),
            msg: Some(msg),
            node: None,
        }
    }

    /// A node-restart fault.
    pub fn node_restart(node: NodeId) -> Self {
        Self {
            kind: FaultKind::NodeRestart,
            leg: None,
            msg: None,
            node: Some(node),
        }
    }

    /// Message direction, when the fault is tied to a leg.
    pub fn uplink(&self) -> Option<bool> {
        self.leg
            .map(|l| matches!(l, Leg::Ul4g | Leg::Ul3gCs | Leg::Ul3gPs))
    }
}

/// A step no signature pattern inspects. Each serializes as the unit tag
/// `"Note"`; its text is the entry's rendered description.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Note {
    /// Wi-Fi came up and the phone turned mobile data off (§5.1.3).
    WifiDataOff,
    /// The HSS refused a 4G attach with this cause.
    HssRejectedAttach(AttachRejectCause),
    /// The MME recovered a failed 3G location update in-core (§8 remedy).
    LuRecoveredInCore,
    /// A protocol step reported by the device stack.
    Stack(StackNote),
}

/// The typed payload of a trace entry, from which the description (field
/// 5) is rendered on read.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub enum TraceEvent {
    /// A step no signature pattern inspects.
    Note(Note),
    /// A NAS message observed at an endpoint (core for uplink, device for
    /// downlink).
    Nas {
        /// Direction: true = device→core.
        uplink: bool,
        /// The message itself.
        msg: NasMessage,
    },
    /// Registration state changed.
    Registration {
        /// In service (attached) or out of service.
        registered: bool,
        /// The serving system when the change happened.
        system: RatSystem,
    },
    /// The device camped on a system (fallback, return, reselection,
    /// coverage mobility).
    CampedOn(RatSystem),
    /// Call lifecycle transition.
    Call(CallPhase),
    /// Shared-channel radio reconfiguration (Figure 10).
    RadioConfig {
        /// Whether 64QAM stays available on the shared channel.
        allow_64qam: bool,
    },
    /// A throughput measurement sample.
    Throughput {
        /// Uplink (true) or downlink sample.
        uplink: bool,
        /// Whether a CS voice call was active during the sample.
        with_call: bool,
        /// Achieved rate, kbps (integral — samples are deterministic).
        kbps: u64,
    },
    /// An injected fault.
    Fault(FaultEvent),
    /// A detected cross-layer hazard.
    Hazard(HazardKind),
}

/// [`TraceEvent`] as it appears in JSON: every [`Note`] is the unit tag
/// `"Note"`, every other variant its derived shape.
pub(crate) struct WireEvent<'a>(pub(crate) &'a TraceEvent);

impl Serialize for WireEvent<'_> {
    fn to_value(&self) -> Value {
        match self.0 {
            TraceEvent::Note(_) => Value::Str("Note".into()),
            e => e.to_value(),
        }
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        match self.0 {
            TraceEvent::Note(_) => out.extend_from_slice(b"\"Note\""),
            e => e.write_json(out),
        }
    }
}

/// One trace entry: the four coded fields of §3.3 plus the typed payload.
/// The fifth field, the description, is rendered on read by
/// [`Self::desc`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// (1) Timestamp.
    pub ts: SimTime,
    /// (2) Trace type.
    pub trace_type: TraceType,
    /// (3) Network system.
    pub system: RatSystem,
    /// (4) Originating module.
    pub module: Protocol,
    /// The typed payload (field 5 is rendered from it).
    pub event: TraceEvent,
}

/// The JSON shape of a [`TraceEntry`]: the five fields of §3.3 in order,
/// then the typed payload.
#[derive(Serialize)]
struct EntryWire<'a> {
    ts: SimTime,
    trace_type: TraceType,
    system: RatSystem,
    module: Protocol,
    desc: Desc<'a>,
    event: WireEvent<'a>,
}

impl TraceEntry {
    /// (5) The description, rendered from the typed event and the header
    /// fields. This is the only place trace text is produced.
    pub fn desc(&self) -> Desc<'_> {
        Desc(self)
    }

    fn wire(&self) -> EntryWire<'_> {
        EntryWire {
            ts: self.ts,
            trace_type: self.trace_type,
            system: self.system,
            module: self.module,
            desc: self.desc(),
            event: WireEvent(&self.event),
        }
    }
}

impl Serialize for TraceEntry {
    fn to_value(&self) -> Value {
        self.wire().to_value()
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        self.wire().write_json(out);
    }
}

/// The rendered description of a [`TraceEntry`] (see [`TraceEntry::desc`]).
/// Serialized, it is a JSON string; compact JSON writes the text straight
/// into the output buffer, escaping it as it renders.
pub struct Desc<'a>(&'a TraceEntry);

impl Serialize for Desc<'_> {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        serde::write_json_display(self, out);
    }
}

impl fmt::Display for Desc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = self.0;
        let text = match &e.event {
            TraceEvent::Note(Note::WifiDataOff) => "Wi-Fi available: mobile data disabled",
            TraceEvent::Note(Note::HssRejectedAttach(cause)) => {
                return write!(f, "HSS rejected attach: {cause:?}")
            }
            TraceEvent::Note(Note::LuRecoveredInCore) => {
                "MME recovered 3G location update in-core (remedy)"
            }
            TraceEvent::Note(Note::Stack(note)) => match note {
                StackNote::ContextMigrated => "EPS bearer context migrated to PDP context",
                StackNote::SwitchedTo3g => "4G->3G inter-system switch complete",
                StackNote::SwitchTo4gAttempted => "3G->4G inter-system switch attempted",
                StackNote::LocationUpdateDone => "Location area update complete",
                StackNote::RoutingUpdateDone => "Routing area update complete",
                StackNote::PdpDeactivated(cause) => {
                    return write!(f, "PDP context deactivated: {}", cause.description())
                }
            },
            TraceEvent::Nas { uplink, msg } => {
                let at = if *uplink { "core" } else { "device" };
                return write!(f, "{at} received: {}", msg.wire_name());
            }
            TraceEvent::Registration { registered: true, .. } => "registered (in service)",
            TraceEvent::Registration { registered: false, .. } => "deregistered (out of service)",
            // The module that reports the camp tells the four causes apart.
            TraceEvent::CampedOn(system) => match (e.module, system) {
                (Protocol::Emm, RatSystem::Utran3g) => "coverage mobility: camped on 3G",
                (Protocol::Rrc3g, RatSystem::Utran3g) => "CSFB fallback complete: camped on 3G",
                (Protocol::Rrc4g, RatSystem::Lte4g) => "returned to 4G: camped on LTE",
                (Protocol::Gmm, RatSystem::Utran3g) => {
                    "4G attach retries exhausted; falling back to 3G"
                }
                _ => return write!(f, "camped on {system}"),
            },
            TraceEvent::Call(phase) => match phase {
                CallPhase::Dialed => "user dials",
                CallPhase::Incoming => "incoming call (network pages the device)",
                CallPhase::Connected => "call connected",
                CallPhase::Released => "call released",
                CallPhase::Failed => "call setup failed",
            },
            TraceEvent::RadioConfig { allow_64qam: false } => {
                "64QAM disabled during CS voice call (shared channel -> 16QAM)"
            }
            TraceEvent::RadioConfig { allow_64qam: true } => {
                "64QAM re-enabled (CS voice call ended)"
            }
            TraceEvent::Throughput {
                uplink,
                with_call,
                kbps,
            } => {
                let dir = if *uplink { "uplink" } else { "downlink" };
                let voice = if *with_call { " (CS voice active)" } else { "" };
                return write!(f, "{dir} throughput sample: {kbps} kbps{voice}");
            }
            TraceEvent::Fault(fault) => {
                let dir = match fault.uplink() {
                    Some(true) => "uplink",
                    Some(false) => "downlink",
                    None => "node",
                };
                return match (&fault.kind, &fault.msg, &fault.leg, &fault.node) {
                    // A drop traced as signaling is a radio loss outside
                    // any fault campaign.
                    (FaultKind::Drop, Some(m), _, _) if e.trace_type == TraceType::Signaling => {
                        write!(f, "{dir} {} lost over the air", m.wire_name())
                    }
                    (FaultKind::Drop, Some(m), Some(leg), _) => {
                        write!(f, "{dir} {} lost on {leg}", m.wire_name())
                    }
                    (FaultKind::Corrupt, Some(m), _, _) if fault.uplink() == Some(true) => {
                        write!(f, "{dir} {} corrupted in flight", m.wire_name())
                    }
                    (FaultKind::Corrupt, Some(m), _, _) => {
                        write!(f, "{dir} {} corrupted; discarded by the device", m.wire_name())
                    }
                    (FaultKind::Reorder { hold_ms }, Some(m), _, _) => {
                        write!(f, "{dir} {} held {hold_ms} ms (reordered)", m.wire_name())
                    }
                    (FaultKind::NodeRestart, _, _, Some(node)) => {
                        write!(f, "node {node} restarted after outage (volatile state lost)")
                    }
                    _ => write!(f, "{:?} fault", fault.kind),
                };
            }
            TraceEvent::Hazard(h) => match h {
                HazardKind::S1ContextLoss => "3G->4G switch without PDP context (S1 hazard)",
                HazardKind::S4HolBlocked => {
                    "CM service request blocked behind location update (S4 hazard)"
                }
                HazardKind::S6FailurePropagated => {
                    "3G location-update failure propagated to 4G: \
                     MME detaches the device (S6 hazard)"
                }
                HazardKind::ImplicitDetach => "network-caused detach reached an in-service device",
            },
        };
        f.write_str(text)
    }
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:>11} {} {:>6}  {}",
            self.ts.hhmmss(),
            format!("{:?}", self.trace_type).to_uppercase(),
            self.system,
            self.module.to_string(),
            self.desc()
        )
    }
}

/// The collector: an append-only log with query helpers.
///
/// By default the log is unbounded (every entry is retained, as the
/// single-phone validation scenarios require). With a capacity set, the
/// collector becomes a ring buffer over the most recent `cap` entries:
/// older entries are evicted and only counted ([`Self::evicted`]), which
/// bounds per-UE memory in fleet runs. Eviction is amortized O(1) — the
/// backing vector compacts only once the dead prefix reaches half the
/// buffer. A capacity of `Some(0)` is *count-only* mode: nothing is ever
/// retained (every entry is evicted on arrival) — the million-UE
/// configuration, where per-UE rings would still be too big.
#[derive(Clone, Debug, Default)]
pub struct TraceCollector {
    entries: Vec<TraceEntry>,
    /// Index of the first live entry (dead prefix below it awaits compaction).
    start: usize,
    capacity: Option<usize>,
    evicted: u64,
    /// In-line monitoring tap (armed by the fleet when live verification
    /// is on): recorded entries are mirrored here *before* the retention
    /// bound applies.
    tap: Option<Vec<TraceEntry>>,
}

impl TraceCollector {
    /// An empty, unbounded collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty collector retaining at most `cap` entries (`None` =
    /// unbounded, `Some(0)` = count-only).
    pub fn with_capacity(cap: Option<usize>) -> Self {
        Self {
            capacity: cap,
            ..Self::default()
        }
    }

    /// How many entries were evicted by the capacity bound over the whole
    /// run. `len() + evicted()` is the total ever recorded.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Arm the in-line monitoring tap. From now on every recorded entry
    /// is also appended to a side buffer that the fleet step loop drains
    /// into the per-lane signature automata. The tap sees entries
    /// *before* the retention bound applies, so monitors observe the
    /// identical event stream whether the collector is unbounded, a ring,
    /// or count-only.
    pub fn arm_tap(&mut self) {
        if self.tap.is_none() {
            self.tap = Some(Vec::new());
        }
    }

    /// The armed tap's pending entries, for draining (`None` when the tap
    /// is not armed).
    pub fn tap_mut(&mut self) -> Option<&mut Vec<TraceEntry>> {
        self.tap.as_mut()
    }

    fn enforce_capacity(&mut self) {
        if let Some(cap) = self.capacity {
            let live = self.entries.len() - self.start;
            if live > cap {
                let drop_n = live - cap;
                self.start += drop_n;
                self.evicted += drop_n as u64;
            }
        }
        // Amortized compaction: reclaim the dead prefix once it dominates.
        if self.start > 0 && self.start >= self.entries.len() / 2 {
            self.entries.drain(..self.start);
            self.start = 0;
            // After a large drain, keep the allocation proportional to the
            // live set rather than the historical peak.
            if self.entries.capacity() > 4 * (self.entries.len().max(16)) {
                self.entries.shrink_to_fit();
            }
        }
    }

    fn live(&self) -> &[TraceEntry] {
        &self.entries[self.start..]
    }

    /// Append an entry. No text is built: descriptions render on read.
    pub fn record(
        &mut self,
        ts: SimTime,
        trace_type: TraceType,
        system: RatSystem,
        module: Protocol,
        event: TraceEvent,
    ) {
        let entry = TraceEntry {
            ts,
            trace_type,
            system,
            module,
            event,
        };
        if let Some(tap) = &mut self.tap {
            tap.push(entry.clone());
        }
        if self.capacity == Some(0) {
            // Count-only mode: the entry would be evicted immediately.
            self.evicted += 1;
            return;
        }
        self.entries.push(entry);
        self.enforce_capacity();
    }

    /// All retained entries in order (the most recent `cap` when bounded).
    pub fn entries(&self) -> &[TraceEntry] {
        self.live()
    }

    /// Entries whose description contains `needle`.
    pub fn find<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a TraceEntry> + 'a {
        self.live()
            .iter()
            .filter(move |e| e.desc().to_string().contains(needle))
    }

    /// First entry matching `needle`, if any.
    pub fn first<'a>(&'a self, needle: &'a str) -> Option<&'a TraceEntry> {
        self.find(needle).next()
    }

    /// Injected faults, with their entries.
    pub fn faults(&self) -> impl Iterator<Item = (&TraceEntry, &FaultEvent)> {
        self.live().iter().filter_map(|e| match &e.event {
            TraceEvent::Fault(f) => Some((e, f)),
            _ => None,
        })
    }

    /// Render the whole log (the Figure 10 style dump).
    pub fn dump(&self) -> String {
        let mut s = String::new();
        for e in self.live() {
            s.push_str(&e.to_string());
            s.push('\n');
        }
        s
    }

    /// Serialize to JSON lines for offline analysis.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.stream_jsonl(&mut out, |_| {});
        String::from_utf8(out).expect("compact JSON is UTF-8")
    }

    /// FNV-1a of [`Self::to_jsonl`]'s bytes, streamed: each entry is
    /// rendered into one reused buffer and hashed, so no JSONL string is
    /// ever built. The fleet digest pins every UE's retained trace with it.
    pub(crate) fn jsonl_fnv1a(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut buf = Vec::new();
        self.stream_jsonl(&mut buf, |chunk| {
            h.write(chunk);
            chunk.clear();
        });
        h.finish()
    }

    /// Append the JSONL rendering to `buf` one entry at a time (the `\n`
    /// separator first, from the second entry on), handing `buf` to
    /// `flush` after each entry.
    fn stream_jsonl(&self, buf: &mut Vec<u8>, mut flush: impl FnMut(&mut Vec<u8>)) {
        for (i, e) in self.live().iter().enumerate() {
            if i > 0 {
                buf.push(b'\n');
            }
            e.write_json(buf);
            flush(buf);
        }
    }

    /// Resident bytes of the collector's backing storage (entries are
    /// fixed-size: no per-entry heap) — read by the fleet kernel's
    /// bytes/UE accounting.
    pub fn resident_bytes_estimate(&self) -> usize {
        std::mem::size_of::<Self>() + self.entries.capacity() * std::mem::size_of::<TraceEntry>()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len() - self.start
    }

    /// No entries retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
impl TraceCollector {
    /// The pre-streaming JSONL path, kept as the test oracle for
    /// [`Self::to_jsonl`] and [`Self::jsonl_fnv1a`]: each entry's value
    /// tree rendered into its own string, then joined with `\n`.
    pub(crate) fn legacy_jsonl(&self) -> String {
        self.live()
            .iter()
            .map(|e| serde_json::to_string(&e.to_value()).unwrap())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv::fnv1a;
    use cellstack::{EmmCause, PdpDeactivationCause, UpdateKind};

    fn sample() -> TraceCollector {
        let mut t = TraceCollector::new();
        t.record(
            SimTime::from_millis(1_234),
            TraceType::Signaling,
            RatSystem::Utran3g,
            Protocol::Mm,
            TraceEvent::Nas {
                uplink: true,
                msg: NasMessage::UpdateRequest(UpdateKind::LocationArea),
            },
        );
        t.record(
            SimTime::from_secs(2),
            TraceType::RadioConfig,
            RatSystem::Utran3g,
            Protocol::Rrc3g,
            TraceEvent::RadioConfig { allow_64qam: false },
        );
        t
    }

    #[test]
    fn records_five_fields() {
        let t = sample();
        let e = &t.entries()[0];
        assert_eq!(e.ts.hhmmss(), "00:00:01.234");
        assert_eq!(e.trace_type, TraceType::Signaling);
        assert_eq!(e.system, RatSystem::Utran3g);
        assert_eq!(e.module, Protocol::Mm);
        assert!(e.desc().to_string().contains("Location Updating"));
    }

    #[test]
    fn display_contains_timestamp_and_module() {
        let t = sample();
        let line = t.entries()[0].to_string();
        assert!(line.starts_with("00:00:01.234"));
        assert!(line.contains("MM"));
        assert!(line.contains("3G"));
    }

    #[test]
    fn find_and_first() {
        let t = sample();
        assert_eq!(t.find("64QAM").count(), 1);
        assert!(t.first("64QAM").is_some());
        assert!(t.first("nonexistent").is_none());
    }

    #[test]
    fn faults_and_hazards_query_typed_entries() {
        let mut t = sample();
        t.record(
            SimTime::from_secs(3),
            TraceType::Fault,
            RatSystem::Lte4g,
            Protocol::Rrc4g,
            TraceEvent::Fault(FaultEvent::on_leg(
                FaultKind::Drop,
                Leg::Ul4g,
                NasMessage::AttachComplete,
            )),
        );
        t.record(
            SimTime::from_secs(4),
            TraceType::State,
            RatSystem::Lte4g,
            Protocol::Emm,
            TraceEvent::Hazard(HazardKind::ImplicitDetach),
        );
        let faults: Vec<_> = t.faults().collect();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].1.kind, FaultKind::Drop);
        assert_eq!(faults[0].1.uplink(), Some(true));
        assert_eq!(
            t.entries()[3].event,
            TraceEvent::Hazard(HazardKind::ImplicitDetach)
        );
    }

    fn entry(
        ts_ms: u64,
        trace_type: TraceType,
        system: RatSystem,
        module: Protocol,
        event: TraceEvent,
    ) -> TraceEntry {
        TraceEntry {
            ts: SimTime::from_millis(ts_ms),
            trace_type,
            system,
            module,
            event,
        }
    }

    #[test]
    fn fault_event_describe_matches_legacy_strings() {
        let fault = |trace_type, leg, kind, msg| {
            let event = TraceEvent::Fault(FaultEvent::on_leg(kind, leg, msg));
            entry(0, trace_type, RatSystem::Lte4g, Protocol::Rrc4g, event)
                .desc()
                .to_string()
        };
        assert_eq!(
            fault(TraceType::Fault, Leg::Dl3gCs, FaultKind::Drop, NasMessage::CallConnect),
            "downlink Connect lost on dl-3g-cs"
        );
        assert_eq!(
            fault(
                TraceType::Fault,
                Leg::Ul4g,
                FaultKind::Reorder { hold_ms: 250 },
                NasMessage::AttachComplete
            ),
            "uplink Attach Complete held 250 ms (reordered)"
        );
        let restart = entry(
            0,
            TraceType::Fault,
            RatSystem::Lte4g,
            Protocol::Rrc4g,
            TraceEvent::Fault(FaultEvent::node_restart(NodeId::Mme)),
        );
        assert_eq!(
            restart.desc().to_string(),
            "node mme restarted after outage (volatile state lost)"
        );
        // Corruption reads by direction; a drop traced as signaling is a
        // radio loss, not a campaign fault.
        assert_eq!(
            fault(TraceType::Fault, Leg::Ul3gPs, FaultKind::Corrupt, NasMessage::DetachRequest),
            "uplink Detach Request corrupted in flight"
        );
        assert_eq!(
            fault(TraceType::Fault, Leg::Dl3gCs, FaultKind::Corrupt, NasMessage::CallConnect),
            "downlink Connect corrupted; discarded by the device"
        );
        assert_eq!(
            fault(TraceType::Signaling, Leg::Ul4g, FaultKind::Drop, NasMessage::AttachComplete),
            "uplink Attach Complete lost over the air"
        );
        assert_eq!(
            fault(TraceType::Signaling, Leg::Dl4g, FaultKind::Drop, NasMessage::AttachAccept),
            "downlink Attach Accept lost over the air"
        );
    }

    /// One row per trace record site of the simulator and the device
    /// stack: the typed entry as the site records it, and the description
    /// and compact JSON the site produced when descriptions were stored
    /// strings. Those bytes feed the fleet digest and the validation
    /// JSON, so every row must render identically.
    #[test]
    fn every_record_site_renders_its_legacy_text_and_json() {
        let nas = |uplink, msg| TraceEvent::Nas { uplink, msg };
        let fault = |kind, leg, msg| TraceEvent::Fault(FaultEvent::on_leg(kind, leg, msg));
        let stack = |note| TraceEvent::Note(Note::Stack(note));
        let tau_request = || NasMessage::UpdateRequest(UpdateKind::TrackingArea);
        let tau_accept = || NasMessage::UpdateAccept(UpdateKind::TrackingArea);
        let rows = [
            (
                entry(67389894, TraceType::State, RatSystem::Utran3g, Protocol::Emm, TraceEvent::CampedOn(RatSystem::Utran3g)),
                "coverage mobility: camped on 3G",
                r#"{"ts":67389894,"trace_type":"State","system":"Utran3g","module":"Emm","desc":"coverage mobility: camped on 3G","event":{"CampedOn":"Utran3g"}}"#,
            ),
            (
                entry(11000, TraceType::UserAction, RatSystem::Lte4g, Protocol::CmCc, TraceEvent::Call(CallPhase::Dialed)),
                "user dials",
                r#"{"ts":11000,"trace_type":"UserAction","system":"Lte4g","module":"CmCc","desc":"user dials","event":{"Call":"Dialed"}}"#,
            ),
            (
                entry(26088062, TraceType::UserAction, RatSystem::Lte4g, Protocol::CmCc, TraceEvent::Call(CallPhase::Incoming)),
                "incoming call (network pages the device)",
                r#"{"ts":26088062,"trace_type":"UserAction","system":"Lte4g","module":"CmCc","desc":"incoming call (network pages the device)","event":{"Call":"Incoming"}}"#,
            ),
            (
                entry(23000, TraceType::UserAction, RatSystem::Utran3g, Protocol::Sm, TraceEvent::Note(Note::WifiDataOff)),
                "Wi-Fi available: mobile data disabled",
                r#"{"ts":23000,"trace_type":"UserAction","system":"Utran3g","module":"Sm","desc":"Wi-Fi available: mobile data disabled","event":"Note"}"#,
            ),
            (
                entry(11857, TraceType::State, RatSystem::Utran3g, Protocol::Rrc3g, TraceEvent::CampedOn(RatSystem::Utran3g)),
                "CSFB fallback complete: camped on 3G",
                r#"{"ts":11857,"trace_type":"State","system":"Utran3g","module":"Rrc3g","desc":"CSFB fallback complete: camped on 3G","event":{"CampedOn":"Utran3g"}}"#,
            ),
            (
                entry(39698, TraceType::State, RatSystem::Lte4g, Protocol::Rrc4g, TraceEvent::CampedOn(RatSystem::Lte4g)),
                "returned to 4G: camped on LTE",
                r#"{"ts":39698,"trace_type":"State","system":"Lte4g","module":"Rrc4g","desc":"returned to 4G: camped on LTE","event":{"CampedOn":"Lte4g"}}"#,
            ),
            (
                entry(39698, TraceType::State, RatSystem::Lte4g, Protocol::Emm, TraceEvent::Hazard(HazardKind::S1ContextLoss)),
                "3G->4G switch without PDP context (S1 hazard)",
                r#"{"ts":39698,"trace_type":"State","system":"Lte4g","module":"Emm","desc":"3G->4G switch without PDP context (S1 hazard)","event":{"Hazard":"S1ContextLoss"}}"#,
            ),
            (
                entry(35000, TraceType::Measurement, RatSystem::Utran3g, Protocol::Rrc3g, TraceEvent::Throughput { uplink: false, with_call: true, kbps: 3891 }),
                "downlink throughput sample: 3891 kbps (CS voice active)",
                r#"{"ts":35000,"trace_type":"Measurement","system":"Utran3g","module":"Rrc3g","desc":"downlink throughput sample: 3891 kbps (CS voice active)","event":{"Throughput":{"uplink":false,"with_call":true,"kbps":3891}}}"#,
            ),
            (
                entry(510100, TraceType::Measurement, RatSystem::Lte4g, Protocol::Rrc4g, TraceEvent::Throughput { uplink: true, with_call: false, kbps: 4075 }),
                "uplink throughput sample: 4075 kbps",
                r#"{"ts":510100,"trace_type":"Measurement","system":"Lte4g","module":"Rrc4g","desc":"uplink throughput sample: 4075 kbps","event":{"Throughput":{"uplink":true,"with_call":false,"kbps":4075}}}"#,
            ),
            (
                entry(92, TraceType::Signaling, RatSystem::Lte4g, Protocol::Emm, nas(true, NasMessage::AttachRequest { system: RatSystem::Lte4g })),
                "core received: Attach Request",
                r#"{"ts":92,"trace_type":"Signaling","system":"Lte4g","module":"Emm","desc":"core received: Attach Request","event":{"Nas":{"uplink":true,"msg":{"AttachRequest":{"system":"Lte4g"}}}}}"#,
            ),
            (
                entry(11925, TraceType::Signaling, RatSystem::Utran3g, Protocol::Gmm, nas(true, NasMessage::UpdateRequest(UpdateKind::RoutingArea))),
                "core received: Routing Area Update Request",
                r#"{"ts":11925,"trace_type":"Signaling","system":"Utran3g","module":"Gmm","desc":"core received: Routing Area Update Request","event":{"Nas":{"uplink":true,"msg":{"UpdateRequest":"RoutingArea"}}}}"#,
            ),
            (
                entry(12071, TraceType::Signaling, RatSystem::Utran3g, Protocol::Mm, nas(true, NasMessage::CallSetup)),
                "core received: Setup",
                r#"{"ts":12071,"trace_type":"Signaling","system":"Utran3g","module":"Mm","desc":"core received: Setup","event":{"Nas":{"uplink":true,"msg":"CallSetup"}}}"#,
            ),
            (
                entry(43, TraceType::Signaling, RatSystem::Lte4g, Protocol::Emm, TraceEvent::Note(Note::HssRejectedAttach(AttachRejectCause::EpsServicesNotAllowed))),
                "HSS rejected attach: EpsServicesNotAllowed",
                r#"{"ts":43,"trace_type":"Signaling","system":"Lte4g","module":"Emm","desc":"HSS rejected attach: EpsServicesNotAllowed","event":"Note"}"#,
            ),
            (
                entry(39698, TraceType::State, RatSystem::Lte4g, Protocol::Emm, TraceEvent::Hazard(HazardKind::S6FailurePropagated)),
                "3G location-update failure propagated to 4G: MME detaches the device (S6 hazard)",
                r#"{"ts":39698,"trace_type":"State","system":"Lte4g","module":"Emm","desc":"3G location-update failure propagated to 4G: MME detaches the device (S6 hazard)","event":{"Hazard":"S6FailurePropagated"}}"#,
            ),
            (
                entry(40057344, TraceType::Signaling, RatSystem::Lte4g, Protocol::Emm, TraceEvent::Note(Note::LuRecoveredInCore)),
                "MME recovered 3G location update in-core (remedy)",
                r#"{"ts":40057344,"trace_type":"Signaling","system":"Lte4g","module":"Emm","desc":"MME recovered 3G location update in-core (remedy)","event":"Note"}"#,
            ),
            (
                entry(61250, TraceType::Signaling, RatSystem::Lte4g, Protocol::Rrc4g, fault(FaultKind::Drop, Leg::Dl4g, tau_accept())),
                "downlink Tracking Area Update Accept lost over the air",
                r#"{"ts":61250,"trace_type":"Signaling","system":"Lte4g","module":"Rrc4g","desc":"downlink Tracking Area Update Accept lost over the air","event":{"Fault":{"kind":"Drop","leg":"Dl4g","msg":{"UpdateAccept":"TrackingArea"},"node":null}}}"#,
            ),
            (
                entry(160143, TraceType::Signaling, RatSystem::Lte4g, Protocol::Rrc4g, fault(FaultKind::Drop, Leg::Ul4g, NasMessage::AttachComplete)),
                "uplink Attach Complete lost over the air",
                r#"{"ts":160143,"trace_type":"Signaling","system":"Lte4g","module":"Rrc4g","desc":"uplink Attach Complete lost over the air","event":{"Fault":{"kind":"Drop","leg":"Ul4g","msg":"AttachComplete","node":null}}}"#,
            ),
            (
                entry(9038, TraceType::Fault, RatSystem::Lte4g, Protocol::Rrc4g, fault(FaultKind::Drop, Leg::Dl4g, tau_accept())),
                "downlink Tracking Area Update Accept lost on dl-4g",
                r#"{"ts":9038,"trace_type":"Fault","system":"Lte4g","module":"Rrc4g","desc":"downlink Tracking Area Update Accept lost on dl-4g","event":{"Fault":{"kind":"Drop","leg":"Dl4g","msg":{"UpdateAccept":"TrackingArea"},"node":null}}}"#,
            ),
            (
                entry(36900359, TraceType::Fault, RatSystem::Utran3g, Protocol::Rrc3g, fault(FaultKind::Drop, Leg::Dl3gCs, NasMessage::CallSetup)),
                "downlink Setup lost on dl-3g-cs",
                r#"{"ts":36900359,"trace_type":"Fault","system":"Utran3g","module":"Rrc3g","desc":"downlink Setup lost on dl-3g-cs","event":{"Fault":{"kind":"Drop","leg":"Dl3gCs","msg":"CallSetup","node":null}}}"#,
            ),
            (
                entry(28500, TraceType::Fault, RatSystem::Lte4g, Protocol::Rrc4g, fault(FaultKind::Corrupt, Leg::Ul4g, tau_request())),
                "uplink Tracking Area Update Request corrupted in flight",
                r#"{"ts":28500,"trace_type":"Fault","system":"Lte4g","module":"Rrc4g","desc":"uplink Tracking Area Update Request corrupted in flight","event":{"Fault":{"kind":"Corrupt","leg":"Ul4g","msg":{"UpdateRequest":"TrackingArea"},"node":null}}}"#,
            ),
            (
                entry(55559, TraceType::Fault, RatSystem::Lte4g, Protocol::Rrc4g, fault(FaultKind::Corrupt, Leg::Dl4g, tau_accept())),
                "downlink Tracking Area Update Accept corrupted; discarded by the device",
                r#"{"ts":55559,"trace_type":"Fault","system":"Lte4g","module":"Rrc4g","desc":"downlink Tracking Area Update Accept corrupted; discarded by the device","event":{"Fault":{"kind":"Corrupt","leg":"Dl4g","msg":{"UpdateAccept":"TrackingArea"},"node":null}}}"#,
            ),
            (
                entry(18000, TraceType::Fault, RatSystem::Lte4g, Protocol::Rrc4g, fault(FaultKind::Reorder { hold_ms: 400 }, Leg::Ul4g, tau_request())),
                "uplink Tracking Area Update Request held 400 ms (reordered)",
                r#"{"ts":18000,"trace_type":"Fault","system":"Lte4g","module":"Rrc4g","desc":"uplink Tracking Area Update Request held 400 ms (reordered)","event":{"Fault":{"kind":{"Reorder":{"hold_ms":400}},"leg":"Ul4g","msg":{"UpdateRequest":"TrackingArea"},"node":null}}}"#,
            ),
            (
                entry(80000, TraceType::Fault, RatSystem::Lte4g, Protocol::Rrc4g, TraceEvent::Fault(FaultEvent::node_restart(NodeId::Mme))),
                "node mme restarted after outage (volatile state lost)",
                r#"{"ts":80000,"trace_type":"Fault","system":"Lte4g","module":"Rrc4g","desc":"node mme restarted after outage (volatile state lost)","event":{"Fault":{"kind":"NodeRestart","leg":null,"msg":null,"node":"Mme"}}}"#,
            ),
            (
                entry(43200000, TraceType::Fault, RatSystem::Utran3g, Protocol::Rrc3g, TraceEvent::Fault(FaultEvent::node_restart(NodeId::Msc))),
                "node msc restarted after outage (volatile state lost)",
                r#"{"ts":43200000,"trace_type":"Fault","system":"Utran3g","module":"Rrc3g","desc":"node msc restarted after outage (volatile state lost)","event":{"Fault":{"kind":"NodeRestart","leg":null,"msg":null,"node":"Msc"}}}"#,
            ),
            (
                entry(143, TraceType::Signaling, RatSystem::Lte4g, Protocol::Emm, nas(false, NasMessage::AttachAccept)),
                "device received: Attach Accept",
                r#"{"ts":143,"trace_type":"Signaling","system":"Lte4g","module":"Emm","desc":"device received: Attach Accept","event":{"Nas":{"uplink":false,"msg":"AttachAccept"}}}"#,
            ),
            (
                entry(41087, TraceType::Signaling, RatSystem::Utran3g, Protocol::Mm, nas(false, NasMessage::UpdateAccept(UpdateKind::LocationArea))),
                "device received: Location Updating Accept",
                r#"{"ts":41087,"trace_type":"Signaling","system":"Utran3g","module":"Mm","desc":"device received: Location Updating Accept","event":{"Nas":{"uplink":false,"msg":{"UpdateAccept":"LocationArea"}}}}"#,
            ),
            (
                entry(39760, TraceType::State, RatSystem::Lte4g, Protocol::Emm, TraceEvent::Hazard(HazardKind::ImplicitDetach)),
                "network-caused detach reached an in-service device",
                r#"{"ts":39760,"trace_type":"State","system":"Lte4g","module":"Emm","desc":"network-caused detach reached an in-service device","event":{"Hazard":"ImplicitDetach"}}"#,
            ),
            (
                entry(143, TraceType::State, RatSystem::Lte4g, Protocol::Emm, TraceEvent::Registration { registered: true, system: RatSystem::Lte4g }),
                "registered (in service)",
                r#"{"ts":143,"trace_type":"State","system":"Lte4g","module":"Emm","desc":"registered (in service)","event":{"Registration":{"registered":true,"system":"Lte4g"}}}"#,
            ),
            (
                entry(39760, TraceType::State, RatSystem::Lte4g, Protocol::Emm, TraceEvent::Registration { registered: false, system: RatSystem::Lte4g }),
                "deregistered (out of service)",
                r#"{"ts":39760,"trace_type":"State","system":"Lte4g","module":"Emm","desc":"deregistered (out of service)","event":{"Registration":{"registered":false,"system":"Lte4g"}}}"#,
            ),
            (
                entry(23335, TraceType::RadioConfig, RatSystem::Utran3g, Protocol::Rrc3g, TraceEvent::RadioConfig { allow_64qam: false }),
                "64QAM disabled during CS voice call (shared channel -> 16QAM)",
                r#"{"ts":23335,"trace_type":"RadioConfig","system":"Utran3g","module":"Rrc3g","desc":"64QAM disabled during CS voice call (shared channel -> 16QAM)","event":{"RadioConfig":{"allow_64qam":false}}}"#,
            ),
            (
                entry(23335, TraceType::State, RatSystem::Utran3g, Protocol::CmCc, TraceEvent::Call(CallPhase::Connected)),
                "call connected",
                r#"{"ts":23335,"trace_type":"State","system":"Utran3g","module":"CmCc","desc":"call connected","event":{"Call":"Connected"}}"#,
            ),
            (
                entry(95020, TraceType::State, RatSystem::Utran3g, Protocol::CmCc, TraceEvent::Call(CallPhase::Failed)),
                "call setup failed",
                r#"{"ts":95020,"trace_type":"State","system":"Utran3g","module":"CmCc","desc":"call setup failed","event":{"Call":"Failed"}}"#,
            ),
            (
                entry(100, TraceType::State, RatSystem::Utran3g, Protocol::Mm, TraceEvent::Hazard(HazardKind::S4HolBlocked)),
                "CM service request blocked behind location update (S4 hazard)",
                r#"{"ts":100,"trace_type":"State","system":"Utran3g","module":"Mm","desc":"CM service request blocked behind location update (S4 hazard)","event":{"Hazard":"S4HolBlocked"}}"#,
            ),
            (
                entry(415000, TraceType::State, RatSystem::Utran3g, Protocol::Gmm, TraceEvent::CampedOn(RatSystem::Utran3g)),
                "4G attach retries exhausted; falling back to 3G",
                r#"{"ts":415000,"trace_type":"State","system":"Utran3g","module":"Gmm","desc":"4G attach retries exhausted; falling back to 3G","event":{"CampedOn":"Utran3g"}}"#,
            ),
            (
                entry(11857, TraceType::State, RatSystem::Utran3g, Protocol::Sm, stack(StackNote::ContextMigrated)),
                "EPS bearer context migrated to PDP context",
                r#"{"ts":11857,"trace_type":"State","system":"Utran3g","module":"Sm","desc":"EPS bearer context migrated to PDP context","event":"Note"}"#,
            ),
            (
                entry(11857, TraceType::State, RatSystem::Utran3g, Protocol::Emm, stack(StackNote::SwitchedTo3g)),
                "4G->3G inter-system switch complete",
                r#"{"ts":11857,"trace_type":"State","system":"Utran3g","module":"Emm","desc":"4G->3G inter-system switch complete","event":"Note"}"#,
            ),
            (
                entry(39698, TraceType::State, RatSystem::Lte4g, Protocol::Emm, stack(StackNote::SwitchTo4gAttempted)),
                "3G->4G inter-system switch attempted",
                r#"{"ts":39698,"trace_type":"State","system":"Lte4g","module":"Emm","desc":"3G->4G inter-system switch attempted","event":"Note"}"#,
            ),
            (
                entry(41087, TraceType::State, RatSystem::Utran3g, Protocol::Mm, stack(StackNote::LocationUpdateDone)),
                "Location area update complete",
                r#"{"ts":41087,"trace_type":"State","system":"Utran3g","module":"Mm","desc":"Location area update complete","event":"Note"}"#,
            ),
            (
                entry(75310, TraceType::State, RatSystem::Utran3g, Protocol::Gmm, stack(StackNote::RoutingUpdateDone)),
                "Routing area update complete",
                r#"{"ts":75310,"trace_type":"State","system":"Utran3g","module":"Gmm","desc":"Routing area update complete","event":"Note"}"#,
            ),
            (
                entry(20054, TraceType::State, RatSystem::Utran3g, Protocol::Sm, stack(StackNote::PdpDeactivated(PdpDeactivationCause::OperatorDeterminedBarring))),
                "PDP context deactivated: Operator determined barring",
                r#"{"ts":20054,"trace_type":"State","system":"Utran3g","module":"Sm","desc":"PDP context deactivated: Operator determined barring","event":"Note"}"#,
            ),
            (
                entry(38462, TraceType::RadioConfig, RatSystem::Utran3g, Protocol::Rrc3g, TraceEvent::RadioConfig { allow_64qam: true }),
                "64QAM re-enabled (CS voice call ended)",
                r#"{"ts":38462,"trace_type":"RadioConfig","system":"Utran3g","module":"Rrc3g","desc":"64QAM re-enabled (CS voice call ended)","event":{"RadioConfig":{"allow_64qam":true}}}"#,
            ),
            (
                entry(38462, TraceType::State, RatSystem::Utran3g, Protocol::CmCc, TraceEvent::Call(CallPhase::Released)),
                "call released",
                r#"{"ts":38462,"trace_type":"State","system":"Utran3g","module":"CmCc","desc":"call released","event":{"Call":"Released"}}"#,
            ),
        ];
        for (e, desc, json) in &rows {
            assert_eq!(e.desc().to_string(), *desc);
            let mut out = Vec::new();
            e.write_json(&mut out);
            assert_eq!(String::from_utf8(out).unwrap(), *json);
            assert_eq!(serde_json::to_string(&e.to_value()).unwrap(), *json);
        }
    }

    #[test]
    fn jsonl_roundtrips() {
        let t = sample();
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, e) in lines.iter().zip(t.entries()) {
            let back: Value = serde_json::from_str(line).unwrap();
            assert_eq!(back, e.to_value());
        }
    }

    /// Every [`TraceEvent`] variant, every [`Note`] and [`StackNote`], and
    /// every [`FaultKind`].
    fn every_variant() -> Vec<TraceEvent> {
        let fault = |kind, leg, msg| TraceEvent::Fault(FaultEvent::on_leg(kind, leg, msg));
        let stack = |note| TraceEvent::Note(Note::Stack(note));
        vec![
            TraceEvent::Note(Note::WifiDataOff),
            TraceEvent::Note(Note::HssRejectedAttach(AttachRejectCause::EpsServicesNotAllowed)),
            TraceEvent::Note(Note::LuRecoveredInCore),
            stack(StackNote::ContextMigrated),
            stack(StackNote::SwitchedTo3g),
            stack(StackNote::SwitchTo4gAttempted),
            stack(StackNote::LocationUpdateDone),
            stack(StackNote::RoutingUpdateDone),
            stack(StackNote::PdpDeactivated(PdpDeactivationCause::RegularDeactivation)),
            TraceEvent::Nas {
                uplink: true,
                msg: NasMessage::AttachRequest {
                    system: RatSystem::Lte4g,
                },
            },
            TraceEvent::Nas {
                uplink: false,
                msg: NasMessage::UpdateReject(UpdateKind::RoutingArea, EmmCause::NetworkFailure),
            },
            TraceEvent::Registration {
                registered: false,
                system: RatSystem::Utran3g,
            },
            TraceEvent::CampedOn(RatSystem::Utran3g),
            TraceEvent::Call(CallPhase::Failed),
            TraceEvent::RadioConfig { allow_64qam: true },
            TraceEvent::Throughput {
                uplink: false,
                with_call: true,
                kbps: 12_345,
            },
            fault(FaultKind::Drop, Leg::Ul4g, NasMessage::AttachComplete),
            fault(FaultKind::Corrupt, Leg::Dl3gCs, NasMessage::CallConnect),
            fault(
                FaultKind::Reorder { hold_ms: 250 },
                Leg::Ul3gPs,
                NasMessage::DetachRequest,
            ),
            TraceEvent::Fault(FaultEvent::node_restart(NodeId::Mme)),
            TraceEvent::Hazard(HazardKind::S1ContextLoss),
            TraceEvent::Hazard(HazardKind::S4HolBlocked),
            TraceEvent::Hazard(HazardKind::S6FailurePropagated),
            TraceEvent::Hazard(HazardKind::ImplicitDetach),
        ]
    }

    fn record_every_variant(t: &mut TraceCollector) {
        for (i, event) in every_variant().into_iter().enumerate() {
            t.record(
                SimTime::from_millis(i as u64 * 1_001),
                TraceType::State,
                RatSystem::Lte4g,
                Protocol::Emm,
                event,
            );
        }
    }

    #[test]
    fn every_variant_is_recorded() {
        let mut t = TraceCollector::new();
        record_every_variant(&mut t);
        let mut events = [false; 9];
        let mut faults = [false; 4];
        let mut notes = [false; 4];
        for e in t.entries() {
            events[match &e.event {
                TraceEvent::Note(n) => {
                    notes[match n {
                        Note::WifiDataOff => 0,
                        Note::HssRejectedAttach(_) => 1,
                        Note::LuRecoveredInCore => 2,
                        Note::Stack(_) => 3,
                    }] = true;
                    0
                }
                TraceEvent::Nas { .. } => 1,
                TraceEvent::Registration { .. } => 2,
                TraceEvent::CampedOn(_) => 3,
                TraceEvent::Call(_) => 4,
                TraceEvent::RadioConfig { .. } => 5,
                TraceEvent::Throughput { .. } => 6,
                TraceEvent::Fault(f) => {
                    faults[match f.kind {
                        FaultKind::Drop => 0,
                        FaultKind::Corrupt => 1,
                        FaultKind::Reorder { .. } => 2,
                        FaultKind::NodeRestart => 3,
                    }] = true;
                    7
                }
                TraceEvent::Hazard(_) => 8,
            }] = true;
        }
        assert!(events.iter().all(|&x| x), "{events:?}");
        assert!(faults.iter().all(|&x| x), "{faults:?}");
        assert!(notes.iter().all(|&x| x), "{notes:?}");
    }

    #[test]
    fn streamed_digest_matches_the_legacy_string_path() {
        let n = every_variant().len();
        for cap in [None, Some(8), Some(0)] {
            let mut t = TraceCollector::with_capacity(cap);
            record_every_variant(&mut t);
            record_every_variant(&mut t);
            let legacy = t.legacy_jsonl();
            assert_eq!(t.to_jsonl(), legacy, "capacity {cap:?}");
            assert_eq!(
                t.jsonl_fnv1a(),
                fnv1a(legacy.as_bytes()),
                "capacity {cap:?}"
            );
            assert_eq!(t.len(), cap.unwrap_or(2 * n), "capacity {cap:?}");
            for line in legacy.lines().filter(|l| l.contains("\"desc\":\"Wi-Fi")) {
                assert!(line.ends_with(",\"event\":\"Note\"}"), "{line}");
            }
        }
        assert_eq!(TraceCollector::new().jsonl_fnv1a(), fnv1a(b""));
    }

    #[test]
    fn dump_one_line_per_entry() {
        let t = sample();
        assert_eq!(t.dump().lines().count(), 2);
    }

    fn push_entry(t: &mut TraceCollector, i: u64) {
        t.record(
            SimTime::from_millis(i),
            TraceType::State,
            RatSystem::Lte4g,
            Protocol::Emm,
            TraceEvent::Call(CallPhase::Dialed),
        );
    }

    #[test]
    fn capacity_retains_most_recent_and_counts_evictions() {
        let mut t = TraceCollector::with_capacity(Some(100));
        for i in 0..1_000 {
            push_entry(&mut t, i);
            assert!(t.len() <= 100, "bound holds at every step");
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.evicted(), 900);
        assert_eq!(t.entries()[0].ts, SimTime::from_millis(900));
        assert_eq!(t.entries()[99].ts, SimTime::from_millis(999));
    }

    #[test]
    fn default_is_unbounded_with_zero_evictions() {
        let mut t = TraceCollector::new();
        for i in 0..5_000 {
            push_entry(&mut t, i);
        }
        assert_eq!(t.len(), 5_000);
        assert_eq!(t.evicted(), 0);
    }

    #[test]
    fn count_only_mode_retains_nothing_but_counts_everything() {
        let mut t = TraceCollector::with_capacity(Some(0));
        for i in 0..1_000 {
            push_entry(&mut t, i);
        }
        assert!(t.is_empty());
        assert_eq!(t.evicted(), 1_000);
        assert_eq!(t.entries.capacity(), 0, "count-only mode never allocates");
    }

    #[test]
    fn bounded_churn_keeps_backing_memory_steady() {
        let mut t = TraceCollector::with_capacity(Some(64));
        let mut peak = 0;
        for i in 0..100_000 {
            push_entry(&mut t, i);
            peak = peak.max(t.entries.capacity());
        }
        assert!(
            peak <= 64 * 4 + 16,
            "backing vector must stay proportional to the bound, peaked at {peak}"
        );
    }
}
