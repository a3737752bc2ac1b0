//! Structured diagnostics: stable codes, severities, offending paths and
//! fix-it hints, with human-readable and JSON renderings.

use std::fmt;

use serde::{Content, Serialize};

/// Version of the machine-readable output formats produced by this crate
/// (the [`Report::render_json`] document and the `perpos-lint --facts
/// json` facts document). Bumped whenever the shape changes so downstream
/// tooling can detect format drift. Version 1 was the unversioned PR 1
/// shape; version 2 adds `schema_version` itself and codes P010–P013;
/// version 3 adds code P014 and the channel-buffer facts
/// (`level_buffer_cap`, per-node `overflow_s`); version 4 adds code
/// P015, the `perpos-lint synth` `synthesis` document (goal, ranked
/// candidates, infeasibility explanation) and canonically sorted
/// diagnostics/facts arrays (byte-reproducible output); version 5 adds
/// code P016 and the facts document's `fleet` field (the resolved fleet
/// deployment, `null` without a `fleet` block); version 6 adds codes
/// P017–P019 and the facts document's `effects` block (per-node declared
/// effects plus the wave-interference conflicts found over the
/// level-parallel schedule); version 7 adds code P020 and the fleet
/// facts' `scheduler`/`workers` fields (the resolved fleet scheduler
/// name and its *requested* worker cap, 0 meaning machine-sized — the
/// requested value is recorded, not the machine-resolved one, so the
/// document stays host-independent); version 8 removes code P017 and,
/// with the level-parallel executor gone, the facts document's
/// `executor`, `levels` and `effects.conflicts` fields.
pub const JSON_SCHEMA_VERSION: u32 = 8;

/// The one canonical-ordering primitive behind every byte-reproducible
/// surface of this crate: sorts `items` by `key`, computing each key
/// exactly once. [`Report::canonical_diagnostics`] and the facts
/// serializer both order their arrays through this helper, so the two
/// surfaces cannot drift apart on ordering semantics (ties keep a single,
/// total ordering as long as the key is total — prefer keys that include
/// every distinguishing field).
pub fn canonical_sort<T, K: Ord>(items: &mut [T], key: impl FnMut(&T) -> K) {
    items.sort_by_cached_key(key);
}

/// Defines [`Code`] from a single list, generating the enum, the
/// [`Code::ALL`] table, [`Code::as_str`], [`Code::parse`] and
/// [`Code::summary`] together. Because every surface is produced from the
/// one invocation below, adding a code without registering it in `ALL`
/// (or vice versa) is impossible, and forgetting its summary is a compile
/// error; [`Code::explain`] is kept as a separate exhaustive `match` so a
/// new code without a long-form explanation also fails to build.
macro_rules! define_codes {
    ($($(#[$meta:meta])* $code:ident => $summary:literal,)+) => {
        /// Stable diagnostic codes. The numeric part never changes
        /// meaning once released; renderers and tests key on these.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Code {
            $($(#[$meta])* $code,)+
        }

        impl Code {
            /// All codes, in numeric order. Generated from the same list
            /// as the enum itself, so it can never fall out of sync.
            pub const ALL: [Code; 0 $(+ { let _ = Code::$code; 1 })+] =
                [$(Code::$code,)+];

            /// The stable textual form, e.g. `"P001"`.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(Code::$code => stringify!($code),)+
                }
            }

            /// Parses the textual form back into a code (`"P001"` →
            /// [`Code::P001`]). Returns `None` for unknown codes.
            pub fn parse(text: &str) -> Option<Code> {
                match text {
                    $(stringify!($code) => Some(Code::$code),)+
                    _ => None,
                }
            }

            /// One-line description of what the code means.
            pub fn summary(&self) -> &'static str {
                match self {
                    $(Code::$code => $summary,)+
                }
            }
        }
    };
}

define_codes! {
    /// Type-flow mismatch: a producer's effective output kinds cannot
    /// satisfy the consuming port's accepted kinds.
    P001 => "type-flow mismatch between producer and consumer port",
    /// Dangling required input: a declared input port is never connected.
    P002 => "declared input port is never connected",
    /// Unsatisfiable feature requirement: a port's `requiring_feature`
    /// declaration cannot be met by the upstream producer.
    P003 => "port feature requirement cannot be satisfied",
    /// Dead component: no directed path to any sink (includes orphan
    /// sources and unconsumed subgraphs).
    P004 => "component has no path to any sink",
    /// Configuration cycle: the declared connections contain a cycle, so
    /// instantiation would be rejected.
    P005 => "configuration connections form a cycle",
    /// Feature conflict: features on one component add the same data kind
    /// or expose colliding method names.
    P006 => "conflicting features on one component",
    /// Configuration reference error: unknown instance/type names,
    /// duplicate instance names, out-of-range or doubly-driven ports.
    P007 => "configuration reference error",
    /// Non-monotonic logical time observed on a channel at runtime.
    P008 => "non-monotonic logical time on a channel",
    /// Source component with no explicit fault policy: the engine's
    /// default `Propagate` aborts the whole run on the first sensor
    /// fault.
    P009 => "source component has no explicit fault policy",
    /// Coordinate-frame conflict: positions in incompatible frames meet
    /// at a component that is not a frame transform.
    P010 => "incompatible coordinate frames meet without a transform",
    /// Declared accuracy unreachable: a component promises an accuracy
    /// better than the statically inferred achievable bound.
    P011 => "declared accuracy is statically unreachable",
    /// Privacy taint: raw identifiable sensor data reaches an application
    /// sink with no anonymizing step on the path.
    P012 => "raw identifiable sensor data reaches the application",
    /// Rate overload: inferred sustained inbound rate exceeds a
    /// component's declared maximum processing rate.
    P013 => "inbound rate exceeds declared processing capacity",
    /// Channel buffer overrun: a sustained rate excess will fill the
    /// channel layer's bounded per-level buffer, after which the oldest
    /// pending entries are evicted and silently missing from data trees.
    P014 => "declared rates will overrun the channel level buffer",
    /// Unsatisfiable synthesis goal: no pipeline over the catalog can
    /// meet the requested criteria; the finding names the binding
    /// constraint (accuracy, rate, power, frame, privacy or a missing
    /// provider).
    P015 => "synthesis goal is unsatisfiable against the catalog",
    /// Under-provisioned fleet fault containment: the configuration
    /// declares a fleet deployment while components still run the
    /// default `Propagate` policy, so every component fault escapes the
    /// instance and is paid for as a fleet-level checkpoint restart.
    P016 => "fleet deployment relies on checkpoint-restart for routine faults",
    /// Checkpoint blind spot: a component declared stateful but not
    /// snapshot-capable runs inside a fleet deployment, so every
    /// checkpoint restart silently diverges from the uninterrupted run.
    P018 => "stateful fleet component has no snapshot hooks",
    /// Hidden nondeterminism: a component declares exogenous inputs
    /// (wall clock, live I/O) or unseeded randomness in a graph that
    /// fleet checkpointing or synthesis treats as deterministic.
    P019 => "exogenous or unseeded effects undermine assumed determinism",
    /// Fleet-parallel interference: the fleet block requests parallel
    /// shard stepping while a template component declares writes on a
    /// named shared resource, so the component's per-instance replicas
    /// in concurrently stepped shards race on that resource.
    P020 => "parallel fleet replicas race on a declared shared resource",
}

/// Long-form documentation of a diagnostic code, served by
/// `perpos-lint --explain PNNN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeExplanation {
    /// What the analysis checks and why it matters, in a few sentences.
    pub detail: &'static str,
    /// A minimal situation that triggers the finding.
    pub example: &'static str,
    /// How to make the finding go away.
    pub fix: &'static str,
}

impl Code {
    /// The long-form explanation of this code. The `match` is exhaustive
    /// on purpose: adding a code to `define_codes!` without an
    /// explanation here is a compile error, which keeps `--explain`
    /// complete by construction.
    pub fn explain(&self) -> CodeExplanation {
        match self {
            Code::P001 => CodeExplanation {
                detail: "Every connection is checked against the port declarations on \
                         both sides: the producer's effective output kinds (its output \
                         spec plus any kinds added by attached features) must overlap \
                         the consumer port's accepted kinds, otherwise no item can ever \
                         legally flow over the edge.",
                example: "A GPS source providing only \"raw.string\" wired directly \
                          into a geodecoder port that accepts \"position.wgs84\".",
                fix: "Insert a converting component (e.g. an NMEA parser) between the \
                      two, or correct the port's accepted kinds.",
            },
            Code::P002 => CodeExplanation {
                detail: "A component declares an input port but nothing is connected \
                         to it. The component will never receive data on that port and \
                         single-input processors will simply never run.",
                example: "A \"parser\" instance is declared in the configuration but no \
                          connection entry drives its port 0.",
                fix: "Connect a producer to the port or remove the unused component.",
            },
            Code::P003 => CodeExplanation {
                detail: "A port declared a Component Feature requirement (paper §2.1: \
                         input requirements) and the connected producer does not carry \
                         a feature with that name, so the consumer's contract is \
                         unsatisfiable.",
                example: "An interpolator port requiring the \"HDOP\" feature is fed by \
                          a GPS source with no HDOP feature attached.",
                fix: "Attach the required feature to the producer or drop the \
                      requirement from the port spec.",
            },
            Code::P004 => CodeExplanation {
                detail: "The component has no directed path to any sink, so whatever it \
                         produces is never observed by an application. This is usually \
                         a leftover from a partial adaptation.",
                example: "A WiFi scanner whose consumer was removed keeps producing \
                          scans that nothing consumes.",
                fix: "Wire the component (transitively) into a sink or remove it.",
            },
            Code::P005 => CodeExplanation {
                detail: "The declared connections contain a directed cycle. PerPos \
                         process graphs are trees/DAGs rooted at the application \
                         (paper §2.2); the assembler rejects cyclic configurations at \
                         instantiation time, so the lint reports them early.",
                example: "a -> b, b -> c, c -> a.",
                fix: "Break the cycle; if feedback is needed, model it as reflective \
                      method calls rather than data-flow edges.",
            },
            Code::P006 => CodeExplanation {
                detail: "Two features attached to one component add the same data kind \
                         or expose the same reflective method name, making dispatch \
                         ambiguous.",
                example: "Two \"HDOP\"-adding features attached to one GPS source.",
                fix: "Remove one of the features or rename the colliding method.",
            },
            Code::P007 => CodeExplanation {
                detail: "The configuration references something that does not exist or \
                         is used twice: unknown type/instance names, duplicate instance \
                         names, out-of-range port indexes, or two producers driving the \
                         same input port. An adaptation plan step the live graph would \
                         refuse, or one adapting a quarantined node, also reports P007.",
                example: "A connection names instance \"parserX\" but only \"parser0\" \
                          is declared.",
                fix: "Fix the name/index in the configuration or plan.",
            },
            Code::P008 => CodeExplanation {
                detail: "A runtime probe observed an item whose logical timestamp is \
                         older than its predecessor on the same channel. Downstream \
                         filters assuming monotonic time (e.g. dead reckoning) may \
                         misbehave.",
                example: "A replayed trace with an out-of-order fix injected into a \
                          live channel.",
                fix: "Sort or buffer the source, or reset its clock on replay.",
            },
            Code::P009 => CodeExplanation {
                detail: "Sources talk to real hardware and fail the most, but the \
                         engine's default fault policy is Propagate, which aborts the \
                         whole run on the first fault. Production graphs should make \
                         the containment decision explicit.",
                example: "A GPS source with no fault_policy entry in the \
                          configuration.",
                fix: "Set an explicit policy (e.g. \"quarantine\" or \"restart\") on \
                      the source, or \"propagate\" to document the intent.",
            },
            Code::P010 => CodeExplanation {
                detail: "Frame inference propagates the coordinate frame of position \
                         data (wgs84, room, local frames) along every channel: sources \
                         and transforms declare frames, other components inherit them. \
                         When two different frames meet at a component that is not \
                         declared a frame transform, coordinates would be combined \
                         that live in different reference systems.",
                example: "A merge fusing a GPS track (frame wgs84) with a room-level \
                          Bluetooth positioner (frame room) with no map-matching \
                          transform between them.",
                fix: "Insert a frame-transform component before the merge, or declare \
                      frame_transform on the merging component's transfer spec if it \
                      really re-projects its inputs.",
            },
            Code::P011 => CodeExplanation {
                detail: "Accuracy propagation computes an achievable accuracy interval \
                         for every channel from declared source accuracies and \
                         per-component scale/add degradations (merges take the best \
                         input). A component that claims to deliver an accuracy better \
                         than the inferred lower bound can never honour that promise, \
                         no matter the runtime conditions.",
                example: "A provider claiming 1 m accuracy fed only by a GPS source \
                          whose best declared accuracy is 2 m.",
                fix: "Relax the claimed accuracy, or feed the component from a more \
                      accurate source (or a fusion step that improves the bound).",
            },
            Code::P012 => CodeExplanation {
                detail: "Privacy-taint analysis marks raw identifiable sensor kinds \
                         (e.g. raw.string, wifi.scan, motion.sample) at their origin \
                         and tracks them along every channel that keeps the kind \
                         flowing. Reaching an application sink without passing an \
                         anonymizing/aggregating component or feature means \
                         identifiable data leaves the middleware.",
                example: "A WiFi scanner wired straight into the application sink with \
                          no anonymizing feature on the path.",
                fix: "Insert an anonymizing component, attach an anonymizing feature \
                      on the path, or stop delivering the raw kind to the sink.",
            },
            Code::P013 => CodeExplanation {
                detail: "Rate propagation bounds the sustained item rate on every \
                         channel from declared source emit rates and per-component \
                         fan-out factors; fan-in sums its inputs. When a component's \
                         inferred lower-bound inflow exceeds its declared maximum \
                         processing rate, its input queue grows without bound.",
                example: "A 10 Hz GPS source feeding a geodecoder declared to sustain \
                          only 1 item/s.",
                fix: "Downsample upstream, raise the component's capacity, or declare \
                      a rate_factor < 1 on an intermediate component.",
            },
            Code::P014 => CodeExplanation {
                detail: "The channel layer buffers unclaimed intermediate items per \
                         level, bounded by LEVEL_BUFFER_CAP; when the bound is hit the \
                         oldest entries are evicted (counted in channel_stats.dropped) \
                         and are missing from later data trees. A component whose \
                         inferred inflow durably exceeds its declared capacity fills \
                         that buffer at the excess rate, so the lint predicts the time \
                         until the first eviction.",
                example: "A 1 Hz GPS source feeding a throttle declared to consume \
                          only 0.5 item/s: the 0.5 item/s surplus fills the 4096-entry \
                          buffer in ~8192 s of run time.",
                fix: "Resolve the underlying P013 rate overload — downsample upstream \
                      or raise the consumer's declared capacity — so the buffer \
                      drains as fast as it fills.",
            },
            Code::P015 => CodeExplanation {
                detail: "The pipeline synthesizer searched the catalog's capability \
                         space under the dataflow domains (frame unification, accuracy \
                         propagation, privacy taint, rate bounds) and found no pipeline \
                         that satisfies every requested criterion. The finding names \
                         the binding constraint: the single criterion that, when \
                         relaxed, makes the goal satisfiable — or the output kind no \
                         catalog type provides at all.",
                example: "Requesting accuracy <= 0.5 m from a catalog whose most \
                          accurate positioning chain bottoms out at 1 m.",
                fix: "Relax the named constraint to the reported achievable bound, or \
                      extend the catalog with a component type that improves it (e.g. \
                      a more accurate source, an anonymizer, a downsampler).",
            },
            Code::P016 => CodeExplanation {
                detail: "The configuration declares a `fleet` block, so the process \
                         will be replicated under the fleet runtime's escalation \
                         ladder: in-instance fault policies first, checkpoint-restart \
                         second, shard quarantine last. A component left on the \
                         default `Propagate` policy skips the first rung entirely — \
                         each of its faults aborts the whole instance step and is \
                         recovered by rebuilding the instance and restoring its last \
                         checkpoint, losing every step since. At fleet scale that \
                         turns routine, locally containable faults into availability \
                         loss and, when they cluster, shard quarantines.",
                example: "A 10,000-instance fleet whose GPS source has no \
                          fault_policy: every transient sensor fault costs a \
                          checkpoint restore instead of one dropped item.",
                fix: "Give fleet-deployed components an explicit containment policy — \
                      \"drop_item\", \"restart\" or \"quarantine\" — so routine faults \
                      are absorbed inside the instance and the checkpoint-restart rung \
                      is reserved for genuine crashes.",
            },
            Code::P018 => CodeExplanation {
                detail: "Fleet checkpoint-restart rebuilds a faulted instance and \
                         restores the last snapshot, which captures exactly the state \
                         components export through snapshot_state/restore_state. A \
                         component declared stateful but not snapshot-capable keeps \
                         state the snapshot cannot carry: every restart silently \
                         resets it, so the restored instance diverges from the \
                         uninterrupted run and the fleet's restore-equivalence \
                         guarantee is void — without any error being raised.",
                example: "A drift-estimating filter that accumulates a bias estimate \
                          but implements no snapshot hooks, deployed in a \
                          10,000-instance fleet block.",
                fix: "Implement snapshot_state/restore_state on the component (and \
                      declare snapshot_capable), make the component stateless, or \
                      remove the fleet block.",
            },
            Code::P019 => CodeExplanation {
                detail: "Replay determinism — the property the fleet's \
                         checkpoint-restart recovery and the synthesizer's candidate \
                         ranking both assume — requires every effect to be a function \
                         of the trace and the seed. A component declaring exogenous \
                         inputs (host wall clock, live I/O) or unseeded randomness \
                         can produce different output on each run of the same trace, \
                         so restored instances drift from their reference and \
                         synthesized pipelines stop being reproducible.",
                example: "A source that timestamps items with the host wall clock \
                          instead of the engine clock, inside a configuration that \
                          declares a fleet deployment.",
                fix: "Route the exogenous input through the simulated clock or a \
                      recorded trace, seed the randomness from configuration, or \
                      document the nondeterminism by dropping the fleet block.",
            },
            Code::P020 => CodeExplanation {
                detail: "The fleet runtime's byte-equality contract — serial and \
                         work-stealing schedulers produce identical stats, checkpoints \
                         and histories — rests on shards sharing nothing. A fleet block \
                         that requests more than one worker replicates the template \
                         into every instance, so a component declaring writes on a \
                         named shared resource exists once per instance; replicas in \
                         concurrently stepped shards then hit the same resource with \
                         nothing to serialize them. A single writing component \
                         suffices: it races with its own replicas.",
                example: "A calibration stage declaring writes on a shared \
                          \"bias-table\" resource inside a fleet block with \
                          \"workers\": 4.",
                fix: "Set the fleet scheduler to \"serial\" (or workers to 1), move \
                      the shared state into per-instance component state, or drop the \
                      shared-resource write declaration if each replica actually owns \
                      a private copy.",
            },
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Code {
    fn to_content(&self) -> Content {
        Content::Str(self.as_str().to_string())
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational only.
    Info,
    /// Suspicious but not necessarily wrong.
    Warning,
    /// The graph/configuration is unsound; gates reject on these.
    Error,
}

impl Severity {
    /// Lower-case textual form used in both renderers.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Severity {
    fn to_content(&self) -> Content {
        Content::Str(self.as_str().to_string())
    }
}

/// One finding of an analysis pass.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity.
    pub severity: Severity,
    /// What is wrong, in one sentence.
    pub message: String,
    /// The offending node/edge path, outermost first — e.g.
    /// `["gps", "parser(port 0)"]` for an edge, `["interp"]` for a node.
    pub path: Vec<String>,
    /// How to fix it, when the analysis can tell.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic; attach a hint with [`Diagnostic::with_hint`].
    pub fn new(
        code: Code,
        severity: Severity,
        message: impl Into<String>,
        path: Vec<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            path,
            hint: None,
        }
    }

    /// Attaches a fix-it hint (builder style).
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] at {}: {}",
            self.severity,
            self.code,
            if self.path.is_empty() {
                "<graph>".to_string()
            } else {
                self.path.join(" -> ")
            },
            self.message
        )?;
        if let Some(h) = &self.hint {
            write!(f, "\n    hint: {h}")?;
        }
        Ok(())
    }
}

/// The result of running analysis passes: an ordered list of findings.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Report {
    /// Findings in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Merges another report's findings into this one.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Findings with [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether the report is completely clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings carrying `code`.
    pub fn with_code(&self, code: Code) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Findings in canonical order — by code, then offending path, then
    /// message, then severity. Both renderers emit this order, so their
    /// output is byte-reproducible regardless of which pass produced a
    /// finding first (golden files and synthesis ranking rely on it).
    pub fn canonical_diagnostics(&self) -> Vec<Diagnostic> {
        let mut sorted = self.diagnostics.clone();
        canonical_sort(&mut sorted, |d| {
            (d.code, d.path.clone(), d.message.clone(), d.severity)
        });
        sorted
    }

    /// Human-readable multi-line rendering (one finding per line, hint
    /// lines indented), ending with a summary line. Findings appear in
    /// canonical order ([`Report::canonical_diagnostics`]).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in self.canonical_diagnostics() {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let errors = self.errors().count();
        let warnings = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count();
        out.push_str(&format!(
            "{} finding(s): {} error(s), {} warning(s)\n",
            self.diagnostics.len(),
            errors,
            warnings
        ));
        out
    }

    /// Machine-readable JSON rendering. Findings appear in canonical
    /// order ([`Report::canonical_diagnostics`]).
    pub fn render_json(&self) -> String {
        #[derive(Serialize)]
        struct JsonReport {
            schema_version: u64,
            errors: u64,
            warnings: u64,
            diagnostics: Vec<Diagnostic>,
        }
        let body = JsonReport {
            schema_version: u64::from(JSON_SCHEMA_VERSION),
            errors: self.errors().count() as u64,
            warnings: self
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .count() as u64,
            diagnostics: self.canonical_diagnostics(),
        };
        serde_json::to_string_pretty(&body)
            .expect("diagnostic report is plain data and always serializes")
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_human())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(
            Diagnostic::new(
                Code::P001,
                Severity::Error,
                "producer provides [\"raw\"] but port accepts [\"nmea\"]",
                vec!["gps".into(), "parser(port 0)".into()],
            )
            .with_hint("insert a converting component or fix the port spec"),
        );
        r.push(Diagnostic::new(
            Code::P004,
            Severity::Warning,
            "no path to any sink",
            vec!["orphan".into()],
        ));
        r
    }

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn report_classifies_findings() {
        let r = sample();
        assert!(r.has_errors());
        assert!(!r.is_clean());
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.with_code(Code::P001).len(), 1);
        assert_eq!(r.with_code(Code::P008).len(), 0);
    }

    #[test]
    fn human_rendering_carries_code_path_and_hint() {
        let text = sample().render_human();
        assert!(
            text.contains("error [P001] at gps -> parser(port 0)"),
            "{text}"
        );
        assert!(
            text.contains("hint: insert a converting component"),
            "{text}"
        );
        assert!(
            text.contains("2 finding(s): 1 error(s), 1 warning(s)"),
            "{text}"
        );
    }

    #[test]
    fn json_rendering_is_machine_readable() {
        let json = sample().render_json();
        let v = serde_json::parse_value_str(&json).expect("report JSON parses");
        let map = v.as_map().expect("top-level object");
        let diags = map
            .iter()
            .find(|(k, _)| k == "diagnostics")
            .and_then(|(_, v)| v.as_list())
            .expect("diagnostics array");
        assert_eq!(diags.len(), 2);
        let first = diags[0].as_map().expect("diagnostic object");
        let get = |k: &str| {
            first
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get("code"), Some(serde::Content::Str("P001".into())));
        assert_eq!(get("severity"), Some(serde::Content::Str("error".into())));
    }

    #[test]
    fn rendering_orders_findings_canonically() {
        // Pushed out of order; both renderers emit code-sorted output.
        let mut r = Report::new();
        r.push(Diagnostic::new(
            Code::P004,
            Severity::Warning,
            "later code first",
            vec!["z".into()],
        ));
        r.push(Diagnostic::new(
            Code::P001,
            Severity::Error,
            "earlier code second",
            vec!["a".into()],
        ));
        let human = r.render_human();
        let p1 = human.find("P001").expect("P001 rendered");
        let p4 = human.find("P004").expect("P004 rendered");
        assert!(p1 < p4, "{human}");
        // The canonical order is stable across repeated renders.
        assert_eq!(r.render_json(), r.render_json());
        // The report itself keeps pass order.
        assert_eq!(r.diagnostics[0].code, Code::P004);
    }

    #[test]
    fn all_codes_have_distinct_text_and_summaries() {
        let mut seen = std::collections::BTreeSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code text {c}");
            assert!(!c.summary().is_empty());
        }
    }

    #[test]
    fn all_codes_parse_back_and_explain() {
        for c in Code::ALL {
            assert_eq!(Code::parse(c.as_str()), Some(c));
            let e = c.explain();
            assert!(!e.detail.is_empty(), "{c} has no detail");
            assert!(!e.example.is_empty(), "{c} has no example");
            assert!(!e.fix.is_empty(), "{c} has no fix");
        }
        assert_eq!(Code::parse("P999"), None);
        assert_eq!(Code::parse("p001"), None);
    }

    #[test]
    fn json_rendering_carries_schema_version() {
        let json = sample().render_json();
        let v = serde_json::parse_value_str(&json).expect("report JSON parses");
        let map = v.as_map().expect("top-level object");
        let version = map
            .iter()
            .find(|(k, _)| k == "schema_version")
            .map(|(_, v)| v.clone());
        assert_eq!(
            version,
            Some(serde::Content::I64(i64::from(JSON_SCHEMA_VERSION)))
        );
    }
}
