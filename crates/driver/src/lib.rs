//! The Meissa test driver (§4): sender, receiver, and checker.
//!
//! The **sender** instantiates each test case template into a concrete
//! packet (unique id in the payload). The **receiver** captures what the
//! switch under test emits. The **checker** compares the captured packet
//! against the expected one — computed from the program's *source
//! semantics* — and validates the operator's LPI intents, reporting passed
//! and failed cases. A failing case carries a bug-localization trace (§7):
//! the executed statements with concrete values, which engineers review to
//! find the root cause; a divergence from source semantics with a clean
//! trace indicates a *non-code* bug (compiler/backend/toolchain).
//!
//! The checker is transport-agnostic: [`Checker::check_case`] compares an
//! expected [`TargetOutput`] against an [`Observation`] regardless of
//! whether the observation came from an in-process `SwitchTarget::inject`
//! call (this crate's [`TestDriver`]) or from frames on a socket (the
//! `meissa-netdriver` wire driver). [`plan_cases`] is the shared sender:
//! it enumerates the concrete test cases for a run, assigning each the
//! paper's unique packet-ID stamp so receivers can match responses under
//! loss and reordering.

pub mod localize;
pub mod report;

pub use localize::{trace_execution, TraceStep};
pub use report::{CaseResult, SoakStats, TestReport, Verdict};

use meissa_core::stateful::StatefulRunOutput;
use meissa_core::{Instantiator, RunOutput};
use meissa_dataplane::{parse_packet, Packet, SwitchTarget, TargetOutput};
use meissa_ir::ConcreteState;
use meissa_lang::CompiledProgram;
use meissa_testkit::obs;
use std::time::{Duration, Instant};

/// What a receiver observed for one injected packet, however it observed
/// it. Mirrors [`TargetOutput`] but is constructed by transports: the
/// in-process path converts directly, the wire path reassembles it from
/// `Output` frames (and synthesizes the all-`None` value for cases whose
/// response never arrived — the drain phase classifies those as drops).
#[derive(Clone, Debug)]
pub struct Observation {
    /// The emitted packet, or `None` for a drop (or a lost response).
    pub packet: Option<Packet>,
    /// Logical egress port, when forwarded.
    pub egress_port: Option<meissa_num::Bv>,
    /// The target's final state snapshot (the hardware-model register
    /// dump the checker validates intents against).
    pub final_state: ConcreteState,
}

impl Observation {
    /// The observation for a case whose response never arrived: no packet,
    /// no port, empty state. Intent checks on an empty state see every
    /// field as zero.
    pub fn missing() -> Self {
        Observation {
            packet: None,
            egress_port: None,
            final_state: ConcreteState::new(),
        }
    }
}

impl From<TargetOutput> for Observation {
    fn from(out: TargetOutput) -> Self {
        Observation {
            packet: out.packet,
            egress_port: out.egress_port,
            final_state: out.final_state,
        }
    }
}

/// One planned test case, produced by [`plan_cases`]. The sender half of
/// the driver: transports consume this list, serialize the inputs, and
/// deliver them however they deliver things.
#[derive(Clone, Debug)]
pub enum CaseSpec {
    /// The template could not be instantiated; the report records why.
    Skip {
        /// Originating template.
        template_id: usize,
        /// Why no packet exists.
        reason: String,
    },
    /// A concrete input to inject.
    Case {
        /// Originating template.
        template_id: usize,
        /// Globally unique packet-ID stamp (§4) — the last 8 payload bytes.
        /// Receivers match responses to cases by this id, which is what
        /// makes the checker robust to duplication and reordering.
        wire_id: u64,
        /// The concrete input state.
        input: ConcreteState,
    },
}

impl CaseSpec {
    /// The template this case came from.
    pub fn template_id(&self) -> usize {
        match self {
            CaseSpec::Skip { template_id, .. } | CaseSpec::Case { template_id, .. } => {
                *template_id
            }
        }
    }
}

/// Enumerates every concrete test case for `run`: `packets_per_template`
/// distinct instantiations per template, plus one instantiation per intent
/// with the intent's `given` clause as an extra constraint (the §6
/// deployment workflow where "network engineers specify test-case-specific
/// constraints"). Each case gets a globally unique `wire_id` (1-based,
/// in plan order).
///
/// Planning is sequential through one [`Instantiator`], so the planned
/// inputs depend only on the template order.
pub fn plan_cases(
    program: &CompiledProgram,
    run: &mut RunOutput,
    packets_per_template: usize,
) -> Vec<CaseSpec> {
    let span = obs::span("template.instantiate");
    let RunOutput {
        pool,
        cfg,
        templates,
        ..
    } = run;
    let mut ctx = meissa_core::symstate::SymCtx::new(None);
    let v0 = meissa_core::symstate::ValueStack::new();
    let givens: Vec<meissa_smt::TermId> = program
        .intents
        .iter()
        .map(|i| ctx.bexp(pool, &cfg.fields, &v0, &i.given))
        .collect();
    let mut inst = Instantiator::new();
    let mut cases = Vec::new();
    let mut skipped = 0u64;
    let mut next_id: u64 = 1;
    for t in templates.iter() {
        let inputs = inst.instantiate_distinct(t, pool, &cfg.fields, packets_per_template);
        if inputs.is_empty() {
            skipped += 1;
            cases.push(CaseSpec::Skip {
                template_id: t.id,
                reason: "template unsatisfiable at instantiation (hash filter)".into(),
            });
        }
        let given_inputs = givens
            .iter()
            .filter_map(|&g| inst.instantiate(t, pool, &cfg.fields, &[g]));
        for input in inputs.into_iter().chain(given_inputs) {
            cases.push(CaseSpec::Case {
                template_id: t.id,
                wire_id: next_id,
                input,
            });
            next_id += 1;
        }
    }
    close_plan_span(span, next_id - 1, skipped, &inst);
    cases
}

/// Records a planner's totals on its `template.instantiate` span (inert,
/// and free beyond the flag load that opened it, when tracing is off).
fn close_plan_span(mut span: obs::SpanGuard, cases: u64, skipped: u64, inst: &Instantiator) {
    let stats = inst.stats();
    span.field("cases", cases);
    span.field("skipped", skipped);
    span.field("sat_engine_calls", stats.sat_engine_calls);
    span.field("model_reuse", stats.model_reuse);
}

/// One planned k-packet sequence case. The ordered counterpart of
/// [`CaseSpec`]: transports must deliver the packets *in order* against a
/// single register file (in-process via `SwitchTarget::inject_sequence`,
/// on the wire via the agent's atomic sequence-injection frame).
#[derive(Clone, Debug)]
pub enum SeqCaseSpec {
    /// The sequence template could not be instantiated.
    Skip {
        /// Originating sequence template.
        sequence_id: usize,
        /// Why no case exists.
        reason: String,
    },
    /// A concrete ordered sequence to inject.
    Case {
        /// Originating sequence template.
        sequence_id: usize,
        /// One globally unique packet-ID stamp per packet, in order.
        wire_ids: Vec<u64>,
        /// Per-packet inputs plus the initial register seed.
        case: meissa_core::SequenceCase,
    },
}

/// Enumerates every concrete sequence case for a stateful run: one
/// instantiation per sequence template, each packet stamped with a globally
/// unique `wire_id` (1-based, in plan order — packet *j* of an earlier
/// sequence always has a smaller id than any packet of a later one).
pub fn plan_sequence_cases(run: &mut StatefulRunOutput) -> Vec<SeqCaseSpec> {
    let span = obs::span("template.instantiate");
    let mut inst = Instantiator::new();
    let mut cases = Vec::new();
    let mut skipped = 0u64;
    let mut next_id: u64 = 1;
    for idx in 0..run.sequences.len() {
        let sequence_id = run.sequences[idx].id;
        match run.instantiate_with(&mut inst, idx) {
            Some(case) => {
                let wire_ids: Vec<u64> = (0..case.packets.len() as u64)
                    .map(|j| next_id + j)
                    .collect();
                next_id += case.packets.len() as u64;
                cases.push(SeqCaseSpec::Case {
                    sequence_id,
                    wire_ids,
                    case,
                });
            }
            None => {
                skipped += 1;
                cases.push(SeqCaseSpec::Skip {
                    sequence_id,
                    reason: "sequence template unsatisfiable at instantiation (hash filter)".into(),
                })
            }
        }
    }
    let planned = cases.len() as u64 - skipped;
    close_plan_span(span, planned, skipped, &inst);
    cases
}

/// The transport-agnostic checker: given what the reference says should
/// happen and what some transport observed, produce the verdict. Shared
/// verbatim by the in-process and wire drivers, so both classify every
/// `dataplane::Fault` identically.
pub struct Checker<'p> {
    program: &'p CompiledProgram,
    structural_checks: bool,
}

impl<'p> Checker<'p> {
    /// A checker with the full Meissa validation (§4: the checker
    /// "validates packet checksums" and structure).
    pub fn new(program: &'p CompiledProgram) -> Self {
        Checker {
            program,
            structural_checks: true,
        }
    }

    /// A checker that only diffs packets, modeling baseline testers.
    pub fn without_structural_checks(program: &'p CompiledProgram) -> Self {
        Checker {
            program,
            structural_checks: false,
        }
    }

    /// Checks one observed case against the reference output. `packet` is
    /// the injected packet (for the localization trace on failure).
    pub fn check_case(
        &self,
        template_id: usize,
        input: &ConcreteState,
        packet: &Packet,
        expected: &TargetOutput,
        actual: &Observation,
    ) -> CaseResult {
        let trace = || {
            parse_packet(self.program, packet)
                .map(|st| trace_execution(self.program, &st))
                .unwrap_or_default()
        };

        // Checker step 0: structural validation (§4: the checker validates
        // packet structure/checksums, not just intent clauses). A header
        // the program leaves valid must be on the deparser's emit list —
        // catching wrong-deparser-emit code bugs.
        if self.structural_checks && expected.packet.is_some() {
            let fields = &self.program.cfg.fields;
            for layout in &self.program.headers {
                let valid = !expected.final_state.get(fields, layout.valid).is_zero();
                if valid && !self.program.deparse_order.contains(&layout.name) {
                    return CaseResult::new(
                        template_id,
                        Verdict::OutputMismatch {
                            detail: format!("deparser omits valid header `{}`", layout.name),
                        },
                        trace(),
                    );
                }
            }
        }

        // Checker step 1: presence (absent packets are first-class — §4
        // "or mark as absent").
        let verdict = match (&expected.packet, &actual.packet) {
            (Some(e), Some(a)) => {
                if e.bytes != a.bytes {
                    Verdict::OutputMismatch {
                        detail: format!(
                            "output differs: expected {} bytes, got {} bytes{}",
                            e.len(),
                            a.len(),
                            first_diff(&e.bytes, &a.bytes)
                                .map(|i| format!(", first difference at byte {i}"))
                                .unwrap_or_default()
                        ),
                    }
                } else if expected.egress_port != actual.egress_port {
                    Verdict::OutputMismatch {
                        detail: format!(
                            "egress port differs: expected {:?}, got {:?}",
                            expected.egress_port, actual.egress_port
                        ),
                    }
                } else {
                    self.check_intents(input, &actual.final_state)
                }
            }
            (Some(_), None) => Verdict::OutputMismatch {
                detail: "expected a forwarded packet, got none".into(),
            },
            (None, Some(_)) => Verdict::OutputMismatch {
                detail: "expected a drop, got a forwarded packet".into(),
            },
            (None, None) => self.check_intents(input, &actual.final_state),
        };

        let trace = if matches!(verdict, Verdict::Pass) {
            Vec::new()
        } else {
            trace()
        };
        CaseResult::new(template_id, verdict, trace)
    }

    /// Checker step 2: LPI intents. An intent applies when its `given`
    /// clause holds on the input; its `expect` clause must then hold on the
    /// final state the target produced.
    fn check_intents(&self, input: &ConcreteState, actual_final: &ConcreteState) -> Verdict {
        let fields = &self.program.cfg.fields;
        for intent in &self.program.intents {
            if input.eval_bexp(fields, &intent.given)
                && !actual_final.eval_bexp(fields, &intent.expect)
            {
                return Verdict::IntentViolation {
                    intent: intent.name.clone(),
                };
            }
        }
        Verdict::Pass
    }
}

/// The in-process test driver for one program: sender, receiver, and
/// checker wired directly to `SwitchTarget::inject` calls.
pub struct TestDriver<'p> {
    program: &'p CompiledProgram,
    /// The reference implementation: a faithful execution of source
    /// semantics, used to compute expected outputs.
    reference: SwitchTarget,
    /// The shared transport-agnostic checker.
    checker: Checker<'p>,
    /// How many distinct packets to generate per template ("One or more
    /// input-output test cases can be generated based on the template",
    /// §2.1).
    packets_per_template: usize,
}

impl<'p> TestDriver<'p> {
    /// Creates a driver for a program.
    pub fn new(program: &'p CompiledProgram) -> Self {
        TestDriver {
            program,
            reference: SwitchTarget::new(program),
            checker: Checker::new(program),
            packets_per_template: 1,
        }
    }

    /// Sets how many distinct packets each template is instantiated into.
    pub fn with_packets_per_template(mut self, n: usize) -> Self {
        self.packets_per_template = n.max(1);
        self
    }

    /// A driver without the structural packet validation, for modeling
    /// baseline testers whose checkers only diff packets.
    pub fn without_structural_checks(program: &'p CompiledProgram) -> Self {
        TestDriver {
            checker: Checker::without_structural_checks(program),
            ..Self::new(program)
        }
    }

    /// Runs every template in `run` against `target` and checks results.
    ///
    /// Besides one packet per template, the driver instantiates each
    /// template once per intent with the intent's `given` clause as an
    /// extra constraint — the §6 deployment workflow where "network
    /// engineers specify test-case-specific constraints" on top of Meissa's
    /// base constraints. This also yields deterministic boundary-value
    /// packets when a `given` pins a boundary (e.g. `src_port == 1024`).
    pub fn run(&self, run: &mut RunOutput, target: &SwitchTarget) -> TestReport {
        let started = Instant::now();
        let mut report = TestReport::new(target.fault().name());
        for spec in plan_cases(self.program, run, self.packets_per_template) {
            match spec {
                CaseSpec::Skip {
                    template_id,
                    reason,
                } => report.push(CaseResult::new(
                    template_id,
                    Verdict::Skipped { reason },
                    Vec::new(),
                )),
                CaseSpec::Case {
                    template_id,
                    wire_id,
                    input,
                } => report.push(self.check_with_id(target, template_id, wire_id, &input)),
            }
        }
        report.elapsed = started.elapsed();
        report
    }

    /// Runs a single template (first packet only; `run` generates
    /// `packets_per_template` variants).
    pub fn run_case(&self, run: &mut RunOutput, target: &SwitchTarget, idx: usize) -> CaseResult {
        let template_id = run.templates[idx].id;
        // Sender: instantiate the template into a concrete input.
        let Some(input) = run.instantiate(idx) else {
            return CaseResult::new(
                template_id,
                Verdict::Skipped {
                    reason: "template unsatisfiable at instantiation (hash filter)".into(),
                },
                Vec::new(),
            );
        };
        self.check_input(target, template_id, &input)
    }

    /// Sends one concrete input through both the reference and the target,
    /// then checks packets and intents. Stamps the packet with
    /// `template_id + 1` — unique per template, matching single-case use.
    pub fn check_input(
        &self,
        target: &SwitchTarget,
        template_id: usize,
        input: &ConcreteState,
    ) -> CaseResult {
        self.check_with_id(target, template_id, template_id as u64 + 1, input)
    }

    fn check_with_id(
        &self,
        target: &SwitchTarget,
        template_id: usize,
        wire_id: u64,
        input: &ConcreteState,
    ) -> CaseResult {
        // Sender: materialize the packet (prebuilt parser plan — this is
        // the per-case hot path).
        let fields = &self.program.cfg.fields;
        let Ok(packet) = self.reference.plan().serialize_state(fields, input, wire_id) else {
            return CaseResult::new(
                template_id,
                Verdict::Skipped {
                    reason: "program has no entry parser; cannot serialize".into(),
                },
                Vec::new(),
            );
        };

        // Expected behaviour: the faithful reference.
        let expected = self.reference.inject(&packet);
        // Actual behaviour: the implementation under test — the latency
        // window spans injection through verdict, mirroring what the wire
        // driver measures send → matched response.
        let injected = Instant::now();
        let actual: Observation = target.inject(&packet).into();
        let mut result =
            self.checker
                .check_case(template_id, input, &packet, &expected, &actual);
        result.latency = injected.elapsed().max(Duration::from_nanos(1));
        result
    }

    /// Runs every sequence template in `run` against `target`, in order,
    /// and checks each packet's output at its position. Both the reference
    /// and the target thread a register file across each sequence (fresh
    /// per sequence, seeded from the case's `initial_registers`), so a
    /// state-dependent divergence on packet *i* is attributed to the
    /// sequence that provoked it.
    pub fn run_sequences(&self, run: &mut StatefulRunOutput, target: &SwitchTarget) -> TestReport {
        let started = Instant::now();
        let mut report = TestReport::new(target.fault().name());
        for spec in plan_sequence_cases(run) {
            match spec {
                SeqCaseSpec::Skip {
                    sequence_id,
                    reason,
                } => report.push(CaseResult::new(
                    sequence_id,
                    Verdict::Skipped { reason },
                    Vec::new(),
                )),
                SeqCaseSpec::Case {
                    sequence_id,
                    wire_ids,
                    case,
                } => {
                    for r in self.check_sequence(target, sequence_id, &wire_ids, &case) {
                        report.push(r);
                    }
                }
            }
        }
        report.elapsed = started.elapsed();
        report
    }

    /// Sends one concrete sequence through both the reference and the
    /// target and checks every position. Produces one [`CaseResult`] per
    /// packet (all carrying the sequence's template id).
    pub fn check_sequence(
        &self,
        target: &SwitchTarget,
        sequence_id: usize,
        wire_ids: &[u64],
        case: &meissa_core::SequenceCase,
    ) -> Vec<CaseResult> {
        let mut packets = Vec::with_capacity(case.packets.len());
        for (input, &wid) in case.packets.iter().zip(wire_ids) {
            match self.reference.plan().serialize_state(&self.program.cfg.fields, input, wid) {
                Ok(p) => packets.push(p),
                Err(e) => {
                    return vec![CaseResult::new(
                        sequence_id,
                        Verdict::Skipped {
                            reason: format!("cannot serialize sequence packet: {e}"),
                        },
                        Vec::new(),
                    )]
                }
            }
        }
        let expected = self.reference.inject_sequence(&packets, &case.initial_registers);
        let injected = Instant::now();
        let actual = target.inject_sequence(&packets, &case.initial_registers);
        let latency = injected.elapsed().max(Duration::from_nanos(1));
        let mut results = Vec::with_capacity(packets.len());
        for (i, packet) in packets.iter().enumerate() {
            let obs: Observation = actual[i].clone().into();
            let mut r = self.checker.check_case(
                sequence_id,
                &case.packets[i],
                packet,
                &expected[i],
                &obs,
            );
            r.latency = latency;
            results.push(r);
        }
        results
    }
}

/// Computes the expected (reference) output for a planned case. Shared by
/// transports that evaluate the reference client-side while the target
/// runs remotely.
pub fn expected_output(
    reference: &SwitchTarget,
    packet: &Packet,
) -> TargetOutput {
    reference.inject(packet)
}

fn first_diff(a: &[u8], b: &[u8]) -> Option<usize> {
    a.iter().zip(b).position(|(x, y)| x != y).or({
        if a.len() != b.len() {
            Some(a.len().min(b.len()))
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use meissa_core::Meissa;
    use meissa_dataplane::Fault;
    use meissa_lang::{compile, parse_program, parse_rules};

    const PROGRAM: &str = r#"
        header ethernet { dst: 48; src: 48; ether_type: 16; }
        header ipv4 { ttl: 8; protocol: 8; src_addr: 32; dst_addr: 32; checksum: 16; }
        header vxlan { vni: 24; }
        metadata meta { egress_port: 9; drop: 1; }
        parser main {
          state start {
            extract(ethernet);
            select (hdr.ethernet.ether_type) { 0x0800 => parse_ipv4; default => accept; }
          }
          state parse_ipv4 { extract(ipv4); accept; }
        }
        action set_port(port: 9) { meta.egress_port = port; }
        action encap(vni: 24) {
          hdr.vxlan.setValid();
          hdr.vxlan.vni = vni;
          hdr.ipv4.checksum = hash(csum16, 16, hdr.ipv4.src_addr, hdr.ipv4.dst_addr);
        }
        action drop_() { meta.drop = 1; }
        table route {
          key = { hdr.ipv4.dst_addr: lpm; }
          actions = { set_port; drop_; }
          default_action = drop_();
        }
        control ig {
          if (hdr.ipv4.isValid()) {
            apply(route);
            if (meta.drop == 0) { call encap(7); }
          }
        }
        pipeline ingress0 { parser = main; control = ig; }
        deparser { emit(ethernet); emit(ipv4); emit(vxlan); }
        intent routed_packets_get_tunneled {
          given hdr.ethernet.ether_type == 0x0800;
          expect meta.drop == 1 || hdr.vxlan.$valid == 1;
        }
    "#;

    const RULES: &str = "rules route { 10.0.0.0/8 => set_port(3); }";

    fn program() -> CompiledProgram {
        let p = parse_program(PROGRAM).unwrap();
        compile(&p, &parse_rules(RULES).unwrap()).unwrap()
    }

    #[test]
    fn faithful_target_passes_all_cases() {
        let cp = program();
        let mut run = Meissa::new().run(&cp);
        assert!(!run.templates.is_empty());
        let driver = TestDriver::new(&cp);
        let target = SwitchTarget::new(&cp);
        let report = driver.run(&mut run, &target);
        assert_eq!(report.failed(), 0, "{report}");
        assert!(report.passed() >= 3, "{report}");
    }

    #[test]
    fn setvalid_fault_is_detected_with_trace() {
        let cp = program();
        let mut run = Meissa::new().run(&cp);
        let driver = TestDriver::new(&cp);
        let target = SwitchTarget::with_fault(
            &cp,
            Fault::SetValidDropped {
                header: "vxlan".into(),
            },
        );
        let report = driver.run(&mut run, &target);
        assert!(report.failed() > 0, "setValid bug must be caught");
        let failure = report
            .cases
            .iter()
            .find(|c| !matches!(c.verdict, Verdict::Pass | Verdict::Skipped { .. }))
            .unwrap();
        assert!(!failure.trace.is_empty(), "failures carry a trace");
    }

    #[test]
    fn checksum_fault_detected() {
        let cp = program();
        let mut run = Meissa::new().run(&cp);
        let driver = TestDriver::new(&cp);
        let target = SwitchTarget::with_fault(&cp, Fault::ChecksumNotUpdated);
        let report = driver.run(&mut run, &target);
        assert!(report.failed() > 0, "{report}");
    }

    #[test]
    fn report_is_printable() {
        let cp = program();
        let mut run = Meissa::new().run(&cp);
        let driver = TestDriver::new(&cp);
        let report = driver.run(&mut run, &SwitchTarget::new(&cp));
        let text = report.to_string();
        assert!(text.contains("passed"), "{text}");
    }

    #[test]
    fn intent_violation_detected_on_code_bug() {
        // A *code* bug: the program forgets to encap (violates the intent on
        // the faithful target). Testing flags it via the intent check.
        let buggy_src = PROGRAM.replace("{ call encap(7); }", "{ }");
        let p = parse_program(&buggy_src).unwrap();
        let cp = compile(&p, &parse_rules(RULES).unwrap()).unwrap();
        let mut run = Meissa::new().run(&cp);
        let driver = TestDriver::new(&cp);
        let report = driver.run(&mut run, &SwitchTarget::new(&cp));
        assert!(
            report
                .cases
                .iter()
                .any(|c| matches!(&c.verdict, Verdict::IntentViolation { intent }
                    if intent == "routed_packets_get_tunneled")),
            "{report}"
        );
    }

    #[test]
    fn run_records_latency_and_elapsed() {
        let cp = program();
        let mut run = Meissa::new().run(&cp);
        let report = TestDriver::new(&cp).run(&mut run, &SwitchTarget::new(&cp));
        assert!(!report.elapsed.is_zero());
        assert!(report.latency_p50().is_some());
        assert!(report.latency_p99().is_some());
        assert!(report
            .cases
            .iter()
            .filter(|c| !matches!(c.verdict, Verdict::Skipped { .. }))
            .all(|c| !c.latency.is_zero()));
        assert!(report.cases_per_sec().unwrap() > 0.0);
    }

    #[test]
    fn plan_cases_assigns_unique_wire_ids() {
        let cp = program();
        let mut run = Meissa::new().run(&cp);
        let cases = plan_cases(&cp, &mut run, 2);
        let ids: Vec<u64> = cases
            .iter()
            .filter_map(|c| match c {
                CaseSpec::Case { wire_id, .. } => Some(*wire_id),
                CaseSpec::Skip { .. } => None,
            })
            .collect();
        assert!(!ids.is_empty());
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "wire ids must be unique");
        // Plan order is deterministic: ids are assigned 1..=n in order.
        assert_eq!(ids, (1..=ids.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn planners_record_their_instantiate_span() {
        let cp = program();
        let mut run = Meissa::new().run(&cp);
        let mut seq = Meissa::new().run_sequences(&cp);
        let path = std::env::temp_dir().join(format!(
            "meissa_driver_plan_span_{}.jsonl",
            std::process::id()
        ));
        obs::trace_to(&path);
        // Sibling tests may plan while tracing is on; keep only the spans
        // nested under this test's own root.
        let root = obs::span("test.plan_root");
        let cases = plan_cases(&cp, &mut run, 2);
        let seqs = plan_sequence_cases(&mut seq);
        drop(root);
        obs::trace_off();
        let records = obs::drain();
        let root_id = records
            .iter()
            .find_map(|r| match r {
                obs::Record::Span {
                    name: "test.plan_root",
                    id,
                    ..
                } => Some(*id),
                _ => None,
            })
            .expect("root span recorded");
        let spans: Vec<Vec<(&str, u64)>> = records
            .into_iter()
            .filter_map(|r| match r {
                obs::Record::Span {
                    name: "template.instantiate",
                    parent,
                    fields,
                    ..
                } if parent == root_id => Some(fields),
                _ => None,
            })
            .collect();
        let _ = std::fs::remove_file(&path);
        assert_eq!(spans.len(), 2, "one span per planner: {spans:?}");
        let field = |i: usize, name: &str| {
            spans[i]
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("span {i} lacks `{name}`: {spans:?}"))
        };
        let planned = cases
            .iter()
            .filter(|c| matches!(c, CaseSpec::Case { .. }))
            .count() as u64;
        assert_eq!(field(0, "cases"), planned);
        assert_eq!(field(0, "skipped"), cases.len() as u64 - planned);
        assert!(field(0, "sat_engine_calls") > 0);
        let _ = field(0, "model_reuse");
        let seq_planned = seqs
            .iter()
            .filter(|c| matches!(c, SeqCaseSpec::Case { .. }))
            .count() as u64;
        assert_eq!(field(1, "cases"), seq_planned);
        assert_eq!(field(1, "skipped"), seqs.len() as u64 - seq_planned);
    }
}

#[cfg(test)]
mod multi_packet_tests {
    use super::*;
    use meissa_core::Meissa;
    use meissa_lang::{compile, parse_program, parse_rules};

    #[test]
    fn multiple_packets_per_template_multiply_cases() {
        let src = r#"
            header pkt { d: 32; }
            metadata meta { out: 9; drop: 1; }
            parser p { state start { extract(pkt); accept; } }
            action fwd(v: 9) { meta.out = v; }
            action drop_() { meta.drop = 1; }
            table t {
              key = { hdr.pkt.d: lpm; }
              actions = { fwd; drop_; }
              default_action = drop_();
            }
            control c { apply(t); }
            pipeline main { parser = p; control = c; }
            deparser { emit(pkt); }
        "#;
        let rules = "rules t { 10.0.0.0/8 => fwd(1); }";
        let program =
            compile(&parse_program(src).unwrap(), &parse_rules(rules).unwrap()).unwrap();
        let mut run = Meissa::new().run(&program);
        let single = TestDriver::new(&program)
            .run(&mut run, &SwitchTarget::new(&program))
            .cases
            .len();
        let mut run = Meissa::new().run(&program);
        let multi = TestDriver::new(&program)
            .with_packets_per_template(4)
            .run(&mut run, &SwitchTarget::new(&program))
            .cases
            .len();
        assert!(multi > single, "{multi} vs {single}");
        // And everything still passes on the faithful target.
        let mut run = Meissa::new().run(&program);
        let report = TestDriver::new(&program)
            .with_packets_per_template(4)
            .run(&mut run, &SwitchTarget::new(&program));
        assert_eq!(report.failed(), 0, "{report}");
    }
}
