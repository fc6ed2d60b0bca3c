//! The §6 deployment workflow: testing a NAT gateway by sub-case.
//!
//! "A NAT gateway processes packets going both ways (in and out), supports
//! three protocols (TCP, UDP, and ICMP), and thus results in six sub-cases.
//! For each sub-case, Meissa provides a set of base constraints on the
//! input packet … then network engineers specify test-case-specific
//! constraints." This example reproduces that flow: Meissa generates
//! full-coverage templates once, and each engineer-defined sub-case narrows
//! them with extra constraints before instantiation.
//!
//! ```sh
//! cargo run --release --example nat_gateway
//! ```

use meissa::core::symstate::{SymCtx, ValueStack};
use meissa::core::{Instantiator, Meissa};
use meissa::dataplane::SwitchTarget;
use meissa::driver::TestDriver;
use meissa::ir::{AExp, BExp, CmpOp};
use meissa::lang::{compile, parse_program, parse_rules};
use meissa::num::Bv;

const PROGRAM: &str = r#"
header ethernet { dst_addr: 48; src_addr: 48; ether_type: 16; }
header ipv4 {
  version: 4; ihl: 4; diffserv: 8; total_len: 16;
  ttl: 8; protocol: 8; checksum: 16; src_addr: 32; dst_addr: 32;
}
header tcp { src_port: 16; dst_port: 16; checksum: 16; }
header udp { src_port: 16; dst_port: 16; checksum: 16; }
header icmp { kind: 8; code: 8; ident: 16; }
metadata meta { egress_port: 9; drop: 1; natted: 1; }

parser nat_parser {
  state start {
    extract(ethernet);
    select (hdr.ethernet.ether_type) { 0x0800 => parse_ipv4; default => accept; }
  }
  state parse_ipv4 {
    extract(ipv4);
    select (hdr.ipv4.protocol) {
      6  => parse_tcp;
      17 => parse_udp;
      1  => parse_icmp;
      default => accept;
    }
  }
  state parse_tcp { extract(tcp); accept; }
  state parse_udp { extract(udp); accept; }
  state parse_icmp { extract(icmp); accept; }
}

action drop_() { meta.drop = 1; }
action noop() { }
# Outbound: private source is rewritten to the public address.
action snat(public: 32, port: 9) {
  hdr.ipv4.src_addr = public;
  hdr.ipv4.checksum = hash(csum16, 16, hdr.ipv4.src_addr, hdr.ipv4.dst_addr);
  meta.egress_port = port;
  meta.natted = 1;
}
# Inbound: public destination is rewritten to the private host.
action dnat(private: 32, port: 9) {
  hdr.ipv4.dst_addr = private;
  hdr.ipv4.checksum = hash(csum16, 16, hdr.ipv4.src_addr, hdr.ipv4.dst_addr);
  meta.egress_port = port;
  meta.natted = 1;
}

table nat_out {
  key = { hdr.ipv4.src_addr: lpm; }
  actions = { snat; noop; }
  default_action = noop();
}
table nat_in {
  key = { hdr.ipv4.dst_addr: exact; }
  actions = { dnat; noop; }
  default_action = noop();
}

control nat_ctl {
  if (hdr.ipv4.isValid()) {
    apply(nat_in);
    if (meta.natted == 0) {
      apply(nat_out);
    }
    if (meta.natted == 0) {
      call drop_();
    }
  } else {
    call drop_();
  }
}

pipeline nat { parser = nat_parser; control = nat_ctl; }
deparser { emit(ethernet); emit(ipv4); emit(tcp); emit(udp); emit(icmp); }

intent nat_always_translates_or_drops {
  given hdr.ethernet.ether_type == 0x0800;
  expect meta.drop == 1 || meta.natted == 1;
}
"#;

const RULES: &str = r#"
rules nat_out {
  10.0.0.0/8 => snat(0xc6336401, 1);   # 198.51.100.1, uplink
}
rules nat_in {
  0xc6336401 => dnat(0x0a000042, 2);   # public → 10.0.0.66, downlink
}
"#;

fn main() {
    let program = compile(
        &parse_program(PROGRAM).expect("parses"),
        &parse_rules(RULES).expect("rules parse"),
    )
    .expect("compiles");

    let mut run = Meissa::new().run(&program);
    println!(
        "NAT gateway: {} full-coverage templates generated",
        run.templates.len()
    );

    // The engineer's six sub-cases: direction × protocol.
    let fields = &program.cfg.fields;
    let proto = fields.get("hdr.ipv4.protocol").unwrap();
    let src = fields.get("hdr.ipv4.src_addr").unwrap();
    let dst = fields.get("hdr.ipv4.dst_addr").unwrap();
    let ether = fields.get("hdr.ethernet.ether_type").unwrap();

    let eq = |f, w, v| BExp::Cmp(CmpOp::Eq, AExp::Field(f), AExp::Const(Bv::new(w, v)));
    let masked_eq = |f, mask: u128, v: u128| {
        BExp::Cmp(
            CmpOp::Eq,
            AExp::bin(meissa::ir::AOp::And, AExp::Field(f), AExp::Const(Bv::new(32, mask))),
            AExp::Const(Bv::new(32, v)),
        )
    };
    let base = eq(ether, 16, 0x0800);
    let outbound = masked_eq(src, 0xff00_0000, 0x0a00_0000); // src in 10/8
    let inbound = eq(dst, 32, 0xc633_6401); // dst = the public address

    let sub_cases: Vec<(&str, BExp)> = vec![
        ("out/TCP", BExp::and(base.clone(), BExp::and(outbound.clone(), eq(proto, 8, 6)))),
        ("out/UDP", BExp::and(base.clone(), BExp::and(outbound.clone(), eq(proto, 8, 17)))),
        ("out/ICMP", BExp::and(base.clone(), BExp::and(outbound, eq(proto, 8, 1)))),
        ("in/TCP", BExp::and(base.clone(), BExp::and(inbound.clone(), eq(proto, 8, 6)))),
        ("in/UDP", BExp::and(base.clone(), BExp::and(inbound.clone(), eq(proto, 8, 17)))),
        ("in/ICMP", BExp::and(base, BExp::and(inbound, eq(proto, 8, 1)))),
    ];

    let driver = TestDriver::new(&program);
    let target = SwitchTarget::new(&program);
    let mut ctx = SymCtx::new(None);
    let v0 = ValueStack::new();
    // One solver for every sub-case: constraints shared across templates
    // and sub-cases are blasted once.
    let mut inst = Instantiator::new();

    for (name, given) in sub_cases {
        let g = ctx.bexp(&mut run.pool, &run.cfg.fields, &v0, &given);
        let mut sent = 0usize;
        let mut passed = 0usize;
        for idx in 0..run.templates.len() {
            let id = run.templates[idx].id;
            let Some(input) =
                inst.instantiate(&run.templates[idx], &mut run.pool, &run.cfg.fields, &[g])
            else {
                continue; // this template's path is outside the sub-case
            };
            sent += 1;
            let case = driver.check_input(&target, id, &input);
            if matches!(case.verdict, meissa::driver::Verdict::Pass) {
                passed += 1;
            } else {
                println!("  {name}: case #{id} failed: {:?}", case.verdict);
            }
        }
        println!("sub-case {name:<9} {passed}/{sent} packets passed");
        assert_eq!(passed, sent, "faithful NAT must pass sub-case {name}");
        assert!(sent > 0, "sub-case {name} must be exercised");
    }
    println!("all six NAT sub-cases pass on the faithful target.");
}
