//! Recorded outputs the correctness gate compares every pass against:
//! template count, the order-independent template fingerprint, planned
//! cases, and rule coverage. The gw workloads ignore the seed, so each has
//! one row; `acl-dfs` has one row per recorded rule-draw seed (four per
//! run seed). A draw without a row is checked for agreement between the
//! run's own passes instead.
//!
//! Regenerate a row with
//! `cargo run --release --manifest-path e2ebench/Cargo.toml -- --golden --workload <w> --seed <n>`.

use crate::pipeline::{Iteration, Kind};
use std::fmt;

/// One workload's expected output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Golden {
    /// Templates generated.
    pub templates: u64,
    /// [`crate::pipeline::fingerprint`] of the templates.
    pub fingerprint: u64,
    /// Cases planned, skips included.
    pub cases: u64,
    /// Installed rules hit by some template.
    pub rules_hit: u64,
    /// Installed rules.
    pub rules_total: u64,
}

impl Golden {
    /// The output a pass produced.
    pub fn of(it: &Iteration) -> Golden {
        Golden {
            templates: it.stats.valid_paths,
            fingerprint: it.fingerprint,
            cases: it.tally.total,
            rules_hit: it.stats.rules_hit,
            rules_total: it.stats.rules_total,
        }
    }

    /// This output as a row of [`TABLE`].
    pub fn row(&self, kind: Kind, draw_seed: Option<u64>) -> String {
        let seed = match draw_seed {
            Some(s) => format!("Some({s})"),
            None => "None".into(),
        };
        format!(
            "    (\"{}\", {seed}, {}, 0x{:016x}, {}, {}, {}),",
            kind.name(),
            self.templates,
            self.fingerprint,
            self.cases,
            self.rules_hit,
            self.rules_total
        )
    }
}

impl fmt::Display for Golden {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "templates={} fingerprint={:016x} cases={} rules={}/{}",
            self.templates, self.fingerprint, self.cases, self.rules_hit, self.rules_total
        )
    }
}

/// (workload, rule-draw seed or `None` for a fixed rule set, templates,
/// fingerprint, cases, rules_hit, rules_total).
type Row = (&'static str, Option<u64>, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const TABLE: &[Row] = &[
    ("gw4-summary", None, 5205, 0x05ed796e58c90386, 10410, 356, 476),
    ("gw3-wire", None, 885, 0xaa8861736ac2ba80, 1770, 119, 119),
    ("acl-dfs", Some(0), 224, 0xf86830481332c7a9, 670, 192, 192),
    ("acl-dfs", Some(1), 272, 0xd616f420d5883da0, 814, 192, 192),
    ("acl-dfs", Some(2), 215, 0xaef4365bc3911cb9, 643, 192, 192),
    ("acl-dfs", Some(3), 217, 0xec739e51a1110fd2, 649, 188, 192),
    ("acl-dfs", Some(4), 227, 0xf1bdfc6f72eb202a, 679, 192, 192),
    ("acl-dfs", Some(5), 224, 0x28010aaedc58690b, 670, 192, 192),
    ("acl-dfs", Some(6), 275, 0xa20b6b94ba9db05b, 823, 192, 192),
    ("acl-dfs", Some(7), 242, 0xaf73820077c84abf, 724, 192, 192),
    ("acl-dfs", Some(8), 221, 0xad801fa9e873e869, 661, 192, 192),
    ("acl-dfs", Some(9), 245, 0x4d59884f7a25fd6c, 733, 192, 192),
    ("acl-dfs", Some(10), 254, 0xd7ca282b112aa2e1, 760, 192, 192),
    ("acl-dfs", Some(11), 245, 0x20e6e5d41dfb9576, 733, 192, 192),
    ("acl-dfs", Some(12), 230, 0x0fe284b8a7c86b03, 688, 192, 192),
    ("acl-dfs", Some(13), 230, 0x6bea8f137a4761f2, 688, 192, 192),
    ("acl-dfs", Some(14), 215, 0x30ff53d3432066bf, 643, 192, 192),
    ("acl-dfs", Some(15), 236, 0x300854f19f877c38, 706, 192, 192),
    ("acl-dfs", Some(16), 215, 0x049d314e65b324dd, 643, 192, 192),
    ("acl-dfs", Some(17), 219, 0x4ec9c332814a7406, 655, 187, 192),
    ("acl-dfs", Some(18), 236, 0x7758aa5bbaeb1287, 706, 192, 192),
    ("acl-dfs", Some(19), 212, 0x951c1b18e7cece82, 634, 192, 192),
    ("acl-dfs", Some(20), 221, 0xdcf1d26dd2f59db5, 661, 192, 192),
    ("acl-dfs", Some(21), 215, 0xd10307a8e64c4ac7, 643, 192, 192),
    ("acl-dfs", Some(22), 233, 0x68ad6a12de37bda4, 697, 192, 192),
    ("acl-dfs", Some(23), 239, 0xdeea52948e7d5a4b, 715, 192, 192),
    ("acl-dfs", Some(24), 236, 0x5ccc5ea8f2028a63, 706, 192, 192),
    ("acl-dfs", Some(25), 215, 0xfc72db0145e3d389, 643, 192, 192),
    ("acl-dfs", Some(26), 263, 0xcf73c2341cbdda4b, 787, 192, 192),
    ("acl-dfs", Some(27), 236, 0xfee7422405420d22, 706, 192, 192),
    ("acl-dfs", Some(28), 215, 0x4b0cae04093ae37d, 643, 192, 192),
    ("acl-dfs", Some(29), 260, 0x25a42c2fe3eb86f6, 778, 192, 192),
    ("acl-dfs", Some(30), 275, 0x7686e50e2c8b8515, 823, 192, 192),
    ("acl-dfs", Some(31), 224, 0xbeb92e5448c5ac5c, 670, 192, 192),
    ("acl-dfs", Some(32), 222, 0x3a2c129fe7f93fd1, 664, 187, 192),
    ("acl-dfs", Some(33), 236, 0x010a73170e91cb23, 706, 192, 192),
    ("acl-dfs", Some(34), 200, 0x825034c54f5672de, 598, 192, 192),
    ("acl-dfs", Some(35), 194, 0x2692dacff173bff7, 580, 192, 192),
    ("acl-dfs", Some(36), 244, 0xd38cc38f401e5e1a, 730, 192, 192),
    ("acl-dfs", Some(37), 221, 0xc3c0afcad947b563, 661, 192, 192),
    ("acl-dfs", Some(38), 236, 0x8c7e3582d4d77eab, 706, 192, 192),
    ("acl-dfs", Some(39), 251, 0x1d52b1009a58fd92, 751, 192, 192),
    ("acl-dfs", Some(40), 236, 0x2abda36fee870ae4, 706, 192, 192),
    ("acl-dfs", Some(41), 203, 0xa23dac673c49c34e, 607, 189, 192),
    ("acl-dfs", Some(42), 209, 0xc2048e06272ed12f, 625, 192, 192),
    ("acl-dfs", Some(43), 255, 0x0cb40fc7d1839635, 763, 190, 192),
    ("acl-dfs", Some(44), 230, 0x722d2f2a293ed8f0, 688, 192, 192),
    ("acl-dfs", Some(45), 206, 0x67595adda8c0d442, 616, 192, 192),
    ("acl-dfs", Some(46), 224, 0xbfe99e05bdc5bd50, 670, 192, 192),
    ("acl-dfs", Some(47), 251, 0xc1db12680741083c, 751, 192, 192),
    ("acl-dfs", Some(48), 258, 0xc503ec154413ae54, 772, 190, 192),
    ("acl-dfs", Some(49), 251, 0xe97f6ca28231f157, 751, 192, 192),
    ("acl-dfs", Some(50), 221, 0xd33a45d9c72a5a61, 661, 192, 192),
    ("acl-dfs", Some(51), 209, 0x057ed67ef89e08fe, 625, 192, 192),
    ("acl-dfs", Some(52), 221, 0x54ddae1e0030f2dd, 661, 192, 192),
    ("acl-dfs", Some(53), 227, 0xf03ccda515f632c0, 679, 192, 192),
    ("acl-dfs", Some(54), 212, 0x5d1f5f17d6b4758d, 634, 192, 192),
    ("acl-dfs", Some(55), 215, 0x5c2f979b41db13d5, 643, 192, 192),
    ("acl-dfs", Some(56), 251, 0x4be3ed4ef33d2e87, 751, 192, 192),
    ("acl-dfs", Some(57), 245, 0x2d4729ee42e9221d, 733, 192, 192),
    ("acl-dfs", Some(58), 235, 0x3fdadbbbeb1cc260, 703, 191, 192),
    ("acl-dfs", Some(59), 251, 0x18bac6ba3b897203, 751, 192, 192),
    ("acl-dfs", Some(60), 233, 0xee896cc099cfdf13, 697, 192, 192),
    ("acl-dfs", Some(61), 235, 0x1db8a3bb4aad292c, 703, 188, 192),
    ("acl-dfs", Some(62), 209, 0xfbf837413afad01c, 625, 192, 192),
    ("acl-dfs", Some(63), 194, 0x6aeb3b900e38c624, 580, 192, 192),
    ("acl-dfs", Some(64), 215, 0x7dfcea0853ea8b7f, 643, 192, 192),
    ("acl-dfs", Some(65), 215, 0x77f66649acaccf18, 643, 192, 192),
    ("acl-dfs", Some(66), 218, 0x6a07acc9f4f91ee8, 652, 192, 192),
    ("acl-dfs", Some(67), 221, 0xe81b16258e7dae8d, 661, 192, 192),
    ("acl-dfs", Some(68), 275, 0xe73aa8d8129d0b5b, 823, 192, 192),
    ("acl-dfs", Some(69), 227, 0x86a9816593b9beb2, 679, 192, 192),
    ("acl-dfs", Some(70), 272, 0xb8ac29fdda18eb93, 814, 192, 192),
    ("acl-dfs", Some(71), 200, 0xba23a4b8c0e9ee01, 598, 192, 192),
    ("acl-dfs", Some(72), 230, 0x0a5b51d0530e6d96, 688, 192, 192),
    ("acl-dfs", Some(73), 269, 0xb744f61dc25b4e5a, 805, 192, 192),
    ("acl-dfs", Some(74), 194, 0x34b9c31120fb72a1, 580, 192, 192),
    ("acl-dfs", Some(75), 230, 0x16dd12fbe83d5f54, 688, 192, 192),
    ("acl-dfs", Some(76), 233, 0xa4dd7c6146687442, 697, 192, 192),
    ("acl-dfs", Some(77), 224, 0xde6aac6c157221ca, 670, 192, 192),
    ("acl-dfs", Some(78), 206, 0x49220c03cb9f2aa0, 616, 192, 192),
    ("acl-dfs", Some(79), 226, 0x20b38ca3c36ffd7b, 676, 191, 192),
    ("acl-dfs", Some(80), 226, 0x41a88fe5a2477ea8, 676, 189, 192),
    ("acl-dfs", Some(81), 230, 0x96170ae9d9d9ba5a, 688, 192, 192),
    ("acl-dfs", Some(82), 232, 0x912720421a9d06cd, 694, 188, 192),
    ("acl-dfs", Some(83), 218, 0xb27ecfde3d7f6e05, 652, 189, 192),
    ("acl-dfs", Some(84), 242, 0x80c636e6a36ad7a9, 724, 192, 192),
    ("acl-dfs", Some(85), 245, 0x33f104669085edc3, 733, 192, 192),
    ("acl-dfs", Some(86), 223, 0x05e5783cbe444ff1, 667, 191, 192),
    ("acl-dfs", Some(87), 242, 0x355af022de9b4b3b, 724, 192, 192),
    ("acl-dfs", Some(88), 227, 0x6ed839572307536f, 679, 192, 192),
    ("acl-dfs", Some(89), 239, 0xb025230a5a824489, 715, 192, 192),
    ("acl-dfs", Some(90), 245, 0x052cc006897a163f, 733, 192, 192),
    ("acl-dfs", Some(91), 230, 0xaa34dd04ba0bfbab, 688, 192, 192),
    ("acl-dfs", Some(92), 194, 0xe8b469e0003ec276, 580, 192, 192),
    ("acl-dfs", Some(93), 194, 0x5974115b3fc6801c, 580, 192, 192),
    ("acl-dfs", Some(94), 236, 0x22c8f5d12682de7d, 706, 192, 192),
    ("acl-dfs", Some(95), 236, 0xf01c1cf8b9a39213, 706, 192, 192),
    ("acl-dfs", Some(96), 242, 0x778d2e60b6400790, 724, 192, 192),
    ("acl-dfs", Some(97), 221, 0x75ba34e073981776, 661, 192, 192),
    ("acl-dfs", Some(98), 242, 0x5786f3a91d401675, 724, 192, 192),
    ("acl-dfs", Some(99), 239, 0xc15f751d58561c45, 715, 192, 192),
    ("acl-dfs", Some(100), 215, 0x0ad9ea5b4fbc35e5, 643, 192, 192),
    ("acl-dfs", Some(101), 230, 0x2f1838dd4d9e5335, 688, 192, 192),
    ("acl-dfs", Some(102), 227, 0xad1f1f2f015655c0, 679, 192, 192),
    ("acl-dfs", Some(103), 215, 0x5a8ea81784401925, 643, 192, 192),
    ("acl-dfs", Some(104), 215, 0x835360d60c7cfcf9, 643, 192, 192),
    ("acl-dfs", Some(105), 242, 0xe9f59bac7463ce15, 724, 192, 192),
    ("acl-dfs", Some(106), 221, 0x08ed788813de03f6, 661, 192, 192),
    ("acl-dfs", Some(107), 230, 0xd9394662ba951b5e, 688, 192, 192),
    ("acl-dfs", Some(108), 236, 0xa6bb85facc80ac36, 706, 192, 192),
    ("acl-dfs", Some(109), 206, 0x5f8b39e0eafb33b2, 616, 192, 192),
    ("acl-dfs", Some(110), 215, 0xc8bb0067e197e83e, 643, 192, 192),
    ("acl-dfs", Some(111), 236, 0xb80bfbb773bbdf5a, 706, 192, 192),
    ("acl-dfs", Some(112), 221, 0x38c524e137cb40f3, 661, 192, 192),
    ("acl-dfs", Some(113), 211, 0x2f4847e4eece3fe5, 631, 191, 192),
    ("acl-dfs", Some(114), 230, 0x94dddb8876ceac03, 688, 192, 192),
    ("acl-dfs", Some(115), 221, 0xafca60cfd3df2a95, 661, 192, 192),
    ("acl-dfs", Some(116), 212, 0xd17efd984c59cc81, 634, 192, 192),
    ("acl-dfs", Some(117), 266, 0x7d83c7e20f5b28ab, 796, 183, 192),
    ("acl-dfs", Some(118), 232, 0x2cc363c520d332f3, 694, 191, 192),
    ("acl-dfs", Some(119), 224, 0x01a40bfbaeb40bf7, 670, 192, 192),
    ("acl-dfs", Some(120), 227, 0xa3a186ee2d2f2e77, 679, 192, 192),
    ("acl-dfs", Some(121), 224, 0xa2b58d0ac85394aa, 670, 192, 192),
    ("acl-dfs", Some(122), 239, 0x6f87650980d304c4, 715, 192, 192),
    ("acl-dfs", Some(123), 233, 0x6edd9c3f2df2484a, 697, 192, 192),
    ("acl-dfs", Some(124), 245, 0xa8e4f94a7031c63f, 733, 192, 192),
    ("acl-dfs", Some(125), 215, 0xc2ad2f5697f3e735, 643, 192, 192),
    ("acl-dfs", Some(126), 209, 0x39dff63fe6baac67, 625, 192, 192),
    ("acl-dfs", Some(127), 239, 0xe373f5c5576400e1, 715, 192, 192),
    ("acl-dfs", Some(31676), 266, 0xaffc006947c2b2a7, 796, 192, 192),
    ("acl-dfs", Some(31677), 230, 0x8c6479e252eb0a89, 688, 192, 192),
    ("acl-dfs", Some(31678), 245, 0xd706a9640842f432, 733, 192, 192),
    ("acl-dfs", Some(31679), 200, 0x80c8f9c200e4eee8, 598, 192, 192),
];

/// The recorded output for `kind` at rule-draw seed `draw_seed`, if any.
pub fn lookup(kind: Kind, draw_seed: Option<u64>) -> Option<Golden> {
    TABLE
        .iter()
        .find(|r| r.0 == kind.name() && r.1 == draw_seed)
        .map(
            |&(_, _, templates, fingerprint, cases, rules_hit, rules_total)| Golden {
                templates,
                fingerprint,
                cases,
                rules_hit,
                rules_total,
            },
        )
}
