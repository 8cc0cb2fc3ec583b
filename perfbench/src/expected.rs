//! Recorded fleet answers for the seeds the benchmark ships.
//!
//! Each workload ships a tuning seed and a held-out seed; a later speed
//! claim is re-checked on the held-out one. For every request seed of
//! those runs the table holds `(events, fingerprint)`, where the
//! fingerprint hashes the streaming report digest and the live tallies.
//! `perfbench --record` regenerates the tables below.

use crate::fleet;

/// (workload, tuning seed, held-out seed).
pub const SHIPPED: [(&str, u64, u64); 4] = [
    ("fleet-bare", 2014, 4102),
    ("fleet-observed", 2014, 4102),
    ("spec-screen", 2014, 4102),
    ("nue-statespace", 2014, 4102),
];

type Table = &'static [(u64, [(u64, u64); fleet::REQUEST_SEEDS as usize])];

const FLEET_BARE: Table = &[
    (
        2014,
        [
            (309443, 0x431ba7a011efa9f8),
            (314719, 0x985a5ed43f9cf8e4),
            (313810, 0x3f26127fb42062a2),
            (315234, 0xa5776d45fe48928e),
            (307814, 0x568ab7ba18bdf9ba),
            (304769, 0xd1ab0514e7ae4c72),
            (303821, 0xc095c48efda7ca1c),
            (301156, 0x1584b6b0da0770f6),
        ],
    ),
    (
        4102,
        [
            (309822, 0x3e23d95262a37b24),
            (298122, 0x0a0c7a84bb25702d),
            (305607, 0x051cba0fff376049),
            (301767, 0x0f420c3499ca01b3),
            (307035, 0x92cfc7e323411d34),
            (315794, 0x5d12123e0e2256f2),
            (320374, 0xd1985c37081520ef),
            (308374, 0xae39e336790a144b),
        ],
    ),
];
const FLEET_OBSERVED: Table = &[
    (
        2014,
        [
            (249744, 0x47b9d0800875bce7),
            (261091, 0x3069e7df21c7a223),
            (263023, 0x75880a6bc2e824e8),
            (261000, 0x0fdfc4abb88ac5b4),
            (251456, 0x544a5cb8e7f49797),
            (253653, 0xa6f62d4640173f14),
            (258526, 0xa3e13e066bb979d2),
            (250835, 0x4b88fa3e7d0749de),
        ],
    ),
    (
        4102,
        [
            (253775, 0x6f61952ba2177e8b),
            (247667, 0xfaeaaa1282368ffc),
            (252706, 0x4c184036690c47aa),
            (245186, 0x7e519d8a7bb5bb3f),
            (257286, 0x3b972fd32af7daf3),
            (255781, 0x23d8be93828d67ba),
            (260271, 0x686d568abbaa77db),
            (259400, 0x53862965572371db),
        ],
    ),
];

/// The recorded answer of request slot `slot` for `seed`, if shipped.
pub fn fleet(workload: &str, seed: u64, slot: u64) -> Option<(u64, u64)> {
    let table = match workload {
        "fleet-bare" => FLEET_BARE,
        "fleet-observed" => FLEET_OBSERVED,
        _ => return None,
    };
    table
        .iter()
        .find(|(s, _)| *s == seed)
        .map(|(_, rows)| rows[slot as usize])
}

/// Print the tables for the shipped seeds.
pub fn record() {
    let sigs = userstudy::study_signatures();
    for (name, arm, konst) in [
        ("fleet-bare", fleet::BARE, "FLEET_BARE"),
        ("fleet-observed", fleet::OBSERVED, "FLEET_OBSERVED"),
    ] {
        let (_, tuning, held_out) = SHIPPED
            .iter()
            .find(|s| s.0 == name)
            .copied()
            .expect("shipped");
        println!("const {konst}: Table = &[");
        for seed in [tuning, held_out] {
            println!("    (\n        {seed},\n        [");
            for r in 0..fleet::REQUEST_SEEDS {
                let o = fleet::run(fleet::config(
                    fleet::request_seed(seed, r),
                    fleet::UES,
                    arm,
                    &sigs,
                ));
                println!("            ({}, 0x{:016x}),", o.events, o.fingerprint);
            }
            println!("        ],\n    ),");
        }
        println!("];");
    }
}
