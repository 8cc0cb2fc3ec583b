//! `cnetverifier` — the diagnosis tool as a command-line program.
//!
//! ```text
//! cnetverifier screen   [--remedied] [--json]       # phase 1
//! cnetverifier validate [--seed N]   [--json]       # phase 2 (monitor verdicts)
//! cnetverifier diagnose [--seed N]   [--json]       # both phases + classification
//! cnetverifier sample   [--walks N] [--seed N]      # §3.2.1 random sampling
//! cnetverifier report                               # Tables 1/2/3/4 + insights
//! ```
//!
//! An unknown flag, a missing value or a value that is not a number exits
//! 2 with a message naming the flag.

use std::collections::HashMap;

use cnetverifier::scenario::UsageModel;
use cnetverifier::{props, validate_all, Execution, ScreenPlan};
use mck::RandomWalk;

const USAGE: &str = "usage: cnetverifier <screen [--remedied] [--json] | \
                     validate [--seed N] [--json] | diagnose [--seed N] [--json] | \
                     sample [--walks N] [--seed N] | report>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args
        .split_first()
        .unwrap_or_else(|| fail("missing command"));
    let (switches, numeric): (&[&str], &[&str]) = match cmd.as_str() {
        "screen" => (&["--remedied", "--json"], &[]),
        "validate" | "diagnose" => (&["--json"], &["--seed"]),
        "sample" => (&[], &["--walks", "--seed"]),
        "report" => (&[], &[]),
        other => fail(&format!("unknown command `{other}`")),
    };
    let mut given = Vec::new();
    let mut values = HashMap::new();
    let mut it = rest.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        if switches.contains(&arg) {
            given.push(arg);
        } else if numeric.contains(&arg) {
            let v = it
                .next()
                .unwrap_or_else(|| fail(&format!("{arg} needs a value")));
            let n: u64 = v
                .parse()
                .unwrap_or_else(|_| fail(&format!("{arg}: `{v}` is not a number")));
            values.insert(arg, n);
        } else {
            fail(&format!("unknown argument `{arg}`"));
        }
    }
    let flag = |name: &str| given.contains(&name);
    let value = |name: &str, default: u64| values.get(name).copied().unwrap_or(default);

    match cmd.as_str() {
        "screen" => screen(flag("--remedied"), flag("--json")),
        "validate" => validate(value("--seed", 2014), flag("--json")),
        "diagnose" => diagnose(value("--seed", 2014), flag("--json")),
        "sample" => sample(value("--walks", 2_000) as usize, value("--seed", 0xCE11)),
        _ => report(),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("cnetverifier: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn screen(remedied: bool, json: bool) {
    let plan = if remedied {
        ScreenPlan::remedied()
    } else {
        ScreenPlan::paper()
    };
    let report = plan.run(Execution::Concurrent);
    if json {
        let findings: Vec<_> = report.findings().collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&findings).expect("findings serialize")
        );
        return;
    }
    print!("{}", cnetverifier::render_screening(&report));
    if !remedied && report.findings().count() == 0 {
        std::process::exit(1); // screening is expected to find S1-S4
    }
}

fn validate(seed: u64, json: bool) {
    let outcomes = validate_all(seed);
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&outcomes).expect("outcomes serialize")
        );
        return;
    }
    print!("{}", cnetverifier::render_validation(&outcomes));
}

fn diagnose(seed: u64, json: bool) {
    let diagnoses = cnetverifier::diagnose(seed);
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&diagnoses).expect("diagnoses serialize")
        );
        return;
    }
    print!("{}", cnetverifier::render_diagnosis(&diagnoses));
}

fn sample(walks: usize, seed: u64) {
    println!("sampling {walks} usage scenarios (seed {seed})...");
    let report = RandomWalk::seeded(seed)
        .walks(walks)
        .max_steps(12)
        .run(&UsageModel::paper());
    for prop in props::ALL {
        println!("  {:<18} violated in {} walks", prop, report.violations_of(prop));
    }
    if let Some(witness) = report.witness(props::PACKET_SERVICE_OK) {
        use mck::Model;
        let model = UsageModel::paper();
        println!("\none witness for {}:", props::PACKET_SERVICE_OK);
        for (i, a) in witness.actions().enumerate() {
            println!("  {:>2}. {}", i + 1, model.format_action(a));
        }
    }
}

fn report() {
    println!("{}", cnetverifier::report::table1());
    println!("{}", cnetverifier::report::table2());
    println!("{}", cnetverifier::report::table3());
    println!("{}", cnetverifier::report::table4());
    for ins in cnetverifier::INSIGHTS {
        println!("Insight {} ({}): {}", ins.number, ins.instance, ins.text);
    }
    println!();
    for lesson in cnetverifier::LESSONS {
        println!("[{}] {}", lesson.dimension, lesson.text);
    }
}
