//! The `--exp diagnose` golden, pinned under `cargo test`: core's
//! renderer must reproduce the checked-in matrix byte for byte. `repro`
//! and `cnetverifier diagnose` both print through it.

#[test]
fn render_diagnosis_matches_the_golden_body() {
    let golden = include_str!("../golden/diagnose_matrix.txt");
    // Skip `repro`'s section banner: a blank line, a rule, the title and
    // a rule.
    let body: String = golden.split_inclusive('\n').skip(4).collect();
    let rendered = cnetverifier::render_diagnosis(&cnetverifier::diagnose(2014));
    assert_eq!(rendered, body);
}
