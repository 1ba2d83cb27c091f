//! Figure 5: JDK's `Runtime.loadLibrary` performs only `checkLink`, while
//! GNU Classpath also performs `checkRead` before loading a native library.
//! Detecting the missing check requires *interprocedural* analysis: the
//! checks live two calls below the API entry point, and the two
//! implementations structure their internals completely differently
//! (`ClassLoader.loadLibrary0 → NativeLibrary.load` vs
//! `loadLib → VMRuntime.nativeLoad`).
//!
//! ```text
//! cargo run --example load_library
//! ```

use security_policy_oracle::compare_implementations;
use spo_core::{AnalysisOptions, Check, RootCause};
use spo_corpus::{figures::FIGURE5, Lib};

fn main() {
    let jdk = FIGURE5.program(Lib::Jdk);
    let classpath = FIGURE5.program(Lib::Classpath);

    let report = compare_implementations(
        &jdk,
        "jdk",
        &classpath,
        "classpath",
        AnalysisOptions::default(),
    );
    println!("{}", report.render());

    let vuln = report
        .groups
        .iter()
        .find(|g| g.representative.delta.contains(Check::Read))
        .expect("the checkRead difference must be reported");
    assert_eq!(vuln.cause, RootCause::Interprocedural);
    println!(
        "JDK returns from Runtime.loadLibrary having called only checkLink;\n\
         Classpath also calls checkRead (inside {}). An intraprocedural\n\
         analysis would never see it — the oracle classifies the root cause\n\
         as {}.",
        vuln.representative
            .origins
            .iter()
            .next()
            .map_or("?", |o| &**o),
        vuln.cause,
    );

    // Show the ablation explicitly: an intraprocedural-only analysis
    // reports nothing here.
    let intra = compare_implementations(
        &jdk,
        "jdk",
        &classpath,
        "classpath",
        AnalysisOptions {
            interprocedural: false,
            ..Default::default()
        },
    );
    println!(
        "\nIntraprocedural-only ablation reports {} difference(s) for this API.",
        intra
            .groups
            .iter()
            .filter(|g| g.representative.delta.contains(Check::Read))
            .count()
    );
}
