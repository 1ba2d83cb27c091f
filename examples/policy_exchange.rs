//! The §8 workflow: implementations are proprietary, but vendors share
//! *extracted security policies* — compiled `.spi` indexes — and anyone
//! can run the oracle over the two index files alone.
//!
//! ```text
//! cargo run --example policy_exchange
//! ```

use spo_core::{diff_pair, render_reports, AnalysisOptions, Analyzer};
use spo_corpus::{figures::FIGURE1, Lib};
use spo_index::{IndexBuilder, PolicyIndex};

/// What a vendor publishes: its full analysis and the intraprocedural
/// ablation (which root-cause grouping diffs against), in one index.
fn publish(lib: Lib, name: &str) -> Result<Vec<u8>, String> {
    let program = FIGURE1.program(lib);
    let options = AnalysisOptions::default();
    let full = Analyzer::new(&program, options).analyze_library(name);
    let intra = AnalysisOptions {
        interprocedural: false,
        ..options
    };
    let intra = Analyzer::new(&program, intra).analyze_library(name);
    IndexBuilder::new(name, &options, &full, &intra).build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Vendor 1 (JDK-like) extracts and publishes its policies.
    let published = publish(Lib::Jdk, "jdk")?;
    let jdk = PolicyIndex::parse(&published)?;
    println!(
        "--- vendor 1 publishes a {}-byte index of {} entry points, e.g. ---",
        published.len(),
        jdk.len()
    );
    let connect = "java.net.DatagramSocket.connect(java.net.InetAddress,int)";
    print!("{}", jdk.query(connect)?.expect("connect is indexed"));

    // Vendor 2 (Harmony-like) does the same; neither ever sees the other's
    // source code.
    let received = publish(Lib::Harmony, "harmony")?;

    // Anyone holding both index files can run the oracle.
    let (left_full, left_intra) = jdk.to_libraries()?;
    let (right_full, right_intra) = PolicyIndex::parse(&received)?.to_libraries()?;
    let (diff, groups) = diff_pair((&left_full, &left_intra), (&right_full, &right_intra));
    println!("\n--- differencing the two index files ---\n");
    println!("{}", render_reports(&diff, &groups));

    assert_eq!(groups.len(), 1);
    println!(
        "The Figure 1 vulnerability surfaced from policy indexes alone —\n\
         no source code crossed the boundary."
    );
    Ok(())
}
