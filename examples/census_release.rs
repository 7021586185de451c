//! Efficient data release (§1.1.2): a curator publishes a small itemset
//! sketch instead of full marginal contingency tables.
//!
//! Categorical demographic attributes are decomposed into binary ones
//! (footnote 1 of the paper); any k-way marginal cell is then a conjunction
//! of binary attributes, i.e. an itemset frequency query.
//!
//! Run with: `cargo run --release --example census_release`

use itemset_sketches::database::generators::{categorical_predicate, categorical_to_binary};
use itemset_sketches::prelude::*;

fn main() {
    let mut rng = Rng64::seeded(1790);

    // Synthetic census microdata: (age-band, education, region, employed).
    let cardinalities = [8u32, 4, 16, 2];
    let n = 400_000;
    let rows: Vec<Vec<u32>> = (0..n)
        .map(|_| {
            let age = rng.below(8) as u32;
            let edu = ((age as usize).min(3).max(rng.below(4))) as u32; // older skews educated
            let region = rng.below(16) as u32;
            // Employment correlates with education.
            let employed = u32::from(rng.bernoulli(0.4 + 0.15 * edu as f64));
            vec![age, edu, region, employed]
        })
        .collect();
    let db = categorical_to_binary(&rows, &cardinalities);
    println!(
        "microdata: {} records, {} categorical attributes -> {} binary attributes",
        n,
        cardinalities.len(),
        db.dims()
    );

    // Release: a For-All-Estimator sketch answering every conjunction of up
    // to 6 binary predicates — enough for any 2-way marginal cell here and
    // for the 3-way (age, edu, employed) cell below.
    let params = SketchParams::new(6, 0.01, 0.05);
    let sketch = Subsample::build(&db, &params, Guarantee::ForAllEstimator, &mut rng);
    let full = ReleaseDb::build(&db, params.epsilon).size_bits();
    println!(
        "released sketch: {} rows, {} bits ({:.1}% of the microdata's RELEASE-DB frame)",
        sketch.rows(),
        sketch.size_bits(),
        100.0 * sketch.size_bits() as f64 / full as f64
    );

    // A user reconstructs the (education × employed) marginal table.
    println!("\nmarginal table: education x employed (cell = fraction of records)");
    println!("{:<12} {:>18} {:>18}", "education", "unemployed", "employed");
    let mut worst = 0.0f64;
    for edu in 0..4u32 {
        let mut cells = Vec::new();
        for emp in 0..2u32 {
            let query = categorical_predicate(&cardinalities, 1, edu)
                .union(&categorical_predicate(&cardinalities, 3, emp));
            let est = sketch.estimate(&query);
            let truth = db.frequency(&query);
            worst = worst.max((est - truth).abs());
            cells.push(format!("{est:.4} ({truth:.4})"));
        }
        println!("{:<12} {:>18} {:>18}", format!("level {edu}"), cells[0], cells[1]);
    }
    println!("(cells show: estimate (truth); worst error {worst:.4}, ε = {})", params.epsilon);

    // Three-way marginal query: P(age=5, edu=3, employed=1).
    let q = categorical_predicate(&cardinalities, 0, 5)
        .union(&categorical_predicate(&cardinalities, 1, 3))
        .union(&categorical_predicate(&cardinalities, 3, 1));
    println!(
        "\n3-way cell (age=5, edu=3, employed): estimate {:.4}, truth {:.4}, |query| = {} items",
        sketch.estimate(&q),
        db.frequency(&q),
        q.len()
    );

    // Why not release the marginal tables themselves? Count the cells.
    let pairs = cardinalities.len() * (cardinalities.len() - 1) / 2;
    let cells: u64 = {
        let mut total = 0u64;
        for i in 0..cardinalities.len() {
            for j in (i + 1)..cardinalities.len() {
                total += (cardinalities[i] * cardinalities[j]) as u64;
            }
        }
        total
    };
    println!(
        "\nall {pairs} pairwise marginal tables hold {cells} cells; the sketch answers them \
         all (and every marginal expressible in ≤ 6 binary predicates) from {} bits",
        sketch.size_bits()
    );
}
