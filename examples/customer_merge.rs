//! Merging a customer table with its address table, and a look under the
//! hood at bounded equivalence checking and minimum failing inputs.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example customer_merge
//! ```

use dbir::equiv::{compare_programs, TestConfig};
use dbir::parser::parse_program;
use dbir::pretty::program_to_string;
use dbir::Schema;
use migrator::{SynthesisConfig, Synthesizer};

fn main() {
    let source_schema = Schema::parse(
        "Customer(cid: int, name: string, tier: string)\n\
         Address(cid: int, street: string, city: string)",
    )
    .expect("schema parses");
    let target_schema = Schema::parse(
        "Customer(cid: int, name: string, tier: string, street: string, city: string)",
    )
    .expect("schema parses");

    let source = parse_program(
        r#"
        update addCustomer(cid: int, name: string, tier: string, street: string, city: string)
            INSERT INTO Customer JOIN Address VALUES (Customer.cid: cid, name: name, tier: tier,
                                                      street: street, city: city);
        update deleteCustomer(cid: int)
            DELETE Customer, Address FROM Customer JOIN Address WHERE Customer.cid = cid;
        update upgradeTier(cid: int, newTier: string)
            UPDATE Customer SET tier = newTier WHERE cid = cid;
        query getCustomer(cid: int)
            SELECT name, tier FROM Customer WHERE cid = cid;
        query getShippingAddress(cid: int)
            SELECT street, city FROM Customer JOIN Address WHERE Customer.cid = cid;
        "#,
        &source_schema,
    )
    .expect("program parses");

    let synthesizer = Synthesizer::new(SynthesisConfig::standard());
    let result = synthesizer.synthesize(&source, &source_schema, &target_schema);
    let migrated = result.program.expect("the merge refactoring synthesizes");

    println!("== Synthesized program over the merged schema ==\n");
    println!("{}", program_to_string(&migrated));

    // Demonstrate the testing infrastructure the synthesizer relies on:
    // a wrong candidate (projecting the wrong column) is rejected with a
    // minimum failing input.
    let wrong = parse_program(
        r#"
        update addCustomer(cid: int, name: string, tier: string, street: string, city: string)
            INSERT INTO Customer VALUES (cid: cid, name: name, tier: tier,
                                         street: street, city: city);
        update deleteCustomer(cid: int)
            DELETE Customer FROM Customer WHERE cid = cid;
        update upgradeTier(cid: int, newTier: string)
            UPDATE Customer SET tier = newTier WHERE cid = cid;
        query getCustomer(cid: int)
            SELECT name, city FROM Customer WHERE cid = cid;
        query getShippingAddress(cid: int)
            SELECT street, city FROM Customer WHERE cid = cid;
        "#,
        &target_schema,
    )
    .expect("program parses");

    println!("== Rejecting an incorrect candidate ==\n");
    let report = compare_programs(
        &source,
        &source_schema,
        &wrong,
        &target_schema,
        &TestConfig::default(),
    );
    match report.counterexample {
        Some(minimum_failing_input) => {
            println!("minimum failing input: {minimum_failing_input}");
            println!(
                "(found after executing {} invocation sequences)",
                report.sequences_tested
            );
        }
        None => println!("unexpectedly equivalent"),
    }
}
