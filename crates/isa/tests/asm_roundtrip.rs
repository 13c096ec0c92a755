//! Round-trip and diagnostic properties of the `.gasm` front end.
//!
//! The printer and the parser are two descriptions of the same format;
//! these tests keep them from drifting: any behavioural [`Program`] the
//! builder can express must survive `print_gasm` → `parse` → `to_program`
//! bit-identically (same blocks, edges, behaviours, seed), the printed
//! text itself must be a fixed point, and the parser's typed errors must
//! land on the right line and column.

use gals_isa::{parse, print_gasm, AsmErrorKind};
use proptest::prelude::*;

#[path = "support/random_program.rs"]
mod random_program;
use random_program::random_program;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// print → parse → link is the identity on behavioural programs, and
    /// the printed text is a fixed point of the round trip.
    #[test]
    fn print_parse_roundtrip_is_identity(seed in 1u64..1_000_000u64) {
        let program = random_program(seed);
        let text = print_gasm(&program);
        let module = parse(&text)
            .unwrap_or_else(|e| panic!("printed program must parse: {e}\n{text}"));
        prop_assert!(!module.has_architectural_ops());
        let back = module
            .to_program(program.seed())
            .unwrap_or_else(|e| panic!("printed program must link: {e}\n{text}"));
        prop_assert_eq!(&back, &program);
        // Printing the reparsed program reproduces the text exactly.
        prop_assert_eq!(print_gasm(&back), text);
    }
}

#[test]
fn undefined_label_reports_the_target_position() {
    let err = parse(
        "\
.entry main
.brbeh b0 prob 0.5
main:
    addi r1, r1, 1
    br.cond r1, nowhere @b0
",
    )
    .expect_err("undefined label must not parse");
    assert_eq!(err.kind, AsmErrorKind::UndefinedLabel("nowhere".into()));
    assert_eq!((err.line, err.col), (5, 17));
    assert!(err.to_string().contains("line 5:17"), "{err}");
}

#[test]
fn branch_into_mid_block_is_rejected_with_position() {
    let err = parse(
        "\
.entry main
main:
    addi r1, r1, 1
    addi r2, r2, 1
    beqz r1, main+1
",
    )
    .expect_err("mid-block target must not parse");
    assert!(
        matches!(err.kind, AsmErrorKind::BranchIntoMidBlock(_)),
        "{err:?}"
    );
    assert_eq!(err.line, 5);
}

#[test]
fn malformed_operands_carry_line_and_column() {
    // A load without its offset(base) address form.
    let err = parse(
        "\
.entry main
main:
    ld r1, r2
    ret
",
    )
    .expect_err("malformed operand must not parse");
    assert!(
        matches!(err.kind, AsmErrorKind::MalformedOperand(_)),
        "{err:?}"
    );
    assert_eq!(err.line, 3);
    assert!(err.col > 1);

    // An out-of-range register.
    let err = parse(
        "\
.entry main
main:
    addi r32, r1, 1
    ret
",
    )
    .expect_err("r32 must not parse");
    assert!(matches!(err.kind, AsmErrorKind::BadRegister(_)), "{err:?}");
    assert_eq!(err.line, 3);

    // An unknown mnemonic names itself.
    let err = parse(
        "\
.entry main
main:
    frobnicate r1
",
    )
    .expect_err("unknown mnemonic must not parse");
    assert!(
        matches!(err.kind, AsmErrorKind::UnknownMnemonic(_)),
        "{err:?}"
    );
    assert_eq!((err.line, err.col), (3, 5));
}
