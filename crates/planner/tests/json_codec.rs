//! The JSON codec's integer fast paths give exactly the answers of the
//! general number path: every integer text parses to what a naive
//! `str::parse::<i64>`-then-`f64` reading gives, and every value renders to
//! text that parses back to itself.

use proptest::prelude::*;
use smoke_planner::json::{parse, Json, MAX_DEPTH};

/// The reference reading of one number token: `i64` if it parses as one,
/// else `f64`, else an error. A token JSON cannot start with (`+`, `.`) is
/// an error whatever Rust's parsers accept.
fn reference(text: &str) -> Option<Json> {
    let t = text.trim_matches(|c| matches!(c, ' ' | '\t' | '\n' | '\r'));
    if !t.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
        return None;
    }
    t.parse::<i64>()
        .map(Json::Int)
        .ok()
        .or_else(|| t.parse::<f64>().ok().map(Json::Num))
}

fn check(text: &str) {
    assert_eq!(parse(text).ok(), reference(text), "parsing {text:?}");
}

/// Number-ish text: mostly digits, with signs, dots, exponents and a stray
/// letter mixed in.
fn token(picks: &[usize]) -> String {
    const ALPHABET: &[u8] = b"0123456789012345678901234567890123456789-.eE+a";
    picks
        .iter()
        .map(|&p| char::from(ALPHABET[p % ALPHABET.len()]))
        .collect()
}

/// `n` decimal digits drawn from `seed`, leading zeros allowed.
fn digits(seed: u64, n: usize) -> String {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            char::from(b'0' + (s >> 59) as u8 % 10)
        })
        .collect()
}

const SPACES: [&str; 4] = ["", " ", "\n\t", "  \r"];

#[test]
fn edge_case_integers_match_the_reference() {
    let min = i64::MIN.to_string();
    let max = i64::MAX.to_string();
    let cases = [
        "0",
        "-0",
        "007",
        "-007",
        "000000000000000000",
        min.as_str(),
        max.as_str(),
        "-9223372036854775809",
        "9223372036854775808",
        "123456789012345678",
        "-123456789012345678",
        "999999999999999999",
        "1234567890123456789",
        "12345678901234567890",
        "-12345678901234567890",
        "1e3",
        "1E3",
        "1.5",
        "-1.5",
        "1e+3",
        "1-2",
        "-",
        "--1",
        "12a",
        "+5",
        ".5",
        "5.",
        " 42 ",
    ];
    for text in cases {
        check(text);
    }
    assert_eq!(parse(&min).unwrap(), Json::Int(i64::MIN));
    assert_eq!(parse(&max).unwrap(), Json::Int(i64::MAX));
    assert_eq!(
        parse("12345678901234567890").unwrap(),
        Json::Num(12345678901234567890.0)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn integer_text_parses_like_the_reference(
        len in 1usize..22,
        seed in 0u64..u64::MAX,
        negative in 0u8..2,
        noise in prop::collection::vec(0usize..47, 0..24),
    ) {
        let sign = if negative == 1 { "-" } else { "" };
        check(&format!("{sign}{}", digits(seed, len)));
        check(&token(&noise));
    }

    #[test]
    fn arrays_parse_like_the_reference(
        items in prop::collection::vec(
            (prop::collection::vec(0usize..47, 1..22), 0usize..4, 0usize..4),
            1..12,
        ),
    ) {
        let mut text = String::from("[");
        let mut want = Some(Vec::new());
        for (i, (picks, before, after)) in items.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            let item = token(picks);
            text.push_str(SPACES[*before]);
            text.push_str(&item);
            text.push_str(SPACES[*after]);
            want = want.zip(reference(&item)).map(|(mut v, x)| {
                v.push(x);
                v
            });
        }
        text.push(']');
        prop_assert_eq!(parse(&text).ok(), want.map(Json::Arr), "parsing {:?}", text);
    }

    #[test]
    fn integers_render_like_format(i in i64::MIN..i64::MAX, small in -1000i64..1000) {
        for v in [i, small, i64::MIN, i64::MAX, 0] {
            prop_assert_eq!(Json::Int(v).render(), format!("{v}"));
        }
    }

    #[test]
    fn nested_values_round_trip(
        cells in prop::collection::vec((0u8..5, i64::MIN..i64::MAX), 0..40),
        rows in 1usize..4,
    ) {
        let mixed: Vec<Json> = cells
            .iter()
            .map(|&(kind, i)| match kind {
                0 => Json::Int(i),
                1 => Json::Int(i % 1_000),
                2 => Json::Num((i % 1_000_000) as f64 + 0.25),
                3 => Json::str(format!("s\"{i}\n")),
                _ => Json::Arr(vec![Json::Int(-(i % 97).abs()), Json::Null]),
            })
            .collect();
        let v = Json::obj([
            ("rids", Json::Arr(mixed.clone())),
            ("rows", Json::Arr(vec![Json::Arr(mixed); rows])),
            ("n", Json::Bool(rows > 1)),
        ]);
        let text = v.render();
        prop_assert_eq!(parse(&text).unwrap(), v);
        // Whitespace around every separator reads the same.
        let spaced = text.replace(',', " ,\n").replace(']', " ]");
        prop_assert_eq!(parse(&spaced).unwrap(), parse(&text).unwrap());
    }
}

#[test]
fn nesting_is_capped_with_a_typed_error() {
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(parse(&nest(MAX_DEPTH)).is_ok());
    let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err().to_string();
    assert!(err.contains("nesting"), "{err}");
    // Far past the cap the parser stops at the cap, not at a stack overflow.
    assert!(parse(&"[".repeat(100_000)).is_err());
    let objects = format!(
        "{}1{}",
        "{\"a\":".repeat(MAX_DEPTH + 1),
        "}".repeat(MAX_DEPTH + 1)
    );
    assert!(parse(&objects).is_err());
}
